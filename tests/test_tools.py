"""The repository's report scripts under tools/."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("drift", Path(__file__).resolve().parent.parent / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)


def test_drift_reports_the_largest_difference_at_matching_tokens():
    assert drift.compare(b"t,sx\n0.5,1.0\n", b"t,sx\n0.5,1.0\n") == "identical"
    assert drift.compare(b"t,sx\n0.5,1.0\n1,-2e-3\n", b"t,sx\n0.5,1.25\n1,-2.002e-3\n") == (
        "max abs 0.25 (line 2), max rel 0.2 (line 2) over 4 numbers")
    # JSON values and the numbers inside an acceptance line are tokens too
    assert drift.compare(b'{"rate": 2.0, "ok": true}\n', b'{"rate": 2.5, "ok": false}\n') == (
        "max abs 0.5 (line 1), max rel 0.2 (line 1) over 1 numbers; text differs on 1 lines")
    assert drift.compare(b"PASS - gap 1.5 MHz (tol 5%)\n", b"PASS - gap 1.5 MHz (tol 5%)\n\n").startswith(
        "1 lines against 2")
    assert drift.compare(b"a,1\n", b"a,1,2\n") == "line 1: 2 tokens against 3"
    assert drift.compare(b"nan, 1\n", b"nan ,1\n") == "all 2 numbers equal"


def test_drift_lists_every_file_of_either_directory(tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    for d in (base, change):
        d.mkdir()
        (d / "same.txt").write_text("1\n")
    (base / "moved.csv").write_text("1.0\n")
    (change / "moved.csv").write_text("1.5\n")
    (change / "new.txt").write_text("x\n")
    assert drift.main([str(base), str(change)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved.csv: max abs 0.5 (line 1), max rel 0.333 (line 1) over 1 numbers",
        f"new.txt: only in {change}",
        "same.txt: identical",
    ]
