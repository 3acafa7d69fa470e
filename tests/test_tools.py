"""The repository's report scripts under tools/, and the README's references
into the repository."""

import importlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from dressed_cool import cli

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("drift", _ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)
_SPEC = importlib.util.spec_from_file_location("bench_ab", _ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)
_SPEC = importlib.util.spec_from_file_location("stack_scan", _ROOT / "tools" / "stack_scan.py")
stack_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stack_scan)
_SPEC = importlib.util.spec_from_file_location("src_lines", _ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)


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


def test_src_lines_base_outside_a_git_checkout_is_one_line(tmp_path, monkeypatch, capsys):
    # a copy of the sources without .git, as git archive leaves
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text('"""Doc."""\nx = 1  # one\n')
    monkeypatch.setattr(src_lines, "ROOT", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert src_lines.main([]) == 0
    assert src_lines.main(["--base", "HEAD"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("src_lines.py: --base needs a git checkout that has HEAD") and err.count("\n") == 1


def test_bench_ab_outside_a_git_checkout_reads_null_commits(tmp_path, monkeypatch):
    # a copy of the script and BENCHMARK.json without .git, as git archive
    # leaves, against a base tree that is no checkout either: no pair runs,
    # and both sides' commits read null, in either mode
    for name in ("tools/bench_ab.py", "BENCHMARK.json"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        shutil.copy(_ROOT / name, tmp_path / name)
    (tmp_path / "base").mkdir()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    for mode, workload in ((["--workload", "verify"], "verify"), (["--suite"], "tier1")):
        proc = subprocess.run([sys.executable, "tools/bench_ab.py", "--base-tree", "base", *mode,
                               "--pairs", "0", "--label", "copy"], cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # the result goes into the ignored .bench_out/, not beside committed files
        out = tmp_path / ".bench_out" / "BENCH_copy.json"
        assert proc.stdout.strip().endswith(f"wrote {out}")
        assert not list(tmp_path.glob("BENCH_*.json"))
        result = json.loads(out.read_text())
        assert result["base"] == {"commit": None}
        assert result["change"] == {"commit": None, "uncommitted_changes": None}
        assert list(result["workloads"]) == [workload]


def test_bench_ab_suite_run_counts_passed_and_failed_tests(tmp_path):
    # a tree whose suite has one passing and one failing test, and no src/
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text("def test_pass():\n    pass\n\n\n"
                                                    "def test_fail():\n    assert False\n")
    run = bench_ab.suite_run(tmp_path)
    assert (run["exit"], run["passed"], run["failed"], run["correct"]) == (1, 1, 1, False)
    assert run["metrics"]["wall_s"] == run["elapsed_s"] > 0.0
    assert "`tools/bench_ab.py --suite`" in (_ROOT / "README.md").read_text()


def test_stack_scan_times_every_size_and_finds_the_same_csv(capsys):
    assert stack_scan.main(["--modes", "steady_tomography", "--points", "3", "--runs", "2",
                            "--stacks", "1", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("steady_tomography 3x3: cutoffs: n_fock ")
    assert [line.split()[:3] for line in lines[1:]] == [["steady_tomography", "stack", "1"],
                                                        ["steady_tomography", "stack", "4"]]
    assert all(line.endswith("over 2 runs") for line in lines[1:])


def test_readme_names_only_paths_that_exist():
    readme = (_ROOT / "README.md").read_text()
    paths = re.findall(r"`((?:BENCH_[^`\s]*\.json|(?:src|tests|tools)/[^`\s]*))", readme)
    assert paths
    # a <placeholder> stands for any name, as * does
    missing = [path for path in paths if not any(_ROOT.glob(re.sub(r"<[^>]*>", "*", path)))]
    assert not missing


def test_readme_names_every_subcommand_and_tool():
    readme = (_ROOT / "README.md").read_text()
    (sub,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    assert sub.choices
    assert [name for name in sub.choices if f"dressed-cool {name}" not in readme] == []
    assert [f.name for f in (_ROOT / "tools").iterdir() if f.is_file() and f"tools/{f.name}" not in readme] == []


def test_readme_names_only_attributes_that_exist():
    # every backticked module.attr outside code blocks, call parentheses
    # stripped, resolves in the package; numpy's (np.) are not the package's
    readme = re.sub(r"```.*?```", "", (_ROOT / "README.md").read_text(), flags=re.S)
    names = {m.group(1) for m in re.finditer(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", readme)}
    names = sorted(name for name in names if not name.startswith("np."))
    assert names

    def resolves(name):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"dressed_cool.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj is not None

    assert [name for name in names if not resolves(name)] == []
