#!/usr/bin/env python3
"""How far the numbers in two ``tools/outputs.sh`` directories moved.

    python3 tools/drift.py BASE_DIR CHANGE_DIR

For each file in either directory, prints one line: "identical" when the
bytes match; otherwise the largest absolute and relative difference between
the numbers at matching token positions, with the line of each (or that all
numbers are equal), and how many lines differ in a token that is no number.
Tokens are the runs of text between whitespace, commas, colons, semicolons,
equals signs, brackets and quotes, so a CSV cell, a JSON value and a number
in an acceptance line are each one token.  A file present on one side only, or whose line count or
token count on some line differs, is reported as such and not compared
further.  The relative difference of a and b is |a - b| / max(|a|, |b|).
Exits 0 whatever it finds, since it reports drift and does not gate it,
and 2 on a usage error.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

_SEPARATORS = re.compile(r"[\s,:;=\[\]{}()\"']+")


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _difference(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative difference; NaN against NaN is no difference."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / max(abs(a), abs(b))


def compare(base: bytes, change: bytes) -> str:
    """The one-line report on two versions of a file."""
    if base == change:
        return "identical"
    lines_a, lines_b = base.decode().splitlines(), change.decode().splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines against {len(lines_b)}"
    worst_abs = worst_rel = (0.0, 0)
    numbers = text_lines = 0
    for n, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        tokens_a = [t for t in _SEPARATORS.split(line_a) if t]
        tokens_b = [t for t in _SEPARATORS.split(line_b) if t]
        if len(tokens_a) != len(tokens_b):
            return f"line {n}: {len(tokens_a)} tokens against {len(tokens_b)}"
        text_differs = False
        for a, b in zip(tokens_a, tokens_b):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                text_differs |= a != b
                continue
            numbers += 1
            d_abs, d_rel = _difference(x, y)
            if d_abs > worst_abs[0]:
                worst_abs = (d_abs, n)
            if d_rel > worst_rel[0]:
                worst_rel = (d_rel, n)
        text_lines += text_differs
    report = (
        f"max abs {worst_abs[0]:.3g} (line {worst_abs[1]}),"
        f" max rel {worst_rel[0]:.3g} (line {worst_rel[1]}) over {numbers} numbers"
        if worst_abs[0] else f"all {numbers} numbers equal"
    )
    return report + (f"; text differs on {text_lines} lines" if text_lines else "")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/drift.py BASE_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    base, change = map(Path, argv)
    names = sorted({p.relative_to(d).as_posix() for d in (base, change) for p in d.rglob("*") if p.is_file()})
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            report = f"only in {base if a.is_file() else change}"
        else:
            report = compare(a.read_bytes(), b.read_bytes())
        print(f"{name}: {report}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
