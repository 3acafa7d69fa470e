#!/usr/bin/env python3
"""Sweep wall time against the stack size of sweep.run_sweep (sweep._STACK).

    python3 tools/stack_scan.py                       # default 41x41 grids, stacks 6 12 16, 5 runs
    python3 tools/stack_scan.py --modes cooling_rate --stacks 4 6 8 --runs 3 --points 11

For each of --modes, runs `dressed-cool sweep` in this process on the
default ranges with --points per axis and one worker (so one BLAS thread,
see sweep.parallel_map), once untimed and then --runs times per stack size
of --stacks, rotating the order of the sizes from run to run.  Prints each
mode's cavity cutoffs and, per size, the median and range of the runs'
wall seconds, and checks that every size writes the same CSV: exits 1 if
any differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dressed_cool import cli, sweep  # noqa: E402


def run(mode: str, points: int, stack: int, tmp: Path) -> tuple[float, bytes, str]:
    """One serial sweep at stack size stack: its wall seconds, its CSV and
    its cutoffs line."""
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode, "workers": 1, "power_points": points, "detuning_points": points}))
    out, err = tmp / "sweep.csv", io.StringIO()
    saved, sweep._STACK = sweep._STACK, stack
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["sweep", "-c", str(cfg), "-o", str(out), "--no-timestamp"])
        wall = time.perf_counter() - start
    finally:
        sweep._STACK = saved
    if status != 0:
        raise RuntimeError(f"{mode} sweep at stack {stack} exited {status}: {err.getvalue().strip()}")
    return wall, out.read_bytes(), err.getvalue().strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modes", nargs="+", default=["steady_tomography", "cooling_rate"])
    parser.add_argument("--stacks", type=int, nargs="+", default=[6, 12, 16])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--points", type=int, default=41)
    args = parser.parse_args(argv)
    same = True
    with tempfile.TemporaryDirectory(prefix="stack-scan-") as tmp:
        for mode in args.modes:
            _, csv, cutoffs = run(mode, args.points, args.stacks[0], Path(tmp))
            print(f"{mode} {args.points}x{args.points}: {cutoffs}")
            walls: dict[int, list[float]] = {s: [] for s in args.stacks}
            for i in range(args.runs):
                k = i % len(args.stacks)
                for stack in args.stacks[k:] + args.stacks[:k]:
                    wall, out, _ = run(mode, args.points, stack, Path(tmp))
                    walls[stack].append(wall)
                    if out != csv:
                        print(f"{mode}: stack {stack} writes a different CSV")
                        same = False
            for stack, w in walls.items():
                print(f"{mode:18s} stack {stack:3d}  median {statistics.median(w):.3f} s"
                      f"  range {min(w):.3f}-{max(w):.3f} s over {len(w)} runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
