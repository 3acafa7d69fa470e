#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark: a base commit against the working tree.

    python3 tools/bench_ab.py --base main --workload steady_map verify --pairs 10 --label mine
    python3 tools/bench_ab.py --base HEAD~1 --workload cooling_map --pairs 1 --seconds 1 --label ci
    python3 tools/bench_ab.py --base-tree ../base --workload steady_map --label mine

Each pair runs ``python3 bench/run.py --workload W --seconds S --seed N --trace 0``
once in a checkout of the base ref and once in the working tree, in fresh
processes, and alternates which side goes first.  The base is checked out
with ``git worktree add --detach`` into a temporary directory, removed at the
end, or, with ``--base-tree``, is an existing checkout (a clone, or an
unpacked ``git archive``, whose commit then reads null, as the working tree's
commit and uncommitted changes do outside a git checkout).  Writes
``BENCH_<label>.json`` at the working tree's root: every run's
summary line with the unscaled times and the speed probe's ratios that run.py
stores beside it, each side's median and quartiles of every end-to-end metric
and of wall_raw_s and cpu_raw_s, the pairs the change won per metric (by
BENCHMARK.json's direction, ties counting for neither side), each side's
range of probe_quiet_ratio over all repetitions, the CPUs in the affinity
mask and the BLAS thread count in force in each checkout.  Exits 1 when a
run fails or reports an incorrect result, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter inside a checkout: the BLAS thread count the
# program sets for itself and then reads back (None without OpenBLAS).
_BLAS_PROBE = (
    "import sys; sys.path.insert(0, 'src')\n"
    "from dressed_cool import sweep\n"
    "sweep._set_blas_threads()\n"
    "print(sweep._blas_threads())\n"
)


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def git_or_none(*args: str, cwd: Path = ROOT) -> str | None:
    """git's output in cwd, or None when cwd is no git checkout."""
    try:
        return git(*args, cwd=cwd)
    except subprocess.CalledProcessError:
        return None


def blas_threads(tree: Path) -> int | None:
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], cwd=tree, capture_output=True, text=True)
    value = out.stdout.strip()
    return int(value) if out.returncode == 0 and value.isdigit() else None


# Unscaled medians that bench/run.py keeps in its result file, not in its
# summary line; they are summarized beside the end-to-end metrics.
RAW_METRICS = {"wall_raw_s": "lower", "cpu_raw_s": "lower"}


def bench_run(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced benchmark run in tree: its summary line, with the raw
    medians and each repetition's probe_quiet_ratio from its result file, or
    its exit code and the end of its error output when it printed none."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
           "--seed", str(seed), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = {"exit": proc.returncode, "elapsed_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["error"] = proc.stderr.strip()[-2000:]
        return run
    run.update(correct=summary["correct"], attempted=summary["attempted"], failed=summary["failed"],
               metrics={k: v["value"] for k, v in summary["metrics"].items()})
    stored = json.loads((tree / ".bench_out" / f"result-{workload}-s{seed}-t0.json").read_text())
    run["metrics"].update((k, stored["raw"][k]) for k in RAW_METRICS)
    run["probe_quiet_ratios"] = [r["probe_quiet_ratio"] for r in stored["repetitions"]]
    return run


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q[0], "median": q[1], "q3": q[2]}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's values, quartiles and median, and the pairs
    in which the change read better."""
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    for name, direction in better.items():
        side = {s: {r["pair"]: r["metrics"][name] for r in runs
                    if r["side"] == s and name in r.get("metrics", {})} for s in ("base", "change")}
        both = [p for p in pairs if p in side["base"] and p in side["change"]]
        if not both:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (side["base"][p] - side["change"][p]) > 0 for p in both)
        stats = {s: {"values": [side[s][p] for p in both], **quartiles([side[s][p] for p in both])}
                 for s in side}
        out[name] = {
            "better": direction,
            **stats,
            "change_wins": wins,
            "pairs": len(both),
            "median_change": stats["change"]["median"] / stats["base"]["median"] - 1.0
            if stats["base"]["median"] else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="git ref of the base side, checked out into a temporary worktree")
    base.add_argument("--base-tree", type=Path, help="an existing checkout of the base side")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]} | RAW_METRICS
    tmp = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    base_tree = args.base_tree.resolve() if args.base_tree else tmp / "base"
    if args.base:
        git("worktree", "add", "--detach", str(base_tree), args.base)
    trees = {"base": base_tree, "change": ROOT}
    ok = True
    status = git_or_none("status", "--porcelain")
    try:
        result = {
            "label": args.label,
            "command": "python3 bench/run.py --workload W --seconds S --seed N --trace 0",
            "seconds": args.seconds,
            "seed": args.seed,
            "pairs": args.pairs,
            "environment": {
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
                "blas_threads": {s: blas_threads(t) for s, t in trees.items()},
            },
            "base": {"commit": git_or_none("rev-parse", "HEAD", cwd=base_tree)},
            "change": {"commit": git_or_none("rev-parse", "HEAD"),
                       "uncommitted_changes": None if status is None else bool(status)},
            "workloads": {},
        }
        for workload in args.workload:
            runs = []
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = {"pair": pair, "side": side,
                           **bench_run(trees[side], workload, args.seconds, args.seed)}
                    ok = ok and run["exit"] == 0 and run.get("correct", False)
                    runs.append(run)
                    wall = run.get("metrics", {}).get("wall_s")
                    print(f"{workload} pair {pair} {side:6s} exit={run['exit']} wall_s={wall}", flush=True)
            ratios = {s: [q for r in runs if r["side"] == s for q in r.get("probe_quiet_ratios", [])]
                      for s in trees}
            result["workloads"][workload] = {
                "runs": runs,
                "summary": summarize(runs, better),
                "probe_quiet_ratio": {s: {"min": min(q), "max": max(q), "repetitions": len(q)}
                                      for s, q in ratios.items() if q},
            }
    finally:
        if args.base:
            git("worktree", "remove", "--force", str(base_tree))
        shutil.rmtree(tmp, ignore_errors=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, w in result["workloads"].items():
        for name, m in w["summary"].items():
            print(f"{workload:12s} {name:12s} base {m['base']['median']:.6g}"
                  f" change {m['change']['median']:.6g} change wins {m['change_wins']}/{m['pairs']}")
        for side, q in w["probe_quiet_ratio"].items():
            print(f"{workload:12s} probe_quiet_ratio {side} {q['min']:.3g} to {q['max']:.3g}"
                  f" over {q['repetitions']} repetitions")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
