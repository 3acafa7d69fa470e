"""dressed-cool benchmark.

    python3 bench/run.py --workload steady_map --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Runs one workload (or all three) against the package under ``src/``, checks
its outputs, prints every metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced repetition.  Each repetition runs in a fresh interpreter
(see child.py).  Exits 1 when a correctness check fails and 2 when the
benchmark cannot run at all.  Full results, including the environment, go to
``.bench_out/``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUT, ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
# A traced run must end well inside the per-run limit of 180 s; the optional
# default-parallel pass gets what is left of this budget.
TRACE_BUDGET_S = 165.0

# A repetition whose warm probe kernel ran slower or faster during the workload
# than in the quiet bursts around it by more than this share gets a note: the
# workload, not only the host, may then move the scale it is measured by.  The
# host's own drift moved this ratio between 0.86 and 1.27 (see README.md).
PROBE_SHIFT_NOTE = 0.35


class BenchError(RuntimeError):
    pass


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def source_fingerprint() -> str:
    """Hash of the package and benchmark sources: stored untraced results are
    reused only for the exact code and workloads that produced them."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "dressed_cool").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DRESSED_COOL_WORKERS", None)
    return env


def spawn(workload: str, seed: int, mode: str, workers: int = 1, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one repetition in a fresh interpreter; return its result plus setup_s."""
    result_path = OUT / f"child-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(result_path), str(workers)]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # The sweep's worker pool lives in the child's session; make sure
        # nothing it started outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if rc != 0 or not result_path.exists():
        raise BenchError(f"{workload} {mode} repetition exited {rc}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_raw_s"] = result["ready"] - t_spawn
    result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
    return result


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload while another repetition fits in ``seconds``
    (at least once), then add set-up-only interpreters until there are
    SETUP_SAMPLES set-up timings."""
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(spawn(workload, seed, "run"))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups = reps + [spawn(workload, seed, "setup") for _ in range(SETUP_SAMPLES - len(reps))]
    med = lambda rows, key: statistics.median(r[key] for r in rows)  # noqa: E731
    metrics = {
        "setup_s": med(setups, "setup_s"),
        "wall_s": med(reps, "wall_s"),
        "points_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in reps),
        "cpu_s": med(reps, "cpu_s"),
        "peak_rss_mb": med(reps, "peak_rss_mb"),
    }
    raw = {
        "setup_raw_s": med(setups, "setup_raw_s"),
        "wall_raw_s": med(reps, "wall_raw_s"),
        "cpu_raw_s": med(reps, "cpu_raw_s"),
        "probe_slowdown": 1.0 / med(reps, "scale"),
        "probe_cold_ratio": med(reps, "probe_cold_ratio"),
        "probe_quiet_ratio": med(reps, "probe_quiet_ratio"),
    }
    return {
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
        "raw": raw,
        "repetitions": reps,
        "setup_samples": [r["setup_s"] for r in setups],
    }


def _stored_untraced_walls(workload: str, seed: int, fingerprint: str) -> list[float]:
    path = OUT / f"result-{workload}-s{seed}-t0.json"
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if stored.get("fingerprint") != fingerprint or not stored.get("correct"):
        return []
    return [r["wall_s"] for r in stored.get("repetitions", [])]


def run_traced(workload: str, seed: int, fingerprint: str) -> dict:
    """One traced repetition, its overhead against the untraced median of the
    same workload, seed and source, and for steady_map one untraced pass at the
    default worker setting."""
    t0 = time.perf_counter()
    traced = spawn(workload, seed, "trace")
    reps = [traced]
    untraced_walls = _stored_untraced_walls(workload, seed, fingerprint)
    if not untraced_walls:
        reps.append(spawn(workload, seed, "run"))
        untraced_walls = [reps[-1]["wall_s"]]
    untraced = statistics.median(untraced_walls)
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["wall_s"] / untraced - 1.0
    layers["cli.csv_bytes"] = traced.get("csv_bytes", 0)
    layers["sweep.pool_speedup"] = 0.0
    notes = []
    if workload == "steady_map":
        remaining = TRACE_BUDGET_S - (time.perf_counter() - t0)
        try:
            pooled = spawn(workload, seed, "run", workers=0, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            notes.append(f"default-parallel pass did not finish within {remaining:.0f} s")
        else:
            reps.append(pooled)
            layers["sweep.pool_speedup"] = untraced / pooled["wall_s"]
            if Path(pooled["csv"]).read_bytes() != Path(traced["csv"]).read_bytes():
                pooled["correct"] = False
                pooled["problems"].append("default-parallel CSV differs from the serial CSV")
    return {
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": layers,
        "repetitions": reps,
        "untraced_walls": untraced_walls,
        "notes": notes,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    fingerprint = source_fingerprint()
    if trace:
        out = run_traced(workload, seed, fingerprint)
    else:
        out = run_untraced(workload, seed, seconds)
    out.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace), fingerprint=fingerprint,
               environment=out["repetitions"][0]["environment"])
    (OUT / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(out, indent=1))
    return out


def report(out: dict) -> dict:
    """Print the metric table, problems and environment; return the summary line."""
    print(f"== {out['workload']} seed={out['seed']} trace={out['trace']}: "
          f"{out['attempted']} attempted, {out['failed']} failed, correct={out['correct']}")
    units = metric_units()
    for name, value in out["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    # Not a gated metric: it is 0 on two workloads and moves with the seed on
    # cooling_map; the summary line carries the counts it is made of.
    print(f"  {'failed_fraction':28s} {out['failed'] / out['attempted']:14.6g} fraction"
          f" ({out['failed']}/{out['attempted']})")
    for name, value in out.get("raw", {}).items():
        print(f"  {name:28s} {value:14.6g} {'s' if name.endswith('_s') else 'ratio'} (not scaled)")
    for i, r in enumerate(out["repetitions"]):
        for problem in r.get("problems", []):
            print(f"  problem: {problem}")
        if abs(r["probe_quiet_ratio"] - 1.0) > PROBE_SHIFT_NOTE:
            print(f"  note: repetition {i}: the warm probe kernel took {r['probe_quiet_ratio']:.2f}x as long"
                  " during the workload as around it")
    for note in out.get("notes", []):
        print(f"  note: {note}")
    print("environment: " + json.dumps(out["environment"], sort_keys=True))
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dressed_cool" / "__init__.py").is_file():
        print(f"error: no dressed_cool package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for name in names:
            summary = report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            ok = ok and summary["correct"]
            print(json.dumps(summary), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
