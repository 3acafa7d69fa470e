"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED MODE RESULT_JSON [WORKERS]

MODE is ``setup`` (import and generate inputs, then stop), ``run`` (also time
the workload's one CLI call) or ``trace`` (the same with spans recorded).
The result JSON carries ``ready``, the clock reading at the end of set-up, on
the system-wide monotonic clock, so the parent can time interpreter start-up
as well, and the speed probe's scale for every time it reports (see
probe.py).  A fresh interpreter per repetition keeps the acceptance module's
cached trajectories and the ``ru_maxrss`` high-water mark from carrying over.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import probe
import workloads

sys.path.insert(0, str(workloads.SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

# acceptance is imported here, in set-up, with everything else the CLI loads,
# so that verify's lazy import is not timed and the tracer can wrap it.
import dressed_cool.acceptance  # noqa: E402,F401
from dressed_cool import cli  # noqa: E402

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "DRESSED_COOL_WORKERS": os.environ.get("DRESSED_COOL_WORKERS"),
    }


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> None:
    workload, seed, mode, result_path = argv[0], int(argv[1]), argv[2], argv[3]
    workers = int(argv[4]) if len(argv) > 4 else 1
    workdir = workloads.OUT / "work" / f"{workload}-s{seed}-{mode}-w{workers}"
    inputs = workloads.make_inputs(workload, seed, workdir, workers)
    result = {"ready": time.perf_counter()}
    speed = probe.SpeedProbe()
    speed.burst()
    result["setup_scale"] = speed.scale()
    if mode != "setup":
        before = speed.samples
        speed.samples, speed.cold = [], []
        rec = None
        if mode == "trace":
            import spans

            rec = spans.install(spans.Recorder(f"{workload}-s{seed}-{os.getpid()}"))
        stdout = io.StringIO()
        cpu0, t0 = _cpu(), time.perf_counter()
        with contextlib.redirect_stdout(stdout), speed:
            rc = cli.main(inputs.argv)
        t1, cpu1 = time.perf_counter(), _cpu()
        if rec is not None:
            rec.uninstall()
        probe_s = speed.spent()
        during, cold = speed.samples, speed.cold
        speed.samples = []
        speed.burst()
        quiet = before + speed.samples
        scale = speed.scale(quiet + during)
        # Cold over warm kernel time during the workload: how far its cache
        # state slows the kernel's first run, which the scale leaves out.  Warm
        # kernel time during the workload over that in the quiet bursts around
        # it: how far the workload, or the host's drift, moves the scale.
        mean = statistics.mean
        result["probe_cold_ratio"] = mean(cold) / mean(during) if during else 1.0
        result["probe_quiet_ratio"] = mean(during) / mean(quiet) if during else 1.0
        maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outcome = workloads.check(inputs, rc, stdout.getvalue())
        result.update(
            wall_raw_s=t1 - t0,
            cpu_raw_s=cpu1 - cpu0,
            scale=scale,
            probe_s=probe_s,
            wall_s=(t1 - t0 - probe_s) * scale,
            cpu_s=(cpu1 - cpu0 - probe_s) * scale,
            peak_rss_mb=maxrss_kib / 1024.0,
            attempted=outcome.attempted,
            failed=outcome.failed,
            correct=outcome.correct,
            problems=outcome.problems,
            environment=environment(),
        )
        if inputs.csv is not None:
            result["csv"] = str(inputs.csv)
            result["csv_bytes"] = inputs.csv.stat().st_size if inputs.csv.exists() else 0
        if rec is not None:
            spans_path = workloads.OUT / f"spans-{workload}-s{seed}.jsonl"
            rec.write(spans_path)
            result["layers"] = spans.layer_metrics(rec, t1 - t0)
            result["absent_targets"] = rec.absent
            result["spans_file"] = str(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
