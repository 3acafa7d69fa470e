#!/usr/bin/env python3
"""Where Krylov exponential steps overtake Runge-Kutta in dynamics.evolve.

    python3 tools/crossover.py                                  # table on stdout
    python3 tools/crossover.py --out BENCH_krylov_crossover.json --repeats 5

For each cavity cutoff of --n-fock, each frame and each of two runs from
the turn-on state, evolves the run once by each propagator: Runge-Kutta
and Krylov steps, chosen by setting dynamics._KRYLOV_CROSSOVER above or at
the generator's size d^2 = (2 n_fock)^2.  The runs (RUNS) are a settling
one, criterion 6's point (n_bar = 3.6, 501 outputs over 10 us, as
`dressed-cool verify` does), over which the state reaches its steady
state, and a transient one on a fine grid (n_bar = 4, 1001 outputs over
2 us, as tools/outputs.sh's evolve_turn_on_n4 does), over which it does
not.  Prints, per size, the best propagation seconds
(PropagationStats.wall_s) of --repeats runs of each, their ratio and the
largest difference between the two runs' <sx> and <sz>.
Every run is on one BLAS thread in this process.  With --out, also writes
the rows as JSON with the CPU count and the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dressed_cool import dynamics, model, sweep  # noqa: E402
from dressed_cool.config import Config, to_system_params  # noqa: E402
from dressed_cool.operators import space  # noqa: E402


# name: (n_bar, t_max_us, n_times)
RUNS = {"settling": (3.6, 10.0, 501), "transient": (4.0, 2.0, 1001)}


def best_run(p, frame: str, t_grid, krylov: bool, repeats: int):
    """The best propagation seconds of repeats runs by one propagator, and
    the <sx> and <sz> series of the last."""
    h, ops = model.build_model(p, frame)
    rho0 = model.turn_on_state(p, frame=frame)
    hs = space(p.n_fock)
    saved = dynamics._KRYLOV_CROSSOVER
    dynamics._KRYLOV_CROSSOVER = 0 if krylov else (2 * p.n_fock) ** 2 + 1
    try:
        runs = [dynamics.evolve(h, ops, rho0, t_grid, observables={"sx": hs.sx, "sz": hs.sz})
                for _ in range(repeats)]
    finally:
        dynamics._KRYLOV_CROSSOVER = saved
    assert runs[-1].stats.propagator == ("Krylov" if krylov else "Runge-Kutta")
    return min(t.stats.wall_s for t in runs), runs[-1].expectations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-fock", type=int, nargs="+", default=[5, 8, 10, 12, 13, 14, 15, 16, 18, 20, 24])
    parser.add_argument("--frames", nargs="+", default=["displaced", "undisplaced"])
    parser.add_argument("--runs", nargs="+", choices=sorted(RUNS), default=sorted(RUNS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sweep._set_blas_threads()
    rows = []
    print(f"{'run':<11}{'frame':<12}{'d^2':>6}{'Runge-Kutta s':>15}{'Krylov s':>10}{'ratio':>8}"
          f"{'max |diff|':>12}")
    for run in args.runs:
        n_bar, t_max, n_times = RUNS[run]
        t_grid = np.linspace(0.0, t_max, n_times)
        for frame in args.frames:
            for n_fock in args.n_fock:
                p = to_system_params(Config(n_bar=n_bar, frame=frame, n_fock=n_fock))
                rk_s, rk = best_run(p, frame, t_grid, False, args.repeats)
                kr_s, kr = best_run(p, frame, t_grid, True, args.repeats)
                diff = max(float(np.max(np.abs(rk[k] - kr[k]))) for k in rk)
                rows.append({"run": run, "frame": frame, "n_fock": n_fock, "d2": (2 * n_fock) ** 2,
                             "runge_kutta_s": rk_s, "krylov_s": kr_s, "max_diff": diff})
                print(f"{run:<11}{frame:<12}{rows[-1]['d2']:>6}{rk_s:>15.3f}{kr_s:>10.3f}{kr_s / rk_s:>8.2f}"
                      f"{diff:>12.2e}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({
            "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "blas_threads": sweep._blas_threads(),
            "krylov_dim": dynamics._KRYLOV_DIM,
            "krylov_tol": dynamics._KRYLOV_TOL,
            "crossover": dynamics._KRYLOV_CROSSOVER,
            "runs": {name: dict(zip(("n_bar", "t_max_us", "n_times"), spec)) for name, spec in RUNS.items()},
            "rows": rows,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
