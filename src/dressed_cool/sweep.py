"""Drive-power x drive-detuning sweeps of the engineered-bath steady state.

The power axis is referenced to one intracavity photon: P_d = 10 log10(n_bar)
dB, so 0 dB means n_bar = 1 (and -inf dB means an undriven cavity).  The
detuning axis holds the bare qubit drive detuning delta_q; the Stark-shifted
detuning at each point is delta_q' = delta_q + 2 chi n_bar.

parallel_map, the program's one process pool, runs the sweep's stacks of
points and the acceptance suite's trajectories.  Its `workers` count the
processes that compute, and the calling process is always one of them.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import analysis, model

__all__ = [
    "MODES",
    "SweepGrid",
    "SweepRow",
    "SweepTable",
    "run_sweep",
    "parallel_map",
    "optimal_theta_detuning",
    "apply_tomography_scale",
]

MODES = ("steady_tomography", "cooling_rate", "rates_analytic_map")


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep specification.

    power_db and detuning are the axes (dB referenced to one photon; rad/us).
    theta is the fixed tomography angle (radians) used for the s_theta column.
    auto_n_fock rechooses the cavity cutoff for each point's steady state.
    A point whose steady state passes model.TRUNCATION_TOL in the cavity's
    top Fock level fails (converged = False), as for any numerical error.
    """

    power_db: np.ndarray
    detuning: np.ndarray
    fixed: model.SystemParams
    mode: str = "steady_tomography"
    theta: float = math.pi / 2
    auto_n_fock: bool = True

    def __post_init__(self):
        object.__setattr__(self, "power_db", np.atleast_1d(np.asarray(self.power_db, dtype=float)))
        object.__setattr__(self, "detuning", np.atleast_1d(np.asarray(self.detuning, dtype=float)))
        if self.power_db.size == 0 or self.detuning.size == 0:
            raise ValueError("sweep axes must be non-empty")
        for name in ("power_db", "detuning"):
            axis = getattr(self, name)
            if axis.size > 1 and np.any(np.diff(axis) <= 0):
                raise ValueError(f"{name} axis must be strictly increasing")
        if self.mode not in MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r}; expected one of {MODES}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")


@dataclass(frozen=True)
class SweepRow:
    """One grid point.  gamma_fit (1/us) is NaN in steady_tomography, the
    analytic total rate in rates_analytic_map, and in cooling_rate the
    relaxation rate of the dressed mode, read off the generator spectrum.
    n_fock is the cavity cutoff of the point's model (no CSV column)."""

    p_d_db: float
    delta_q: float
    n_bar: float
    sx: float
    sy: float
    sz: float
    s_theta: float
    gamma_fit: float
    converged: bool
    n_fock: int


@dataclass
class SweepTable:
    rows: list[SweepRow]
    metadata: dict


# The state columns of a point that failed for a numerical reason.
_NAN_BLOCH = analysis.BlochVector(math.nan, math.nan, math.nan)


def _point_params(grid: SweepGrid, p_d_db: float, delta_q: float) -> tuple[model.SystemParams, float]:
    """The parameters of one point of the grid, built once with its cutoff,
    and its n_bar."""
    n_bar = 10.0 ** (p_d_db / 10.0)
    base = grid.fixed
    eps_d = model.drive_for_photons(n_bar, base.delta_c, base.kappa)
    n_fock = _row_cutoff(base, eps_d) if grid.auto_n_fock else base.n_fock
    return replace(base, eps_d=eps_d, delta_q_prime=delta_q + 2.0 * base.chi * n_bar, n_fock=n_fock), n_bar


@functools.lru_cache(maxsize=64)
def _row_cutoff(base: model.SystemParams, eps_d: float) -> int:
    """The steady-state cutoff of the power row of drive eps_d on base:
    model.choose_fock_cutoff reads the drive, not the qubit detuning or the
    cutoff, so the points of one row share it."""
    return model.choose_fock_cutoff(replace(base, eps_d=eps_d))


def _evaluate_point(grid: SweepGrid, p_d_db: float, delta_q: float, n_bar: float, n_fock: int,
                    outcome: tuple | Exception) -> SweepRow:
    """The row of one point of the grid, the outcome being the point's
    (Bloch vector, gamma) or the numerical error (analysis.NUMERICAL_ERRORS)
    that failed it."""
    if isinstance(outcome, Exception):
        v, gamma, converged = _NAN_BLOCH, math.nan, False
    else:
        (v, gamma), converged = outcome, True
    return SweepRow(
        p_d_db=p_d_db,
        delta_q=delta_q,
        n_bar=n_bar,
        sx=v.x, sy=v.y, sz=v.z,
        s_theta=analysis.sigma_theta_projection(v, grid.theta),
        gamma_fit=gamma,
        converged=converged,
        n_fock=n_fock,
    )


def _evaluate_stack(stack: Sequence[tuple[SweepGrid, float, float]]) -> list[SweepRow]:
    """The rows of a stack of points of one grid.  steady_tomography and
    cooling_rate solve the stack's steady states, and cooling_rate its
    rates, together (analysis.steady_points, which stacks the points that
    share a generator map); rates_analytic_map evaluates its points one by
    one."""
    grid = stack[0][0]
    params = [_point_params(grid, p_d_db, delta_q) for _, p_d_db, delta_q in stack]
    ps = [p for p, _ in params]
    if grid.mode == "rates_analytic_map":
        outcomes = [analysis.analytic_point(p) for p in ps]
    else:
        outcomes = [o if isinstance(o, Exception) else (o[0], o[2])
                    for o in analysis.steady_points(ps, rate=grid.mode == "cooling_rate")]
    return [_evaluate_point(*task, n_bar, p.n_fock, outcome)
            for task, (p, n_bar), outcome in zip(stack, params, outcomes)]


def resolve_workers(requested: int) -> int:
    """Worker count; 0 means one worker per CPU this process may run on."""
    if requested == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if requested < 1:
        raise ValueError(f"worker count must be positive, got {requested}")
    return requested


# OpenBLAS's thread-count setter and getter, by the names numpy's wheels have
# exported them under: scipy-openblas (numpy >= 2), then the 64-bit and plain
# OpenBLAS builds.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_functions() -> tuple | None:
    """(set, get) thread-count functions of the OpenBLAS that numpy's wheel
    ships in its numpy.libs directory, or None when there is none (numpy on
    Accelerate, MKL or a system BLAS)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if "openblas" in n)
    except FileNotFoundError:
        return None
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for set_name, get_name in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS uses, or None when numpy has no OpenBLAS."""
    functions = _openblas_thread_functions()
    return None if functions is None else functions[1]()


def _set_blas_threads(n: int = 1) -> int | None:
    """Run numpy's OpenBLAS on n threads from now on; return the thread count
    it then reports, or None (and change nothing) when numpy has no OpenBLAS.

    The default is the program's rule, one BLAS thread per process: its
    parallelism comes from processes only.  A second BLAS thread halves no
    256x256 LU on a small host but doubles its CPU time, and under a pool
    oversubscribes the cores.  The CLI sets it once for its process, and
    parallel_map around every map, since its caller computes too, and once
    per pool worker, since a spawned worker does not inherit it; importing
    the package changes nothing.  OPENBLAS_NUM_THREADS cannot do this, as
    numpy has loaded OpenBLAS by then.
    """
    functions = _openblas_thread_functions()
    if functions is None:
        return None
    setter, getter = functions
    setter(n)
    return getter()


def parallel_map(fn, tasks: Sequence, workers: int = 1) -> list:
    """[fn(task) for task in tasks], in task order, on up to `workers`
    processes (0: one per CPU this process may run on), the calling one
    among them.

    No more processes compute than there are tasks or usable CPUs, whatever
    the count asked for; one process is the serial path, run here.  With n
    > 1, a pool of n - 1 processes and the calling thread take chunks of
    tasks in task order, each the next one as it frees up: the pool's
    processes the first ones, the caller, which also holds every result,
    the later (in a longest-first list, the smaller) ones.  One feeder
    thread per pool process keeps one chunk in flight on it, so the pool
    holds no queued chunk that the caller could have taken.
    Every task runs its BLAS on one thread, in a pool worker or here (the
    caller's thread count is restored afterwards), so LU and eigenvalue
    roundoff, and with it every result, is the same for any worker count.
    fn and the tasks are pickled by the pool, so fn must be a module-level
    function.  An exception raised by a task reaches the caller with its
    type and message, from a worker as from the serial path.  After one, no
    further chunk starts; the chunks already running finish, and the
    earliest chunk's failure is raised, as the serial path would raise it.
    """
    n_workers = min(resolve_workers(workers), len(tasks), resolve_workers(0))
    before = _blas_threads()
    _set_blas_threads()
    try:
        if n_workers <= 1:
            return [fn(t) for t in tasks]
        chunk = max(1, len(tasks) // (4 * n_workers))
        chunks = [tasks[i:i + chunk] for i in range(0, len(tasks), chunk)]
        results: list = [None] * len(chunks)
        failures: dict[int, BaseException] = {}
        order = itertools.count()  # next() on a count is atomic under the GIL

        def claim():
            i = next(order)
            return None if failures or i >= len(chunks) else i

        def run(do_chunk, i):
            while i is not None:
                try:
                    results[i] = do_chunk(chunks[i])
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failures[i] = exc
                i = claim()

        def in_pool(c):
            return pool.submit(_map_chunk, fn, c).result()

        with ProcessPoolExecutor(max_workers=n_workers - 1, initializer=_set_blas_threads) as pool:
            # Under fork the first submit starts every pool process, and a
            # child forked beside a running thread can inherit a lock that
            # thread held (in malloc or BLAS) and hang on it: fork them first.
            pool.submit(int).result()
            feeders = [threading.Thread(target=run, args=(in_pool, claim())) for _ in range(n_workers - 1)]
            for feeder in feeders:
                feeder.start()
            try:
                run(functools.partial(_map_chunk, fn), claim())
            finally:
                for feeder in feeders:
                    feeder.join()
        if failures:
            raise failures[min(failures)]
        return [r for rows in results for r in rows]
    finally:
        if before is not None:
            _set_blas_threads(before)


def _map_chunk(fn, chunk: Sequence) -> list:
    return [fn(t) for t in chunk]


# Points per stack of a sweep (see run_sweep).  Stacks speed up the steady
# solves of steady_tomography: on the default 41x41 grid (then one map at
# n_fock 8 for all points; 2-core x86-64, one BLAS thread) stacks of 6 took
# 27% off the sweep's wall time against solving point by point
# (BENCH_stacked_steady.json), and stacks of 8 little more.  A stack whose
# points take different cutoffs is solved as one sub-stack per map.  A
# cooling_rate stack runs its points' Arnoldi iterations in lockstep, one
# stacked solve per step (dynamics._modes; BENCH_lockstep_arnoldi.json).  A
# point's factor holds 0.044 MiB at d = 10 and 0.13 MiB at d = 14 (the
# default grid's cutoffs 5 and 7; 0.21 MiB at d = 16) while its stack is
# solved, in either mode (see dynamics._block_factor), and a cooling_rate
# point 23 to 46 KiB more for its Krylov basis of 30 steps, so larger
# stacks raise peak memory for no gain: at d = 16 steady_tomography's peak
# RSS rose by 0.75 MiB at 6 and 1.3 MiB at 8, and cooling_rate's by
# 1.16 MiB at 6 on the 3x3 grid against point by point
# (BENCH_one_steady_solve.json, measured while a steady_tomography factor
# still dropped its W_i and before the Krylov bases were stacked).
# Every figure above was measured when all default points solved at
# n_fock 8.  At the default grid's cutoffs now (n_fock 5, 6 and 7 at 1189,
# 369 and 123 points), tools/stack_scan.py finds larger stacks faster, with
# the same CSVs: medians of 5 runs at stacks 6, 12 and 16 were 0.41, 0.35
# and 0.35 s for steady_tomography and 1.32, 0.97 and 0.93 s for
# cooling_rate (2-core x86-64, one BLAS thread).  Their peak memory is
# not measured yet.
_STACK = 6


def run_sweep(grid: SweepGrid, workers: int = 1) -> SweepTable:
    """Evaluate the grid row-major over (power, detuning), through
    parallel_map on `workers` processes, in stacks of _STACK consecutive
    points (the last one may be shorter), whatever the worker count.

    Results are identical for any worker count, and for any stack size;
    points that fail for a numerical reason (analysis.NUMERICAL_ERRORS) are
    recorded with converged = False rather than aborting the sweep, each
    with its own error.  Any other exception propagates.
    """
    tasks = [(grid, p_d, dq) for p_d in grid.power_db for dq in grid.detuning]
    stacks = [tasks[i:i + _STACK] for i in range(0, len(tasks), _STACK)]
    rows = [row for rows in parallel_map(_evaluate_stack, stacks, workers) for row in rows]
    return SweepTable(rows=rows, metadata=_grid_metadata(grid))


def _grid_metadata(grid: SweepGrid) -> dict:
    p = grid.fixed
    metadata = {
        "version": __version__,
        "mode": grid.mode,
        "theta_deg": math.degrees(grid.theta),
        "chi_mhz": p.chi / model.TWO_PI,
        "kappa_mhz": p.kappa / model.TWO_PI,
        "omega_r_mhz": p.omega_r_rabi / model.TWO_PI,
        "delta_c_mhz": p.delta_c / model.TWO_PI,
        "gamma_down_per_us": p.gamma_down,
        "gamma_up_per_us": p.gamma_up,
        "gamma_phi_per_us": p.gamma_phi,
        "n_fock": "auto" if grid.auto_n_fock else p.n_fock,
        "tomography_scale": 1.0,
    }
    if grid.mode == "cooling_rate":
        metadata["gamma_fit_method"] = "liouvillian_spectrum"
    return metadata


def optimal_theta_detuning(delta_c: float, omega_r_rabi: float) -> float:
    """Stark-shifted detuning that parks the dressed splitting on the cavity
    resonance: delta_q'* = sqrt(delta_c^2 - omega_r^2)."""
    if abs(delta_c) <= abs(omega_r_rabi):
        raise ValueError(
            "no real optimum: |delta_c| must exceed omega_r_rabi for theta cooling"
        )
    return math.sqrt(delta_c ** 2 - omega_r_rabi ** 2)


def apply_tomography_scale(table: SweepTable, s: float) -> SweepTable:
    """Scale the Bloch columns by a tomography contrast s (state columns only;
    powers, detunings, and rates are untouched).  Applications compound."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"tomography scale must lie in (0, 1], got {s}")
    rows = [
        replace(r, sx=r.sx * s, sy=r.sy * s, sz=r.sz * s, s_theta=r.s_theta * s)
        for r in table.rows
    ]
    metadata = dict(table.metadata)
    metadata["tomography_scale"] = float(metadata.get("tomography_scale", 1.0)) * s
    return SweepTable(rows=rows, metadata=metadata)
