"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``install`` replaces module
attributes of ``dressed_cool`` with timing wrappers wherever a target function
is bound (its home module, modules that imported it by name, the package's
re-exports, and module-level tuples such as the acceptance criteria list).
Nothing under ``src/`` changes.  A target that a later version of the package
no longer has is reported as absent and its layer reads zero.

Each span keeps its name, layer, start, end, parent span and run id.  Spans
stay in memory until the run ends and are then written out in one go.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass

PACKAGE = "dressed_cool"
LAYERS = ("model", "dynamics", "integrate", "rates", "analysis", "sweep", "cli", "acceptance")

# (layer, attribute) pairs: the public functions of each module, plus the
# per-point sweep function, which is where per-point timing lives.
TARGETS = (
    ("model", "build_hamiltonian_displaced"),
    ("model", "build_hamiltonian_undisplaced"),
    ("model", "collapse_ops"),
    ("model", "turn_on_state"),
    ("model", "qubit_axis_state"),
    ("dynamics", "liouvillian_matrix"),
    ("dynamics", "steady_state"),
    ("dynamics", "evolve"),
    ("integrate", "integrate_adaptive"),
    ("rates", "rates_general"),
    ("rates", "rates_resonant"),
    ("rates", "rates_sideband_limit"),
    ("rates", "raman_rates"),
    ("rates", "golden_rule_rate"),
    ("rates", "steady_bloch"),
    ("rates", "effective_temperature"),
    ("rates", "cooling_condition"),
    ("analysis", "fit_exponential"),
    ("analysis", "dominant_frequency"),
    ("analysis", "bloch_vector"),
    ("analysis", "sigma_theta_projection"),
    ("analysis", "cooling_trajectory"),
    ("analysis", "compare_sim_analytic"),
    ("sweep", "run_sweep"),
    ("sweep", "_evaluate_point"),
    ("sweep", "apply_tomography_scale"),
    ("cli", "main"),
    ("cli", "write_csv"),
    ("cli", "write_trajectory_csv"),
    ("acceptance", "run_all"),
    *(("acceptance", f"criterion_{k}") for k in range(1, 9)),
)

_H_BUILDERS = ("model.build_hamiltonian_displaced", "model.build_hamiltonian_undisplaced")
_COMPLEX_BYTES = 16


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and counters of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, layer: str, name: str, fn, after=None):
        """Timing wrapper; ``after(recorder, result)`` runs once the span is closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, time.perf_counter(), float("nan"), parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def uninstall(self) -> None:
        for module, key, old in reversed(self._undo):
            setattr(module, key, old)
        self._undo.clear()


def _count_integration(fn, rec: Recorder):
    """Count right-hand-side evaluations by wrapping the ``f`` handed to the
    integrator, and accepted steps by wrapping its ``post_step`` hook."""
    sig = inspect.signature(fn)
    if not {"f", "y0", "t_grid", "post_step"} <= set(sig.parameters):
        return fn

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        a = bound.arguments
        f, post = a["f"], a.get("post_step")

        def counted_f(t, y):
            rec.counters["integrate.rhs_evals"] += 1
            return f(t, y)

        def counted_post(y):
            rec.counters["integrate.steps_accepted"] += 1
            return y if post is None else post(y)

        a["f"], a["post_step"] = counted_f, counted_post
        for key in ("integrate.rhs_evals", "integrate.steps_accepted"):
            rec.counters.setdefault(key, 0)
        dim, outputs = len(a["y0"]), len(a["t_grid"])
        rec.count("integrate.calls")
        rec.peak("integrate.max_state_dim", dim)
        rec.peak("integrate.stored_state_bytes", outputs * dim * _COMPLEX_BYTES)
        return fn(*bound.args, **bound.kwargs)

    return shim


def _after_liouvillian(rec: Recorder, result) -> None:
    shape = getattr(result, "shape", None)
    if shape:
        rec.peak("dynamics.liouvillian_dim_max", shape[0])


def _after_point(rec: Recorder, result) -> None:
    if getattr(result, "converged", True) is False:
        rec.count("sweep.points_failed")


_AFTER = {
    "dynamics.liouvillian_matrix": _after_liouvillian,
    "sweep._evaluate_point": _after_point,
}


def install(rec: Recorder, targets=TARGETS) -> Recorder:
    """Import every layer module and rebind each target wherever it is bound."""
    replace: dict[int, object] = {}
    for layer, attr in targets:
        name = f"{layer}.{attr}"
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            rec.absent.append(name)
            continue
        orig = getattr(module, attr, None)
        if not callable(orig):
            rec.absent.append(name)
            continue
        inner = _count_integration(orig, rec) if name == "integrate.integrate_adaptive" else orig
        replace[id(orig)] = rec.wrap(layer, name, inner, _AFTER.get(name))

    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    for module in modules:
        for key, value in list(vars(module).items()):
            if id(value) in replace:
                rec._undo.append((module, key, value))
                setattr(module, key, replace[id(value)])
            elif isinstance(value, tuple) and any(id(v) in replace for v in value):
                rec._undo.append((module, key, value))
                setattr(module, key, tuple(replace.get(id(v), v) for v in value))
    return rec


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(i, []), s.start, s.end) for i, s in enumerate(spans)]


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose timed call took ``wall_s``.

    The eight partition metrics (model.build_s, dynamics.self_s,
    integrate.propagate_s, rates.s, analysis.self_s, sweep.self_s, cli.self_s,
    acceptance.self_s) sum to trace.accounted_s, the self time of all spans.
    """
    own = self_times(rec.spans)
    by_name: dict[str, list[float]] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    durations: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for s, t in zip(rec.spans, own):
        by_name.setdefault(s.name, []).append(t)
        durations.setdefault(s.name, []).append(s.duration)
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + t
        if s.error is not None:
            errors[s.name] = errors.get(s.name, 0) + 1

    def self_s(*names):
        return sum(sum(by_name.get(n, ())) for n in names)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    c = rec.counters
    rhs = c.get("integrate.rhs_evals", 0)
    accepted = c.get("integrate.steps_accepted", 0)
    # Each integrator call evaluates f once up front, six times per attempted
    # step and once more after each accepted step.
    rejected = (rhs - c.get("integrate.calls", 0) - 7 * accepted) / 6 if rhs else 0
    propagate = self_s("integrate.integrate_adaptive")
    points = durations.get("sweep._evaluate_point", [])
    accounted = sum(own)
    m = {
        "model.build_s": by_layer["model"],
        "model.builds": calls(*_H_BUILDERS),
        "dynamics.self_s": by_layer["dynamics"],
        "dynamics.liouvillian_s": self_s("dynamics.liouvillian_matrix"),
        "dynamics.liouvillian_calls": calls("dynamics.liouvillian_matrix"),
        "dynamics.liouvillian_dim_max": c.get("dynamics.liouvillian_dim_max", 0),
        "dynamics.steady_state_s": self_s("dynamics.steady_state"),
        "dynamics.steady_states": calls("dynamics.steady_state"),
        "dynamics.evolve_s": self_s("dynamics.evolve"),
        "dynamics.evolves": calls("dynamics.evolve"),
        "integrate.propagate_s": propagate,
        "integrate.rhs_evals": rhs,
        "integrate.steps_accepted": accepted,
        "integrate.steps_rejected": rejected,
        "integrate.us_per_rhs": 1e6 * propagate / rhs if rhs else 0.0,
        "integrate.max_state_dim": c.get("integrate.max_state_dim", 0),
        "integrate.stored_state_mb": c.get("integrate.stored_state_bytes", 0) / 2**20,
        "rates.s": by_layer["rates"],
        "analysis.self_s": by_layer["analysis"],
        "analysis.fit_s": self_s("analysis.fit_exponential"),
        "analysis.fits": calls("analysis.fit_exponential"),
        "analysis.fits_failed": errors.get("analysis.fit_exponential", 0),
        "analysis.spectrum_s": self_s("analysis.dominant_frequency"),
        "analysis.reduce_s": self_s("analysis.bloch_vector", "analysis.sigma_theta_projection"),
        "sweep.self_s": by_layer["sweep"],
        "sweep.point_ms_p50": 1e3 * _quantile(points, 5),
        "sweep.point_ms_p90": 1e3 * _quantile(points, 9),
        "sweep.points_failed": c.get("sweep.points_failed", 0),
        "cli.self_s": by_layer["cli"],
        "cli.csv_write_s": self_s("cli.write_csv"),
        "acceptance.self_s": by_layer["acceptance"],
        "trace.wall_s": wall_s,
        "trace.accounted_s": accounted,
        "trace.spans": len(rec.spans),
        "trace.absent_targets": len(rec.absent),
    }
    for k in range(1, 9):
        m[f"acceptance.c{k}_s"] = sum(durations.get(f"acceptance.criterion_{k}", ()))
    return m
