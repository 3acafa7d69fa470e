"""Trajectory analysis: exponential relaxation fits, dominant-frequency
extraction, Bloch-vector reduction, the steady-point recipe (steady_point
and its closed-form twin analytic_point), and simulation-vs-formula
comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, model, rates
from .integrate import StiffnessError
from .operators import IMAG_TOL, reduced_qubit, space, top_fock_population

__all__ = [
    "ExpFit",
    "BlochVector",
    "FitError",
    "NonMonotonicDataError",
    "NoSpectralPeakError",
    "NonPositiveStateError",
    "NUMERICAL_ERRORS",
    "check_positivity",
    "fit_exponential",
    "dominant_frequency",
    "bloch_vector",
    "sigma_theta_projection",
    "dressed_probe_terms",
    "steady_point",
    "steady_points",
    "analytic_point",
]
# compare_sim_analytic and its ComparisonReport are not public: only tests
# call them.  They stay bound only because bench/spans.py TARGETS names
# compare_sim_analytic (ROADMAP items 1 and 4).


class FitError(RuntimeError):
    pass


class NonMonotonicDataError(FitError):
    """Residual structure inconsistent with a single exponential
    (possible strong-coupling oscillation)."""


class NoSpectralPeakError(RuntimeError):
    pass


# Smallest eigenvalue a computed state may have: acceptance criterion 7 holds
# every trajectory to it and steady_point every steady state.
POSITIVITY_FLOOR = -1e-7


class NonPositiveStateError(RuntimeError):
    """A computed state has an eigenvalue below POSITIVITY_FLOOR."""


def check_positivity(low: float, what: str) -> None:
    """Raise NonPositiveStateError, naming what (a steady state, a
    trajectory state), when low, its smallest eigenvalue, is below
    POSITIVITY_FLOOR."""
    if low < POSITIVITY_FLOOR:
        raise NonPositiveStateError(f"{what} has eigenvalue {low:.3e}, below the floor {POSITIVITY_FLOOR:.0e}")


# Failures with a named numerical cause.  A sweep records them as a failed
# point and the CLI exits 2 on them; any other exception is a bug or bad input.
NUMERICAL_ERRORS = (
    StiffnessError,
    dynamics.MultipleSteadyStatesError,
    dynamics.ModeNotConvergedError,
    model.TruncationError,
    NonPositiveStateError,
    FitError,
    NoSpectralPeakError,
)


@dataclass(frozen=True)
class ExpFit:
    """Parameters of y(t) = y_inf + (y_0 - y_inf) exp(-rate t)."""

    rate: float
    y_inf: float
    y_0: float
    rms_residual: float
    iterations: int


def _noise_scale(y):
    """Robust per-sample noise from second differences (trend-immune)."""
    d2 = y[2:] - 2.0 * y[1:-1] + y[:-2]
    return 1.4826 * float(np.median(np.abs(d2))) / math.sqrt(6.0)


def _reject_structured_residual(cost, y, y_range):
    """Raise NonMonotonicDataError when the residual is far above both the
    noise floor and a few percent of the range: not a single exponential.
    Mild, smooth model error (for example the fast cavity ring-up at turn-on)
    stays below this.  Returns the rms residual otherwise."""
    rms = math.sqrt(cost / len(y))
    noise = _noise_scale(y)
    if rms > 5.0 * noise and rms > 0.05 * y_range:
        raise NonMonotonicDataError(
            f"residual rms {rms:.3g} is {rms / max(noise, 1e-300):.1f}x the noise"
            " floor; data is not a single exponential"
            " (possible strong-coupling oscillation)"
        )
    return rms


def _series(times, values) -> tuple[np.ndarray, np.ndarray]:
    """times and values as matching 1-d float arrays of finite numbers, with
    strictly increasing times, or ValueError: a NaN passes every comparison
    of a fit or a peak search, and times out of order or repeated are bad
    input, not a curve that fails to fit."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be matching 1-d arrays")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("times and values must be finite; found NaN or infinity")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    return t, y


def _projection(s, y, rate):
    """The least-squares (y_inf, c) of y ~ y_inf + c exp(-rate s) at a fixed
    rate, in closed form as the regression of y on [1, exp(-rate s)], with
    its residual sum of squares."""
    e = np.exp(-rate * s)
    ec = e - e.mean()
    yc = y - y.mean()
    c = float(ec @ yc) / float(ec @ ec)
    resid = yc - c * ec
    return float(resid @ resid), float(y.mean() - c * e.mean()), c


# Rates per decade of the log grid that fit_exponential scans, and the width
# in log rate at which its golden-section refinement stops.
_GRID_PER_DECADE = 10
_LOG_RATE_TOL = 1e-10


def fit_exponential(times, values) -> ExpFit:
    """Variable-projection least-squares fit of a single exponential
    relaxation (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).

    The model is linear in (y_inf, y_0), so at each trial rate they follow
    in closed form (_projection) and the fit is a search over the rate
    alone: a scan of a log grid from 0.01 / span to 10 / (smallest step),
    then golden-section refinement of the best grid cell in log rate.  The
    times are shifted to start at 0, so a late window cannot underflow the
    exponential; y_0 is reported at t = 0, extrapolated back from the
    window.  ExpFit.iterations counts the projected residuals evaluated.

    Raises ValueError on non-finite, unordered or too few samples,
    FitError when the best rate lies on the grid's edge, the window
    covers less than two decay times, or the window starts so many decay
    times after t = 0 that y_0 there is not a finite float (about 709 of
    them), and NonMonotonicDataError when the
    residual carries structure far above the noise floor (the signature of
    strong-coupling oscillations).
    """
    t, y = _series(times, values)
    if len(t) < 8:
        raise ValueError(f"need at least 8 samples, got {len(t)}")
    s = t - t[0]
    span = s[-1]
    y_range = float(y.max() - y.min())
    if y_range == 0:
        raise FitError("flat trajectory: nothing to fit")

    evaluated = []  # (residual sum of squares, log rate)

    def cost(u):
        evaluated.append((_projection(s, y, math.exp(u))[0], u))
        return evaluated[-1][0]

    lo, hi = math.log(0.01 / span), math.log(10.0 / np.diff(s).min())
    grid = np.linspace(lo, hi, math.ceil((hi - lo) / math.log(10.0) * _GRID_PER_DECADE))
    best = int(np.argmin([cost(u) for u in grid]))
    if best in (0, len(grid) - 1):
        _reject_structured_residual(evaluated[best][0], y, y_range)
        raise FitError(f"best rate {math.exp(grid[best]):.3g}/us lies on the edge of the scanned grid")
    a, b = grid[best - 1], grid[best + 1]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    u, v = b - g * (b - a), a + g * (b - a)
    fu, fv = cost(u), cost(v)
    while b - a > _LOG_RATE_TOL:
        if fu <= fv:
            b, v, fv = v, u, fu
            u = b - g * (b - a)
            fu = cost(u)
        else:
            a, u, fu = u, v, fv
            v = a + g * (b - a)
            fv = cost(v)
    rate = math.exp(min(evaluated)[1])
    cost_min, y_inf, c = _projection(s, y, rate)
    if span < 2.0 / rate:
        raise FitError(
            f"window {span:.3g} us covers less than two decay times of the fitted rate {rate:.3g}/us"
        )
    rms = _reject_structured_residual(cost_min, y, y_range)
    with np.errstate(over="ignore"):
        y_0 = y_inf + c * float(np.exp(rate * t[0]))
    if not math.isfinite(y_0):
        raise FitError(
            f"y_0 at t = 0 overflows: the window starts at t = {t[0]:.3g} us,"
            f" {rate * t[0]:.3g} decay times of the fitted rate after t = 0"
        )
    return ExpFit(rate=rate, y_inf=y_inf, y_0=y_0, rms_residual=rms, iterations=len(evaluated))


def dominant_frequency(times, values) -> float:
    """Dominant oscillation frequency in MHz (times in us).

    Detrends, applies a Hann window, and refines the FFT peak bin by
    parabolic interpolation of the log magnitude.  Raises ValueError on
    non-finite or unordered samples or a grid that is not uniform.
    """
    t, y = _series(times, values)
    n = len(t)
    if n < 64:
        raise ValueError(f"need at least 64 samples, got {n}")
    steps = np.diff(t)
    dt = (t[-1] - t[0]) / (n - 1)
    # tolerance covers grids that round-tripped through 9-digit CSV output
    if not np.allclose(steps, dt, rtol=1e-6, atol=1e-12):
        raise ValueError("time grid must be uniform")
    dt = float(dt)

    windowed = (y - y.mean()) * np.hanning(n)
    mag = np.abs(np.fft.rfft(windowed))
    if len(mag) < 4:
        raise ValueError("spectrum too short")
    # A frequency needs at least five periods in the window to be resolved
    # reliably, so the search starts there.  This also keeps slow relaxation
    # envelopes (far below that band) from masquerading as the peak.
    span = t[-1] - t[0]
    k_min = max(1, int(math.ceil(5.0 / span * (n * dt))))
    if k_min >= len(mag) - 1:
        raise ValueError("window too short to resolve five periods of anything")
    band = mag[k_min:]
    floor = float(np.median(band))
    k = int(np.argmax(band)) + k_min
    # inclusive so a dead-flat spectrum (peak == floor == 0) also fails
    if mag[k] <= 3.0 * floor:
        raise NoSpectralPeakError(
            f"strongest bin ({mag[k]:.3g}) is below 3x the median floor ({floor:.3g})"
        )
    if 1 <= k < len(mag) - 1:
        la, lb, lc = (math.log(max(mag[k + o], 1e-300)) for o in (-1, 0, 1))
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    return float((k + shift) / (n * dt))


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float


def _bloch_vectors(rhos: np.ndarray) -> np.ndarray:
    """The (x, y, z) rows of the qubit Bloch vectors of a stack of composite
    states (n x d x d), the cavity traced out by operators.reduced_qubit:
    Tr(sigma rho_q) for sigma = sx, sy and sz, as sums of the reduced
    state's entries.  Every operation is elementwise over the stack, so a
    state's row does not depend on its stack.  An expectation whose
    imaginary part exceeds roundoff (operators.IMAG_TOL times max(1, |real
    part|)), or a norm above 1 + 1e-9, raises ValueError."""
    rq = reduced_qubit(rhos)
    values = np.stack([
        rq[:, 0, 1] + rq[:, 1, 0],
        -1j * rq[:, 0, 1] + 1j * rq[:, 1, 0],
        rq[:, 0, 0] - rq[:, 1, 1],
    ], axis=1)
    if np.any(np.abs(values.imag) > IMAG_TOL * np.maximum(1.0, np.abs(values.real))):
        raise ValueError(f"expectation has imaginary part {np.abs(values.imag).max():.3e}; state not Hermitian?")
    out = values.real
    norm = np.sqrt((out ** 2).sum(axis=1))
    if np.any(norm > 1.0 + 1e-9):
        raise ValueError(f"Bloch vector norm {norm.max():.6f} exceeds 1")
    return out


def bloch_vector(rho: np.ndarray) -> BlochVector:
    """Qubit Bloch vector of a composite state (cavity traced out)."""
    return BlochVector(*(float(v) for v in _bloch_vectors(np.asarray(rho)[None])[0]))


def sigma_theta_projection(v: BlochVector, theta: float) -> float:
    """<sigma_theta> = sin(theta) <sx> + cos(theta) <sz> (theta in radians).

    The cosine is evaluated as sin(pi/2 - theta) so the projection collapses
    to exactly v.x at theta = pi/2 and exactly v.z at theta = 0.
    """
    return math.sin(theta) * v.x + math.sin(0.5 * math.pi - theta) * v.z


def dressed_probe_terms(p: model.SystemParams) -> tuple[tuple[str, float], ...]:
    """sigma_theta x |0><0| (cavity vacuum of the displaced frame) on the
    dressed axis theta of p, as (operator name in operators.space(p.n_fock),
    coefficient) pairs: sin(theta) sx (x) |0><0| + cos(theta) sz (x) |0><0|.
    Its generator mode is the qubit's relaxation toward the dressed state;
    weighting by sigma_theta x I instead picks cavity modes at some
    operating points."""
    theta = rates.dressed_angle(p)[0]
    return (("sx_vac", math.sin(theta)), ("sz_vac", math.cos(theta)))


def steady_point(
    p: model.SystemParams, frame: str = "displaced", rate: bool = False
) -> tuple[BlochVector, float, float]:
    """The steady state of p in the given frame, as (Bloch vector, population
    of the cavity's top Fock level, gamma): steady_points of p alone, its
    error raised."""
    (point,) = steady_points([p], frame, rate)
    if isinstance(point, Exception):
        raise point
    return point


def steady_points(ps, frame: str = "displaced", rate: bool = False) -> list:
    """The steady state of each p in ps in the given frame, in order, as
    (Bloch vector, population of the cavity's top Fock level, gamma), or
    the error of NUMERICAL_ERRORS that names why it failed: the one recipe
    behind every reported steady state.

    Each point reaches one dynamics.steady_states call as coefficients on
    the operator table (model.build_terms), so no H is built, and the
    points that share a generator map are solved as one stack.  When rate is
    true, each point carries the probe dressed_probe_terms(p), whose mode's
    decay rate -Re lambda is gamma (NaN otherwise).  That probe holds the
    cavity vacuum of the displaced frame, which is not the lab frame's
    cavity state, so a rate in any other frame raises ValueError before
    anything is built.

    The solved states of one cutoff are audited and reduced as one stack
    (n x d x d): one eigvalsh gives their smallest eigenvalues and one
    operators.top_fock_population their top Fock populations.  A top Fock
    level past model.TRUNCATION_TOL fails a point with
    model.TruncationError.  The block factorisation of the steady solve
    does not pivot across levels, so positivity is audited too: an
    eigenvalue below POSITIVITY_FLOOR fails a point with
    NonPositiveStateError.  The Bloch vectors of the points that pass come
    from one reduction of their stack, whose rows are bloch_vector's of
    each state bit for bit, its checks included; no state is traced alone.
    dynamics.steady_states forms each state exactly conjugate-symmetric,
    so eigvalsh takes them as they are.  Any other error is raised."""
    if rate and frame != "displaced":
        raise ValueError(
            f"the rate probe holds the displaced frame's cavity vacuum; no rate in frame {frame!r}"
        )
    models = [model.build_terms(p, frame) for p in ps]
    outcomes = dynamics.steady_states(models, [dressed_probe_terms(p) for p in ps] if rate else None)
    states = [o[0] if isinstance(o, tuple) else o for o in outcomes]
    gammas = [-o[1].real if isinstance(o, tuple) else math.nan for o in outcomes]
    points: list = list(states)
    by_dim: dict[int, list[int]] = {}
    for i, rho in enumerate(states):
        if not isinstance(rho, Exception):
            by_dim.setdefault(rho.shape[0], []).append(i)
    for where in by_dim.values():
        rhos = np.array([states[i] for i in where])
        lowest = np.linalg.eigvalsh(rhos)[:, 0]
        tops = top_fock_population(rhos)
        passed = []
        for j, i in enumerate(where):
            try:
                model.check_truncation(float(tops[j]), ps[i].n_fock)
                check_positivity(lowest[j], "steady state")
            except (model.TruncationError, NonPositiveStateError) as exc:
                points[i] = exc
            else:
                passed.append(j)
        if passed:
            for j, v in zip(passed, _bloch_vectors(rhos[passed])):
                points[where[j]] = (BlochVector(*(float(c) for c in v)), float(tops[j]), gammas[where[j]])
    return points


def analytic_point(p: model.SystemParams) -> tuple[BlochVector, float]:
    """The detailed-balance steady state and total rate (1/us) of p: the
    Bloch vector sigma_theta_ss (sin theta, 0, cos theta) on the dressed axis
    theta, and the sum of the two dressed-state rates."""
    pair = rates.rates_general(p)
    theta = rates.dressed_angle(p)[0]
    s = rates.steady_bloch(pair).sigma_theta_ss
    return BlochVector(x=s * math.sin(theta), y=0.0, z=s * math.cos(theta)), pair.total


@dataclass(frozen=True)
class ComparisonReport:
    """One simulation-vs-formula comparison at a single operating point."""

    n_bar: float
    coupling_ratio: float
    gamma_fit: float
    gamma_analytic: float
    sx_sim: float
    sx_analytic: float
    non_exponential: bool
    fit_window_us: float
    tolerance: float
    passed: bool


def cooling_trajectory(
    p: model.SystemParams,
    t_max: float,
    n_times: int = 401,
    initial: str = "turn_on",
    frame: str = "displaced",
) -> dynamics.Trajectory:
    """<sx>, <sy>, <sz> and the cavity photon number n_cav at n_times points
    on [0, t_max] in the given frame, starting from the pre-turn-on
    equilibrium (initial="turn_on") or from a named qubit axis state."""
    if initial == "turn_on":
        rho0 = model.turn_on_state(p, frame=frame)
    else:
        rho0 = model.qubit_axis_state(p, initial, frame=frame)
    hs = space(p.n_fock)
    observables = {"sx": hs.sx, "sy": hs.sy, "sz": hs.sz, "n_cav": hs.n}
    t_grid = np.linspace(0.0, t_max, n_times)
    return dynamics.evolve(*model.build_model(p, frame), rho0, t_grid, observables=observables)


def config_trajectory(p: model.SystemParams, cfg) -> dynamics.Trajectory:
    """The trajectory a run configuration (config.Config) asks for, with p its
    config.to_system_params: cooling_trajectory from cfg.initial_state in
    cfg.frame at cfg.n_times points over cfg.t_max_us, or, without that key,
    over ten analytic relaxation times (10 / rates_general(p).total)."""
    t_max = 10.0 / rates.rates_general(p).total if cfg.t_max_us is None else cfg.t_max_us
    return cooling_trajectory(p, t_max, n_times=cfg.n_times, initial=cfg.initial_state, frame=cfg.frame)


def compare_sim_analytic(
    p: model.SystemParams,
    tolerance: float = 0.10,
    initial: str = "turn_on",
) -> ComparisonReport:
    """Fit the simulated relaxation of <sx> and compare against the
    detailed-balance formulas at the same operating point.

    In the strong-coupling regime (|chi| sqrt(n_bar) >= kappa) the relaxation
    is oscillatory, the report is flagged non-exponential, and no rate is fit.
    The steady state is gated like any other (see steady_point).
    """
    n_bar = model.n_bar_of(p)
    ratio = model.coupling_ratio(p)
    analytic, gamma_analytic = analytic_point(p)
    sx_sim = steady_point(p)[0].x

    t_max = 10.0 / gamma_analytic
    non_exponential = ratio >= 1.0
    gamma_fit = math.nan
    if not non_exponential:
        traj = cooling_trajectory(p, t_max, initial=initial)
        try:
            gamma_fit = fit_exponential(traj.times, traj.expectations["sx"].real).rate
        except FitError:
            non_exponential = True

    passed = (
        not non_exponential
        and abs(gamma_fit - gamma_analytic) <= tolerance * gamma_analytic
        and abs(sx_sim - analytic.x) <= tolerance * max(abs(analytic.x), 1e-12)
    )
    return ComparisonReport(
        n_bar=n_bar,
        coupling_ratio=ratio,
        gamma_fit=gamma_fit,
        gamma_analytic=gamma_analytic,
        sx_sim=sx_sim,
        sx_analytic=analytic.x,
        non_exponential=non_exponential,
        fit_window_us=t_max,
        tolerance=tolerance,
        passed=passed,
    )
