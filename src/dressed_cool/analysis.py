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
from .operators import HilbertSpace, expect_real, fock_state, kron, pauli, reduced_qubit, top_fock_population

__all__ = [
    "ExpFit",
    "BlochVector",
    "FitError",
    "FitNonConvergedError",
    "NonMonotonicDataError",
    "NoSpectralPeakError",
    "NUMERICAL_ERRORS",
    "fit_exponential",
    "dominant_frequency",
    "bloch_vector",
    "sigma_theta_projection",
    "dressed_probe",
    "steady_point",
    "analytic_point",
]
# compare_sim_analytic and its ComparisonReport are not public: only tests
# call them.  They stay bound only because bench/spans.py TARGETS names
# compare_sim_analytic (ROADMAP items 1 and 6).


class FitError(RuntimeError):
    pass


class FitNonConvergedError(FitError):
    pass


class NonMonotonicDataError(FitError):
    """Residual structure inconsistent with a single exponential
    (possible strong-coupling oscillation)."""


class NoSpectralPeakError(RuntimeError):
    pass


# Failures with a named numerical cause.  A sweep records them as a failed
# point and the CLI exits 2 on them; any other exception is a bug or bad input.
NUMERICAL_ERRORS = (
    StiffnessError,
    dynamics.MultipleSteadyStatesError,
    dynamics.ModeNotConvergedError,
    model.TruncationError,
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


def _model(t, y_inf, y_0, rate):
    return y_inf + (y_0 - y_inf) * np.exp(-rate * t)


def _initial_guess(t, y):
    y_inf = float(y[-1])
    y_0 = float(y[0])
    dev = np.abs(y - y_inf)
    mask = dev > 0.05 * dev.max()
    if mask.sum() >= 2 and y_0 != y_inf:
        # log-linear regression on |y - y_inf|
        slope = np.polyfit(t[mask], np.log(dev[mask]), 1)[0]
        rate = -float(slope)
    else:
        rate = 0.0
    if not rate > 0:
        rate = 2.0 / (t[-1] - t[0])
    return np.array([y_inf, y_0, rate])


def _noise_scale(y):
    """Robust per-sample noise from second differences (trend-immune)."""
    if len(y) < 3:
        return 0.0
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


# Gauss-Newton iteration budget of fit_exponential.
_MAX_ITER = 200


def fit_exponential(times, values) -> ExpFit:
    """Damped Gauss-Newton fit of a single exponential relaxation.

    Raises ValueError on non-finite, unordered or too few samples,
    FitNonConvergedError after _MAX_ITER iterations and
    NonMonotonicDataError when the residual carries structure far above the
    noise floor (the signature of strong-coupling oscillations).
    """
    t, y = _series(times, values)
    if len(t) < 8:
        raise ValueError(f"need at least 8 samples, got {len(t)}")
    span = t[-1] - t[0]
    y_range = float(y.max() - y.min())
    if y_range == 0:
        raise FitError("flat trajectory: nothing to fit")

    p = _initial_guess(t, y)
    lam = 1e-3
    cost = None
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        y_inf, y_0, rate = p
        e = np.exp(-rate * t)
        resid = _model(t, y_inf, y_0, rate) - y
        if cost is None:
            cost = float(resid @ resid)
        jac = np.column_stack([1.0 - e, e, -(y_0 - y_inf) * t * e])
        g = jac.T @ resid
        hess = jac.T @ jac
        step = None
        for _ in range(30):
            try:
                delta = np.linalg.solve(hess + lam * np.diag(np.diag(hess)), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + delta
            # A step to a large negative rate overflows exp; the resulting
            # inf or nan cost fails the comparison below and is rejected.
            with np.errstate(over="ignore", invalid="ignore"):
                trial_resid = _model(t, *trial) - y
                trial_cost = float(trial_resid @ trial_resid)
            if trial_cost <= cost:
                step = delta
                p = trial
                cost = trial_cost
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if step is None:
            _reject_structured_residual(cost, y, y_range)
            raise FitNonConvergedError("damping exhausted without a downhill step")
        if float(np.linalg.norm(step)) < 1e-10:
            break
    else:
        _reject_structured_residual(cost, y, y_range)
        raise FitNonConvergedError(f"no convergence after {_MAX_ITER} iterations")

    y_inf, y_0, rate = (float(v) for v in p)
    if rate <= 0:
        raise FitError(f"fitted rate {rate:.3e} is not positive")
    if span < 2.0 / rate:
        raise FitError(
            f"window {span:.3g} us covers less than two decay times of the fitted rate {rate:.3g}/us"
        )
    rms = _reject_structured_residual(cost, y, y_range)
    return ExpFit(rate=rate, y_inf=y_inf, y_0=y_0, rms_residual=rms, iterations=iterations)


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

    @property
    def norm(self) -> float:
        return math.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)


def bloch_vector(rho: np.ndarray) -> BlochVector:
    """Qubit Bloch vector of a composite state (cavity traced out)."""
    rq = reduced_qubit(np.asarray(rho))
    v = BlochVector(
        x=expect_real(pauli("x"), rq),
        y=expect_real(pauli("y"), rq),
        z=expect_real(pauli("z"), rq),
    )
    if v.norm > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {v.norm:.6f} exceeds 1")
    return v


def sigma_theta_projection(v: BlochVector, theta: float) -> float:
    """<sigma_theta> = sin(theta) <sx> + cos(theta) <sz> (theta in radians).

    The cosine is evaluated as sin(pi/2 - theta) so the projection collapses
    to exactly v.x at theta = pi/2 and exactly v.z at theta = 0.
    """
    return math.sin(theta) * v.x + math.sin(0.5 * math.pi - theta) * v.z


def dressed_probe(p: model.SystemParams) -> np.ndarray:
    """sigma_theta x |0><0| (cavity vacuum of the displaced frame) on the
    dressed axis theta of p.  Its generator mode is the qubit's relaxation
    toward the dressed state; weighting by sigma_theta x I instead picks
    cavity modes at some operating points."""
    theta = rates.dressed_angle(p)[0]
    sigma_theta = math.sin(theta) * pauli("x") + math.cos(theta) * pauli("z")
    return kron(sigma_theta, fock_state(p.n_fock, 0))


def steady_point(
    p: model.SystemParams, frame: str = "displaced", rate: bool = False
) -> tuple[BlochVector, float, float]:
    """The steady state of p in the given frame, as (Bloch vector, population
    of the cavity's top Fock level, gamma): the one recipe behind every
    reported steady state.

    The model is solved by dynamics.steady_state, or, when rate is true, by
    dynamics.steady_state_and_mode on dressed_probe(p), whose mode's decay
    rate -Re lambda is gamma (NaN otherwise).  That probe holds the cavity
    vacuum of the displaced frame, which is not the lab frame's cavity
    state, so a rate in any other frame raises ValueError before anything
    is built.  A top Fock level past model.TRUNCATION_TOL raises
    model.TruncationError before the state is reduced."""
    if rate and frame != "displaced":
        raise ValueError(
            f"the rate probe holds the displaced frame's cavity vacuum; no rate in frame {frame!r}"
        )
    h, collapse = model.build_model(p, frame)
    if rate:
        rho, lam = dynamics.steady_state_and_mode(h, collapse, dressed_probe(p))
        gamma = -lam.real
    else:
        rho, gamma = dynamics.steady_state(h, collapse), math.nan
    top = model.check_truncation(top_fock_population(rho), p.n_fock)
    return bloch_vector(rho), top, gamma


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
    hs = HilbertSpace(p.n_fock)
    observables = {"sx": hs.sx, "sy": hs.sy, "sz": hs.sz, "n_cav": hs.a.conj().T @ hs.a}
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
