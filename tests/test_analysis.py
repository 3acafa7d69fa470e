import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from dressed_cool import analysis, dynamics
from dressed_cool.analysis import (
    BlochVector,
    FitError,
    NonMonotonicDataError,
    NoSpectralPeakError,
    bloch_vector,
    compare_sim_analytic,
    cooling_trajectory,
    dominant_frequency,
    dressed_probe,
    fit_exponential,
    sigma_theta_projection,
    steady_point,
)
from dressed_cool.config import Config, to_system_params
from dressed_cool.dynamics import evolve
from dressed_cool.model import (
    FRAMES,
    SystemParams,
    TruncationError,
    build_hamiltonian_displaced,
    build_hamiltonian_undisplaced,
    build_model,
    collapse_ops,
    qubit_axis_state,
    turn_on_state,
)
from dressed_cool.operators import HilbertSpace, coherent_vector, kron, qubit_state
from dressed_cool.rates import rates_resonant

TWO_PI = 2.0 * math.pi


def reference_params(**overrides) -> SystemParams:
    overrides.setdefault("thermal_qubit", False)
    return to_system_params(Config(**overrides))


# ---------------------------------------------------------------------------
# exponential fitting


def test_fit_clean_rise():
    t = np.linspace(0.0, 2.0, 101)
    y = 0.9 * (1.0 - np.exp(-2.5 * t))
    f = fit_exponential(t, y)
    assert f.rate == pytest.approx(2.5, rel=1e-6)
    assert f.y_inf == pytest.approx(0.9, rel=1e-6)
    assert f.y_0 == pytest.approx(0.0, abs=1e-6)


def test_fit_recovers_across_rate_range():
    for rate in (0.05, 0.11, 0.5, 1.0, 3.7, 10.0):
        t = np.linspace(0.0, 8.0 / rate, 121)
        y = -0.3 + 1.2 * np.exp(-rate * t)
        f = fit_exponential(t, y)
        assert f.rate == pytest.approx(rate, rel=1e-6)
        assert f.y_inf == pytest.approx(-0.3, rel=1e-6)
        assert f.y_0 == pytest.approx(0.9, rel=1e-6)


def test_fit_noise_robustness_monte_carlo():
    t = np.linspace(0.0, 2.0, 101)
    clean = 0.9 * (1.0 - np.exp(-2.5 * t))
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = fit_exponential(t, clean + rng.normal(scale=0.01, size=t.size))
        assert abs(f.rate - 2.5) <= 0.05 * 2.5


def test_fit_rejects_oscillation():
    t_short = np.linspace(0.0, 5.0, 200)
    # A ringing turn-on, as at tilted-axis cooling points: Gauss-Newton tries
    # steps whose exp overflows, and rejecting them must stay silent.
    t_long = np.linspace(0.0, 68.0, 401)
    cases = [
        (t_short, np.cos(2.0 * np.pi * 2.0 * t_short) * np.exp(-0.3 * t_short)),
        (t_long, 0.47 * (1.0 - np.exp(-0.1 * t_long) * np.cos(3.0 * t_long))),
    ]
    for t, y in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonMonotonicDataError):
                fit_exponential(t, y)


def test_fit_rejects_tiny_sample():
    t = np.linspace(0.0, 2.0, 5)
    with pytest.raises(ValueError):
        fit_exponential(t, np.exp(-t))


def test_fit_rejects_short_window():
    # 0.2 us of a 0.5 /us decay barely moves; the fit would be unconstrained
    t = np.linspace(0.0, 0.2, 50)
    with pytest.raises(FitError, match="decay times"):
        fit_exponential(t, np.exp(-0.5 * t))


def test_fit_simulated_cooling_rate():
    p = reference_params(n_bar=1.0)
    total = rates_resonant(p).total
    traj = cooling_trajectory(p, 10.0 / total, n_times=401)
    f = fit_exponential(traj.times, traj.expectations["sx"])
    assert f.rate == pytest.approx(total, rel=0.10)
    assert total == pytest.approx(2.68, abs=0.01)


def test_cooling_trajectory_is_the_hand_assembled_evolve():
    p = reference_params(n_bar=0.05, n_fock=7)
    hs = HilbertSpace(p.n_fock)
    obs = {"sx": hs.sx, "sy": hs.sy, "sz": hs.sz, "n_cav": hs.a.conj().T @ hs.a}
    builders = {"displaced": build_hamiltonian_displaced, "undisplaced": build_hamiltonian_undisplaced}
    t_grid = np.linspace(0.0, 0.5, 11)
    for frame in FRAMES:
        for initial in ("turn_on", "ground"):
            if initial == "turn_on":
                rho0 = turn_on_state(p, frame=frame)
            else:
                rho0 = qubit_axis_state(p, initial, frame=frame)
            ref = evolve(builders[frame](p), collapse_ops(p, frame=frame), rho0, t_grid,
                         observables=obs)
            traj = cooling_trajectory(p, 0.5, n_times=11, initial=initial, frame=frame)
            assert np.array_equal(traj.times, ref.times)
            assert list(traj.expectations) == list(ref.expectations)
            for name, series in ref.expectations.items():
                assert np.array_equal(traj.expectations[name], series), (frame, initial, name)
            assert traj.stats.max_trace_deviation == ref.stats.max_trace_deviation
            assert traj.stats.min_eigenvalue == ref.stats.min_eigenvalue


def test_named_initial_states_agree_across_frames():
    # a named state's cavity is the vacuum of the field's fluctuations in
    # both frames, so qubit observables agree as closely as the turn-on
    # trajectories do (1.9e-7 here); an empty lab cavity differed by 0.43
    p = reference_params(n_bar=1.0, n_fock=16)
    for initial in ("turn_on", "ground", "plus"):
        runs = [cooling_trajectory(p, 2.0, n_times=201, initial=initial, frame=fr) for fr in FRAMES]
        for name in ("sx", "sy", "sz"):
            gap = np.max(np.abs(runs[0].expectations[name] - runs[1].expectations[name]))
            assert gap <= 1e-6, (initial, name)


# ---------------------------------------------------------------------------
# dominant frequency


def test_frequency_pure_tone():
    t = np.arange(0.0, 20.0, 0.01)
    f = dominant_frequency(t, np.sin(TWO_PI * 2.4 * t))
    assert f == pytest.approx(2.400, abs=0.005)


def test_frequency_damped_tone():
    t = np.arange(0.0, 20.0, 0.01)
    y = np.exp(-0.5 * t) * np.cos(TWO_PI * 2.4 * t)
    f = dominant_frequency(t, y)
    assert f == pytest.approx(2.4, rel=0.01)


def test_frequency_scale_and_offset_invariance():
    t = np.arange(0.0, 20.0, 0.01)
    y = np.cos(TWO_PI * 1.7 * t)
    base = dominant_frequency(t, y)
    assert dominant_frequency(t, 37.0 * y) == base
    assert dominant_frequency(t, y + 5.0) == pytest.approx(base, abs=1e-9)


def test_frequency_survives_linear_drift():
    t = np.arange(0.0, 20.0, 0.01)
    y = np.cos(TWO_PI * 2.4 * t) + 0.1 * t
    f = dominant_frequency(t, y)
    assert f == pytest.approx(2.4, rel=0.01)


def test_frequency_flat_signal_has_no_peak():
    t = np.linspace(0.0, 10.0, 256)
    with pytest.raises(NoSpectralPeakError):
        dominant_frequency(t, np.zeros_like(t))
    with pytest.raises(NoSpectralPeakError):
        dominant_frequency(t, np.full_like(t, 3.0))


def test_frequency_grid_validation():
    y = np.sin(np.linspace(0.0, 30.0, 40))
    with pytest.raises(ValueError):
        dominant_frequency(np.linspace(0.0, 1.0, 40), y)
    t_bad = np.concatenate([np.linspace(0.0, 1.0, 64), [1.5, 2.5]])
    with pytest.raises(ValueError):
        dominant_frequency(t_bad, np.sin(5.0 * t_bad))


# ---------------------------------------------------------------------------
# Bloch vector extraction


def test_bloch_ground_vacuum():
    rho = kron(qubit_state(np.array([1.0, 0.0])), np.diag([1.0, 0, 0, 0]).astype(complex))
    v = bloch_vector(rho)
    assert (v.x, v.y, v.z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def test_bloch_plus_state_with_coherent_cavity():
    plus = qubit_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
    alpha = coherent_vector(12, 1.3 - 0.4j)
    rho = kron(plus, np.outer(alpha, alpha.conj()))
    v = bloch_vector(rho)
    assert v.x == pytest.approx(1.0, abs=1e-12)
    assert v.y == pytest.approx(0.0, abs=1e-12)
    assert v.z == pytest.approx(0.0, abs=1e-12)
    assert v.norm <= 1.0 + 1e-9


def test_bloch_norm_bound_random_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        assert bloch_vector(rho).norm <= 1.0 + 1e-9


def test_sigma_theta_axes_are_exact():
    v = BlochVector(x=0.3, y=-0.1, z=0.8)
    assert sigma_theta_projection(v, math.pi / 2.0) == v.x
    assert sigma_theta_projection(v, 0.0) == v.z


def test_sigma_theta_tilted():
    v = BlochVector(x=0.64, y=0.0, z=0.69)
    assert sigma_theta_projection(v, math.radians(43.0)) == pytest.approx(
        0.941, abs=1e-3
    )


# ---------------------------------------------------------------------------
# the steady-point recipe


@pytest.mark.parametrize("frame", FRAMES)
def test_steady_point_is_the_gated_solve(frame):
    p = reference_params(n_bar=1.0)
    h, ops = build_model(p, frame)
    rho = dynamics.steady_state(h, ops)
    v, top, gamma = steady_point(p, frame)
    assert v == bloch_vector(rho)
    assert 0.0 < top <= 1e-4
    assert math.isnan(gamma)
    v_mode, _, gamma = steady_point(p, rate=True)
    rho_mode, lam = dynamics.steady_state_and_mode(*build_model(p), dressed_probe(p))
    assert v_mode == bloch_vector(rho_mode)
    assert gamma == -lam.real > 0.0


def test_steady_point_gates_a_too_small_cutoff():
    # the lab frame at n_bar = 3.6 holds the coherent field itself; n_fock 8
    # truncates it
    with pytest.raises(TruncationError, match="n_fock = 8"):
        steady_point(reference_params(n_bar=3.6, n_fock=8), "undisplaced")


def test_steady_point_takes_no_rate_in_the_lab_frame(monkeypatch):
    # the rate probe is the displaced frame's cavity vacuum; in the lab frame
    # at n_bar = 1 it used to raise ModeNotConvergedError after a full solve
    def unbuilt(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(analysis.model, "build_model", unbuilt)
    with pytest.raises(ValueError, match="'undisplaced'"):
        steady_point(reference_params(n_bar=1.0), "undisplaced", rate=True)


def test_compare_gates_the_truncation():
    # on the cavity resonance at kappa/2pi = 0.2 MHz the steady state needs
    # n_fock 31; at 8 the comparison has no trustworthy simulated state
    with pytest.raises(TruncationError, match="n_fock = 8"):
        compare_sim_analytic(reference_params(kappa_mhz=0.2, delta_c_mhz=0.0, n_bar=3.31, n_fock=8))


# ---------------------------------------------------------------------------
# simulation-vs-formula comparison


def test_compare_weak_coupling_point():
    report = compare_sim_analytic(reference_params(n_bar=0.25))
    assert not report.non_exponential
    assert report.passed
    assert report.gamma_fit == pytest.approx(report.gamma_analytic, rel=0.10)
    assert report.sx_sim == pytest.approx(report.sx_analytic, rel=0.10)


def test_compare_dark_cavity_needs_displaced_start():
    # with no photons the turn-on state is already stationary along x, so the
    # relaxation is only visible from a different axis
    report = compare_sim_analytic(reference_params(n_bar=0.0), initial="plus", tolerance=0.15)
    assert report.gamma_fit == pytest.approx(report.gamma_analytic, rel=0.15)
    assert report.gamma_analytic == pytest.approx(0.0943, abs=5e-4)


def test_compare_flags_strong_coupling():
    report = compare_sim_analytic(reference_params(kappa_mhz=0.2, n_bar=3.31))
    assert report.non_exponential
    assert math.isnan(report.gamma_fit)
    assert not report.passed
    assert report.coupling_ratio == pytest.approx(6.0, abs=0.05)


def test_report_json_roundtrip():
    report = compare_sim_analytic(reference_params(n_bar=0.25))
    data = json.loads(json.dumps(asdict(report)))
    assert data["passed"] is True
    assert data["n_bar"] == pytest.approx(0.25, rel=1e-9)
    assert set(data) == {
        "n_bar", "coupling_ratio", "gamma_fit", "gamma_analytic", "sx_sim",
        "sx_analytic", "non_exponential", "fit_window_us", "tolerance", "passed",
    }
