"""End-to-end checks tying simulation, analytic rates, and analysis together.

Each criterion builds its own physical configuration, runs whatever dynamics
it needs, and reports one pass/fail line.  The six expensive trajectories
are independent pool tasks (_RUNS), run together once per process into one
module-level cache, _TRAJECTORIES, from which criteria 1, 3, 6 and 7 read
them by name instead of re-integrating.

Run everything with ``run_all()`` or from the command line via
``dressed-cool verify``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import POSITIVITY_FLOOR, config_trajectory, dominant_frequency, fit_exponential, steady_point
from .config import Config, to_system_params
from .dynamics import evolve
from .model import TRUNCATION_TOL, TWO_PI, build_model, displacement, n_bar_of, turn_on_state
from .operators import space
from .rates import (
    effective_temperature,
    golden_rule_rate,
    rates_general,
    rates_resonant,
    rates_sideband_limit,
)
from .sweep import SweepGrid, apply_tomography_scale, optimal_theta_detuning, parallel_map, run_sweep


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"ACCEPTANCE {self.index} [{self.name}]: {verdict} - {self.detail}"


def _rel_err(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


# ---------------------------------------------------------------------------
# Shared expensive runs


_C1_N_BARS = (0.25, 0.5, 1.0)

# Each of the suite's trajectories as a picklable pool task (name, config,
# field).  With field set it records <sx>, <sz> and <a> from the turn-on
# state (criterion 6); otherwise it is analysis.config_trajectory.  Longest
# first, as verify's per-trajectory stderr lines time them (one process, one
# BLAS thread, best of five: 0.77 s for the lab run's Krylov steps, then
# 0.44, 0.23, 0.21, 0.14 and 0.10 s), so that the pool's processes start the
# long runs and the caller ends on the short ones.  The lab run is less than
# half of the 1.9 s they sum to, so on two workers no run alone sets the
# makespan.
_RUNS = (
    # The lab run takes n_fock 24, above its rule's 22: at 22 the frames
    # differ by 1.21e-3 (qubit) and 1.46e-3 (field) against criterion 6's
    # 2e-3 tolerance, though the top level there holds only 2.4e-5.
    ("c6 undisplaced", Config(n_bar=3.6, frame="undisplaced", n_fock=24, t_max_us=10.0, n_times=501), True),
    # Strong coupling: narrow cavity, n_bar = 3.31, from |g>.  The cutoff is
    # sized for that start (n_fock 8): the cavity begins in the vacuum of
    # its fluctuations, and the 9 MHz detuned drive displaces them by
    # |beta| = 0.13 only, but the coupling ratio of 6 leaves the cutoff to
    # the linear rule, since the |beta| error law holds in weak coupling
    # only.  The spectral peak is the same to 7 digits from n_fock 8 to 31,
    # where the top level holds 4.4e-9 and 3.3e-27.
    ("c3", Config(kappa_mhz=0.2, n_bar=3.31, initial_state="ground", t_max_us=20.0, n_times=2001), False),
    # The displaced run takes its rule cutoff (n_fock 15).
    ("c6 displaced", Config(n_bar=3.6, t_max_us=10.0, n_times=501), True),
    *((f"c1 n_bar={n_bar}", Config(n_bar=n_bar, n_times=501), False) for n_bar in _C1_N_BARS),
)


def _trajectory(run: tuple):
    """The dynamics.Trajectory of one _RUNS task."""
    _, cfg, field = run
    p = to_system_params(cfg)
    if not field:
        return config_trajectory(p, cfg)
    hs = space(p.n_fock)
    obs = {"sx": hs.sx, "sz": hs.sz, "a": hs.a}
    t_grid = np.linspace(0.0, cfg.t_max_us, cfg.n_times)
    return evolve(*build_model(p, cfg.frame), turn_on_state(p, frame=cfg.frame), t_grid, observables=obs)


# (params, trajectory) of every _RUNS task by name, filled once per process.
_TRAJECTORIES: dict[str, tuple] = {}


def _trajectories() -> dict[str, tuple]:
    """(params, trajectory) of every _RUNS task by name.  The first call runs
    them all through sweep.parallel_map, on one process per usable CPU, this
    one included; the trajectories are the same for any number of CPUs."""
    if not _TRAJECTORIES:
        trajs = parallel_map(_trajectory, _RUNS, 0)
        _TRAJECTORIES.update((name, (to_system_params(cfg), t)) for (name, cfg, _), t in zip(_RUNS, trajs))
    return _TRAJECTORIES


# ---------------------------------------------------------------------------
# Criteria


def criterion_1() -> CriterionResult:
    """Fitted cooling rates track the analytic rates and scale with drive."""
    worst = 0.0
    fitted = []
    spectral = []
    for n_bar in _C1_N_BARS:
        p, traj = _trajectories()[f"c1 n_bar={n_bar}"]
        fit = fit_exponential(traj.times, traj.expectations["sx"])
        worst = max(worst, _rel_err(fit.rate, rates_general(p).total))
        fitted.append(fit.rate)
        spectral.append(steady_point(p, rate=True)[2])
    slope = np.polyfit(_C1_N_BARS, fitted, 1)[0]
    # The exact asymptotic rates, free of the turn-on transient that biases
    # the full-window fit; reported beside the gate, which stays as stated.
    spectral_slope = np.polyfit(_C1_N_BARS, spectral, 1)[0]
    # Slope of rate vs photon number: the golden-rule value at one photon.
    golden_slope = golden_rule_rate(to_system_params(Config(n_bar=1.0)))
    slope_err = _rel_err(slope, golden_slope)
    ok = worst <= 0.10 and slope_err <= 0.10
    detail = (
        f"max |gamma_fit - gamma_analytic| rel err {worst:.3f} (tol 0.10), "
        f"slope {slope:.3f} vs 4 chi^2/kappa = {golden_slope:.3f} "
        f"(rel err {slope_err:.3f}, tol 0.10); "
        f"spectral rates {', '.join(f'{g:.4f}' for g in spectral)} /us, "
        f"slope {spectral_slope:.3f} (reported, not gated)"
    )
    return CriterionResult(1, "cooling-rate-vs-drive", ok, detail)


def criterion_2() -> CriterionResult:
    """Steady-state <sigma_x> at one photon, raw and with tomography scale,
    from the one row of a one-point sweep."""
    p = to_system_params(Config(n_bar=1.0))
    grid = SweepGrid(
        power_db=np.array([0.0]),
        detuning=np.array([p.delta_q_prime - 2.0 * p.chi * 1.0]),
        fixed=p,
        mode="steady_tomography",
        theta=math.pi / 2.0,
    )
    table = run_sweep(grid)
    raw = table.rows[0].sx
    raw_ok = abs(raw - 0.94) <= 0.03
    scaled = apply_tomography_scale(table, 0.8).rows[0].sx
    scaled_ok = abs(scaled - 0.75) <= 0.03
    ok = raw_ok and scaled_ok
    detail = (
        f"<sigma_x> = {raw:.4f} (want 0.94 +/- 0.03), "
        f"scaled by 0.8 -> {scaled:.4f} (want 0.75 +/- 0.03)"
    )
    return CriterionResult(2, "steady-sigma-x", ok, detail)


def criterion_3() -> CriterionResult:
    """Strong-coupling oscillation frequency matches 2|chi| sqrt(n_bar)."""
    p, traj = _trajectories()["c3"]
    freq = dominant_frequency(traj.times, traj.expectations["sx"])
    expected = 2.0 * abs(p.chi) * math.sqrt(n_bar_of(p)) / TWO_PI
    err = _rel_err(freq, expected)
    ok = err <= 0.05
    detail = (
        f"spectral peak {freq:.4f} MHz vs 2|chi|sqrt(n_bar) = {expected:.4f} MHz "
        f"(rel err {err:.3f}, tol 0.05)"
    )
    return CriterionResult(3, "vacuum-rabi-splitting", ok, detail)


def criterion_4() -> CriterionResult:
    """Blue-detuned drive inverts the qubit; red/blue maps are antisymmetric."""
    p_blue = to_system_params(Config(n_bar=1.0, delta_c_mhz=9.0))
    sx_blue = steady_point(p_blue)[0].x
    invert_ok = sx_blue <= -0.85

    # Pure photon-induced rates: strip the intrinsic qubit channels so the
    # two detunings are exact mirror images.
    base = to_system_params(Config(n_bar=1.0))
    p_red0 = replace(base, gamma_down=0.0, gamma_up=0.0, gamma_phi=0.0)
    p_blue0 = replace(p_red0, delta_c=-p_red0.delta_c)
    powers = np.linspace(-10.0, 0.0, 5)
    detunings = TWO_PI * np.linspace(-5.0, 5.0, 5)

    def sx_map(p_side):
        grid = SweepGrid(power_db=powers, detuning=detunings, fixed=p_side, mode="steady_tomography")
        return np.array([row.sx for row in run_sweep(grid).rows]).reshape(powers.size, detunings.size)

    sx_red, sx_blue_map = sx_map(p_red0), sx_map(p_blue0)
    # Mirror image: flipping the cavity detuning swaps heating and cooling,
    # so sx(red) should equal -sx(blue) point by point.
    worst = float(np.max(np.abs(sx_red + sx_blue_map)))
    anti_ok = worst <= 0.05
    ok = invert_ok and anti_ok
    detail = (
        f"blue-detuned <sigma_x> = {sx_blue:.4f} (want <= -0.85), "
        f"max |sx_red + sx_blue| = {worst:.4f} (tol 0.05)"
    )
    return CriterionResult(4, "heating-inversion-antisymmetry", ok, detail)


def criterion_5() -> CriterionResult:
    """Optimal qubit detuning for a tilted measurement axis."""
    delta_c_mhz = -15.0
    omega_r_mhz = 9.0
    star = optimal_theta_detuning(delta_c_mhz, omega_r_mhz)
    theta = math.atan2(omega_r_mhz, star)
    base = to_system_params(
        Config(n_bar=1.0, delta_c_mhz=delta_c_mhz, omega_r_mhz=omega_r_mhz)
    )
    dq_prime_grid = np.arange(6.0, 18.0 + 1e-9, 0.5)
    # The sweep axis carries the bare detuning; shift so the per-point
    # Stark correction lands each row exactly on the intended dressed value.
    detunings = TWO_PI * dq_prime_grid - 2.0 * base.chi * 1.0
    grid = SweepGrid(
        power_db=np.array([0.0]),
        detuning=detunings,
        fixed=base,
        mode="steady_tomography",
        theta=theta,
    )
    table = run_sweep(grid)
    s_theta = np.array([row.s_theta for row in table.rows])
    best = dq_prime_grid[int(np.argmax(s_theta))]
    err = abs(best - star)
    ok = err <= 0.5 + 1e-9
    detail = (
        f"argmax <sigma_theta> at delta_q' = {best:.1f} MHz vs "
        f"sqrt(delta_c^2 - omega_r^2) = {star:.1f} MHz (within one 0.5 MHz step)"
    )
    return CriterionResult(5, "optimal-detuning-tilted-axis", ok, detail)


def criterion_6() -> CriterionResult:
    """Internal consistency: rate formula limits and frame equivalence."""
    # General formula collapses to the resonant one on resonance.
    p = to_system_params(Config(n_bar=1.0))
    gen = rates_general(p)
    res = rates_resonant(p)
    limit_err = max(
        _rel_err(gen.gamma_minus, res.gamma_minus),
        _rel_err(gen.gamma_plus, res.gamma_plus),
    )
    limit_ok = limit_err <= 1e-14

    # The general rates approach the sideband-limit formulas far detuned
    # (delta_q' = 30 omega_r) with the cavity on the cooling sideband,
    # delta_c = -delta_q', which the formulas assume; they differ there by
    # about (omega_r / delta_q')^2 = 1.1e-3.  At the default delta_c = -9
    # MHz the formula's gamma_- misses by 7.8 times the general one, so the
    # check can fail.
    p_sb = to_system_params(
        Config(n_bar=1.0, delta_q_prime_mhz=15.0, omega_r_mhz=0.5, delta_c_mhz=-15.0)
    )
    p_sb = replace(p_sb, gamma_down=0.0, gamma_up=0.0, gamma_phi=0.0)
    sb = rates_sideband_limit(p_sb)
    exact = rates_general(p_sb)
    sideband_err = max(
        _rel_err(sb.gamma_minus, exact.gamma_minus),
        _rel_err(sb.gamma_plus, exact.gamma_plus),
    )
    sideband_ok = sideband_err <= 1e-2

    # Displaced and lab frames agree on qubit observables and on the field
    # once the coherent offset is added back.
    p_disp, disp = _trajectories()["c6 displaced"]
    lab = _trajectories()["c6 undisplaced"][1]
    a_bar = displacement(p_disp)
    dx = np.max(np.abs(disp.expectations["sx"] - lab.expectations["sx"]))
    dz = np.max(np.abs(disp.expectations["sz"] - lab.expectations["sz"]))
    dfield = np.max(np.abs(lab.expectations["a"] - (a_bar + disp.expectations["a"])))
    frame_err = float(max(dx, dz))
    frame_ok = frame_err <= 2e-3 and dfield <= 2e-3

    ok = limit_ok and sideband_ok and frame_ok
    detail = (
        f"resonant-limit rel err {limit_err:.2e} (tol 1e-14), "
        f"sideband-limit rel err {sideband_err:.2e} (tol 1e-2), "
        f"frame mismatch qubit {frame_err:.2e} / field {dfield:.2e} (tol 2e-3)"
    )
    return CriterionResult(6, "limits-and-frame-equivalence", ok, detail)


def criterion_7() -> CriterionResult:
    """Trace and positivity stay numerically clean, and no trajectory's
    cavity truncation comes closer to its edge than TRUNCATION_TOL.
    Hermiticity holds by construction: evolve checks H and rho0 on entry and
    forms every state from real Hermitian-basis coordinates."""
    trajs = [traj for _, traj in _trajectories().values()]

    trace_dev = max(t.stats.max_trace_deviation for t in trajs)
    min_eig = min(t.stats.min_eigenvalue for t in trajs)
    edge = max(t.stats.top_fock_population for t in trajs)
    ok = trace_dev <= 1e-7 and min_eig >= POSITIVITY_FLOOR and edge <= TRUNCATION_TOL
    detail = (
        f"max |tr - 1| = {trace_dev:.2e} (tol 1e-7), "
        f"min eigenvalue = {min_eig:.2e} (floor -1e-7), "
        f"max top Fock level population = {edge:.2e} (tol {TRUNCATION_TOL:.0e}), "
        "Hermitian by construction (H and rho0 checked on entry)"
    )
    return CriterionResult(7, "density-matrix-conservation", ok, detail)


def criterion_8() -> CriterionResult:
    """Effective temperature of the measured dressed-state population."""
    t_eff = effective_temperature(0.94, TWO_PI * 9.0)
    ok = 140e-6 <= t_eff <= 165e-6
    detail = (
        f"T_eff = {t_eff * 1e6:.1f} uK from purity 0.94 "
        f"at omega_tilde/2pi = 9 MHz (want 140-165 uK)"
    )
    return CriterionResult(8, "effective-temperature", ok, detail)


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all() -> list[CriterionResult]:
    """Run the suite's trajectories on one process per CPU this process may
    run on, report each on stderr, then run every acceptance criterion in
    order, printing each result as soon as it is known.  The results are the
    same for any number of CPUs."""
    for name, (p, traj) in _trajectories().items():
        print(f"trajectory {name}: d^2 = {(2 * p.n_fock) ** 2}, {traj.stats.summary()}", file=sys.stderr)
    results = []
    for fn in _CRITERIA:
        result = fn()
        results.append(result)
        print(result.line())
    return results
