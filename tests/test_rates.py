import math

import numpy as np
import pytest

from dressed_cool.config import Config, to_system_params
from dressed_cool.model import SystemParams, n_bar_of
from dressed_cool.rates import (
    cavity_density_of_states,
    cooling_condition,
    effective_temperature,
    golden_rule_rate,
    raman_rates,
    rates_general,
    rates_resonant,
    rates_sideband_limit,
    s_nn,
    steady_bloch,
)

TWO_PI = 2.0 * math.pi


def reference_params(**overrides) -> SystemParams:
    overrides.setdefault("thermal_qubit", False)
    return to_system_params(Config(**overrides))


# ---------------------------------------------------------------------------
# noise spectrum


def test_s_nn_peak_value():
    # Lorentzian maximum 4*n_bar/kappa at omega = -delta_c
    kappa = TWO_PI * 4.3
    delta_c = TWO_PI * -9.0
    peak = s_nn(-delta_c, 1.0, kappa, delta_c)
    assert peak == pytest.approx(4.0 / kappa, rel=1e-12)
    assert peak == pytest.approx(0.14805110985292588, rel=1e-12)


def test_s_nn_empty_cavity_is_silent():
    assert s_nn(3.0, 0.0, TWO_PI * 4.3, TWO_PI * -9.0) == 0.0


def test_s_nn_unimodal_and_positive():
    kappa = TWO_PI * 4.3
    delta_c = TWO_PI * -9.0
    omegas = np.linspace(-40.0 * TWO_PI, 40.0 * TWO_PI, 4001)
    vals = np.array([s_nn(w, 2.0, kappa, delta_c) for w in omegas])
    assert np.all(vals > 0.0)
    k = int(np.argmax(vals))
    assert np.all(np.diff(vals[: k + 1]) > 0.0)
    assert np.all(np.diff(vals[k:]) < 0.0)


def test_s_nn_linear_in_photon_number():
    args = (TWO_PI * 2.0, TWO_PI * 4.3, TWO_PI * -9.0)
    assert s_nn(args[0], 3.0, args[1], args[2]) == pytest.approx(
        3.0 * s_nn(args[0], 1.0, args[1], args[2]), rel=1e-14
    )


def test_density_of_states_peak():
    kappa = TWO_PI * 4.3
    peak = cavity_density_of_states(TWO_PI * 9.0, TWO_PI * 9.0, kappa)
    assert peak == pytest.approx(2.0 / (math.pi * kappa), rel=1e-12)
    assert peak == pytest.approx(0.023563065963334365, rel=1e-12)


# ---------------------------------------------------------------------------
# resonant-regime rates


def test_resonant_reference_point():
    r = rates_resonant(reference_params(n_bar=1.0))
    assert r.gamma_minus == pytest.approx(2.593174946025339, rel=1e-12)
    assert r.gamma_plus == pytest.approx(0.08298266264764786, rel=1e-12)
    assert r.regime == "resonant"


def test_resonant_dark_cavity_leaves_dephasing_floor():
    # n_bar = 0 strips the photon terms, leaving 1/(2 T2) on both sides
    r = rates_resonant(reference_params(n_bar=0.0))
    floor = 0.5 * (1.0 / 10.6 - 1.0 / 20.0) + 0.25 / 10.0
    assert r.gamma_minus == pytest.approx(floor, rel=1e-12)
    assert r.gamma_plus == pytest.approx(floor, rel=1e-12)
    assert r.gamma_minus == pytest.approx(0.0472, abs=5e-4)


def test_golden_rule_is_photon_part_of_resonant():
    p = reference_params(n_bar=1.0)
    golden = golden_rule_rate(p)
    assert golden == pytest.approx(2.5460051347045844, rel=1e-12)
    assert golden == pytest.approx(4.0 * p.chi**2 * 1.0 / p.kappa, rel=1e-12)
    assert golden_rule_rate(reference_params(n_bar=0.0)) == 0.0
    assert golden_rule_rate(reference_params(n_bar=2.0)) == pytest.approx(
        2.0 * golden, rel=1e-12
    )


# ---------------------------------------------------------------------------
# general-angle rates


def test_general_reduces_to_resonant_on_resonance():
    p = reference_params(n_bar=1.0)
    rg = rates_general(p)
    rr = rates_resonant(p)
    assert rg.gamma_minus == pytest.approx(rr.gamma_minus, rel=1e-14)
    assert rg.gamma_plus == pytest.approx(rr.gamma_plus, rel=1e-14)


def test_general_at_45_degrees():
    # delta_q' = omega_r puts theta at 45 deg; with the cavity parked on the
    # lower sideband the photon cooling term is half its resonant strength
    omega = TWO_PI * 9.0
    omega_tilde = math.sqrt(2.0) * omega
    p = reference_params(n_bar=1.0)
    p45 = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=omega, delta_c=-omega_tilde,
        delta_q_prime=omega, eps_d=p.eps_d, gamma_down=p.gamma_down,
        gamma_up=p.gamma_up, gamma_phi=p.gamma_phi, n_fock=p.n_fock,
    )
    r = rates_general(p45)
    n_bar = n_bar_of(p45)
    photon = 0.5 * 4.0 * p.chi**2 * n_bar / p.kappa
    dephasing = 0.25 * p.gamma_phi
    relax = (1.0 + 0.5) / 4.0 * p.gamma_down
    assert r.gamma_minus == pytest.approx(photon + dephasing + relax, rel=1e-9)


def test_general_red_blue_symmetry():
    # flipping the cavity detuning swaps which sideband the noise feeds
    p = reference_params(n_bar=1.0)
    flipped = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=p.omega_r_rabi, delta_c=-p.delta_c,
        delta_q_prime=p.delta_q_prime, eps_d=p.eps_d, gamma_down=0.0,
        gamma_up=0.0, gamma_phi=0.0, n_fock=p.n_fock,
    )
    bare = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=p.omega_r_rabi, delta_c=p.delta_c,
        delta_q_prime=p.delta_q_prime, eps_d=p.eps_d, gamma_down=0.0,
        gamma_up=0.0, gamma_phi=0.0, n_fock=p.n_fock,
    )
    r_red = rates_general(bare)
    r_blue = rates_general(flipped)
    assert r_red.gamma_minus == pytest.approx(r_blue.gamma_plus, rel=1e-12)
    assert r_red.gamma_plus == pytest.approx(r_blue.gamma_minus, rel=1e-12)


def test_general_rejects_undefined_angle():
    p = reference_params(n_bar=1.0)
    degenerate = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=0.0, delta_c=p.delta_c,
        delta_q_prime=0.0, eps_d=p.eps_d, gamma_down=p.gamma_down,
        gamma_up=p.gamma_up, gamma_phi=p.gamma_phi, n_fock=p.n_fock,
    )
    with pytest.raises(ValueError):
        rates_general(degenerate)


def test_general_approaches_sideband_limit():
    # push delta_q'/omega_r to 1000 with the cavity on the lower sideband
    omega = TWO_PI * 0.015
    delta = TWO_PI * 15.0
    omega_tilde = math.hypot(omega, delta)
    p = reference_params(n_bar=1.0)
    far = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=omega, delta_c=-omega_tilde,
        delta_q_prime=delta, eps_d=p.eps_d, gamma_down=p.gamma_down,
        gamma_up=p.gamma_up, gamma_phi=p.gamma_phi, n_fock=p.n_fock,
    )
    rg = rates_general(far)
    rs = rates_sideband_limit(far)
    assert rg.gamma_minus == pytest.approx(rs.gamma_minus, rel=1e-5)
    assert rg.gamma_plus == pytest.approx(rs.gamma_plus, rel=1e-5)


# ---------------------------------------------------------------------------
# sideband limit and Raman picture


def test_sideband_suppression_factor():
    # (omega_r / delta_q')^2 = 0.01 scales the photon and dephasing terms
    omega = TWO_PI * 1.5
    delta = TWO_PI * 15.0
    p = reference_params(n_bar=1.0)
    side = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=omega, delta_c=p.delta_c,
        delta_q_prime=delta, eps_d=p.eps_d, gamma_down=0.0, gamma_up=0.0,
        gamma_phi=0.2, n_fock=p.n_fock,
    )
    r = rates_sideband_limit(side)
    n_bar = n_bar_of(side)
    photon_minus = 4.0 * p.chi**2 * n_bar / p.kappa
    photon_plus = p.kappa * p.chi**2 * n_bar / ((0.5 * p.kappa) ** 2 + 4.0 * delta**2)
    assert r.gamma_minus == pytest.approx((photon_minus + 0.5 * 0.2) * 0.01, rel=1e-9)
    assert r.gamma_plus == pytest.approx((photon_plus + 0.5 * 0.2) * 0.01, rel=1e-9)


def test_sideband_zero_drive_keeps_relaxation_half():
    p = reference_params(n_bar=1.0)
    quiet = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=0.0, delta_c=p.delta_c,
        delta_q_prime=TWO_PI * 15.0, eps_d=p.eps_d, gamma_down=0.1,
        gamma_up=0.0, gamma_phi=0.0, n_fock=p.n_fock,
    )
    r = rates_sideband_limit(quiet)
    assert r.gamma_minus == pytest.approx(0.05, rel=1e-12)
    assert r.gamma_plus == pytest.approx(0.05, rel=1e-12)


def test_sideband_warns_when_ratio_is_small():
    p = reference_params(n_bar=1.0)
    close = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=p.omega_r_rabi, delta_c=p.delta_c,
        delta_q_prime=p.omega_r_rabi, eps_d=p.eps_d, gamma_down=p.gamma_down,
        gamma_up=p.gamma_up, gamma_phi=p.gamma_phi, n_fock=p.n_fock,
    )
    with pytest.warns(UserWarning, match="sideband"):
        rates_sideband_limit(close)


def test_sideband_rejects_zero_detuning():
    p = reference_params(n_bar=1.0)
    bad = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=p.omega_r_rabi, delta_c=p.delta_c,
        delta_q_prime=0.0, eps_d=p.eps_d, gamma_down=p.gamma_down,
        gamma_up=p.gamma_up, gamma_phi=p.gamma_phi, n_fock=p.n_fock,
    )
    with pytest.raises(ValueError):
        rates_sideband_limit(bad)


def test_raman_matches_photon_part_of_sideband():
    omega = TWO_PI * 1.57
    delta = TWO_PI * 15.0
    p = reference_params(n_bar=1.0)
    side = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=omega, delta_c=p.delta_c,
        delta_q_prime=delta, eps_d=p.eps_d, gamma_down=0.0, gamma_up=0.0,
        gamma_phi=0.0, n_fock=p.n_fock,
    )
    r_raman = raman_rates(side)
    r_side = rates_sideband_limit(side)
    assert r_raman.gamma_minus == r_side.gamma_minus
    assert r_raman.gamma_plus == r_side.gamma_plus
    assert r_raman.gamma_minus == pytest.approx(0.0279, abs=5e-4)


def test_raman_dark_cavity_is_zero():
    p = reference_params(n_bar=0.0)
    dark = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=TWO_PI * 1.5, delta_c=p.delta_c,
        delta_q_prime=TWO_PI * 15.0, eps_d=0.0, gamma_down=p.gamma_down,
        gamma_up=p.gamma_up, gamma_phi=p.gamma_phi, n_fock=p.n_fock,
    )
    r = raman_rates(dark)
    assert r.gamma_minus == 0.0
    assert r.gamma_plus == 0.0


# ---------------------------------------------------------------------------
# steady-state Bloch prediction


def test_steady_bloch_reference_point():
    p = reference_params(n_bar=1.0)
    b = steady_bloch(rates_general(p), math.pi / 2.0)
    assert b.sigma_theta_ss == pytest.approx(0.9379837253391097, rel=1e-12)
    assert b.purity_plus == pytest.approx(0.9689918626695548, rel=1e-12)


def test_steady_bloch_identities():
    p = reference_params(n_bar=1.0)
    r = rates_general(p)
    b = steady_bloch(r, math.pi / 2.0)
    # polarisation and purity are locked together
    assert b.sigma_theta_ss == 2.0 * b.purity_plus - 1.0
    assert -1.0 <= b.sigma_theta_ss <= 1.0


def test_steady_bloch_limits():
    from dressed_cool.rates import RatePair

    balanced = steady_bloch(RatePair(1.0, 1.0, "general"), 0.3)
    assert balanced.sigma_theta_ss == 0.0
    one_way = steady_bloch(RatePair(1.0, 0.0, "general"), 0.3)
    assert one_way.sigma_theta_ss == 1.0
    with pytest.raises(ValueError):
        steady_bloch(RatePair(0.0, 0.0, "general"), 0.3)


# ---------------------------------------------------------------------------
# effective temperature


def test_effective_temperature_reference_point():
    t_eff = effective_temperature(0.94, TWO_PI * 9.0)
    assert t_eff == pytest.approx(157e-6, abs=1e-6)


def test_effective_temperature_scales_with_splitting():
    t1 = effective_temperature(0.9, TWO_PI * 9.0)
    t2 = effective_temperature(0.9, TWO_PI * 18.0)
    assert t2 == pytest.approx(2.0 * t1, rel=1e-12)


def test_effective_temperature_limits():
    assert effective_temperature(0.5, TWO_PI * 9.0) == math.inf
    assert effective_temperature(0.3, TWO_PI * 9.0) < 0.0
    assert effective_temperature(1.0 - 1e-9, TWO_PI * 9.0) > 0.0


def test_effective_temperature_domain():
    with pytest.raises(ValueError):
        effective_temperature(0.0, TWO_PI * 9.0)
    with pytest.raises(ValueError):
        effective_temperature(1.0, TWO_PI * 9.0)
    with pytest.raises(ValueError):
        effective_temperature(1.2, TWO_PI * 9.0)


# ---------------------------------------------------------------------------
# cooling condition


def test_cooling_ratio_reference_point():
    ratio, ok = cooling_condition(reference_params(n_bar=1.0))
    assert ratio == pytest.approx(53.9753089, abs=1e-6)
    assert ok


def test_cooling_ratio_on_the_heating_side():
    # with the cavity on the blue side the engineered bath heats the dressed
    # qubit: its cooling part samples the shot noise 2 omega_r off its peak
    p = reference_params(n_bar=1.0, delta_c_mhz=9.0)
    ratio, ok = cooling_condition(p)
    assert ratio == pytest.approx(53.9753089 * (0.5 * 4.3) ** 2 / ((0.5 * 4.3) ** 2 + 18.0 ** 2), rel=1e-8)
    assert not ok
    floor = 0.5 * p.gamma_phi + 0.25 * p.gamma_1
    r = rates_general(p)
    assert ratio * floor < r.gamma_plus


def test_cooling_ratio_dark_cavity():
    ratio, ok = cooling_condition(reference_params(n_bar=0.0))
    assert ratio == 0.0
    assert not ok


def test_cooling_threshold_crossing():
    # the ratio is linear in n_bar, so the crossing photon number is exact
    p = reference_params(n_bar=1.0)
    ratio_unit, _ = cooling_condition(p)
    n_star = 1.0 / ratio_unit
    assert n_star == pytest.approx(0.0185, abs=2e-4)
    # the boolean flips where the ratio meets the threshold (default 10)
    n_flip = 10.0 / ratio_unit
    assert not cooling_condition(reference_params(n_bar=0.9 * n_flip))[1]
    assert cooling_condition(reference_params(n_bar=1.1 * n_flip))[1]
    strict = cooling_condition(reference_params(n_bar=1.0), threshold=100.0)
    assert not strict[1]
