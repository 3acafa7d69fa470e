"""Closed-form cooling and heating rates of the cavity-dressed qubit.

The dressed qubit (quantization axis tilted by tan(theta) = omega_r/delta_q')
exchanges energy with the cavity photon shot noise

    S_nn(omega) = n_bar kappa / ((kappa/2)^2 + (omega + delta_c)^2),

giving transition rates between the dressed states

    Gamma_-+ = chi^2 S_nn(-+ omega_tilde) sin^2(theta)
              + (gamma_phi/2) sin^2(theta) + (gamma_1/4)(1 + cos^2(theta)),

with omega_tilde = sqrt(omega_r^2 + delta_q'^2) the dressed splitting.
Gamma_- relaxes toward the low-energy dressed state, Gamma_+ excites.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.constants import hbar as HBAR_SI
from scipy.constants import k as KB_SI

from .model import SystemParams, n_bar_of

__all__ = [
    "RatePair",
    "BlochPrediction",
    "s_nn",
    "cavity_density_of_states",
    "rates_resonant",
    "rates_general",
    "rates_sideband_limit",
    "raman_rates",
    "golden_rule_rate",
    "steady_bloch",
    "effective_temperature",
    "cooling_condition",
]


@dataclass(frozen=True)
class RatePair:
    """Dressed-state relaxation (gamma_minus) and excitation (gamma_plus) rates, 1/us."""

    gamma_minus: float
    gamma_plus: float
    regime: str

    @property
    def total(self) -> float:
        return self.gamma_minus + self.gamma_plus


@dataclass(frozen=True)
class BlochPrediction:
    """Detailed-balance steady state along the dressed axis."""

    sigma_theta_ss: float
    purity_plus: float
    theta: float
    omega_tilde: float


def s_nn(omega: float, n_bar: float, kappa: float, delta_c: float) -> float:
    """Photon-number shot-noise spectral density (units: us, i.e. 1/rate).

    Lorentzian of width kappa peaked at omega = -delta_c.
    """
    return n_bar * kappa / ((0.5 * kappa) ** 2 + (omega + delta_c) ** 2)


def cavity_density_of_states(omega: float, delta_q_prime: float, kappa: float) -> float:
    """Lorentzian density of states the Raman picture sums over;
    peaks at 2/(pi kappa) when omega = delta_q_prime."""
    return -(1.0 / math.pi) * (-0.5 * kappa) / ((omega - delta_q_prime) ** 2 + (0.5 * kappa) ** 2)


def _intrinsic_rate(p: SystemParams) -> float:
    """1/(2 T2) = gamma_phi/2 + gamma_1/4, the drive-independent floor."""
    return 0.5 * p.gamma_phi + 0.25 * p.gamma_1


def _dressed_angle(p: SystemParams) -> tuple[float, float, float]:
    """(theta, sin theta, omega_tilde) with tan(theta) = omega_r / delta_q'."""
    if p.omega_r_rabi == 0 and p.delta_q_prime == 0:
        raise ValueError("dressed axis undefined: omega_r_rabi and delta_q_prime both zero")
    omega_tilde = math.hypot(p.omega_r_rabi, p.delta_q_prime)
    theta = math.atan2(p.omega_r_rabi, p.delta_q_prime)
    return theta, p.omega_r_rabi / omega_tilde, omega_tilde


def golden_rule_rate(p: SystemParams) -> float:
    """Fermi golden rule cooling rate 4 chi^2 n_bar / kappa.

    This is the photon part of gamma_minus at the resonance condition
    delta_c = -omega_r_rabi; valid while |chi| sqrt(n_bar) << kappa.
    """
    return 4.0 * p.chi ** 2 * n_bar_of(p) / p.kappa


def rates_resonant(p: SystemParams) -> RatePair:
    """Rates at the resonant operating point delta_q' = 0, delta_c = -omega_r.

    The photon part of gamma_minus sits exactly on the shot-noise peak
    4 chi^2 n_bar / kappa; gamma_plus samples the Lorentzian a detuning
    2 omega_r away.
    """
    n_bar = n_bar_of(p)
    intrinsic = _intrinsic_rate(p)
    gm = 4.0 * p.chi ** 2 * n_bar / p.kappa + intrinsic
    gp = p.kappa * p.chi ** 2 * n_bar / ((2.0 * p.omega_r_rabi) ** 2 + (0.5 * p.kappa) ** 2) + intrinsic
    return RatePair(gamma_minus=gm, gamma_plus=gp, regime="resonant")


def _photon_rates(p: SystemParams) -> tuple[float, float]:
    """Engineered-bath parts chi^2 S_nn(-+ omega_tilde) sin^2(theta) of
    (gamma_minus, gamma_plus) at an arbitrary dressed angle."""
    _, sin_t, omega_tilde = _dressed_angle(p)
    sin2 = sin_t * sin_t
    chi2 = p.chi ** 2
    n_bar = n_bar_of(p)
    gm = chi2 * s_nn(+omega_tilde, n_bar, p.kappa, p.delta_c) * sin2
    gp = chi2 * s_nn(-omega_tilde, n_bar, p.kappa, p.delta_c) * sin2
    return gm, gp


def rates_general(p: SystemParams) -> RatePair:
    """Rates for an arbitrary dressed angle, sampling S_nn at -+ omega_tilde."""
    _, sin_t, _ = _dressed_angle(p)
    sin2 = sin_t * sin_t
    cos2 = 1.0 - sin2
    intrinsic_phi = 0.5 * p.gamma_phi * sin2
    intrinsic_1 = 0.25 * p.gamma_1 * (1.0 + cos2)
    gm, gp = _photon_rates(p)
    return RatePair(
        gamma_minus=gm + intrinsic_phi + intrinsic_1,
        gamma_plus=gp + intrinsic_phi + intrinsic_1,
        regime="general",
    )


def _raman_photon_parts(p: SystemParams) -> tuple[float, float]:
    ratio2 = (p.omega_r_rabi / p.delta_q_prime) ** 2
    n_bar = n_bar_of(p)
    gm = (4.0 * p.chi ** 2 * n_bar / p.kappa) * ratio2
    gp = (p.kappa * p.chi ** 2 * n_bar / ((0.5 * p.kappa) ** 2 + 4.0 * p.delta_q_prime ** 2)) * ratio2
    return gm, gp


def rates_sideband_limit(p: SystemParams) -> RatePair:
    """Far-detuned (delta_q' >> omega_r) rates with the cavity tuned to the
    cooling sideband delta_c = -delta_q'."""
    if p.delta_q_prime == 0:
        raise ValueError("sideband limit needs a nonzero delta_q_prime")
    if abs(p.delta_q_prime) < 5.0 * abs(p.omega_r_rabi):
        warnings.warn(
            f"sideband formulas assume |delta_q_prime| >> omega_r_rabi "
            f"(ratio {abs(p.delta_q_prime) / max(abs(p.omega_r_rabi), 1e-300):.2f} < 5)",
            stacklevel=2,
        )
    ratio2 = (p.omega_r_rabi / p.delta_q_prime) ** 2
    gm_ph, gp_ph = _raman_photon_parts(p)
    gm = gm_ph + 0.5 * p.gamma_phi * ratio2 + 0.5 * p.gamma_1
    gp = gp_ph + 0.5 * p.gamma_phi * ratio2 + 0.5 * p.gamma_1
    return RatePair(gamma_minus=gm, gamma_plus=gp, regime="sideband")


def raman_rates(p: SystemParams) -> RatePair:
    """Raman-scattering picture of the sideband rates: photon parts only,
    algebraically identical to rates_sideband_limit with gamma_1 = gamma_phi = 0."""
    if p.delta_q_prime == 0:
        raise ValueError("Raman picture needs a nonzero delta_q_prime")
    gm, gp = _raman_photon_parts(p)
    return RatePair(gamma_minus=gm, gamma_plus=gp, regime="raman")


def steady_bloch(r: RatePair, theta: float, omega_tilde: float = math.nan) -> BlochPrediction:
    """Detailed balance between the dressed states.

    purity_plus = gamma_minus / (gamma_minus + gamma_plus) and
    sigma_theta_ss = 2 purity_plus - 1 (exact by construction).
    """
    total = r.gamma_minus + r.gamma_plus
    if total <= 0:
        raise ValueError("total rate must be positive for a steady state")
    purity = r.gamma_minus / total
    return BlochPrediction(
        sigma_theta_ss=2.0 * purity - 1.0,
        purity_plus=purity,
        theta=theta,
        omega_tilde=omega_tilde,
    )


def effective_temperature(purity_plus: float, omega_tilde: float) -> float:
    """Temperature (K) at which a two-level system with splitting omega_tilde
    (rad/us) equilibrates to the given ground-state population.

    Populations at or below 1/2 have no positive temperature; the returned
    value is negative there, flagging an inverted dressed qubit.
    """
    if not 0.0 < purity_plus < 1.0:
        raise ValueError(f"purity must lie strictly between 0 and 1, got {purity_plus}")
    if purity_plus == 0.5:
        return math.inf
    log_ratio = math.log(purity_plus / (1.0 - purity_plus))
    omega_si = omega_tilde * 1e6  # rad/us -> rad/s
    return HBAR_SI * omega_si / (KB_SI * log_ratio)


def cooling_condition(p: SystemParams, threshold: float = 10.0) -> tuple[float, bool]:
    """Ratio of the engineered cooling rate, the photon part
    chi^2 S_nn(+omega_tilde) sin^2(theta) of gamma_minus, to the intrinsic
    rate floor gamma_phi/2 + gamma_1/4, and whether it clears the requested
    threshold.  At delta_q' = 0, delta_c = -omega_r the numerator is the
    golden-rule rate 4 chi^2 n_bar / kappa; on the heating side it is small."""
    intrinsic = _intrinsic_rate(p)
    if intrinsic == 0:
        return math.inf, True
    ratio = _photon_rates(p)[0] / intrinsic
    return ratio, ratio >= threshold
