"""Flat JSON run configuration.

Keys use the lab's notation: frequencies are quoted in plain MHz with an
"_mhz" suffix (value = omega / 2 pi) and times in microseconds with a "_us"
suffix.  to_system_params() turns the operating-point keys into angular-unit
SystemParams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .model import (
    FRAMES,
    INITIAL_STATES,
    THERMAL_UP_DOWN_RATIO,
    TWO_PI,
    SystemParams,
    choose_fock_cutoff,
    drive_for_photons,
)
from .sweep import MODES


@dataclass
class Config:
    """Run configuration; defaults encode the reference experimental operating point.

    n_bar, the intracavity photon number, is the one drive key: the drive
    amplitude follows from it (model.drive_for_photons)."""

    chi_mhz: float = -0.66
    kappa_mhz: float = 4.3
    omega_r_mhz: float = 9.0
    delta_c_mhz: float = -9.0
    delta_q_prime_mhz: float = 0.0
    n_bar: float = 1.0
    t1_us: float = 10.0
    t2_us: float = 10.6
    thermal_qubit: bool = False
    n_fock: int | None = None
    frame: str = "displaced"
    initial_state: str = "turn_on"
    t_max_us: float | None = None
    n_times: int = 1001
    mode: str = "steady_tomography"
    theta_deg: float = 90.0
    tomography_scale: float = 1.0
    power_db_min: float = -10.0
    power_db_max: float = 8.0
    power_points: int = 41
    detuning_mhz_min: float = -5.0
    detuning_mhz_max: float = 15.0
    detuning_points: int = 41
    workers: int = 1

    def __post_init__(self):
        _validate(self)


def _fail(key: str, why: str):
    raise ValueError(f"config key {key!r} {why}")


def _validate(c: Config) -> None:
    if c.kappa_mhz <= 0:
        _fail("kappa_mhz", f"must be positive, got {c.kappa_mhz}")
    if c.n_bar < 0:
        _fail("n_bar", f"must be nonnegative, got {c.n_bar}")
    if c.t1_us <= 0:
        _fail("t1_us", f"must be positive, got {c.t1_us}")
    if c.t2_us <= 0:
        _fail("t2_us", f"must be positive, got {c.t2_us}")
    if c.t2_us > 2.0 * c.t1_us:
        _fail("t2_us", f"cannot exceed 2 * t1_us = {2 * c.t1_us}")
    if c.n_fock is not None and c.n_fock < 2:
        _fail("n_fock", f"must be at least 2, got {c.n_fock}")
    if c.frame not in FRAMES:
        _fail("frame", f"must be one of {FRAMES}, got {c.frame!r}")
    if c.mode not in MODES:
        _fail("mode", f"must be one of {MODES}, got {c.mode!r}")
    if c.initial_state not in INITIAL_STATES:
        _fail("initial_state", f"must be one of {INITIAL_STATES}, got {c.initial_state!r}")
    if not 0 <= c.theta_deg <= 180:
        _fail("theta_deg", f"must lie in [0, 180], got {c.theta_deg}")
    if not 0 < c.tomography_scale <= 1:
        _fail("tomography_scale", f"must lie in (0, 1], got {c.tomography_scale}")
    if c.t_max_us is not None and c.t_max_us <= 0:
        _fail("t_max_us", f"must be positive, got {c.t_max_us}")
    if c.n_times < 2:
        _fail("n_times", f"must be at least 2, got {c.n_times}")
    for key in ("power_points", "detuning_points"):
        if getattr(c, key) < 1:
            _fail(key, "must be at least 1")
    if c.power_points > 1 and c.power_db_max <= c.power_db_min:
        _fail("power_db_max", "must exceed power_db_min")
    if c.detuning_points > 1 and c.detuning_mhz_max <= c.detuning_mhz_min:
        _fail("detuning_mhz_max", "must exceed detuning_mhz_min")
    if c.workers < 0:
        _fail("workers", f"must be nonnegative (0 = auto), got {c.workers}")


# Each key's value type from its Config annotation ("float | None" -> "float").
_KEY_TYPES = {f.name: f.type.removesuffix(" | None") for f in fields(Config)}
_OPTIONAL_KEYS = {f.name for f in fields(Config) if f.type.endswith(" | None")}


def parse_config(text: str) -> Config:
    """Parse a flat JSON object; unknown keys are rejected, missing keys take
    the documented defaults."""
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a flat JSON object")
    unknown = sorted(set(raw) - set(_KEY_TYPES))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")

    for key, value in raw.items():
        kind = _KEY_TYPES[key]
        if value is None:
            if key in _OPTIONAL_KEYS:
                continue
            _fail(key, "may not be null")
        if kind == "bool":
            if not isinstance(value, bool):
                _fail(key, "must be true or false")
        elif kind == "str":
            if not isinstance(value, str):
                _fail(key, "must be a string")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(key, f"must be a number, got {value!r}")
        elif kind == "int" and not isinstance(value, int):
            _fail(key, f"must be an integer, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            _fail(key, f"must be finite, got {value!r}")
    return Config(**raw)


def to_system_params(c: Config, steady: bool = False) -> SystemParams:
    """Convert the quoted MHz / us operating-point values into
    angular-frequency SystemParams.  Without an n_fock key the cavity cutoff
    is sized for a trajectory from c.initial_state, or for the steady state
    when steady is true (see choose_fock_cutoff)."""
    kappa = TWO_PI * c.kappa_mhz
    delta_c = TWO_PI * c.delta_c_mhz
    gamma_1 = 1.0 / c.t1_us
    if c.thermal_qubit:
        gamma_down = gamma_1 / (1.0 + THERMAL_UP_DOWN_RATIO)
        gamma_up = gamma_1 - gamma_down
    else:
        gamma_down, gamma_up = gamma_1, 0.0
    gamma_phi = 1.0 / c.t2_us - 0.5 / c.t1_us

    p = SystemParams(
        chi=TWO_PI * c.chi_mhz,
        kappa=kappa,
        omega_r_rabi=TWO_PI * c.omega_r_mhz,
        delta_c=delta_c,
        delta_q_prime=TWO_PI * c.delta_q_prime_mhz,
        eps_d=drive_for_photons(c.n_bar, delta_c, kappa),
        gamma_down=gamma_down,
        gamma_up=gamma_up,
        gamma_phi=gamma_phi,
        n_fock=c.n_fock if c.n_fock is not None else 2,
    )
    if c.n_fock is None:
        start = None if steady else c.initial_state
        p = p.with_n_fock(choose_fock_cutoff(p, frame=c.frame, initial_state=start))
    return p
