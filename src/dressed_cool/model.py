"""Dispersive qubit-cavity model construction.

Conventions (all frequencies angular, rad/us; rates 1/us; times us):

* chi = g^2/delta is the dispersive shift, omega_r_rabi the Rabi frequency of
  the resonant qubit drive, delta_c = omega_d - omega_c the cavity drive
  detuning, delta_q_prime the Stark-shifted qubit drive detuning.
* The cavity drive is eliminated by displacing a = a_bar + d with
  a_bar = eps_d / (delta_c + i kappa/2), so n_bar = |a_bar|^2 photons ride in
  the classical field and d carries quantum fluctuations only.
* Displaced-frame Hamiltonian (the one used for simulations):
      H = -delta_c d+d - (delta_q_prime/2) sz - (omega_r/2) sx
          - chi (conj(a_bar) d + a_bar d+ + d+d) sz
* Undisplaced frame keeps the physical drive eps_d (a+ + a) and bare qubit
  detuning; both builders describe the same operating point, so trajectories
  of qubit observables agree between frames.
* Each frame's H is a list of real coefficients on fixed operators of the
  table operators.space(n_fock) (hamiltonian_terms), and each collapse
  operator sqrt(rate) times one of them (channels); build_terms hands a
  model to the steady solve in that form, build_model as matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .operators import coherent_state, kron, qubit_state, space

TWO_PI = 2.0 * math.pi

# Frames the builders can write the model in; build_model dispatches on them.
FRAMES = ("displaced", "undisplaced")

# Named qubit states of qubit_axis_state.
_QUBIT_KETS = {
    "ground": np.array([1.0, 0.0]),
    "excited": np.array([0.0, 1.0]),
    "plus": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "minus": np.array([1.0, -1.0]) / math.sqrt(2.0),
}
# Initial states of a trajectory: turn_on_state, or a named qubit_axis_state.
INITIAL_STATES = ("turn_on", *_QUBIT_KETS)

# Qubit equilibrium populations 77% / 14% (ground / excited) restricted to two
# levels set the default up/down rate ratio for thermal-qubit runs.
THERMAL_UP_DOWN_RATIO = 14.0 / 77.0


def _check_frame(frame: str) -> None:
    if frame not in FRAMES:
        raise ValueError(f"unknown frame {frame!r}; expected one of {FRAMES}")


@dataclass(frozen=True)
class SystemParams:
    """Operating point of the driven dispersive qubit-cavity system.

    Attributes
    ----------
    chi : dispersive shift (rad/us)
    kappa : cavity linewidth (1/us), must be positive
    omega_r_rabi : qubit Rabi frequency (rad/us)
    delta_c : cavity drive detuning (rad/us)
    delta_q_prime : Stark-shifted qubit drive detuning (rad/us)
    eps_d : cavity drive amplitude (rad/us), nonnegative
    gamma_down, gamma_up : qubit relaxation / excitation rates (1/us)
    gamma_phi : pure dephasing rate (1/us)
    n_fock : cavity truncation dimension
    """

    chi: float
    kappa: float
    omega_r_rabi: float
    delta_c: float
    delta_q_prime: float
    eps_d: float
    gamma_down: float
    gamma_up: float
    gamma_phi: float
    n_fock: int

    def __post_init__(self):
        for name in ("chi", "kappa", "omega_r_rabi", "delta_c", "delta_q_prime", "eps_d",
                     "gamma_down", "gamma_up", "gamma_phi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.eps_d < 0:
            raise ValueError(f"eps_d must be nonnegative, got {self.eps_d}")
        for name in ("gamma_down", "gamma_up", "gamma_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be at least 2, got {self.n_fock}")

    @property
    def gamma_1(self) -> float:
        return self.gamma_down + self.gamma_up

    def with_n_fock(self, n_fock: int) -> "SystemParams":
        return replace(self, n_fock=n_fock)


def displacement(p: SystemParams) -> complex:
    """Steady classical field a_bar = eps_d / (delta_c + i kappa/2) of the
    driven damped cavity; n_bar = |a_bar|^2 photons ride in it."""
    return p.eps_d / (p.delta_c + 0.5j * p.kappa)


def drive_for_photons(n_bar: float, delta_c: float, kappa: float) -> float:
    """Drive amplitude eps_d that sustains n_bar intracavity photons."""
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return math.sqrt(n_bar * (delta_c ** 2 + (0.5 * kappa) ** 2))


def n_bar_of(p: SystemParams) -> float:
    return abs(displacement(p)) ** 2


def coupling_ratio(p: SystemParams) -> float:
    """|chi| sqrt(n_bar) / kappa; >~ 1 marks the strong-coupling regime."""
    return abs(p.chi) * math.sqrt(n_bar_of(p)) / p.kappa


def hamiltonian_terms(p: SystemParams, frame: str = "displaced") -> tuple[tuple[str, float], ...]:
    """H of p in the given frame as (operator name in operators.space(p.n_fock),
    real coefficient) pairs, H = sum c O.

    Displaced frame: with a_bar = u + i v, the coupling -chi (conj(a_bar) d +
    a_bar d+) sz is -chi u sz (d + d+) - chi v sz i (d+ - d), so the terms
    are n, sz, sx, sz_x, sz_p and sz_n with coefficients -delta_c,
    -delta_q_prime/2, -omega_r/2, -chi u, -chi v and -chi.  Undisplaced
    frame: n, sz, sx, sz_n and x with -delta_c, -(delta_q_bare + chi)/2,
    -omega_r/2, -chi and eps_d, the bare qubit detuning being recovered from
    delta_q_prime by undoing the Stark shift (2 chi n_bar) and the constant
    chi offset that the displaced frame absorbs into the qubit frequency, so
    both frames share one physical operating point.  A term whose
    coefficient is zero stays in the list."""
    _check_frame(frame)
    if frame == "displaced":
        a_bar = displacement(p)
        return (
            ("n", -p.delta_c),
            ("sz", -0.5 * p.delta_q_prime),
            ("sx", -0.5 * p.omega_r_rabi),
            ("sz_x", -p.chi * a_bar.real),
            ("sz_p", -p.chi * a_bar.imag),
            ("sz_n", -p.chi),
        )
    delta_q_bare = p.delta_q_prime - 2.0 * p.chi * n_bar_of(p) - p.chi
    return (
        ("n", -p.delta_c),
        ("sz", -0.5 * (delta_q_bare + p.chi)),
        ("sx", -0.5 * p.omega_r_rabi),
        ("sz_n", -p.chi),
        ("x", p.eps_d),
    )


def build_hamiltonian_displaced(p: SystemParams) -> np.ndarray:
    """Displaced-frame Hamiltonian, sum c O over hamiltonian_terms(p); the
    classical drive is folded into a_bar."""
    return space(p.n_fock).combine(hamiltonian_terms(p, "displaced"))


def build_hamiltonian_undisplaced(p: SystemParams) -> np.ndarray:
    """Lab-drive Hamiltonian with the explicit eps_d (a+ + a) term, sum c O
    over hamiltonian_terms(p, "undisplaced").  Like every builder it takes
    p.n_fock as given: choose_fock_cutoff sizes a cutoff and check_truncation
    judges it."""
    return space(p.n_fock).combine(hamiltonian_terms(p, "undisplaced"))


@dataclass(frozen=True)
class CollapseOp:
    """One Lindblad channel: its operator, which already carries sqrt(rate)
    (the rates are those of channels)."""

    operator: np.ndarray


def channels(p: SystemParams) -> tuple[tuple[str, float], ...]:
    """The Lindblad channels of positive rate as (operator name in
    operators.space(p.n_fock), rate) pairs, in the order cavity decay (a),
    qubit down (sm), qubit up (sp) and dephasing (sz, at gamma_phi / 2); a
    channel's collapse operator is sqrt(rate) times its operator.  They are
    the same in both frames: d and a truncate to the same ladder matrix."""
    pairs = (("a", p.kappa), ("sm", p.gamma_down), ("sp", p.gamma_up), ("sz", 0.5 * p.gamma_phi))
    return tuple((name, rate) for name, rate in pairs if rate > 0)


def channel_ops(n_fock: int, pairs) -> list[CollapseOp]:
    """The collapse operators of (name, rate) channel pairs on
    operators.space(n_fock), each sqrt(rate) times its operator."""
    hs = space(n_fock)
    return [CollapseOp(operator=math.sqrt(rate) * getattr(hs, name)) for name, rate in pairs]


def collapse_ops(p: SystemParams, frame: str = "displaced") -> list[CollapseOp]:
    """Collapse channels [cavity decay, qubit down, qubit up, dephasing] of
    channels(p); zero-rate channels are omitted.  The frame argument only
    validates intent."""
    _check_frame(frame)
    return channel_ops(p.n_fock, channels(p))


def build_model(p: SystemParams, frame: str = "displaced") -> tuple[np.ndarray, list[CollapseOp]]:
    """Hamiltonian and collapse channels of one operating point in one frame."""
    _check_frame(frame)
    if frame == "displaced":
        h = build_hamiltonian_displaced(p)
    else:
        h = build_hamiltonian_undisplaced(p)
    return h, collapse_ops(p, frame=frame)


class ModelTerms(NamedTuple):
    """A model as coefficients on the operator table operators.space(n_fock):
    H = sum c O over the (name, coefficient) pairs of hamiltonian, and one
    collapse operator sqrt(rate) O for each (name, rate) pair of channels."""

    n_fock: int
    hamiltonian: tuple[tuple[str, float], ...]
    channels: tuple[tuple[str, float], ...]


def build_terms(p: SystemParams, frame: str = "displaced") -> ModelTerms:
    """The model of build_model(p, frame) as ModelTerms: the form in which a
    sweep point reaches the steady solve, with no matrix built."""
    return ModelTerms(p.n_fock, hamiltonian_terms(p, frame), channels(p))


# Largest population the cavity's top Fock level may hold in any state of a
# run before its truncation counts as failed (TruncationError).  It is a gate
# against a cutoff far too small, not the accuracy a cutoff is sized for
# (that is CUTOFF_ERROR_TARGET): the too-small cutoffs measured, which miss
# <sx> by 3e-2 or more, hold 3.9e-3 or more, while at the displaced-frame
# validation points of choose_fock_cutoff the chosen cutoffs hold at most
# 7.3e-5 (turn-on at n_bar = 1, n_fock 8, whose Poisson term sets it) and
# their steady states at most 1.1e-9.  The lab frame has no error target: a
# lab-frame turn-on run at n_bar = 3.6 at the lab rule's n_fock 22 holds
# 2.4e-5 in its top level, under this tolerance, yet misses the displaced
# run's <sx> by 1.21e-3.
TRUNCATION_TOL = 1e-4

# Error target of choose_fock_cutoff's displaced-frame steady state: the
# largest change of any Bloch component against a solve at n_fock + 4.  The
# cooling_rate rate holds 1e-6 relative at the same cutoffs.  The sweep CSV
# prints 9 significant digits, so a change of cutoff can show in it.
CUTOFF_ERROR_TARGET = 1e-7


class TruncationError(RuntimeError):
    """The cavity's top Fock level holds more than TRUNCATION_TOL: the
    cutoff is too small for the run."""


def check_truncation(top_population: float, n_fock: int) -> float:
    """Return the top Fock level's population, or raise TruncationError when
    it passes TRUNCATION_TOL."""
    if top_population > TRUNCATION_TOL:
        raise TruncationError(
            f"cavity truncation: the top Fock level of n_fock = {n_fock} holds population"
            f" {top_population:.3g}, above the tolerance {TRUNCATION_TOL:.0e}; raise n_fock"
        )
    return top_population


def _poisson_cutoff(n_bar: float) -> int:
    """Smallest n_fock whose Poisson(n_bar) tail from level n_fock - 1 up is
    below TRUNCATION_TOL: the coherent state |alpha|^2 = n_bar fits."""
    level, tail, log_pmf = 0, 1.0, -n_bar  # tail = P(N >= level)
    while True:
        tail -= math.exp(log_pmf)
        level += 1
        if tail < TRUNCATION_TOL:
            return level + 1
        log_pmf += math.log(n_bar / level)


def choose_fock_cutoff(
    p: SystemParams, frame: str = "displaced", initial_state: str | None = None
) -> int:
    """Cavity truncation for a run of p in the given frame.

    initial_state is the state a trajectory starts in (one of
    INITIAL_STATES); None, the default, sizes for the steady state.  The
    displaced-frame rule counts what the fluctuations d can hold:

    * the static displacement |beta| = |chi| sqrt(n_bar) / |delta_c + i
      kappa/2| that the coupling -chi (conj(a_bar) d + a_bar d+) sz gives d
      for either qubit state.  While the cavity decays faster than it
      exchanges an excitation with the qubit (coupling_ratio below 1/2,
      which keeps |beta| < 1), the steady state's error falls by a factor
      of about |beta|^2 per Fock level, as the low Fock weights of the
      coherent state |beta> do: measured, its Bloch vector misses a solve at
      n_fock + 4 by at most about 10 |beta|^(2 (n_fock - 1)) at kappa/2pi =
      4.3 and 10 MHz (up to about 240 times that at 1 MHz).  The cutoff is
      the smallest that brings that below CUTOFF_ERROR_TARGET, but at least
      5: fewer levels save little solve time but give the lowest power rows
      a generator map of their own, which costs more (a fresh 3x3
      cooling_rate sweep at the default ranges took 0.025 s at cutoffs 4, 5
      and 7 against 0.019 s at 5, 5 and 7, best of 5).  It never exceeds
      the linear rule max(8, ceil(2 |beta| + 6)), which alone sizes
      strong coupling, where the cavity and the qubit exchange an
      excitation coherently and the |beta| law underestimates the error by
      up to 1e6;
    * the initial displacement of d: none for the named qubit states and the
      steady state, whose cavity is the vacuum of d, and |a_bar| for
      turn_on, whose cavity is the coherent state -a_bar of d.  That one
      counts through its Poisson(n_bar) photon distribution: the cutoff is
      at least the smallest whose tail from the top level up is below
      TRUNCATION_TOL.

    The steady-state rule is validated against n_fock + 4, as (cutoff;
    largest Bloch error, relative cooling_rate rate error): the corners of
    the default sweep ranges, -10 dB (5; 2.7e-13, 4.3e-13) and 8 dB (7;
    7.0e-10, 1.4e-9); -1 dB at delta_q' = -5 and 15 MHz (5; 8.0e-10,
    6.6e-9); 5 dB, 15 MHz (6; 2.0e-10, 2.1e-9); 8 dB, 12 MHz (7; 1.3e-10,
    2.0e-9); delta_c/2pi = -4 MHz, n_bar = 3 (8; 1.7e-11, 6.3e-11); and,
    sized by the linear rule, n_bar = 20 (8; 1.0e-9, 5.9e-8), criterion 3's
    kappa/2pi = 0.2 MHz, n_bar = 3.31 (8; 1.0e-9, 3.8e-8) and kappa/2pi =
    1 MHz, n_bar = 6.3, 12 MHz (8; 7.8e-11, 1.3e-9).  The default grid
    takes 5 to 7 and moves by at most 5.4e-8 (rates 2.5e-7) against
    n_fock 12.  A survey of 432 points (n_bar 0.1 to 40, delta_c/2pi = -9,
    -4, -2 and 9 MHz, kappa/2pi = 0.2 to 10 MHz) found the rule within
    the target wherever the linear rule was, but at one weak-coupling
    point, delta_c/2pi = -4 MHz, kappa/2pi = 1 MHz, n_bar = 0.5, delta_q'
    = -5 MHz (coupling ratio 0.47, n_fock 6), which misses by 1.03e-7.
    Trajectories are validated by the doubling
    test (doubling the cutoff moves <sx> over 2 us by less than 1e-3) and
    by the top level's population staying under TRUNCATION_TOL, at
    criterion 1's three turn-on points (6, 7 and 8; <sx> moves by 1.8e-7,
    9.1e-7 and 1.2e-5), criterion 3's ground-state start (8), turn-on at
    n_bar = 4 and 6.3 (15 and 20), the default point from |g> and |e> (5;
    1.5e-9) and 8 dB from |g> (7; 9.7e-10), and for the steady states at
    criterion 3's point (8) and on the cavity resonance, delta_c = 0,
    kappa/2pi = 0.2 MHz, n_bar = 3.31 (31).  The undisplaced rule covers
    the lab field's coherent amplitude for any start, but no error target
    carries over to it: a turn-on run at n_bar = 3.6 at its n_fock 22 holds
    2.4e-5 in the top level yet misses the displaced run's <sx> by
    1.21e-3.
    """
    _check_frame(frame)
    if initial_state is not None and initial_state not in INITIAL_STATES:
        raise ValueError(f"unknown initial state {initial_state!r}; expected one of {INITIAL_STATES}")
    n_bar = n_bar_of(p)
    if frame == "undisplaced":
        return math.ceil(n_bar + 7.0 * math.sqrt(n_bar) + 5.0)
    beta = abs(p.chi) * math.sqrt(n_bar) / abs(complex(p.delta_c, 0.5 * p.kappa))
    linear = max(8, math.ceil(2.0 * beta + 6.0))
    n_fock = linear
    if coupling_ratio(p) < 0.5:
        n_fock = 5
        while n_fock < linear and 10.0 * beta ** (2 * (n_fock - 1)) > CUTOFF_ERROR_TARGET:
            n_fock += 1
    if initial_state == "turn_on":
        n_fock = max(n_fock, _poisson_cutoff(n_bar))
    return n_fock


def thermal_qubit_populations(p: SystemParams) -> tuple[float, float]:
    """(ground, excited) populations of the undriven qubit steady state."""
    g1 = p.gamma_1
    if g1 == 0:
        return 1.0, 0.0
    return p.gamma_down / g1, p.gamma_up / g1


def _cavity_state(p: SystemParams, frame: str, alpha: complex) -> np.ndarray:
    """The cavity's coherent state with lab-frame field <a> = alpha, written
    in the given frame (the displaced frame's d is a - a_bar)."""
    _check_frame(frame)
    if frame == "displaced":
        alpha -= displacement(p)
    return coherent_state(p.n_fock, alpha)


def turn_on_state(p: SystemParams, frame: str = "displaced") -> np.ndarray:
    """Pre-turn-on equilibrium: thermal qubit, cavity empty of real photons."""
    pg, pe = thermal_qubit_populations(p)
    return kron(np.diag([pg, pe]).astype(complex), _cavity_state(p, frame, 0.0))


def qubit_axis_state(p: SystemParams, which: str, frame: str = "displaced") -> np.ndarray:
    """Product state: a named qubit state with the cavity in the driven
    field's coherent state <a> = a_bar, the vacuum of its fluctuations d."""
    if which not in _QUBIT_KETS:
        raise ValueError(f"unknown qubit state {which!r}; expected one of {tuple(_QUBIT_KETS)}")
    return kron(qubit_state(_QUBIT_KETS[which]), _cavity_state(p, frame, displacement(p)))
