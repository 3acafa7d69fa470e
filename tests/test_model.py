import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dressed_cool.analysis import cooling_trajectory
from dressed_cool.config import Config, to_system_params
from dressed_cool.model import (
    TRUNCATION_TOL,
    TWO_PI,
    FRAMES,
    INITIAL_STATES,
    SystemParams,
    TruncationError,
    build_hamiltonian_displaced,
    build_hamiltonian_undisplaced,
    build_model,
    check_truncation,
    choose_fock_cutoff,
    collapse_ops,
    displacement,
    drive_for_photons,
    n_bar_of,
    qubit_axis_state,
    turn_on_state,
)
from dressed_cool.operators import (
    HilbertSpace,
    annihilation,
    expect_real,
    expectation,
    identity,
    kron,
    pauli,
    space,
    top_fock_population,
)
from test_operators import validate_density_matrix


def reference_params(**overrides) -> SystemParams:
    overrides.setdefault("thermal_qubit", False)
    return to_system_params(Config(**overrides))


def dispersive_map(g: float, delta: float, eps_r: float) -> tuple[float, float]:
    """Oracle: map (coupling g, qubit-cavity detuning delta, qubit drive eps_r)
    to (chi, omega_r_rabi) = (g^2/delta, -2 eps_r g / delta)."""
    if delta == 0:
        raise ValueError("qubit-cavity detuning must be nonzero in the dispersive regime")
    return g * g / delta, -2.0 * eps_r * g / delta


def build_effective_jc(p: SystemParams) -> np.ndarray:
    """Oracle: rotating-frame Jaynes-Cummings Hamiltonian of the engineered bath.

    Valid near delta_q_prime = 0; conserves d+d + s+s- and exhibits the
    single-excitation splitting 2 |chi a_bar| at delta_c = -omega_r_rabi.
    """
    hs = HilbertSpace(p.n_fock)
    a = annihilation(p.n_fock)
    a_bar = displacement(p)
    return (
        -p.delta_c * hs.cavity(a.conj().T @ a)
        - 0.5 * p.omega_r_rabi * hs.sz
        - p.chi * (np.conj(a_bar) * kron(pauli("+"), a) + a_bar * kron(pauli("-"), a.conj().T))
    )


# ---------------------------------------------------------------------------
# frame transformations


def test_dispersive_map_reference_point():
    g = TWO_PI * 70.0
    delta = TWO_PI * (5025.8 - 6826.0)
    chi, omega_r = dispersive_map(g, delta, 0.0)
    assert chi / TWO_PI == pytest.approx(-2.722, abs=5e-4)
    assert omega_r == 0.0
    _, omega_r = dispersive_map(g, delta, TWO_PI * 10.0)
    assert omega_r / TWO_PI == pytest.approx(0.778, abs=5e-4)


def test_dispersive_map_rejects_degenerate():
    with pytest.raises(ValueError):
        dispersive_map(1.0, 0.0, 0.0)


def test_displacement_zero_drive():
    p = replace(reference_params(), eps_d=0.0)
    assert displacement(p) == 0.0 and n_bar_of(p) == 0.0


def test_displacement_reference_operating_point():
    p = replace(reference_params(), eps_d=TWO_PI * 17.56)  # delta_c, kappa: -9, 4.3 MHz
    assert displacement(p) == pytest.approx(p.eps_d / complex(TWO_PI * -9.0, TWO_PI * 2.15), rel=1e-12)
    assert n_bar_of(p) == pytest.approx(3.60, abs=5e-3)
    assert n_bar_of(p) == pytest.approx(abs(displacement(p)) ** 2, rel=1e-12)


def test_drive_for_photons_reference_values():
    assert drive_for_photons(0.0, -5.0, 1.0) == 0.0
    eps = drive_for_photons(1.0, TWO_PI * -9.0, TWO_PI * 4.3)
    assert eps == pytest.approx(math.sqrt(81.0 + 2.15**2) * TWO_PI, rel=1e-12)
    assert eps / TWO_PI == pytest.approx(9.253, abs=1e-3)
    eps = drive_for_photons(3.6, TWO_PI * -9.0, TWO_PI * 4.3)
    assert eps / TWO_PI == pytest.approx(17.56, abs=5e-3)
    eps = drive_for_photons(3.31, TWO_PI * -9.0, TWO_PI * 0.2)
    assert eps / TWO_PI == pytest.approx(16.38, abs=5e-3)


def test_displacement_round_trip_random():
    rng = np.random.default_rng(3)
    base = reference_params()
    for _ in range(50):
        n_bar = float(rng.uniform(0.0, 20.0))
        delta_c = float(rng.uniform(-100.0, 100.0))
        kappa = float(rng.uniform(0.1, 50.0))
        eps = drive_for_photons(n_bar, delta_c, kappa)
        p = replace(base, eps_d=eps, delta_c=delta_c, kappa=kappa)
        assert abs(displacement(p)) ** 2 == pytest.approx(n_bar, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Hamiltonian builders


def test_displaced_hamiltonian_rabi_only():
    p = SystemParams(
        chi=0.0, kappa=1.0, omega_r_rabi=4.0, delta_c=0.0,
        delta_q_prime=0.0, eps_d=0.0, gamma_down=0.0, gamma_up=0.0,
        gamma_phi=0.0, n_fock=5,
    )
    h = build_hamiltonian_displaced(p)
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals[:5], -2.0) and np.allclose(vals[5:], 2.0)


def test_displaced_hamiltonian_diagonal_without_drive():
    p = SystemParams(
        chi=-0.5, kappa=1.0, omega_r_rabi=0.0, delta_c=-3.0,
        delta_q_prime=1.0, eps_d=0.0, gamma_down=0.0, gamma_up=0.0,
        gamma_phi=0.0, n_fock=6,
    )
    h = build_hamiltonian_displaced(p)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def _hand_hamiltonian(p: SystemParams, frame: str) -> np.ndarray:
    """Oracle: each frame's H assembled term by term from np.kron, as the
    builders wrote it before they read the operator table."""
    n = p.n_fock
    a = annihilation(n)
    num = a.conj().T @ a
    sz_cav = np.kron(pauli("z"), identity(n))
    sx_cav = np.kron(pauli("x"), identity(n))
    if frame == "displaced":
        a_bar = displacement(p)
        coupling = np.conj(a_bar) * a + a_bar * a.conj().T + num
        return (
            -p.delta_c * np.kron(identity(2), num)
            - 0.5 * p.delta_q_prime * sz_cav
            - 0.5 * p.omega_r_rabi * sx_cav
            - p.chi * np.kron(pauli("z"), coupling)
        )
    delta_q_bare = p.delta_q_prime - 2.0 * p.chi * n_bar_of(p) - p.chi
    return (
        -p.delta_c * np.kron(identity(2), num)
        - 0.5 * (delta_q_bare + p.chi) * sz_cav
        - 0.5 * p.omega_r_rabi * sx_cav
        - p.chi * np.kron(pauli("z"), num)
        + p.eps_d * np.kron(identity(2), a.conj().T + a)
    )


def test_displaced_hamiltonian_matches_hand_assembly():
    p = reference_params(n_bar=1.0, n_fock=12)
    h = build_hamiltonian_displaced(p)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12
    assert np.allclose(h, _hand_hamiltonian(p, "displaced"), atol=1e-12)


def test_one_operator_table_per_cutoff_serves_both_builders():
    assert space(7) is space(7) and space(7) is not space(8)
    for n in (2, 5, 13):
        a = annihilation(n)
        definitions = {
            "a": np.kron(identity(2), a),
            "n": np.kron(identity(2), a.conj().T @ a),
            "x": np.kron(identity(2), a + a.conj().T),
            "sx": np.kron(pauli("x"), identity(n)),
            "sy": np.kron(pauli("y"), identity(n)),
            "sz": np.kron(pauli("z"), identity(n)),
            "sp": np.kron(pauli("+"), identity(n)),
            "sm": np.kron(pauli("-"), identity(n)),
            "sz_a": np.kron(pauli("z"), a),
            "sz_n": np.kron(pauli("z"), a.conj().T @ a),
        }
        for name, op in definitions.items():
            assert np.array_equal(getattr(space(n), name), op), name
    # bit for bit: each entry of the displaced coupling has one nonzero term
    points = [
        dict(n_bar=0.5, delta_q_prime_mhz=-3.0, n_fock=5),
        dict(n_bar=1.0, delta_c_mhz=9.0, n_fock=8),
        dict(n_bar=3.6, kappa_mhz=0.2, delta_q_prime_mhz=2.0, n_fock=15),
    ]
    for point in points:
        p = reference_params(**point)
        assert np.array_equal(build_hamiltonian_displaced(p), _hand_hamiltonian(p, "displaced"))
        assert np.array_equal(build_hamiltonian_undisplaced(p), _hand_hamiltonian(p, "undisplaced"))


def test_undisplaced_block_structure_without_coupling():
    p = SystemParams(
        chi=0.0, kappa=2.0, omega_r_rabi=1.5, delta_c=-4.0,
        delta_q_prime=0.7, eps_d=0.0, gamma_down=0.0, gamma_up=0.0,
        gamma_phi=0.0, n_fock=5,
    )
    h = build_hamiltonian_undisplaced(p)
    n = p.n_fock
    h_cav = -p.delta_c * (annihilation(n).conj().T @ annihilation(n))
    h_qub = -0.5 * p.delta_q_prime * pauli("z") - 0.5 * p.omega_r_rabi * pauli("x")
    expected = kron(identity(2), h_cav) + kron(h_qub, identity(n))
    assert np.allclose(h, expected, atol=1e-12)


def test_every_builder_returns_hermitian():
    for n_bar in (0.0, 0.5, 3.31):
        p = reference_params(n_bar=n_bar, n_fock=24)
        for build in (
            build_hamiltonian_displaced,
            build_hamiltonian_undisplaced,
            build_effective_jc,
        ):
            h = build(p)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12
            assert h.shape == (2 * p.n_fock, 2 * p.n_fock)


def test_effective_jc_uncoupled_spectrum():
    p = SystemParams(
        chi=-2.0, kappa=1.0, omega_r_rabi=3.0, delta_c=-5.0,
        delta_q_prime=0.0, eps_d=0.0, gamma_down=0.0, gamma_up=0.0,
        gamma_phi=0.0, n_fock=4,
    )
    h = build_effective_jc(p)
    expected = sorted(
        -p.delta_c * m + s * 0.5 * p.omega_r_rabi
        for m in range(4)
        for s in (-1.0, 1.0)
    )
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), expected)


def test_effective_jc_conserves_excitation_number():
    p = reference_params(n_bar=3.31, n_fock=10)
    h = build_effective_jc(p)
    hs = HilbertSpace(p.n_fock)
    num = hs.cavity(annihilation(p.n_fock).conj().T @ annihilation(p.n_fock)) + hs.sp @ hs.sm
    assert np.max(np.abs(h @ num - num @ h)) <= 1e-12


def test_effective_jc_single_excitation_splitting():
    p = reference_params(kappa_mhz=0.2, n_bar=3.31, n_fock=8)
    h = build_effective_jc(p)
    # single-excitation manifold: |e,0> and |g,1> in the qubit-major layout
    i, j = 1 * p.n_fock + 0, 0 * p.n_fock + 1
    block = np.array([[h[i, i], h[i, j]], [h[j, i], h[j, j]]])
    vals = np.linalg.eigvalsh(block)
    splitting = vals[1] - vals[0]
    assert splitting == pytest.approx(2.0 * abs(p.chi) * math.sqrt(n_bar_of(p)), rel=1e-12)
    assert splitting / TWO_PI == pytest.approx(2.402, abs=1e-3)


# ---------------------------------------------------------------------------
# collapse channels


def test_collapse_ops_structure_and_rates():
    p = reference_params(n_bar=1.0, thermal_qubit=True)
    ops = collapse_ops(p, frame="displaced")
    labels = [c.label for c in ops]
    assert labels == ["cavity", "qubit_down", "qubit_up", "dephasing"]
    rates = {c.label: c.rate for c in ops}
    assert rates["cavity"] == p.kappa
    assert rates["qubit_down"] == p.gamma_down
    assert rates["qubit_up"] == p.gamma_up
    assert rates["dephasing"] == 0.5 * p.gamma_phi
    # operators carry sqrt(rate)
    hs = HilbertSpace(p.n_fock)
    down = next(c for c in ops if c.label == "qubit_down")
    assert np.allclose(down.operator, math.sqrt(p.gamma_down) * hs.sm)
    cav = next(c for c in ops if c.label == "cavity")
    assert np.allclose(cav.operator, math.sqrt(p.kappa) * hs.a)


def test_collapse_ops_omit_zero_rates():
    p = reference_params(n_bar=0.5)
    bare = SystemParams(
        chi=p.chi, kappa=p.kappa, omega_r_rabi=p.omega_r_rabi,
        delta_c=p.delta_c, delta_q_prime=p.delta_q_prime, eps_d=p.eps_d,
        gamma_down=0.0, gamma_up=0.0, gamma_phi=0.0, n_fock=p.n_fock,
    )
    ops = collapse_ops(bare, frame="undisplaced")
    # kappa > 0 is a type invariant, so the cavity channel is always present
    assert [c.label for c in ops] == ["cavity"]


def test_collapse_ops_rejects_unknown_frame():
    with pytest.raises(ValueError):
        collapse_ops(reference_params(), frame="lab")


@pytest.mark.parametrize(
    "func",
    [build_model, collapse_ops, choose_fock_cutoff, turn_on_state,
     pytest.param(functools.partial(qubit_axis_state, which="ground"), id="qubit_axis_state")],
)
def test_frame_taking_functions_list_the_frames(func):
    with pytest.raises(ValueError, match=re.escape(f"unknown frame 'lab'; expected one of {FRAMES}")):
        func(reference_params(), frame="lab")


def test_build_model_dispatches_on_frame():
    p = reference_params(n_bar=0.5, n_fock=12)
    builders = {"displaced": build_hamiltonian_displaced, "undisplaced": build_hamiltonian_undisplaced}
    assert set(builders) == set(FRAMES)
    for frame, build in builders.items():
        h, ops = build_model(p, frame)
        assert np.array_equal(h, build(p))
        expected = collapse_ops(p, frame=frame)
        assert [c.label for c in ops] == [c.label for c in expected]
        assert all(np.array_equal(c.operator, e.operator) for c, e in zip(ops, expected))
    with pytest.raises(ValueError):
        build_model(p, "lab")


def test_thermal_rates_from_config():
    p = to_system_params(Config(thermal_qubit=True))
    assert p.gamma_down + p.gamma_up == pytest.approx(0.1, rel=1e-12)
    assert p.gamma_down == pytest.approx(0.0846, abs=5e-5)
    assert p.gamma_up == pytest.approx(0.0154, abs=5e-5)
    # two-level excited fraction in equilibrium
    assert p.gamma_up / (p.gamma_up + p.gamma_down) == pytest.approx(0.154, abs=1e-3)


def test_dephasing_rate_from_coherence_times():
    p = reference_params()
    assert p.gamma_phi == pytest.approx(1.0 / 10.6 - 1.0 / 20.0, rel=1e-12)
    assert p.gamma_phi == pytest.approx(0.0443, abs=5e-5)


# ---------------------------------------------------------------------------
# cutoff selection


def test_choose_fock_cutoff_reference_values():
    assert choose_fock_cutoff(reference_params(n_bar=0.0, n_fock=2), "displaced") == 8
    p = reference_params(n_bar=3.6, n_fock=2)
    assert choose_fock_cutoff(p, "undisplaced") == 22
    weak = choose_fock_cutoff(reference_params(n_bar=1.0, n_fock=2), "displaced")
    assert 8 <= weak <= 10
    # criterion 3's point: the detuned drive barely displaces the vacuum of d
    c3 = reference_params(kappa_mhz=0.2, n_bar=3.31, n_fock=2)
    assert choose_fock_cutoff(c3, initial_state="ground") == 8
    assert choose_fock_cutoff(c3) == 8
    # turn-on starts d in the coherent state -a_bar: its Poisson tail sets it
    assert choose_fock_cutoff(reference_params(n_bar=4.0, n_fock=2), initial_state="turn_on") >= 15
    assert choose_fock_cutoff(reference_params(n_bar=6.3, n_fock=2), initial_state="turn_on") >= 20
    for n_bar in (0.25, 0.5, 1.0):  # criterion 1's points
        assert choose_fock_cutoff(reference_params(n_bar=n_bar, n_fock=2), initial_state="turn_on") == 8
    # on the cavity resonance the static displacement is large: no shrinking
    resonant = reference_params(kappa_mhz=0.2, n_bar=3.31, delta_c_mhz=0.0, n_fock=2)
    for start in (None, *INITIAL_STATES):
        assert choose_fock_cutoff(resonant, initial_state=start) == 31
    # the lab-frame rule counts the field whatever the start
    assert choose_fock_cutoff(p, "undisplaced", initial_state="turn_on") == 22
    with pytest.raises(ValueError, match="unknown initial state 'sideways'"):
        choose_fock_cutoff(p, initial_state="sideways")


def test_choose_fock_cutoff_keeps_the_default_sweep_ranges_at_8():
    c = Config()
    for p_d_db in np.linspace(c.power_db_min, c.power_db_max, c.power_points):
        n_bar = 10.0 ** (p_d_db / 10.0)
        for dq in np.linspace(c.detuning_mhz_min, c.detuning_mhz_max, c.detuning_points):
            p = reference_params(n_bar=n_bar, delta_q_prime_mhz=dq, n_fock=2)
            assert choose_fock_cutoff(p) == 8


@pytest.mark.parametrize("n_bar", [0.0, 0.25, 1.0, 4.0, 6.3, 30.0])
def test_turn_on_cutoff_holds_its_coherent_state(n_bar):
    # the turn-on state's top Fock level, and the Poisson tail from there up,
    # stay under the truncation tolerance, and one level fewer would not
    n = choose_fock_cutoff(reference_params(n_bar=n_bar, n_fock=2), initial_state="turn_on")
    tail = 1.0 - sum(math.exp(-n_bar) * n_bar ** k / math.factorial(k) for k in range(n - 1))
    assert tail < TRUNCATION_TOL
    p = reference_params(n_bar=n_bar, n_fock=n)
    assert top_fock_population(turn_on_state(p)) < TRUNCATION_TOL
    if n > 8:
        lower = 1.0 - sum(math.exp(-n_bar) * n_bar ** k / math.factorial(k) for k in range(n - 2))
        assert lower >= TRUNCATION_TOL


def test_check_truncation_gates_at_the_tolerance():
    assert check_truncation(TRUNCATION_TOL, 8) == TRUNCATION_TOL
    with pytest.raises(TruncationError, match=r"n_fock = 8 holds population 0\.0627, above the tolerance 1e-04"):
        check_truncation(0.0627, 8)


def test_cutoff_convergence_on_steady_state():
    from dressed_cool.dynamics import steady_state
    from dressed_cool.analysis import bloch_vector

    values = []
    for n_fock in (8, 16):
        p = reference_params(n_bar=1.0, n_fock=n_fock)
        rho = steady_state(build_hamiltonian_displaced(p), collapse_ops(p, "displaced"))
        values.append(bloch_vector(rho).x)
    assert abs(values[1] - values[0]) < 1e-3


def _sparse_steady(p: SystemParams) -> np.ndarray:
    """Oracle: the steady state by a sparse LU of the generator with its
    first row replaced by the trace, for cutoffs too large for a dense solve."""
    import scipy.sparse.linalg as spla

    from dressed_cool.dynamics import _hermitian_basis
    from test_dynamics import direct_generator

    h, ops = build_model(p)
    d = h.shape[0]
    basis, m = _hermitian_basis(d), direct_generator(h, ops)
    s = m.tolil()
    s[0, :] = 0.0
    s[0, :d] = 1.0
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    r = spla.spsolve(s.tocsc(), rhs)
    return (basis @ r).reshape((d, d), order="F")


# (config, start) of each doubling-test point: criterion 1's three turn-on
# runs, criterion 3's ground-state start, turn-on at n_bar = 4 and 6.3, and
# the steady states at criterion 3's point and on the cavity resonance
_DOUBLING_POINTS = [
    *(pytest.param({"n_bar": n}, "turn_on", id=f"c1-n{n}") for n in (0.25, 0.5, 1.0)),
    pytest.param({"kappa_mhz": 0.2, "n_bar": 3.31}, "ground", id="c3"),
    pytest.param({"n_bar": 4.0}, "turn_on", id="turn_on-n4"),
    pytest.param({"n_bar": 6.3}, "turn_on", id="turn_on-n6.3"),
    pytest.param({"kappa_mhz": 0.2, "n_bar": 3.31}, None, id="c3-steady"),
    pytest.param({"kappa_mhz": 0.2, "n_bar": 3.31, "delta_c_mhz": 0.0}, None, id="resonant-steady"),
]


@pytest.mark.parametrize("cfg, start", _DOUBLING_POINTS)
def test_cutoff_rule_passes_the_doubling_test(cfg, start):
    # doubling the chosen cutoff moves <sx> by less than 1e-3 (over 2 us for
    # a trajectory), and the chosen cutoff's top level stays under the gate
    p = reference_params(**cfg)

    def run(n_fock):  # (<sx>, top-level population) at this cutoff
        q = p.with_n_fock(n_fock)
        if start is None:
            rho = _sparse_steady(q)
            return expect_real(HilbertSpace(n_fock).sx, rho), top_fock_population(rho)
        traj = cooling_trajectory(q, 2.0, n_times=201, initial=start)
        return traj.expectations["sx"], traj.stats.top_fock_population

    n = choose_fock_cutoff(p, initial_state=start)
    (sx, edge), (sx_doubled, _) = run(n), run(2 * n)
    assert np.max(np.abs(sx_doubled - sx)) < 1e-3
    assert edge <= TRUNCATION_TOL


# ---------------------------------------------------------------------------
# initial states


def test_turn_on_state_displaced_cancels_lab_field():
    p = reference_params(n_bar=2.0, n_fock=20)
    rho = turn_on_state(p, frame="displaced")
    validate_density_matrix(rho)
    a_bar = displacement(p)
    hs = HilbertSpace(p.n_fock)
    d_avg = expectation(hs.a, rho)
    # lab-frame cavity starts in vacuum: <a> = a_bar + <d> = 0
    assert abs(a_bar + d_avg) <= 1e-9


def test_turn_on_state_undisplaced_is_vacuum():
    p = reference_params(n_bar=2.0, n_fock=20)
    rho = turn_on_state(p, frame="undisplaced")
    validate_density_matrix(rho)
    hs = HilbertSpace(p.n_fock)
    assert expect_real(hs.a.conj().T @ hs.a, rho) == pytest.approx(0.0, abs=1e-12)


def test_turn_on_state_thermal_qubit_populations():
    p = to_system_params(Config(thermal_qubit=True, n_bar=1.0))
    rho = turn_on_state(p, frame="displaced")
    hs = HilbertSpace(p.n_fock)
    sz = expect_real(hs.sz, rho)
    excited = 0.5 * (1.0 - sz)
    assert excited == pytest.approx(p.gamma_up / (p.gamma_up + p.gamma_down), rel=1e-9)


def test_qubit_axis_states():
    p = reference_params(n_fock=6)
    hs = HilbertSpace(p.n_fock)
    for name, op, value in (
        ("ground", hs.sz, 1.0),
        ("excited", hs.sz, -1.0),
        ("plus", hs.sx, 1.0),
        ("minus", hs.sx, -1.0),
    ):
        rho = qubit_axis_state(p, name)
        validate_density_matrix(rho)
        assert expect_real(op, rho) == pytest.approx(value)
    assert INITIAL_STATES == ("turn_on", "ground", "excited", "plus", "minus")
    with pytest.raises(ValueError, match=re.escape("expected one of ('ground', 'excited', 'plus', 'minus')")):
        qubit_axis_state(p, "sideways")


def test_qubit_axis_state_cavity_is_the_field_vacuum_in_both_frames():
    # <d> = 0 in the displaced frame; <a> = a_bar (and no fluctuation
    # photons beyond |a_bar|^2) in the undisplaced frame
    p = reference_params(n_bar=2.0, n_fock=20)
    hs = HilbertSpace(p.n_fock)
    a_bar = displacement(p)
    rho = qubit_axis_state(p, "plus", frame="displaced")
    assert abs(expectation(hs.a, rho)) == 0.0
    rho = qubit_axis_state(p, "plus", frame="undisplaced")
    validate_density_matrix(rho)
    assert abs(expectation(hs.a, rho) - a_bar) <= 1e-9
    assert expect_real(hs.a.conj().T @ hs.a, rho) == pytest.approx(abs(a_bar) ** 2, abs=1e-9)
    assert expect_real(hs.sx, rho) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# parameter validation


def test_system_params_validation():
    good = reference_params()
    with pytest.raises(ValueError):
        SystemParams(
            chi=good.chi, kappa=0.0, omega_r_rabi=good.omega_r_rabi,
            delta_c=good.delta_c, delta_q_prime=good.delta_q_prime,
            eps_d=good.eps_d, gamma_down=0.0, gamma_up=0.0, gamma_phi=0.0,
            n_fock=8,
        )
    with pytest.raises(ValueError):
        SystemParams(
            chi=good.chi, kappa=good.kappa, omega_r_rabi=good.omega_r_rabi,
            delta_c=good.delta_c, delta_q_prime=good.delta_q_prime,
            eps_d=-1.0, gamma_down=0.0, gamma_up=0.0, gamma_phi=0.0,
            n_fock=8,
        )
    with pytest.raises(ValueError):
        SystemParams(
            chi=good.chi, kappa=good.kappa, omega_r_rabi=good.omega_r_rabi,
            delta_c=good.delta_c, delta_q_prime=good.delta_q_prime,
            eps_d=good.eps_d, gamma_down=-0.1, gamma_up=0.0, gamma_phi=0.0,
            n_fock=8,
        )
    with pytest.raises(ValueError):
        SystemParams(
            chi=good.chi, kappa=good.kappa, omega_r_rabi=good.omega_r_rabi,
            delta_c=good.delta_c, delta_q_prime=good.delta_q_prime,
            eps_d=good.eps_d, gamma_down=0.0, gamma_up=0.0, gamma_phi=0.0,
            n_fock=1,
        )


def test_n_bar_of_matches_displacement():
    p = reference_params(n_bar=2.5)
    assert n_bar_of(p) == pytest.approx(2.5, rel=1e-12)
