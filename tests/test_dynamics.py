import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dressed_cool.config import Config, to_system_params
from dressed_cool.dynamics import (
    MultipleSteadyStatesError,
    evolve,
    liouvillian_matrix,
    steady_state,
)
from dressed_cool.integrate import StiffnessError, integrate_adaptive
from dressed_cool.model import (
    CollapseOp,
    SystemParams,
    build_hamiltonian_displaced,
    build_hamiltonian_undisplaced,
    collapse_ops,
    displacement,
    turn_on_state,
)
from dressed_cool.operators import (
    HilbertSpace,
    annihilation,
    dagger,
    expect_real,
    expectation,
    fock_state,
    identity,
    kron,
    pauli,
    qubit_state,
)

GROUND = np.array([1.0, 0.0])
EXCITED = np.array([0.0, 1.0])


def reference_params(**overrides) -> SystemParams:
    overrides.setdefault("thermal_qubit", False)
    return to_system_params(Config(**overrides))


def lindblad_rhs(h, collapse, rho):
    """Reference right-hand side of the master equation, applied to one state
    with plain matrix products (the oracle for the Liouvillian)."""
    out = -1j * (h @ rho - rho @ h)
    for c in collapse:
        l = c.operator
        ldl = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def kron_liouvillian(h, collapse):
    """Reference generator assembled densely with np.kron (the oracle for the
    index-arithmetic assembly): vec(A rho B) = (B^T kron A) vec(rho)."""
    eye = np.eye(h.shape[0])
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in collapse:
        l = c.operator
        ldl = l.conj().T @ l
        liou = liou + np.kron(l.conj(), l) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return liou


def dense_lu_steady_state(h, collapse):
    """Reference steady state: complex dense LU of the full generator with its
    first row replaced by Tr rho = 1 (the oracle for the Hermitian-basis solve)."""
    d = h.shape[0]
    system = kron_liouvillian(h, collapse)
    system[0, :] = 0.0
    system[0, :: d + 1] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs).reshape((d, d), order="F")


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ dagger(m)
    return rho / np.trace(rho)


def random_hamiltonian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (h + dagger(h)) / 2


def random_collapse(rng, d, kind):
    """A dense random operator, one with a single nonzero entry, or zero."""
    if kind == "dense":
        l_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    else:
        l_op = np.zeros((d, d), dtype=complex)
        if kind == "single":
            i, j = rng.integers(0, d, size=2)
            l_op[i, j] = rng.normal() + 1j * rng.normal()
    return CollapseOp(operator=l_op, rate=1.0, label=kind)


# ---------------------------------------------------------------------------
# lindblad_rhs


def test_rhs_trivial_zero():
    rho = qubit_state(GROUND)
    out = lindblad_rhs(np.zeros((2, 2), dtype=complex), [], rho)
    assert np.max(np.abs(out)) == 0.0


def test_rhs_cavity_decay_hand_value():
    kappa = 3.0
    a = annihilation(2)
    ops = [CollapseOp(operator=math.sqrt(kappa) * a, rate=kappa, label="cavity")]
    rho = fock_state(2, 1)
    out = lindblad_rhs(np.zeros((2, 2), dtype=complex), ops, rho)
    expected = kappa * (fock_state(2, 0) - fock_state(2, 1))
    assert np.allclose(out, expected, atol=1e-14)


def test_rhs_rabi_turning_point():
    omega = 2.0 * math.pi * 9.0
    h = -0.5 * omega * pauli("x")
    rho = qubit_state(GROUND)
    rdot = lindblad_rhs(h, [], rho)
    sz = pauli("z")
    first = np.trace(sz @ rdot).real
    rddot = lindblad_rhs(h, [], rdot)
    second = np.trace(sz @ rddot).real
    assert abs(first) <= 1e-12
    assert second < 0.0


def test_rhs_trace_free_random_models():
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        h = random_hamiltonian(rng, d)
        ops = [random_collapse(rng, d, "dense") for _ in range(int(rng.integers(0, 3)))]
        rho = random_density(rng, d)
        out = lindblad_rhs(h, ops, rho)
        assert abs(np.trace(out)) <= 1e-12
        assert np.max(np.abs(out - dagger(out))) <= 1e-12


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        lindblad_rhs(np.zeros((3, 3), dtype=complex), [], qubit_state(GROUND))


# ---------------------------------------------------------------------------
# Liouvillian matrix


def test_liouvillian_zero_model():
    liou = liouvillian_matrix(np.zeros((2, 2), dtype=complex), [])
    assert np.max(np.abs(liou)) == 0.0


def test_liouvillian_matches_direct_apply():
    rng = np.random.default_rng(5)
    channel_sets = [
        ("dense",),
        ("single",),
        ("zero",),
        ("dense", "single"),
        ("single", "zero"),
        ("dense", "single", "zero"),
        ("dense", "dense", "dense"),
    ]
    for kinds in channel_sets:
        for _ in range(5):
            d = int(rng.integers(2, 5))
            h = random_hamiltonian(rng, d)
            ops = [random_collapse(rng, d, kind) for kind in kinds]
            liou = liouvillian_matrix(h, ops)
            rho = random_density(rng, d)
            lhs = (liou @ rho.ravel(order="F")).reshape((d, d), order="F")
            rhs = lindblad_rhs(h, ops, rho)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.filterwarnings("ignore:n_fock")
@pytest.mark.parametrize("frame", ["displaced", "undisplaced"])
@pytest.mark.parametrize("n_fock", [3, 8])
def test_liouvillian_matches_kron_reference(n_fock, frame):
    p = reference_params(n_bar=1.0, n_fock=n_fock, frame=frame, thermal_qubit=True)
    build = build_hamiltonian_displaced if frame == "displaced" else build_hamiltonian_undisplaced
    h = build(p)
    ops = collapse_ops(p, frame)
    assert len(ops) == 4
    liou = liouvillian_matrix(h, ops)
    assert isinstance(liou, sp.csr_matrix)
    ref = kron_liouvillian(h, ops)
    assert np.max(np.abs(liou.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_liouvillian_trace_left_null_vector():
    p = reference_params(n_bar=1.0)
    liou = liouvillian_matrix(
        build_hamiltonian_displaced(p), collapse_ops(p, "displaced")
    )
    d = 2 * p.n_fock
    vec_id = identity(d).ravel(order="F")
    assert np.max(np.abs(vec_id @ liou)) <= 1e-10


# ---------------------------------------------------------------------------
# integrate_adaptive


def test_integrator_grid_validation():
    f = lambda t, y: -y
    with pytest.raises(ValueError):
        integrate_adaptive(f, np.array([1.0 + 0j]), [0.0])
    with pytest.raises(ValueError):
        integrate_adaptive(f, np.array([1.0 + 0j]), [0.0, 1.0, 1.0])


def test_integrator_linear_problem_accuracy():
    lam = -1.0 + 2.0j
    f = lambda t, y: lam * y
    t_grid = np.linspace(0.0, 2.0, 9)
    ys = integrate_adaptive(f, np.array([1.0 + 0j]), t_grid, rtol=1e-10, atol=1e-12)
    for t, y in zip(t_grid, ys):
        assert abs(y[0] - np.exp(lam * t)) <= 1e-8


def test_integrator_order_from_step_halving():
    # global error of the order-5 propagation should drop ~32x per halving;
    # the contract only demands >= 4x for an embedded pair of order >= 4
    lam = -1.0 + 2.0j
    f = lambda t, y: lam * y
    t_grid = np.array([0.0, 1.0])
    exact = np.exp(lam)
    errs = []
    for h in (0.05, 0.025):
        y = integrate_adaptive(f, np.array([1.0 + 0j]), t_grid, fixed_step=h)[-1]
        errs.append(abs(y[0] - exact))
    ratio = errs[0] / errs[1]
    assert ratio >= 4.0
    assert ratio == pytest.approx(32.0, rel=0.3)


def test_integrator_stiffness_error_reports_time():
    # quadratic blowup reaches a pole at t = 1; the step collapses there
    f = lambda t, y: y * y
    with pytest.raises(StiffnessError) as info:
        integrate_adaptive(f, np.array([1.0 + 0j]), [0.0, 2.0])
    assert 0.9 <= info.value.time <= 1.1


def test_integrator_step_budget():
    f = lambda t, y: 1j * y
    with pytest.raises(RuntimeError, match="steps"):
        integrate_adaptive(f, np.array([1.0 + 0j]), [0.0, 1.0], max_steps=3)


# ---------------------------------------------------------------------------
# evolve


def test_evolve_closed_rabi():
    omega = 2.0 * math.pi * 9.0
    h = -0.5 * omega * pauli("x")
    t_grid = np.linspace(0.0, 1.0, 101)
    traj = evolve(h, [], qubit_state(GROUND), t_grid, observables={"sz": pauli("z")})
    expected = np.cos(omega * t_grid)
    assert np.max(np.abs(traj.expectations["sz"] - expected)) <= 1e-6


def test_evolve_pure_decay():
    gamma = 0.1
    ops = [CollapseOp(operator=math.sqrt(gamma) * pauli("-"), rate=gamma, label="down")]
    t_grid = np.linspace(0.0, 20.0, 81)
    excited_proj = qubit_state(EXCITED)
    traj = evolve(
        np.zeros((2, 2), dtype=complex), ops, qubit_state(EXCITED), t_grid,
        observables={"pe": excited_proj},
    )
    expected = np.exp(-gamma * t_grid)
    assert np.max(np.abs(traj.expectations["pe"] - expected)) <= 1e-6


def test_evolve_state_storage_defaults():
    h = -0.5 * pauli("x")
    t_grid = np.linspace(0.0, 1.0, 5)
    traj = evolve(h, [], qubit_state(GROUND), t_grid)
    assert traj.states is not None and len(traj.states) == 5
    traj = evolve(h, [], qubit_state(GROUND), t_grid, observables={"sz": pauli("z")})
    assert traj.states is None


def test_evolve_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        evolve(np.zeros((4, 4), dtype=complex), [], qubit_state(GROUND), [0.0, 1.0])


def test_evolve_long_run_conservation():
    p = reference_params(n_bar=1.0)
    traj = evolve(
        build_hamiltonian_displaced(p),
        collapse_ops(p, "displaced"),
        turn_on_state(p, "displaced"),
        np.linspace(0.0, 100.0, 201),
        observables={"sx": HilbertSpace(p.n_fock).sx},
        track_conservation=True,
    )
    c = traj.conservation
    assert c.max_trace_deviation <= 1e-7
    assert c.max_hermiticity_residual <= 1e-10
    assert c.min_eigenvalue >= -1e-7


# ---------------------------------------------------------------------------
# steady_state


def test_steady_requires_dissipation():
    with pytest.raises(ValueError):
        steady_state(pauli("z"), [])


def test_steady_pure_decay_reaches_joint_ground():
    n = 4
    hs = HilbertSpace(n)
    kappa, gamma = 2.0, 0.1
    ops = [
        CollapseOp(operator=math.sqrt(kappa) * hs.a, rate=kappa, label="cavity"),
        CollapseOp(operator=math.sqrt(gamma) * hs.sm, rate=gamma, label="down"),
    ]
    rho = steady_state(np.zeros((2 * n, 2 * n), dtype=complex), ops)
    expected = kron(qubit_state(GROUND), fock_state(n, 0))
    assert np.max(np.abs(rho - expected)) <= 1e-10


def test_steady_qubit_detailed_balance():
    down, up = 0.08, 0.02
    ops = [
        CollapseOp(operator=math.sqrt(down) * pauli("-"), rate=down, label="down"),
        CollapseOp(operator=math.sqrt(up) * pauli("+"), rate=up, label="up"),
    ]
    rho = steady_state(np.zeros((2, 2), dtype=complex), ops)
    excited = expect_real(qubit_state(EXCITED), rho)
    assert excited == pytest.approx(up / (up + down), rel=1e-10)


def test_steady_reference_point_sigma_x():
    p = reference_params(n_bar=1.0)
    rho = steady_state(build_hamiltonian_displaced(p), collapse_ops(p, "displaced"))
    hs = HilbertSpace(p.n_fock)
    sx = expect_real(hs.sx, rho)
    sy = expect_real(hs.sy, rho)
    assert sx == pytest.approx(0.94, abs=0.02)
    assert abs(sy) <= 0.02


def test_steady_matches_dense_lu_oracle():
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        h = random_hamiltonian(rng, d)
        ops = [random_collapse(rng, d, "dense") for _ in range(int(rng.integers(1, 4)))]
        rho = steady_state(h, ops)
        assert np.max(np.abs(rho - dense_lu_steady_state(h, ops))) <= 1e-10
        assert np.max(np.abs(rho - dagger(rho))) == 0.0
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)


def test_steady_state_leaves_scipy_linalg_unimported():
    # scipy.linalg and scipy.sparse.linalg each cost more resident memory than
    # the steady-state path may add; the dense real solve needs neither
    code = (
        "import sys\n"
        "import dressed_cool.cli\n"
        "from dressed_cool import config, dynamics, model\n"
        "p = config.to_system_params(config.Config())\n"
        "dynamics.steady_state(model.build_hamiltonian_displaced(p), model.collapse_ops(p))\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_steady_degenerate_system_is_detected():
    # pure dephasing: every diagonal qubit mixture is stationary
    ops = [CollapseOp(operator=pauli("z"), rate=1.0, label="dephasing")]
    with pytest.raises(MultipleSteadyStatesError):
        steady_state(np.zeros((2, 2), dtype=complex), ops)


def test_steady_matches_long_time_evolve():
    p = reference_params(n_bar=0.5)
    h = build_hamiltonian_displaced(p)
    ops = collapse_ops(p, "displaced")
    rho_ss = steady_state(h, ops)
    hs = HilbertSpace(p.n_fock)
    obs = {"sx": hs.sx, "sy": hs.sy, "sz": hs.sz}
    from dressed_cool.rates import rates_general

    t_settle = 20.0 / rates_general(p).total
    traj = evolve(h, ops, turn_on_state(p, "displaced"), [0.0, t_settle], observables=obs)
    for name, op in obs.items():
        assert traj.expectations[name][-1] == pytest.approx(
            expect_real(op, rho_ss), abs=1e-4
        )


def test_static_coherent_state_in_lab_frame():
    # no qubit coupling, no Rabi drive: the lab-frame cavity settles into the
    # coherent state predicted by the displacement formula
    p = SystemParams(
        chi=0.0, kappa=2.0 * math.pi * 4.3, omega_r_rabi=0.0,
        delta_c=2.0 * math.pi * -9.0, delta_q_prime=0.0,
        eps_d=2.0 * math.pi * 9.253, gamma_down=0.1, gamma_up=0.0,
        gamma_phi=0.0, n_fock=14,
    )
    rho = steady_state(build_hamiltonian_undisplaced(p), collapse_ops(p, "undisplaced"))
    hs = HilbertSpace(p.n_fock)
    a_avg = expectation(hs.a, rho)
    a_bar = displacement(p.eps_d, p.delta_c, p.kappa).a_bar
    assert abs(a_avg - a_bar) <= 1e-6
