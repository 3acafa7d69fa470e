import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dressed_cool import analysis, dynamics, integrate, sweep
from dressed_cool.config import Config, to_system_params
from dressed_cool.dynamics import (
    ModeNotConvergedError,
    MultipleSteadyStatesError,
    evolve,
    liouvillian_matrix,
    steady_state,
    steady_states,
)
from dressed_cool.integrate import StiffnessError, integrate_adaptive
from dressed_cool.model import (
    FRAMES,
    CollapseOp,
    SystemParams,
    build_hamiltonian_displaced,
    build_hamiltonian_undisplaced,
    build_model,
    build_terms,
    channels,
    collapse_ops,
    displacement,
    qubit_axis_state,
    turn_on_state,
)
from dressed_cool.operators import (
    HilbertSpace,
    annihilation,
    fock_state,
    identity,
    kron,
    pauli,
    qubit_state,
    space,
)
from dressed_cool.rates import rates_general
from test_operators import expect_real, expectation

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


def direct_generator(h, collapse, basis=None):
    """Reference real generator M = T+ L T, the direct product of a Hermitian
    basis T (by default dynamics._hermitian_basis, or the map's own
    reordering of it) and liouvillian_matrix (the oracle for the map
    assembly of dynamics._generator)."""
    if basis is None:
        basis = dynamics._hermitian_basis(h.shape[0])
    return (basis.conj().T @ liouvillian_matrix(h, collapse) @ basis).real


def map_order(basis):
    """The order with basis = dynamics._hermitian_basis(d)[:, order], which
    it asserts: the map's basis only renumbers the Hermitian basis."""
    nn = basis.shape[0]
    overlap = (dynamics._hermitian_basis(round(math.sqrt(nn))).conj().T @ basis).toarray()
    order = np.abs(overlap).argmax(axis=0)
    assert np.allclose(overlap, np.eye(nn)[:, order], rtol=0.0, atol=1e-15)
    return order


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


def complex_evolve(h, collapse, rho0, t_grid, observables):
    """Reference propagation of the complex vec(rho) under the Liouvillian,
    projected back onto Hermitian matrices after every accepted step (the
    oracle for evolve's real Hermitian-basis propagation, at its
    tolerances).  Returns each observable's real series."""
    d = h.shape[0]
    liou = liouvillian_matrix(h, collapse)

    def symmetrize(v):
        rho = v.reshape((d, d), order="F")
        return (0.5 * (rho + rho.conj().T)).ravel(order="F")

    v0 = np.asarray(rho0, dtype=complex).ravel(order="F")
    vs = integrate_adaptive(lambda _t, v: liou @ v, v0, t_grid, post_step=symmetrize)
    return {
        name: np.array([expect_real(op, v.reshape((d, d), order="F")) for v in vs])
        for name, op in observables.items()
    }


def expm_series(h, collapse, rho0, t_grid, observables):
    """Exact reference series on a uniform t_grid: the dense propagator
    expm(L dt) of kron_liouvillian over one output step, applied once per
    output.  Returns each observable's real series."""
    import scipy.linalg  # for tests only: the package never imports it

    d = h.shape[0]
    dt = t_grid[1] - t_grid[0]
    assert np.allclose(np.diff(t_grid), dt, rtol=1e-12, atol=0.0)
    step = scipy.linalg.expm(kron_liouvillian(h, collapse) * dt)
    v = np.asarray(rho0, dtype=complex).ravel(order="F")
    vs = [v]
    for _ in t_grid[1:]:
        vs.append(step @ vs[-1])
    return {
        name: np.array([expect_real(op, v.reshape((d, d), order="F")) for v in vs])
        for name, op in observables.items()
    }


def full_eig_mode(h, collapse, probe):
    """Reference mode pick: every eigenpair of M = Re(T+ L T) from a full
    eigendecomposition, weighted by |(x . r_k)(l_k . x)| for the probe's
    traceless coordinates x (the oracle for the Arnoldi pick).  Returns the
    picked eigenvalue and all eigenvalues."""
    d = h.shape[0]
    basis = dynamics._hermitian_basis(d)
    m = (basis.conj().T @ liouvillian_matrix(h, collapse) @ basis).toarray().real
    x = (basis.conj().T @ probe.ravel(order="F")).real
    x[:d] -= x[:d].sum() / d
    lam, right = np.linalg.eig(m)
    left = np.linalg.inv(right)
    return lam[np.argmax(np.abs((x @ right) * (left @ x)))], lam


def dressed_probe(p):
    """Oracle: the dressed probe of p as a matrix, sigma_theta (x) |0><0|,
    the sum of analysis.dressed_probe_terms(p) on the operator table."""
    return space(p.n_fock).combine(analysis.dressed_probe_terms(p))


def matrix_outcome(h, collapse, probe=None):
    """The outcome of one model given as matrices, alone on its one-term
    map (dynamics._matrix_map), from dynamics._steady: probed by the
    Hermitian operator probe, whose coordinates are read off in the map's
    basis, or by nothing."""
    gmap = dynamics._matrix_map(h, collapse)
    x = None if probe is None else (gmap.basis.conj().T @ probe.ravel(order="F")).real
    return dynamics._steady(gmap, gmap.coordinates(np.ones((1, 1))), [x])[0]


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_hamiltonian(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (h + h.conj().T) / 2


def random_collapse(rng, d, kind):
    """A dense random operator, one with a single nonzero entry, or zero."""
    if kind == "dense":
        l_op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    else:
        l_op = np.zeros((d, d), dtype=complex)
        if kind == "single":
            i, j = rng.integers(0, d, size=2)
            l_op[i, j] = rng.normal() + 1j * rng.normal()
    return CollapseOp(operator=l_op)


# ---------------------------------------------------------------------------
# lindblad_rhs


def test_rhs_trivial_zero():
    rho = qubit_state(GROUND)
    out = lindblad_rhs(np.zeros((2, 2), dtype=complex), [], rho)
    assert np.max(np.abs(out)) == 0.0


def test_rhs_cavity_decay_hand_value():
    kappa = 3.0
    a = annihilation(2)
    ops = [CollapseOp(operator=math.sqrt(kappa) * a)]
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
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12


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
    # np.diff(t_grid) <= 0 is False for NaN, so the ordering check alone
    # would pass these grids and return copies of y0
    for bad in ([0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            integrate_adaptive(f, np.array([1.0 + 0j]), bad)


def test_integrator_linear_problem_accuracy(monkeypatch):
    monkeypatch.setattr(integrate, "_RTOL", 1e-10)
    monkeypatch.setattr(integrate, "_ATOL", 1e-12)
    lam = -1.0 + 2.0j
    f = lambda t, y: lam * y
    t_grid = np.linspace(0.0, 2.0, 9)
    ys = integrate_adaptive(f, np.array([1.0 + 0j]), t_grid)
    for t, y in zip(t_grid, ys):
        assert abs(y[0] - np.exp(lam * t)) <= 1e-8


def test_integrator_order_from_step_halving(monkeypatch):
    # global error of the order-5 propagation should drop ~32x per halving;
    # the contract only demands >= 4x for an embedded pair of order >= 4.
    # Tolerances this loose accept every step, so once the step has grown
    # past the grid spacing every step is clamped to the uniform grid.
    monkeypatch.setattr(integrate, "_RTOL", 1e6)
    monkeypatch.setattr(integrate, "_ATOL", 1e6)
    lam = -1.0 + 2.0j
    f = lambda t, y: lam * y
    exact = np.exp(lam)
    errs = []
    for n in (21, 41):
        t_grid = np.linspace(0.0, 1.0, n)
        y = integrate_adaptive(f, np.array([1.0 + 0j]), t_grid)[-1]
        errs.append(abs(y[0] - exact))
    ratio = errs[0] / errs[1]
    assert ratio >= 4.0
    assert ratio == pytest.approx(32.0, rel=0.3)


def test_integrator_keeps_a_real_state_real():
    ys = integrate_adaptive(lambda t, y: -y, np.array([1.0]), np.linspace(0.0, 1.0, 3))
    assert all(y.dtype == np.float64 for y in ys)
    assert ys[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_integrator_rejects_a_complex_rhs_of_a_real_state():
    # the real stage array would silently drop the imaginary part
    with pytest.raises(TypeError, match="complex128.*float64"):
        integrate_adaptive(lambda t, y: 1j * y, np.array([1.0]), [0.0, 1.0])
    calls = []

    def late(t, y):  # complex only from the first stage on
        calls.append(t)
        return (1j if len(calls) > 1 else 1.0) * y

    with pytest.raises(TypeError, match="complex128.*float64"):
        integrate_adaptive(late, np.array([1.0]), [0.0, 1.0])
    assert len(calls) == 2


def test_integrator_stiffness_error_reports_time():
    # quadratic blowup reaches a pole at t = 1; the step collapses there
    f = lambda t, y: y * y
    with pytest.raises(StiffnessError) as info:
        integrate_adaptive(f, np.array([1.0 + 0j]), [0.0, 2.0])
    assert 0.9 <= info.value.time <= 1.1


def test_integrator_step_budget(monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEPS", 3)
    f = lambda t, y: 1j * y
    with pytest.raises(RuntimeError, match="exceeded 3 integration steps"):
        integrate_adaptive(f, np.array([1.0 + 0j]), [0.0, 1.0])


def test_integrator_reduces_each_grid_time_in_order():
    t_grid = np.linspace(0.0, 1.0, 6)
    seen = []

    def reduce(y):
        seen.append(y[0])
        return len(seen)

    assert integrate_adaptive(lambda t, y: -y, np.array([1.0]), t_grid, reduce=reduce) == [1, 2, 3, 4, 5, 6]
    assert np.allclose(seen, np.exp(-t_grid), rtol=1e-7)
    # a copying reduce gives exactly the default's states
    f = lambda t, y: np.array([-y[1], y[0]]) - 0.1 * y
    default = integrate_adaptive(f, np.array([1.0, 0.0]), t_grid)
    copied = integrate_adaptive(f, np.array([1.0, 0.0]), t_grid, reduce=lambda y: y.copy())
    assert len(copied) == len(default) == 6
    for a, b in zip(copied, default):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# Dormand & Prince (1980), as tabulated in Hairer, Norsett & Wanner, Solving
# ODEs I, sec. II.5: nodes, stage weights row by row, and the order-5 and
# order-4 propagation weights.
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def dormand_prince_step(f, t, y, h):
    """One textbook Dormand-Prince step in allocating arithmetic (the oracle
    for integrate_adaptive): k_i = f(t + c_i h, y + h (A_i . k)), and
    returns y + h (B5 . k), the error estimate h ((B5 - B4) . k) and the
    stage times."""
    k, times = [], []
    for c, a in zip(DP_C, DP_A):
        times.append(t + c * h)
        k.append(f(times[-1], y + h * (np.array(a) @ np.array(k)) if a else y))
    k = np.array(k)
    return y + h * (DP_B5 @ k), h * ((DP_B5 - DP_B4) @ k), times


def _forced_van_der_pol(t, y):
    return np.array([y[1], 0.5 * (1.0 - y[0] ** 2) * y[1] - y[0] + 0.3 * math.cos(2.0 * t)])


_ORACLE_SYSTEMS = {
    "real linear": (-np.eye(4) + 0.5 * np.random.default_rng(1).normal(size=(4, 4)), np.ones(4)),
    "complex linear": (
        -0.5 * np.eye(3) + 1j * np.diag([1.0, -2.0, 0.5]) + 0.3 * np.random.default_rng(2).normal(size=(3, 3)),
        np.array([1.0, 0.5j, -0.25 + 0.5j]),
    ),
    "nonlinear": (_forced_van_der_pol, np.array([1.0, 0.5])),
}


@pytest.mark.parametrize("system", sorted(_ORACLE_SYSTEMS))
def test_integrator_matches_a_textbook_dormand_prince_oracle(system, monkeypatch):
    # on a grid finer than the natural step every step is clamped to the grid
    # spacing and accepted, so step control cannot drift and each step can be
    # laid beside the oracle's: the same stage times, and the state and the
    # error estimate equal up to the rounding of the stage sums
    rhs, y0 = _ORACLE_SYSTEMS[system]
    f = rhs if callable(rhs) else lambda t, y: rhs @ y
    t_grid = np.linspace(0.0, 1.0, 401)
    calls, errs = [], []
    norm = integrate._error_norm
    monkeypatch.setattr(integrate, "_error_norm", lambda err, *a: errs.append(err.copy()) or norm(err, *a))
    ys = integrate_adaptive(lambda t, y: calls.append(t) or f(t, y), y0, t_grid)
    # f at t0, then six stages per attempt and one after each accepted step
    assert len(calls) == 1 + 7 * (len(t_grid) - 1) and len(errs) == len(t_grid) - 1

    t, y = float(t_grid[0]), y0
    for j, target in enumerate(t_grid[1:]):
        h = target - t
        y, err, times = dormand_prince_step(f, t, y, h)
        t = t + h
        assert calls[7 * j: 7 * j + 7] == times[:6] + [t]
        assert ys[j + 1].dtype == y.dtype
        assert np.linalg.norm(ys[j + 1] - y) <= 1e-13 * np.linalg.norm(y)
        assert np.linalg.norm(errs[j] - err) <= 1e-13 * h * np.linalg.norm(y)


def test_error_norm_buffers_match_the_allocating_formula():
    # the buffered norm runs the allocating formula's ufuncs in its order, so
    # step control is the same bit for bit, for real and complex states
    def allocating(err, y0, y1, rtol, atol):
        scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
        return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))

    rng = np.random.default_rng(3)
    for n in (1, 7, 256, 2304):
        for dtype in (float, complex):
            for _ in range(20):
                y0, y1, err = (
                    (rng.normal(size=n) * 10.0 ** rng.uniform(-14, 2, size=n)).astype(dtype)
                    + (1j * rng.normal(size=n) if dtype is complex else 0.0)
                    for _ in range(3)
                )
                y0[::5] = 0.0
                scale, ratio = np.full(n, np.nan), np.full(n, np.nan, dtype=dtype)
                assert integrate._error_norm(err, y0, y1, 1e-8, 1e-10, scale, ratio) == allocating(
                    err, y0, y1, 1e-8, 1e-10)


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
    ops = [CollapseOp(operator=math.sqrt(gamma) * pauli("-"))]
    t_grid = np.linspace(0.0, 20.0, 81)
    excited_proj = qubit_state(EXCITED)
    traj = evolve(
        np.zeros((2, 2), dtype=complex), ops, qubit_state(EXCITED), t_grid,
        observables={"pe": excited_proj},
    )
    expected = np.exp(-gamma * t_grid)
    assert np.max(np.abs(traj.expectations["pe"] - expected)) <= 1e-6


def test_evolve_state_storage_defaults():
    # states are kept only when asked for, with or without observables
    h = -0.5 * pauli("x")
    t_grid = np.linspace(0.0, 1.0, 5)
    assert evolve(h, [], qubit_state(GROUND), t_grid).states is None
    traj = evolve(h, [], qubit_state(GROUND), t_grid, observables={"sz": pauli("z")})
    assert traj.states is None
    traj = evolve(h, [], qubit_state(GROUND), t_grid, store_states=True)
    assert traj.states is not None and len(traj.states) == 5


def test_evolve_always_reports_conservation():
    h = -0.5 * pauli("x")
    traj = evolve(h, [], qubit_state(GROUND), np.linspace(0.0, 1.0, 5))
    assert traj.stats.max_trace_deviation <= 1e-12
    assert traj.stats.min_eigenvalue >= -1e-12


def test_evolve_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        evolve(np.zeros((4, 4), dtype=complex), [], qubit_state(GROUND), [0.0, 1.0])


def test_evolve_rejects_non_hermitian_state():
    # a lone |g><e| coherence has no real Hermitian-basis coordinates
    rho = qubit_state(GROUND) + 0.1 * np.outer(GROUND, EXCITED)
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve(-0.5 * pauli("x"), [], rho, [0.0, 1.0])


def test_evolve_rejects_an_odd_dimension():
    # the top Fock level is read in the qubit-major layout, d = 2 n_fock
    with pytest.raises(ValueError, match="not 2 \\* n_fock"):
        evolve(np.zeros((3, 3), dtype=complex), [], np.eye(3) / 3, [0.0, 1.0])


def test_evolve_rejects_an_observable_that_is_not_d_by_d():
    # 36 entries are d^2 at n_fock = 3, but only a (6, 6) matrix is an operator
    p = reference_params(n_fock=3)
    h, ops = build_model(p)
    for shape in [(36,), (3, 12)]:
        with pytest.raises(ValueError, match=re.escape(f"observable 'ones' has shape {shape}, not (6, 6)")):
            evolve(h, ops, turn_on_state(p), [0.0, 0.1], observables={"ones": np.ones(shape)})
    traj = evolve(h, ops, turn_on_state(p), [0.0, 0.1], observables={"ones": np.ones((6, 6))})
    assert traj.expectations["ones"].shape == (2,)


def test_evolve_holds_no_state_per_output():
    # 2001 outputs at criterion 1's point (d^2 = 256): the states alone would
    # take 2001 * 256 * 8 B, about 4 MB; streamed, the traced peak is the
    # generator and a few d^2 vectors
    p = to_system_params(Config(n_bar=1.0))
    h, ops = build_model(p)
    rho0, obs = turn_on_state(p), {"sx": HilbertSpace(p.n_fock).sx}
    t_grid = np.linspace(0.0, 1.0, 2001)
    tracemalloc.start()
    try:
        traj = evolve(h, ops, rho0, t_grid, observables=obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states is None and traj.expectations["sx"].shape == (2001,)
    assert peak < 2001 * 256 * 8 / 4


def criterion_1_window():
    """Criterion 1's operating point (n_bar = 1, d^2 = 256) over a short
    window: the reference trajectory of the step-control and stats tests."""
    p = to_system_params(Config(n_bar=1.0))
    assert (2 * p.n_fock) ** 2 == 256
    return p, analysis.cooling_trajectory(p, 1.0, n_times=51)


def test_evolve_step_control_is_pinned():
    # 4877 generator applications: the count of this trajectory with the
    # Dormand-Prince stages summed term by term in Python, before the stages
    # moved into one array with the state.  Equal counts mean the stacked
    # arithmetic accepted and rejected the same steps.
    _, traj = criterion_1_window()
    assert traj.stats.generator_applications == 4877


def test_evolve_is_the_integration_of_the_public_sparse_product():
    # evolve applies M through the kernel of csr_matrix @ vector into a
    # reused buffer; integrating m @ r itself, with the same reduction, must
    # give its expectations bit for bit
    p, traj = criterion_1_window()
    h, ops = build_model(p)
    basis, m = dynamics._generator(h, ops)
    r0 = (basis.conj().T @ turn_on_state(p).ravel(order="F")).real
    hs = space(p.n_fock)
    rows = [(basis.T @ op.ravel()).real for op in (hs.sx, hs.sy, hs.sz, hs.n)]
    ref = np.array(integrate_adaptive(lambda t, r: m @ r, r0, traj.times, reduce=lambda r: [w @ r for w in rows]))
    for j, name in enumerate(("sx", "sy", "sz", "n_cav")):
        assert np.array_equal(traj.expectations[name], ref[:, j]), name


def test_evolve_stats_count_and_time_the_propagation(monkeypatch):
    calls, inner_s = [], []
    inner = dynamics.integrate_adaptive

    def counted(f, *args, **kwargs):
        start = time.perf_counter()
        out = inner(lambda t, y: calls.append(t) or f(t, y), *args, **kwargs)
        inner_s.append(time.perf_counter() - start)
        return out

    monkeypatch.setattr(dynamics, "integrate_adaptive", counted)
    start = time.perf_counter()
    _, traj = criterion_1_window()
    outer_s = time.perf_counter() - start
    assert traj.stats.generator_applications == len(calls) > 0
    assert inner_s[0] <= traj.stats.wall_s <= outer_s


def test_evolve_stats_time_the_reductions_inside_the_propagation():
    # every grid time is reduced inside the timed propagation, so the
    # reductions' seconds are positive and at most the propagation's
    p = reference_params(n_bar=1.0)
    h, ops = build_model(p)
    for t_grid in ([0.0, 0.05], np.linspace(0.0, 0.5, 51)):
        traj = evolve(h, ops, turn_on_state(p), t_grid, observables={"sz": space(p.n_fock).sz})
        assert 0.0 < traj.stats.reduce_s <= traj.stats.wall_s
    assert " s reducing)," in traj.stats.summary()


def test_evolve_stats_report_the_top_fock_population():
    p, traj = criterion_1_window()
    top = kron(identity(2), fock_state(p.n_fock, p.n_fock - 1))
    h, ops = build_model(p)
    ref = evolve(h, ops, turn_on_state(p), traj.times, observables={"top": top})
    assert traj.stats.top_fock_population == np.max(ref.expectations["top"]) > 0.0
    # a bare qubit is a one-level cavity, all of it at the edge
    traj = evolve(-0.5 * pauli("x"), [], qubit_state(GROUND), [0.0, 1.0])
    assert traj.stats.top_fock_population == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("initial", ["turn_on", "ground"])
@pytest.mark.parametrize("n_bar", [0.25, 1.0])
def test_evolve_matches_complex_propagation_oracle(n_bar, initial, frame):
    p = reference_params(n_bar=n_bar, frame=frame)  # n_fock from the frame's cutoff rule
    traj = analysis.cooling_trajectory(p, 2.0, n_times=201, initial=initial, frame=frame)
    if initial == "turn_on":
        rho0 = turn_on_state(p, frame)
    else:
        rho0 = qubit_axis_state(p, initial, frame)
    hs = HilbertSpace(p.n_fock)
    obs = {"sx": hs.sx, "sz": hs.sz, "n_cav": hs.a.conj().T @ hs.a}
    h, ops = build_model(p, frame)
    ref = complex_evolve(h, ops, rho0, traj.times, obs)
    exact = expm_series(h, ops, rho0, traj.times, obs)
    # <sz> turns with the 9 MHz Rabi drive, so over 2 us both paths carry up
    # to ~6e-7 of phase error at these tolerances and differ by up to ~1e-7;
    # the real path must be no less accurate than the complex one
    for name, series in exact.items():
        err = np.max(np.abs(traj.expectations[name] - series))
        assert err <= min(1e-6, np.max(np.abs(ref[name] - series))), name


def test_evolve_long_run_conservation():
    p = reference_params(n_bar=1.0)
    traj = evolve(
        build_hamiltonian_displaced(p),
        collapse_ops(p, "displaced"),
        turn_on_state(p, "displaced"),
        np.linspace(0.0, 100.0, 201),
        observables={"sx": HilbertSpace(p.n_fock).sx},
    )
    c = traj.stats
    assert c.max_trace_deviation <= 1e-7
    assert c.min_eigenvalue >= -1e-7


# ---------------------------------------------------------------------------
# Krylov propagation


def krylov_run():
    """Criterion 6's displaced point (n_bar = 3.6, n_fock 15, d^2 = 900,
    from the turn-on state), at or above the Krylov crossover: its model,
    start and the observables <sx>, <sz>."""
    p = to_system_params(Config(n_bar=3.6))
    assert (2 * p.n_fock) ** 2 == 900 >= dynamics._KRYLOV_CROSSOVER
    hs = space(p.n_fock)
    return (*build_model(p), turn_on_state(p)), {"sx": hs.sx, "sz": hs.sz}


# A short window, before the state settles, and one over which it reaches
# its steady state, where the Krylov space breaks down after one vector.
_KRYLOV_WINDOWS = {"short": (0.5, 51), "steady": (10.0, 51)}


@functools.lru_cache(maxsize=None)
def krylov_reference(window: str):
    """The dense expm_series of krylov_run over a window of _KRYLOV_WINDOWS,
    computed once for the tests that share it."""
    model, obs = krylov_run()
    t_grid = np.linspace(0.0, *_KRYLOV_WINDOWS[window])
    return t_grid, expm_series(*model, t_grid, obs)


def deviation(traj, ref) -> float:
    return max(float(np.max(np.abs(traj.expectations[k] - series))) for k, series in ref.items())


# Largest deviation of the Krylov series from the dense exponential: measured
# 1.1e-14 (short) and 6.7e-14 (steady) with the default constants, against
# 1.8e-8 and 1.7e-8 for Runge-Kutta's.
_KRYLOV_BOUND = {"short": 1e-13, "steady": 1e-12}


@pytest.mark.parametrize("window", sorted(_KRYLOV_WINDOWS))
def test_krylov_matches_a_dense_exponential_per_output(window, monkeypatch):
    model, obs = krylov_run()
    t_grid, ref = krylov_reference(window)
    columns, steps = dynamics._exp_columns, []
    monkeypatch.setattr(dynamics, "_exp_columns",
                        lambda h, offsets, slack: steps.append((h.shape[0], offsets.size))
                        or columns(h, offsets, slack))
    traj = evolve(*model, t_grid, obs)
    assert traj.stats.propagator == "Krylov"
    assert deviation(traj, ref) <= _KRYLOV_BOUND[window]
    assert sum(n for _, n in steps) == len(t_grid) - 1
    # once settled, a breakdown after one vector runs to the last grid time,
    # and r, with its trace, stays as it is
    assert (steps[-1][0] == 1 and steps[-1][1] > len(t_grid) // 3) == (window == "steady")
    assert all(k == dynamics._KRYLOV_DIM + 2 for k, _ in steps[:-1])
    assert traj.stats.max_trace_deviation <= 1e-13
    # the bound is tighter than Runge-Kutta's own deviation
    monkeypatch.setattr(dynamics, "_KRYLOV_CROSSOVER", 10**9)
    rk = evolve(*model, t_grid, obs)
    assert rk.stats.propagator == "Runge-Kutta"
    assert deviation(rk, ref) > 100 * _KRYLOV_BOUND[window]


@pytest.mark.parametrize("delta, vectors", [(5e-11, 1), (5e-10, 2)])
def test_krylov_breakdown_is_accepted_only_within_the_tolerance(delta, vectors, monkeypatch):
    # M = diag(0, -1, -1000) from r = (1, delta, 0): M r = (0, -delta, 0) is
    # below _BREAKDOWN |M| = 1e-9 either way.  A residual below
    # _KRYLOV_TOL / |r| ends the basis after one vector, and r stays; a
    # larger one would grow the error faster than the tolerance allows, so
    # the basis goes on to the invariant space of two vectors, where it is
    # exact.  The step runs to the last grid time either way.
    mat = np.diag([0.0, -1.0, -1000.0])
    t_grid = np.linspace(0.0, 10.0, 11)
    columns, sizes, states = dynamics._exp_columns, [], []
    monkeypatch.setattr(dynamics, "_exp_columns",
                        lambda h, offsets, slack: sizes.append(h.shape[0]) or columns(h, offsets, slack))
    steps = dynamics._krylov_propagate(lambda x, out: np.matmul(mat, x, out=out), np.array([1.0, delta, 0.0]),
                                       t_grid, lambda r: states.append(r.copy()), 1000.0)
    assert steps == (1, 0)
    assert sizes == [vectors]
    err = np.abs(np.array(states) - [[1.0, delta * math.exp(-t), 0.0] for t in t_grid]).max(axis=1)
    assert np.all(err <= dynamics._KRYLOV_TOL * t_grid + 1e-16)
    if vectors == 2:
        assert err.max() <= 1e-14  # measured 1.1e-15


def test_krylov_retries_a_rejected_step_shorter(monkeypatch):
    # the first step's error estimate is inflated to |r|: it is rejected, and
    # the next exponential retries it on the same basis, shorter; the
    # trajectory keeps its accuracy
    model, obs = krylov_run()
    t_grid, ref = krylov_reference("short")
    expm, args = dynamics._expm, []

    def first_rejected(a):
        args.append(a.copy())
        out = expm(a)
        if len(args) == 1:
            out[-2:, 0] = 1.0
        return out

    monkeypatch.setattr(dynamics, "_expm", first_rejected)
    traj = evolve(*model, t_grid, obs)
    assert traj.stats.steps_rejected >= 1
    shorter = args[1][1, 0] / args[0][1, 0]
    assert 0.0 < shorter < 1.0
    assert np.allclose(args[1], shorter * args[0], rtol=1e-12, atol=0.0)
    assert deviation(traj, ref) <= _KRYLOV_BOUND["short"]
    c = traj.stats
    summary = c.summary()
    assert summary.startswith(f"Krylov (dimension {dynamics._KRYLOV_DIM}): {c.generator_applications}"
                              " generator applications in ")
    assert f" {c.steps_accepted} steps accepted and {c.steps_rejected} rejected, top Fock" in summary


def test_evolve_takes_krylov_steps_from_the_crossover_up():
    # the cutoff just below the crossover still integrates by Runge-Kutta
    n_at = math.ceil(math.sqrt(dynamics._KRYLOV_CROSSOVER) / 2)
    assert (2 * n_at - 2) ** 2 < dynamics._KRYLOV_CROSSOVER <= (2 * n_at) ** 2
    for n_fock, propagator in ((n_at - 1, "Runge-Kutta"), (n_at, "Krylov")):
        p = to_system_params(Config(n_bar=3.6, n_fock=n_fock))
        traj = evolve(*build_model(p), turn_on_state(p), [0.0, 0.01])
        assert traj.stats.propagator == propagator
        assert (traj.stats.steps_accepted > 0) == (propagator == "Krylov")


@pytest.mark.parametrize("offsets", [np.linspace(0.3, 2.0, 18), np.geomspace(0.01, 2.0, 18)])
def test_exp_columns_match_scipy_on_even_and_uneven_offsets(offsets, monkeypatch):
    import scipy.linalg  # for tests only: the package never imports it

    # evenly spaced offsets take two small exponentials and powers of the
    # second, uneven ones one exponential each; both match the direct one
    # (measured 9.5e-15 and 8.9e-16 of the largest entry)
    rng = np.random.default_rng(7)
    h = np.triu(rng.normal(size=(27, 27)), -1) - 8.0 * np.eye(27)
    expm, calls = dynamics._expm, []
    monkeypatch.setattr(dynamics, "_expm", lambda a: calls.append(a) or expm(a))
    got = dynamics._exp_columns(h, offsets, 8 * np.finfo(float).eps * 2.0)
    assert len(calls) == (2 if np.allclose(np.diff(offsets), offsets[1] - offsets[0]) else len(offsets))
    ref = [scipy.linalg.expm(s * h)[:, 0] for s in offsets]
    assert max(np.max(np.abs(g - r)) for g, r in zip(got, ref)) <= 1e-13 * max(np.max(np.abs(r)) for r in ref)


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3])
def test_pade_exponential_matches_scipy(norm):
    import scipy.linalg  # for tests only: the package never imports it

    # a dense matrix, and a Hessenberg whose eigenvalues lie in the left
    # half-plane (Gershgorin), as a dissipative generator's Ritz values do;
    # exp(a)'s condition grows with |a|, and so does the bound (measured
    # 6.7e-16 at norm 1, 2.1e-14 at 10 and 9.3e-13 at 1e3)
    rng = np.random.default_rng(round(math.log10(norm)) + 3)
    hess = np.triu(rng.normal(size=(22, 22)), -1)
    hess -= np.abs(hess).sum(axis=1).max() * np.eye(22)
    for a in (rng.normal(size=(22, 22)), hess):
        a *= norm / np.abs(a).sum(axis=0).max()
        ref = scipy.linalg.expm(a)
        assert np.max(np.abs(dynamics._expm(a) - ref)) <= 1e-14 * max(1.0, norm) * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 48, 62])
def test_hermitian_basis_states_are_exactly_hermitian(d):
    # why evolve needs no Hermiticity audit: any real coordinates give an
    # exactly conjugate-symmetric state
    r = np.random.default_rng(d).normal(size=d * d)
    rho = (dynamics._hermitian_basis(d) @ r).reshape((d, d), order="F")
    assert np.array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("frame", FRAMES)
def test_steady_states_are_exactly_hermitian(frame):
    # why analysis.steady_points audits positivity with eigvalsh on the
    # states themselves: each is T r over its real trace, exactly
    # conjugate-symmetric, as evolve's are
    ps = [to_system_params(Config(n_bar=n_bar, delta_q_prime_mhz=dq, frame=frame), steady=True)
          for n_bar in (0.25, 1.0, 3.0) for dq in (-5.0, 0.0, 4.0)]
    outcomes = steady_states([build_terms(p, frame) for p in ps])
    for rho in outcomes:
        assert isinstance(rho, np.ndarray)
        assert np.array_equal(rho, rho.conj().T)


def test_evolve_series_dtype_follows_the_operator():
    # an undriven cavity stays in its vacuum, so <a> is identically 0 but is
    # still reported complex; Hermitian observables are reported real
    hs = HilbertSpace(3)
    ops = [CollapseOp(operator=math.sqrt(2.0) * hs.a)]
    rho0 = kron(qubit_state(GROUND), fock_state(3, 0))
    obs = {"a": hs.a, "sx": hs.sx, "sz": hs.sz, "n_cav": hs.a.conj().T @ hs.a}
    traj = evolve(-0.5 * hs.sx, ops, rho0, np.linspace(0.0, 1.0, 11), observables=obs)
    assert traj.expectations["a"].dtype == complex
    assert not traj.expectations["a"].any()
    for name in ("sx", "sz", "n_cav"):
        assert traj.expectations[name].dtype == float, name
    assert np.ptp(traj.expectations["sz"]) > 0.1


def test_non_hermitian_hamiltonian_is_rejected():
    p = reference_params(n_bar=1.0, n_fock=4)
    h, ops = build_model(p)
    h = h + 1e-6 * np.triu(np.ones_like(h), 1)
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        evolve(h, ops, turn_on_state(p, "displaced"), [0.0, 1.0])
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        steady_state(h, ops)
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        dynamics._matrix_map(h, ops)


# ---------------------------------------------------------------------------
# steady_state


def test_steady_requires_dissipation():
    with pytest.raises(ValueError):
        steady_state(pauli("z"), [])
    # the same check on a model given as coefficients, before any map is built
    terms = build_terms(reference_params(n_fock=3))._replace(channels=())
    with pytest.raises(ValueError, match="at least one collapse channel"):
        steady_states([terms])


def test_steady_pure_decay_reaches_joint_ground():
    n = 4
    hs = HilbertSpace(n)
    kappa, gamma = 2.0, 0.1
    ops = [
        CollapseOp(operator=math.sqrt(kappa) * hs.a),
        CollapseOp(operator=math.sqrt(gamma) * hs.sm),
    ]
    rho = steady_state(np.zeros((2 * n, 2 * n), dtype=complex), ops)
    expected = kron(qubit_state(GROUND), fock_state(n, 0))
    assert np.max(np.abs(rho - expected)) <= 1e-10


def test_steady_qubit_detailed_balance():
    down, up = 0.08, 0.02
    ops = [
        CollapseOp(operator=math.sqrt(down) * pauli("-")),
        CollapseOp(operator=math.sqrt(up) * pauli("+")),
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
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)


def test_steady_state_leaves_scipy_linalg_unimported():
    # scipy.linalg and scipy.sparse.linalg each cost more resident memory than
    # the steady-state path may add; the dense real solve and the Arnoldi
    # iteration of a cooling_rate point need neither, nor does a trajectory
    # at the Krylov crossover, whose small exponentials are dynamics._expm's
    code = (
        "import math, sys\n"
        "import dressed_cool.cli\n"
        "from dressed_cool import config, dynamics, model, sweep\n"
        "p = config.to_system_params(config.Config())\n"
        "dynamics.steady_state(model.build_hamiltonian_displaced(p), model.collapse_ops(p))\n"
        "grid = sweep.SweepGrid(power_db=[0.0], detuning=[0.0], fixed=p, mode='cooling_rate')\n"
        "assert sweep.run_sweep(grid).rows[0].converged\n"
        "n = math.ceil(math.sqrt(dynamics._KRYLOV_CROSSOVER) / 2)\n"
        "q = config.to_system_params(config.Config(n_bar=3.6, n_fock=n))\n"
        "traj = dynamics.evolve(*model.build_model(q), model.turn_on_state(q), [0.0, 0.05])\n"
        "assert traj.stats.propagator == 'Krylov'\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# steady_states with a probe


def steady_and_mode(p, probe=None):
    """(rho, lambda) of the point p probed by the (name, coefficient) pairs
    of probe, by default its dressed probe, from steady_states, its error
    raised."""
    (outcome,) = steady_states([build_terms(p)], [probe or analysis.dressed_probe_terms(p)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# The 3x3 default-range cooling_rate grid (seed 0), and the same grid with
# both axes shifted by a fraction of a step, as the benchmark's seed 3 draws
# it: (P_d min, P_d max, delta_q min, delta_q max) in dB and MHz.
_COOLING_GRIDS = {
    0: (-10.0, 8.0, -5.0, 15.0),
    3: (-9.171906029277832, 8.828093970722168, -4.844721697571332, 15.155278302428668),
}


def cooling_point(p_d_db, delta_q_mhz):
    grid = sweep.SweepGrid(
        power_db=[p_d_db], detuning=[2.0 * math.pi * delta_q_mhz],
        fixed=reference_params(), mode="cooling_rate",
    )
    return sweep._point_params(grid, p_d_db, 2.0 * math.pi * delta_q_mhz)[0]


@pytest.mark.parametrize("seed", sorted(_COOLING_GRIDS))
def test_mode_matches_full_eig_oracle(seed):
    p_lo, p_hi, dq_lo, dq_hi = _COOLING_GRIDS[seed]
    for p_d in np.linspace(p_lo, p_hi, 3):
        for dq in np.linspace(dq_lo, dq_hi, 3):
            p = cooling_point(p_d, dq)
            h, ops = build_model(p)
            rho, lam = steady_and_mode(p)
            expected, _ = full_eig_mode(h, ops, dressed_probe(p))
            assert lam.real == pytest.approx(expected.real, rel=1e-9), (p_d, dq)
            assert np.array_equal(rho, steady_state(h, ops))


def test_mode_pick_is_the_dressed_mode_not_the_slowest():
    # at n_bar = 0.1 and delta_q = -5 MHz the slowest nonzero mode is a
    # complex pair; the dressed-axis relaxation is a faster, real mode
    p = cooling_point(-10.0, -5.0)
    h, ops = build_model(p)
    _, lam = steady_and_mode(p)
    _, spectrum = full_eig_mode(h, ops, dressed_probe(p))
    nonzero = spectrum[np.argsort(-spectrum.real)[1:]]
    slowest = nonzero[0]
    assert slowest.real == pytest.approx(-0.1606, abs=1e-4)
    assert abs(slowest.imag) == pytest.approx(65.15, abs=0.01)
    assert lam.imag == 0.0
    assert -lam.real == pytest.approx(0.2068, abs=1e-4)


def test_mode_rate_matches_late_window_fit():
    # the full-window fit (0.838 here) is biased low by the cavity ring-up
    # at turn-on; past 0.3 t_max one exponential is left, with the mode's rate
    p = cooling_point(8.0, -5.0)
    _, lam = steady_and_mode(p)
    assert -lam.real == pytest.approx(0.9043, abs=1e-4)
    t_max = 10.0 / rates_general(p).total
    traj = analysis.cooling_trajectory(p, t_max)
    late = traj.times > 0.3 * t_max
    fit = analysis.fit_exponential(traj.times[late], traj.expectations["sx"][late])
    assert fit.rate == pytest.approx(-lam.real, rel=0.005)


def test_mode_failures_are_named(monkeypatch):
    p = cooling_point(0.0, 0.0)
    with pytest.raises(ModeNotConvergedError, match="no traceless part"):
        steady_and_mode(p, (("sx_vac", 0.0),))
    monkeypatch.setattr(dynamics, "_CHECKPOINTS", (2,))
    with pytest.raises(ModeNotConvergedError, match="Ritz residual .* after 2 Krylov steps"):
        steady_and_mode(p)
    grid = sweep.SweepGrid(power_db=[0.0], detuning=[0.0], fixed=p, mode="cooling_rate")
    row = sweep.run_sweep(grid).rows[0]
    assert not row.converged
    assert math.isnan(row.gamma_fit)


def test_mode_survives_a_lucky_breakdown():
    # at n_fock 2 the traceless space (d^2 - 1 = 15) is smaller than the
    # Krylov dimension, so the iteration runs out of new directions; the
    # Ritz pairs of the Hessenberg built so far are then exact
    p = reference_params().with_n_fock(2)
    h, ops = build_model(p)
    rho, lam = steady_and_mode(p)
    expected, _ = full_eig_mode(h, ops, dressed_probe(p))
    assert lam.real == pytest.approx(expected.real, rel=1e-9)
    assert -lam.real == pytest.approx(2.9424, abs=1e-4)
    assert np.array_equal(rho, steady_state(h, ops))


def test_probed_points_do_not_depend_on_their_stack(monkeypatch):
    # six cooling_rate points on one map (n_fock 8): four probed on the
    # dressed axis, one probed by zero, which has no traceless part, and one
    # without a probe; each outcome is the one its point gets alone,
    # bit for bit, in the stack and when a failed stacked factorisation
    # sends its points through the point-by-point fallback
    grid = sweep.SweepGrid(power_db=[-10.0, 0.0, 8.0], detuning=2.0 * math.pi * np.array([-5.0, 15.0]),
                           fixed=reference_params(n_fock=8), mode="cooling_rate", auto_n_fock=False)
    ps = [sweep._point_params(grid, p_d, dq)[0] for p_d in grid.power_db for dq in grid.detuning]
    models = [build_terms(p) for p in ps]
    assert all(map_of(m)[0] is map_of(models[0])[0] for m in models)
    probes = [analysis.dressed_probe_terms(p) for p in ps]
    probes[1], probes[4] = (("sx_vac", 0.0),), None
    alone = [steady_states([m], [probe])[0] for m, probe in zip(models, probes)]
    assert np.array_equal(alone[4], steady_state(*build_model(ps[4])))

    def check(outcomes):
        assert isinstance(outcomes[1], ModeNotConvergedError)
        assert "no traceless part" in str(outcomes[1])
        assert np.array_equal(outcomes[4], alone[4])
        for i in (0, 2, 3, 5):
            rho, lam = outcomes[i]
            assert np.array_equal(rho, alone[i][0]) and lam == alone[i][1], i
            assert np.array_equal(rho, steady_state(*build_model(ps[i])))

    check(steady_states(models, probes))
    factor, factors = dynamics._block_factor, []

    def singular_stack(gmap, fx):
        factors.append(fx.shape[1])
        if fx.shape[1] > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return factor(gmap, fx)

    monkeypatch.setattr(dynamics, "_block_factor", singular_stack)
    outcomes = steady_states(models, probes)
    assert factors == [6, 1, 1, 1, 1, 1, 1]
    check(outcomes)


def test_points_that_converge_at_different_checkpoints_share_a_stack(monkeypatch):
    # with the first Ritz check at step 12, one of these six default-range
    # points (7.5 dB, 5 MHz) misses it and goes on to the cap while the other
    # five are done: the stack's second Ritz check holds that point alone,
    # and each rate is the one its point gets alone, bit for bit.  Both
    # power rows take one cutoff (n_fock 7), so the six share one map.
    monkeypatch.setattr(dynamics, "_CHECKPOINTS", (12, 30))
    grid = sweep.SweepGrid(power_db=[7.5, 8.0], detuning=2.0 * math.pi * np.array([-5.0, 5.0, 15.0]),
                           fixed=reference_params(), mode="cooling_rate")
    ps = [sweep._point_params(grid, p_d, dq)[0] for p_d in grid.power_db for dq in grid.detuning]
    models = [build_terms(p) for p in ps]
    assert all(map_of(m)[0] is map_of(models[0])[0] for m in models)
    probes = [analysis.dressed_probe_terms(p) for p in ps]
    alone = [steady_states([m], [probe])[0] for m, probe in zip(models, probes)]
    calls = []
    residual = dynamics._residual
    monkeypatch.setattr(dynamics, "_residual",
                        lambda gmap, fx, r, lam=0.0: calls.append(np.count_nonzero(lam)) or residual(gmap, fx, r, lam))
    outcomes = steady_states(models, probes)
    assert calls == [0, 6, 1]  # the steady states, then the Ritz pairs checked at 12 and at 30
    for i, (rho, lam) in enumerate(outcomes):
        assert np.array_equal(rho, alone[i][0]) and lam == alone[i][1], i
    rows = sweep.run_sweep(grid).rows
    assert [row.gamma_fit for row in rows] == [-lam.real for _, lam in alone]
    assert all(row.converged for row in rows)


def test_lucky_breakdowns_inside_a_stack(monkeypatch):
    # at n_fock 2 every point's traceless space (d^2 - 1 = 15) runs out of
    # new directions before the first Ritz check at step 20: each point stops
    # at its own breakdown (four here after 15 steps, two after 16), with the
    # exact rate, while the others go on
    grid = sweep.SweepGrid(power_db=[-10.0, 0.0, 8.0], detuning=2.0 * math.pi * np.array([-5.0, 15.0]),
                           fixed=reference_params(n_fock=2), mode="cooling_rate", auto_n_fock=False)
    ps = [sweep._point_params(grid, p_d, dq)[0] for p_d in grid.power_db for dq in grid.detuning]
    models = [build_terms(p) for p in ps]
    assert all(map_of(m)[0] is map_of(models[0])[0] for m in models)
    probes = [analysis.dressed_probe_terms(p) for p in ps]
    alone = [steady_states([m], [probe])[0] for m, probe in zip(models, probes)]
    solves = []
    solve = dynamics._block_solve
    monkeypatch.setattr(dynamics, "_block_solve", lambda factor, b: solves.append(b.shape[0]) or solve(factor, b))
    outcomes = steady_states(models, probes)
    assert solves == [6] * len(solves) and len(solves) < 1 + 20  # the steady solve, then the steps
    for i, ((rho, lam), p) in enumerate(zip(outcomes, ps)):
        assert np.array_equal(rho, alone[i][0]) and lam == alone[i][1], i
        expected, _ = full_eig_mode(*build_model(p), dressed_probe(p))
        assert lam.real == pytest.approx(expected.real, rel=1e-9), i


def test_residual_applies_the_generator():
    # the steady path's M, the column F x of the map's pattern entries, is
    # Re(T+ L T) of the np.kron generator in the map's basis, the factor
    # of a point's solve inverts M with its first row replaced by the trace,
    # and the residual helper applies each M of a stack to its row
    rng = np.random.default_rng(7)
    p = reference_params(n_bar=1.0, n_fock=4)
    h, ops = build_model(p)
    gmap = dynamics._matrix_map(h, ops)
    fx = gmap.f @ gmap.coordinates(np.ones((1, 1)))
    m = sp.csr_matrix((fx[:, 0], gmap.indices, gmap.indptr), shape=(64, 64)).toarray()
    basis = gmap.basis
    ref = (basis.conj().T @ kron_liouvillian(h, ops) @ basis).real
    assert np.max(np.abs(m - ref)) <= 1e-13 * np.max(np.abs(ref))
    system = m.copy()
    system[0] = np.r_[np.ones(8), np.zeros(56)]
    factor = dynamics._block_factor(gmap, fx)
    assert np.max(np.abs(dynamics._block_solve(factor, system[None])[0] - np.eye(64))) <= 1e-12
    r = rng.normal(size=ref.shape[0]) + 1j * rng.normal(size=ref.shape[0])
    lam = -1.5 + 2.0j
    expected = np.linalg.norm(ref @ r - lam * r) / max(1.0, np.abs(ref).max())
    assert dynamics._residual(gmap, fx, r[None], lam)[0] == pytest.approx(expected, rel=1e-12)
    pair = dynamics._residual(gmap, np.column_stack([fx, 2.0 * fx]), np.array([r, r]), lam)
    assert pair[0] == dynamics._residual(gmap, fx, r[None], lam)[0]
    assert pair[1] == pytest.approx(np.linalg.norm(2.0 * ref @ r - lam * r) / (2.0 * np.abs(ref).max()), rel=1e-12)
    rho = steady_state(h, ops)
    x = (basis.conj().T @ rho.ravel(order="F")).real
    assert dynamics._residual(gmap, fx, x[None])[0] <= 1e-14


# Operating points whose H has different nonzero patterns or whose collapse
# list differs: the defaults, no Rabi drive, no cavity drive, no dephasing
# channel (T2 = 2 T1), a thermal qubit's extra channel, and a detuned,
# strongly driven point.
_MAP_POINTS = (
    {},
    {"omega_r_mhz": 0.0},
    {"n_bar": 0.0},
    {"t2_us": 20.0},
    {"thermal_qubit": True},
    {"n_bar": 2.5, "delta_c_mhz": 3.0, "delta_q_prime_mhz": -4.0},
)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("overrides", _MAP_POINTS)
def test_generator_map_matches_the_direct_generator(frame, overrides):
    p = reference_params(frame=frame, n_fock=6, **overrides)
    h, ops = build_model(p, frame)
    names = [name for name, _ in channels(p)]
    assert len(ops) == len(names)
    assert ("sz" in names) != ("t2_us" in overrides)
    assert ("sp" in names) == ("thermal_qubit" in overrides)
    basis, m = dynamics._generator(h, ops)
    d = h.shape[0]
    assert np.array_equal(map_order(basis)[:d], np.arange(d))  # populations first, in order
    ref = direct_generator(h, ops, basis).toarray()
    assert np.max(np.abs(m.toarray() - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("overrides", _MAP_POINTS)
def test_matvec_is_the_sparse_product_bit_for_bit(frame, overrides, monkeypatch):
    # _matvec calls scipy's private CSR kernel directly: a scipy release
    # that moves or changes it fails here.  The output buffer is dirty, as
    # evolve's is after its first application
    assert dynamics._csr_matvec is not None
    p = reference_params(frame=frame, n_fock=6, **overrides)
    _, m = dynamics._generator(*build_model(p, frame))
    r = np.random.default_rng(5).normal(size=m.shape[0])
    expected = m @ r
    out = np.full(m.shape[0], np.nan)
    assert dynamics._matvec(m.indptr, m.indices, m.data, r, out) is out
    assert np.array_equal(out, expected)
    # without the kernel, the public product itself
    monkeypatch.setattr(dynamics, "_csr_matvec", None)
    assert np.array_equal(dynamics._matvec(m.indptr, m.indices, m.data, r, np.full_like(out, np.nan)), expected)


def test_generator_map_is_keyed_by_the_collapse_operators():
    # one H pattern at two cavity linewidths: the second point must not reuse
    # the first point's dissipator
    for kappa_mhz in (4.3, 1.1):
        p = reference_params(kappa_mhz=kappa_mhz, n_fock=5)
        h, ops = build_model(p)
        basis, m = dynamics._generator(h, ops)
        ref = direct_generator(h, ops, basis).toarray()
        m = m.toarray()
        assert np.max(np.abs(m - ref)) <= 1e-12 * np.max(np.abs(ref)), kappa_mhz


def test_generator_map_is_built_once_per_pattern(monkeypatch):
    # a sweep's points share the map of their nonzero terms: only the first
    # point of each assembles a Liouvillian, for D.  At delta_q' = 0 the sz
    # term is zero and left out, so those three points share a second map
    calls = []
    dynamics._terms_map.cache_clear()
    build = dynamics.liouvillian_matrix
    monkeypatch.setattr(dynamics, "liouvillian_matrix", lambda h, c: calls.append(1) or build(h, c))
    for n_bar in (0.5, 1.0, 2.0):
        for dq in (-3.0, 0.0, 4.0):
            (rho,) = steady_states([build_terms(reference_params(n_bar=n_bar, delta_q_prime_mhz=dq, n_fock=5))])
            assert isinstance(rho, np.ndarray)
    assert len(calls) == 2 and dynamics._terms_map.cache_info().currsize == 2


def test_cached_operators_are_read_only():
    p = reference_params(n_fock=3)
    gmap = dynamics._matrix_map(*build_model(p))
    arrays = [gmap.f.data, gmap.f.indices, gmap.f.indptr, gmap.indices, gmap.indptr, gmap.basis.data,
              gmap.basis.indices, gmap.basis.indptr, gmap.offsets, gmap.x,
              *(a for pair in gmap.blocks.values() for a in pair),
              *(getattr(space(3), name) for name in ("a", "n", "x", "sx", "sy", "sz", "sp", "sm", "sz_a", "sz_n"))]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_generator_data_is_contiguous_and_matches_the_direct_product():
    # a strided .real view, as the direct product leaves, would be copied by
    # every M @ r; the map's M is assembled as one contiguous float array
    p = reference_params(n_bar=1.0, n_fock=4)
    h, ops = build_model(p)
    basis, m = dynamics._generator(h, ops)
    view = direct_generator(h, ops, basis)
    assert not view.data.flags.c_contiguous
    assert m.data.flags.c_contiguous and m.data.dtype == np.float64
    r = np.random.default_rng(3).normal(size=m.shape[0])
    ref = view @ r
    assert np.max(np.abs(m @ r - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("frame", FRAMES)
def test_a_trajectory_map_holds_no_steady_index(frame, monkeypatch):
    # evolve takes M from h's own map, with the zeros of the map's union
    # pattern dropped: exactly the direct product's nonzeros ride along in
    # every M r; the steady system's index is built on a steady solve only
    maps, built = [], []
    matrix_map, build = dynamics._matrix_map, dynamics._generator
    monkeypatch.setattr(dynamics, "_matrix_map", lambda h, c: maps.append(matrix_map(h, c)) or maps[-1])
    monkeypatch.setattr(dynamics, "_generator", lambda h, c: built.append(build(h, c)) or built[-1])
    p = reference_params(n_bar=1.0, n_fock=4)
    h, ops = build_model(p, frame)
    evolve(h, ops, turn_on_state(p, frame), np.linspace(0.0, 0.1, 3))
    assert len(maps) == 1 and len(built) == 1 and "blocks" not in vars(maps[0])
    steady_state(h, ops)
    assert len(maps) == 2 and "blocks" in vars(maps[1])
    m = built[0][1]
    assert np.count_nonzero(m.data) == m.nnz == direct_generator(h, ops).nnz


def test_mode_factors_the_steady_system_once(monkeypatch):
    # a stack is factored once, by levels, with or without probes, and the
    # shift-invert steps of every probed point reuse that factor: no d^2 x
    # d^2 matrix is inverted or solved densely
    p = cooling_point(0.0, 0.0)
    h, ops = build_model(p)
    q = cooling_point(0.0, 5.0)
    assert map_of(build_terms(p))[0] is map_of(build_terms(q))[0]
    n = h.shape[0] ** 2
    dense, factors = [], []

    def counted(name):
        func = getattr(np.linalg, name)

        def wrapper(a, *args):
            if np.shape(a) == (n, n):
                dense.append(name)
            return func(a, *args)
        return wrapper

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    factor = dynamics._block_factor
    monkeypatch.setattr(dynamics, "_block_factor", lambda *a: factors.append(1) or factor(*a))
    steady_and_mode(p)
    assert dense == [] and len(factors) == 1
    outcomes = steady_states([build_terms(p), build_terms(q)],
                             [analysis.dressed_probe_terms(p), analysis.dressed_probe_terms(q)])
    assert all(isinstance(o, tuple) for o in outcomes)
    assert dense == [] and len(factors) == 2
    steady_state(h, ops)
    assert dense == [] and len(factors) == 3


# ---------------------------------------------------------------------------
# models as coefficients on the operator table


def term_points():
    """Corners of the default sweep ranges, then an undriven point (eps_d =
    0) and a point at delta_q' = 0."""
    grid = sweep.SweepGrid(power_db=[-10.0, 8.0], detuning=2.0 * math.pi * np.array([-5.0, 15.0]),
                           fixed=reference_params())
    ps = [sweep._point_params(grid, p_d, dq)[0] for p_d in grid.power_db for dq in grid.detuning]
    return ps + [dataclasses.replace(ps[0], eps_d=0.0), dataclasses.replace(ps[1], delta_q_prime=0.0)]


def map_of(terms):
    """The cached map of a ModelTerms, its zero terms left out, and its
    nonzero coefficients as one column."""
    live = [(name, c) for name, c in terms.hamiltonian if c != 0.0]
    gmap = dynamics._terms_map(terms.n_fock, tuple(name for name, _ in live), terms.channels)
    return gmap, np.array([c for _, c in live]).reshape(-1, 1)


def map_arrays(gmap):
    """The arrays that make a map's F, pattern, basis and levels."""
    return (gmap.f.data, gmap.f.indices, gmap.f.indptr, gmap.indices, gmap.indptr,
            gmap.basis.data, gmap.basis.indices, gmap.basis.indptr, gmap.offsets)


@pytest.mark.parametrize("frame", FRAMES)
def test_term_coordinates_are_the_builders_x_of_h(frame):
    # a point's X from its coefficients is x(h) of the builder's H bit for
    # bit, on the same map, undriven and at delta_q' = 0 included
    for p in term_points():
        terms = build_terms(p, frame)
        h, ops = build_model(p, frame)
        assert np.array_equal(h, space(p.n_fock).combine(terms.hamiltonian))
        assert [c.operator.tobytes() for c in ops] == [
            (math.sqrt(rate) * getattr(space(p.n_fock), name)).tobytes() for name, rate in terms.channels]
        matrix = dynamics._matrix_map(h, ops)
        gmap, c = map_of(terms)
        assert all(np.array_equal(a, b) for a, b in zip(map_arrays(gmap), map_arrays(matrix), strict=True))
        assert np.array_equal(gmap.coordinates(c)[:, 0], np.append(matrix.x[:, 0], 1.0))
    undriven = build_terms(term_points()[-2], frame)
    assert {name for name, c in undriven.hamiltonian if c == 0.0} == (
        {"sz_x", "sz_p"} if frame == "displaced" else {"x"})


def test_undriven_point_gets_its_own_map_in_a_stack(monkeypatch):
    # the undriven point's zero coupling terms are left out of its names, so
    # a stack of driven points and it solves on one map more than the driven
    # points' cutoffs (the -10 dB corners' 5 and the 8 dB corners' 7), and
    # each outcome is the one its point gets alone, and as (H, collapse
    # operators) on its one-term map, bit for bit, with and without probes
    dynamics._terms_map.cache_clear()
    build_map, built = dynamics._generator_map, []
    monkeypatch.setattr(dynamics, "_generator_map", lambda *a: built.append(1) or build_map(*a))
    ps = term_points()[:5]
    assert [p.n_fock for p in ps] == [5, 5, 7, 7, 5]
    models = [build_terms(p) for p in ps]
    probes = [analysis.dressed_probe_terms(p) for p in ps]
    outcomes = steady_states(models)
    assert len(built) == 3 and dynamics._terms_map.cache_info().currsize == 3
    driven, undriven = (map_of(m)[0] for m in (models[0], models[4]))  # both at n_fock 5
    assert undriven.offsets[-1] == driven.offsets[-1]
    assert undriven.x.shape[0] < driven.x.shape[0]  # d + 2 entries per pair above the diagonal
    probed = steady_states(models, probes)
    for i, p in enumerate(ps):
        assert np.array_equal(outcomes[i], steady_states([models[i]])[0]), i
        assert np.array_equal(outcomes[i], steady_state(*build_model(p))), i
        rho, lam = matrix_outcome(*build_model(p), dressed_probe(p))
        assert np.array_equal(probed[i][0], rho) and probed[i][1] == lam, i
    assert dynamics._terms_map.cache_info().misses == 3


def test_probe_terms_give_the_projected_probe():
    # sin(theta) x(sx (x) |0><0|) + cos(theta) x(sz (x) |0><0|) is the
    # projected dressed probe bit for bit, with no kron per point
    for p in term_points():
        gmap, _ = map_of(build_terms(p))
        probe = dressed_probe(p)
        theta = analysis.rates.dressed_angle(p)[0]
        sigma = math.sin(theta) * pauli("x") + math.cos(theta) * pauli("z")
        assert np.array_equal(probe, kron(sigma, fock_state(p.n_fock, 0)))
        expected = (gmap.basis.conj().T @ probe.ravel(order="F")).real
        assert np.array_equal(gmap.probe(analysis.dressed_probe_terms(p)), expected)
        assert set(gmap.probes) == {"sx_vac", "sz_vac"}


def test_a_sweep_finds_its_term_table_once(monkeypatch):
    # the map and the terms' coordinates are built once per (n_fock, names
    # of the nonzero terms, channels), not once per point, and no point
    # forms its H: the grid's three power rows take two cutoffs (5 and 7),
    # and so two maps for nine points
    dynamics._terms_map.cache_clear()
    build_map, built = dynamics._generator_map, []
    monkeypatch.setattr(dynamics, "_generator_map", lambda *a: built.append(1) or build_map(*a))
    monkeypatch.setattr(dynamics, "_matrix_map", None)
    for name in ("build_hamiltonian_displaced", "build_hamiltonian_undisplaced", "build_model"):
        monkeypatch.setattr(sweep.model, name, None)
    grid = sweep.SweepGrid(power_db=[-10.0, 0.0, 8.0], detuning=2.0 * math.pi * np.array([-5.0, 5.0, 15.0]),
                           fixed=reference_params(), mode="cooling_rate")
    rows = sweep.run_sweep(grid).rows
    assert all(row.converged for row in rows)
    assert {row.n_fock for row in rows} == {5, 7}
    assert len(built) == 2 and dynamics._terms_map.cache_info().currsize == 2


def level_of(offsets, n):
    """Level of each of n coordinates from the level offsets."""
    return np.searchsorted(offsets, np.arange(n), side="right") - 1


def assert_block_tridiagonal(h, ops):
    # every entry of the map's union pattern, and so of M and S at any point
    # of the map, links coordinates of the same or adjacent levels, and the
    # populations alone make level 0
    gmap = dynamics._matrix_map(h, ops)
    offsets, d = gmap.offsets, h.shape[0]
    n = d * d
    level = level_of(offsets, n)
    rows = np.repeat(np.arange(n), np.diff(gmap.indptr))
    assert offsets[0] == 0 and offsets[1] == d and offsets[-1] == n
    assert np.all(np.diff(offsets) > 0)
    assert np.abs(level[rows] - level[gmap.indices]).max() <= 1
    return offsets


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("overrides", _MAP_POINTS)
def test_levels_make_the_steady_system_block_tridiagonal(frame, overrides):
    p = reference_params(frame=frame, n_fock=6, **overrides)
    assert_block_tridiagonal(*build_model(p, frame))


def test_levels_of_random_patterns_are_block_tridiagonal():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 6):
        # a dense pattern reaches every coordinate at once: two levels
        offsets = assert_block_tridiagonal(random_hamiltonian(rng, d), [random_collapse(rng, d, "dense")])
        assert len(offsets) == 3
        for _ in range(5):
            h = random_hamiltonian(rng, d) * (rng.random((d, d)) < 0.3)
            h = (h + h.conj().T) / 2
            assert_block_tridiagonal(h, [random_collapse(rng, d, "single")])


# Operating points at which a zero or a resonance removes a term: no qubit
# relaxation or dephasing, that again with the Rabi drive on resonance and
# with the cavity drive too, no Rabi drive, no cavity drive, no dispersive
# shift.
_EDGE_POINTS = (
    {"gamma_down": 0.0, "gamma_up": 0.0, "gamma_phi": 0.0},
    {"gamma_down": 0.0, "gamma_up": 0.0, "gamma_phi": 0.0, "delta_q_prime": 0.0},
    {"gamma_down": 0.0, "gamma_up": 0.0, "gamma_phi": 0.0, "delta_q_prime": 0.0, "delta_c": 0.0},
    {"omega_r_rabi": 0.0},
    {"eps_d": 0.0},
    {"chi": 0.0},
)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("fields", _EDGE_POINTS)
def test_block_solve_matches_a_dense_solve(frame, fields):
    p = dataclasses.replace(reference_params(n_fock=6), **fields)
    h, ops = build_model(p, frame)
    d = h.shape[0]
    _, m = dynamics._generator(h, ops)
    system = m.toarray()  # S: M with its first row replaced by the trace
    system[0] = 0.0
    system[0, :d] = 1.0
    rng = np.random.default_rng(5)
    b = np.column_stack([np.eye(d * d)[0], rng.normal(size=(d * d, 2))])
    ref = np.linalg.solve(system, b)
    gmap = dynamics._matrix_map(h, ops)
    fx = gmap.f @ gmap.coordinates(np.ones((1, 1)))
    got = dynamics._block_solve(dynamics._block_factor(gmap, fx), b[None])
    assert np.max(np.abs(got[0] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("frame", FRAMES)
def test_unreached_components_get_levels_of_their_own(frame):
    # a zero that decouples coordinates from the populations leaves them to
    # searches of their own, so no level outgrows the reference point's
    reference = dynamics._matrix_map(*build_model(reference_params(n_fock=6), frame)).offsets
    for fields in _EDGE_POINTS:
        p = dataclasses.replace(reference_params(n_fock=6), **fields)
        offsets = assert_block_tridiagonal(*build_model(p, frame))
        assert np.diff(offsets).max() <= np.diff(reference).max(), fields


def test_both_residual_checks_go_through_one_helper(monkeypatch):
    p = cooling_point(0.0, 0.0)
    h, ops = build_model(p)
    calls = []
    residual = dynamics._residual
    monkeypatch.setattr(dynamics, "_residual",
                        lambda gmap, fx, r, lam=0.0: calls.append(lam) or residual(gmap, fx, r, lam))
    _, lam = steady_and_mode(p)
    assert calls == [0.0, lam]
    monkeypatch.setattr(dynamics, "_RESIDUAL_TOL", -1.0)
    with pytest.raises(MultipleSteadyStatesError, match="steady-state residual"):
        steady_state(h, ops)


def test_steady_degenerate_system_is_detected():
    # pure dephasing: every diagonal qubit mixture is stationary
    ops = [CollapseOp(operator=pauli("z"))]
    with pytest.raises(MultipleSteadyStatesError):
        steady_state(np.zeros((2, 2), dtype=complex), ops)


def test_steady_degenerate_blocks_are_detected():
    # two decoupled 2x2 blocks each have a steady state; the trace row fixes
    # only their sum, and roundoff can hide the singular system from the LU
    rng = np.random.default_rng(0)

    def blocks():
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out[2:, 2:] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return out

    for _ in range(10):
        h = blocks()
        h = (h + h.conj().T) / 2
        ops = [CollapseOp(operator=blocks())]
        with pytest.raises(MultipleSteadyStatesError):
            steady_state(h, ops)
        # the mode path reads the same check off the same solve
        assert isinstance(matrix_outcome(h, ops, np.diag([1.0, -1.0, 0.0, 0.0])), MultipleSteadyStatesError)


def test_steady_matches_long_time_evolve():
    p = reference_params(n_bar=0.5)
    h = build_hamiltonian_displaced(p)
    ops = collapse_ops(p, "displaced")
    rho_ss = steady_state(h, ops)
    hs = HilbertSpace(p.n_fock)
    obs = {"sx": hs.sx, "sy": hs.sy, "sz": hs.sz}
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
    assert abs(a_avg - displacement(p)) <= 1e-6
