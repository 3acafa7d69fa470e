import numpy as np
import pytest

from dressed_cool.operators import (
    HilbertSpace,
    annihilation,
    coherent_state,
    coherent_vector,
    expect_real,
    expectation,
    fock_state,
    hermiticity_residual,
    identity,
    kron,
    pauli,
    qubit_state,
    reduced_qubit,
    smallest_eigenvalue,
)

GROUND = np.array([1.0, 0.0])
EXCITED = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def validate_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-9,
    positive_tol: float | None = 1e-8,
) -> None:
    """Oracle: raise ValueError unless rho is Hermitian, unit trace, and
    (optionally) positive.

    The positivity check costs an eigendecomposition, so it can be skipped by
    passing positive_tol=None.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    h = hermiticity_residual(rho)
    if h > herm_tol:
        raise ValueError(f"not Hermitian: residual {h:.3e} > {herm_tol:.1e}")
    t = complex(np.trace(rho))
    if abs(t - 1.0) > trace_tol:
        raise ValueError(f"trace {t} deviates from 1 by more than {trace_tol:.1e}")
    if positive_tol is not None:
        lo = smallest_eigenvalue(rho)
        if lo < -positive_tol:
            raise ValueError(f"not positive: smallest eigenvalue {lo:.3e}")


def test_kron_identities():
    assert np.array_equal(kron(identity(2), identity(3)), identity(6))
    assert np.array_equal(np.diag(kron(pauli("z"), identity(2))), [1, 1, -1, -1])


def test_kron_sigma_x_squares_to_identity():
    m = kron(pauli("x"), pauli("x"))
    assert np.allclose(m @ m, identity(4))


def test_kron_associativity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dims = rng.integers(2, 4, size=3)
        a, b, c = (
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims
        )
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12


def test_kron_rejects_non_square():
    with pytest.raises(ValueError):
        kron(np.zeros((2, 3)), identity(2))


def test_annihilation_small():
    assert np.array_equal(annihilation(2), [[0, 1], [0, 0]])
    num = annihilation(4).conj().T @ annihilation(4)
    assert np.allclose(np.diag(num), [0, 1, 2, 3])


def test_annihilation_truncation_corner():
    a = annihilation(6)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = identity(6)
    expected[-1, -1] = -5.0
    assert np.allclose(comm, expected)


def test_annihilation_rejects_tiny_space():
    with pytest.raises(ValueError):
        annihilation(1)


def test_pauli_algebra():
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    assert np.array_equal(sx @ sx, identity(2))
    assert abs(np.trace(sz @ sx)) == 0
    # ground state is the +1 eigenvector of sigma_z
    assert np.allclose(sz @ GROUND, GROUND)
    # sigma_+ = (sigma_x + i sigma_y)/2 promotes |g> to |e>
    sp = (sx + 1j * sy) / 2
    assert np.allclose(sp, pauli("+"))
    assert np.allclose(sp @ GROUND, EXCITED)
    assert np.allclose(pauli("-") @ EXCITED, GROUND)


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("q")


def test_expectation_basics():
    rho = kron(qubit_state(GROUND), qubit_state(GROUND))  # |g> (x) 2-level vacuum
    assert expectation(identity(4), rho) == pytest.approx(1.0)
    assert expect_real(kron(pauli("z"), identity(2)), rho) == pytest.approx(1.0)
    rho_plus = kron(qubit_state(PLUS), qubit_state(GROUND))
    assert expect_real(kron(pauli("x"), identity(2)), rho_plus) == pytest.approx(1.0)


def test_expectation_linearity_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = (a + a.conj().T) / 2
        b = (b + b.conj().T) / 2
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        al, be = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        combined = expectation(al * a + be * b, rho)
        split = al * expectation(a, rho) + be * expectation(b, rho)
        assert abs(combined - split) <= 1e-12


def test_expectation_dim_mismatch():
    with pytest.raises(ValueError):
        expectation(identity(3), identity(2) / 2)


def test_expect_real_rejects_genuinely_complex():
    rho = qubit_state(np.array([1.0, 1.0j]) / np.sqrt(2))
    with pytest.raises(ValueError):
        expect_real(pauli("+"), rho)


def test_fock_and_qubit_states():
    rho_f = fock_state(5, 3)
    assert rho_f[3, 3] == 1.0 and np.count_nonzero(rho_f) == 1
    with pytest.raises(ValueError):
        fock_state(4, 4)
    rho = qubit_state(PLUS)
    assert rho.shape == (2, 2)
    assert np.trace(rho) == pytest.approx(1.0)


def test_coherent_state_statistics():
    alpha = 0.7 - 0.4j
    n = 30
    vec = coherent_vector(n, alpha)
    assert np.linalg.norm(vec) == pytest.approx(1.0)
    rho = coherent_state(n, alpha)
    a = annihilation(n)
    assert expectation(a, rho) == pytest.approx(alpha, abs=1e-9)
    num = expect_real(a.conj().T @ a, rho)
    assert num == pytest.approx(abs(alpha) ** 2, abs=1e-9)
    # Poisson photon statistics
    pops = np.real(np.diag(rho))
    nbar = abs(alpha) ** 2
    expected0 = np.exp(-nbar)
    assert pops[0] == pytest.approx(expected0, rel=1e-9)
    assert pops[1] == pytest.approx(expected0 * nbar, rel=1e-9)


def test_coherent_state_zero_amplitude_is_vacuum():
    assert np.allclose(coherent_state(6, 0.0), fock_state(6, 0))


def test_validate_density_matrix_clauses():
    good = qubit_state(PLUS)
    validate_density_matrix(good)

    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(good + np.array([[0, 1e-6], [0, 0]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(good * 1.01)
    negative = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="positive"):
        validate_density_matrix(negative)
    # positivity check can be skipped on demand
    validate_density_matrix(negative, positive_tol=None)


def test_hermiticity_and_eigenvalue_helpers():
    assert hermiticity_residual(pauli("x")) == 0.0
    assert hermiticity_residual(pauli("+")) == 1.0
    assert smallest_eigenvalue(np.diag([0.25, 0.75]).astype(complex)) == pytest.approx(0.25)


def test_reduced_qubit_of_product_state():
    cav = coherent_state(8, 0.3)
    rho = kron(qubit_state(PLUS), cav)
    rq = reduced_qubit(rho)
    assert np.allclose(rq, qubit_state(PLUS), atol=1e-12)
    with pytest.raises(ValueError):
        reduced_qubit(identity(5) / 5)


class TestHilbertSpace:
    hs = HilbertSpace(6)

    def test_layout(self):
        assert self.hs.sz.shape == (2 * self.hs.n_fock,) * 2 == (12, 12)
        # qubit-major: sigma_z blocks are contiguous
        assert np.array_equal(np.diag(self.hs.sz), [1] * 6 + [-1] * 6)

    def test_operator_commutation(self):
        # qubit and cavity operators act on different factors
        comm = self.hs.sx @ self.hs.a - self.hs.a @ self.hs.sx
        assert np.max(np.abs(comm)) == 0.0

    def test_state_builder(self):
        rho = kron(qubit_state(GROUND), coherent_state(6, 0.2))
        validate_density_matrix(rho)
        assert expect_real(self.hs.sz, rho) == pytest.approx(1.0)

    def test_rejects_small_cavity(self):
        with pytest.raises(ValueError):
            HilbertSpace(1)
