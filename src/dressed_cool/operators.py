"""Dense operator primitives for a qubit coupled to a truncated cavity mode.

All operators are plain complex numpy arrays.  The composite Hilbert space is
ordered qubit-major: a basis state |q, m> (qubit level q, Fock level m) sits at
index q * n_fock + m, i.e. full operators are built as kron(qubit_op, cavity_op).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

# Sign convention: the ground state |g> = (1, 0) is the +1 eigenvector of
# sigma_z, so qubit Hamiltonians enter as -(omega/2) sigma_z.  sigma_plus
# excites (|g> -> |e>), and sigma_y's sign follows from
# sigma_pm = (sigma_x -+/+ i sigma_y)/2 with that choice.
_SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "+": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """Return a 2x2 qubit operator: one of 'x', 'y', 'z', '+', '-'."""
    try:
        return _SIGMA[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {which!r}, expected x/y/z/+/-") from None


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def annihilation(n_fock: int) -> np.ndarray:
    """Truncated cavity lowering operator, a[m, m+1] = sqrt(m+1)."""
    if n_fock < 2:
        raise ValueError("n_fock must be at least 2")
    return np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two square operators (first factor is the major index)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("kron expects two square matrices")
    return np.kron(a, b)


def fock_state(n_fock: int, m: int) -> np.ndarray:
    """Density matrix |m><m| in a truncated Fock space."""
    if not 0 <= m < n_fock:
        raise ValueError(f"Fock index {m} outside truncation {n_fock}")
    rho = np.zeros((n_fock, n_fock), dtype=complex)
    rho[m, m] = 1.0
    return rho


def coherent_vector(n_fock: int, alpha: complex) -> np.ndarray:
    """Truncated coherent-state amplitudes, renormalized after truncation."""
    amp = np.zeros(n_fock, dtype=complex)
    amp[0] = 1.0
    for m in range(1, n_fock):
        amp[m] = amp[m - 1] * alpha / sqrt(m)
    return amp / np.linalg.norm(amp)


def coherent_state(n_fock: int, alpha: complex) -> np.ndarray:
    v = coherent_vector(n_fock, alpha)
    return np.outer(v, v.conj())


def qubit_state(ket2: np.ndarray) -> np.ndarray:
    """Density matrix of a pure qubit state given as a length-2 amplitude vector."""
    v = np.asarray(ket2, dtype=complex).ravel()
    if v.shape != (2,):
        raise ValueError("expected a length-2 qubit amplitude vector")
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(op rho).  Complex in general; Hermitian observables report the real part."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.shape != rho.shape:
        raise ValueError(f"operator shape {op.shape} does not match state shape {rho.shape}")
    # trace of a product without forming it
    return complex(np.sum(op.T * rho))


# largest imaginary part of a Hermitian observable's expectation, relative to
# max(1, |real part|), that expect_real accepts as roundoff
_IMAG_TOL = 1e-9


def expect_real(op: np.ndarray, rho: np.ndarray) -> float:
    """Expectation of a Hermitian observable; rejects stray imaginary parts."""
    val = expectation(op, rho)
    if abs(val.imag) > _IMAG_TOL * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}; operator not Hermitian?")
    return val.real


def hermiticity_residual(m: np.ndarray) -> float:
    """max |m - m^dag| entrywise."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def smallest_eigenvalue(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])


def reduced_qubit(rho: np.ndarray) -> np.ndarray:
    """Trace out the cavity factor of a qubit-major composite state."""
    d = rho.shape[0]
    if d % 2:
        raise ValueError("composite dimension must be 2 * n_fock")
    n = d // 2
    return np.einsum("imjm->ij", rho.reshape(2, n, 2, n))


@dataclass(frozen=True)
class HilbertSpace:
    """Layout helper for the qubit (x) cavity product space (qubit index major)."""

    n_fock: int

    def __post_init__(self):
        if self.n_fock < 2:
            raise ValueError("n_fock must be at least 2")

    def qubit(self, op2: np.ndarray) -> np.ndarray:
        return kron(op2, identity(self.n_fock))

    def cavity(self, opn: np.ndarray) -> np.ndarray:
        return kron(identity(2), opn)

    # frequently used full-space operators
    @property
    def a(self) -> np.ndarray:
        return self.cavity(annihilation(self.n_fock))

    @property
    def sx(self) -> np.ndarray:
        return self.qubit(pauli("x"))

    @property
    def sy(self) -> np.ndarray:
        return self.qubit(pauli("y"))

    @property
    def sz(self) -> np.ndarray:
        return self.qubit(pauli("z"))

    @property
    def sp(self) -> np.ndarray:
        return self.qubit(pauli("+"))

    @property
    def sm(self) -> np.ndarray:
        return self.qubit(pauli("-"))
