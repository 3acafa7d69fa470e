"""Dense operator primitives for a qubit coupled to a truncated cavity mode.

All operators are plain complex numpy arrays.  The composite Hilbert space is
ordered qubit-major: a basis state |q, m> (qubit level q, Fock level m) sits at
index q * n_fock + m, i.e. full operators are built as kron(qubit_op, cavity_op).

HilbertSpace is the table of one cutoff's composite operators, each built on
first use and read-only; space(n_fock) is the one shared table per cutoff
from which the model builders and the observables read them.  A model names
its operators there: combine sums (name, coefficient) pairs into a matrix.
"""

from __future__ import annotations

import functools
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


# Largest imaginary part of a Hermitian observable's expectation, relative
# to max(1, |real part|), accepted as roundoff: a larger one means the state
# or the observable is not Hermitian (analysis._bloch_vectors).
IMAG_TOL = 1e-9


def hermiticity_residual(m: np.ndarray) -> float:
    """max |m - m^dag| entrywise."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def reduced_qubit(rho: np.ndarray) -> np.ndarray:
    """Trace out the cavity factor of a qubit-major composite state, or of
    each of a stack of them (... x d x d).  The Fock levels are summed in
    order, one elementwise sum each, so a state's reduction does not depend
    on its stack."""
    d = rho.shape[-1]
    if d % 2:
        raise ValueError("composite dimension must be 2 * n_fock")
    n = d // 2
    blocks = rho.reshape(*rho.shape[:-2], 2, n, 2, n)
    out = blocks[..., :, 0, :, 0].copy()
    for m in range(1, n):
        out += blocks[..., :, m, :, m]
    return out


def top_fock_population(rho: np.ndarray):
    """Population of the cavity's top Fock level, |g, top> plus |e, top>, in
    a qubit-major composite state, or in each of a stack of them (... x d x
    d): how close its truncation came to its edge."""
    d = rho.shape[-1]
    if d % 2:
        raise ValueError("composite dimension must be 2 * n_fock")
    return rho[..., d // 2 - 1, d // 2 - 1].real + rho[..., d - 1, d - 1].real


def _read_only(op: np.ndarray) -> np.ndarray:
    op.flags.writeable = False
    return op


@dataclass(frozen=True)
class HilbertSpace:
    """The qubit (x) cavity product space of one cutoff (qubit index major)
    and the table of its composite operators, each built on first use and
    then cached read-only."""

    n_fock: int

    def __post_init__(self):
        if self.n_fock < 2:
            raise ValueError("n_fock must be at least 2")

    def qubit(self, op2: np.ndarray) -> np.ndarray:
        return kron(op2, identity(self.n_fock))

    def cavity(self, opn: np.ndarray) -> np.ndarray:
        return kron(identity(2), opn)

    @functools.cached_property
    def a(self) -> np.ndarray:
        return _read_only(self.cavity(annihilation(self.n_fock)))

    @functools.cached_property
    def n(self) -> np.ndarray:
        """The photon number a+a."""
        return _read_only(self.a.conj().T @ self.a)

    @functools.cached_property
    def x(self) -> np.ndarray:
        """a + a+."""
        return _read_only(self.a + self.a.conj().T)

    @functools.cached_property
    def sx(self) -> np.ndarray:
        return _read_only(self.qubit(pauli("x")))

    @functools.cached_property
    def sy(self) -> np.ndarray:
        return _read_only(self.qubit(pauli("y")))

    @functools.cached_property
    def sz(self) -> np.ndarray:
        return _read_only(self.qubit(pauli("z")))

    @functools.cached_property
    def sp(self) -> np.ndarray:
        return _read_only(self.qubit(pauli("+")))

    @functools.cached_property
    def sm(self) -> np.ndarray:
        return _read_only(self.qubit(pauli("-")))

    @functools.cached_property
    def sz_a(self) -> np.ndarray:
        """sz (x) a."""
        return _read_only(kron(pauli("z"), annihilation(self.n_fock)))

    @functools.cached_property
    def sz_n(self) -> np.ndarray:
        """sz (x) a+a."""
        return _read_only(self.sz @ self.n)

    @functools.cached_property
    def sz_x(self) -> np.ndarray:
        """sz (x) (a + a+)."""
        return _read_only(self.sz_a + self.sz_a.conj().T)

    @functools.cached_property
    def sz_p(self) -> np.ndarray:
        """sz (x) i (a+ - a)."""
        return _read_only(1j * (self.sz_a.conj().T - self.sz_a))

    @functools.cached_property
    def sx_vac(self) -> np.ndarray:
        """sx (x) |0><0|."""
        return _read_only(kron(pauli("x"), fock_state(self.n_fock, 0)))

    @functools.cached_property
    def sz_vac(self) -> np.ndarray:
        """sz (x) |0><0|."""
        return _read_only(kron(pauli("z"), fock_state(self.n_fock, 0)))

    def combine(self, terms) -> np.ndarray:
        """sum c O over the (name, coefficient) pairs of terms, O the named
        operator of this table, added in the order of terms."""
        d = 2 * self.n_fock
        out = np.zeros((d, d), dtype=complex)
        for name, c in terms:
            out += c * getattr(self, name)
        return out


@functools.lru_cache(maxsize=16)
def space(n_fock: int) -> HilbertSpace:
    """The one shared HilbertSpace of a cutoff: every sweep point of a cutoff
    reads the same cached operators, and the builders only scale and add them."""
    return HilbertSpace(n_fock)
