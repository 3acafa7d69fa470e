"""Lindblad master-equation integration and steady states.

The master equation is

    drho/dt = -i [H, rho] + sum_k D[L_k] rho,
    D[L] rho = L rho L+ - (L+ L rho + rho L+ L) / 2,

with the collapse operators L_k carrying their sqrt(rate) prefactor.  Time
evolution, the steady state and the probed generator mode all use one real
generator: the sparse Liouvillian in an orthonormal Hermitian basis, where
Hermitian states have real coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .integrate import integrate_adaptive
from .model import CollapseOp
from .operators import expectation, hermiticity_residual, smallest_eigenvalue

__all__ = [
    "Trajectory",
    "ConservationReport",
    "MultipleSteadyStatesError",
    "ModeNotConvergedError",
    "liouvillian_matrix",
    "evolve",
    "steady_state",
    "steady_state_and_mode",
]


class MultipleSteadyStatesError(RuntimeError):
    """The Liouvillian null space is degenerate beyond the trace constraint."""


class ModeNotConvergedError(RuntimeError):
    """The Krylov estimate of a probed generator mode broke down or missed
    its residual tolerance."""


def liouvillian_matrix(h: np.ndarray, collapse: list[CollapseOp]) -> sp.csr_matrix:
    """Sparse d^2 x d^2 generator acting on column-stacked density matrices.

    Column stacking gives vec(A rho B) = (B^T kron A) vec(rho), so for a
    Hermitian H

        L = I kron Heff + conj(Heff) kron I + sum_k conj(L_k) kron L_k,
        Heff = -i H - (1/2) sum_k L_k+ L_k.

    Each Kronecker product is written down as (row, col, value) triplets from
    the nonzeros of its factors, using (A kron B)[p d + q, r d + s] =
    A[p, r] B[q, s]; one conversion to CSR sums the duplicates.
    """
    d = h.shape[0]
    ops = [c.operator for c in collapse]
    heff = -1j * h
    for l in ops:
        heff -= 0.5 * (l.conj().T @ l)
    i, j = np.nonzero(heff)
    v = heff[i, j]
    k = np.arange(d)[:, None]
    rows = [(k * d + i).ravel(), (i * d + k).ravel()]
    cols = [(k * d + j).ravel(), (j * d + k).ravel()]
    vals = [np.tile(v, d), np.tile(v.conj(), d)]
    for l in ops:
        i, j = np.nonzero(l)
        v = l[i, j]
        rows.append((i[:, None] * d + i).ravel())
        cols.append((j[:, None] * d + j).ravel())
        vals.append(np.outer(v.conj(), v).ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * d, d * d),
    )


@dataclass(frozen=True)
class ConservationReport:
    """Worst-case conservation diagnostics along a trajectory."""

    max_trace_deviation: float
    max_hermiticity_residual: float
    min_eigenvalue: float


@dataclass
class Trajectory:
    """Time grid, conservation audit and recorded observables (and
    optionally full states)."""

    times: np.ndarray
    conservation: ConservationReport
    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    states: list[np.ndarray] | None = None


def evolve(
    h: np.ndarray,
    collapse: list[CollapseOp],
    rho0: np.ndarray,
    t_grid,
    observables: dict[str, np.ndarray] | None = None,
    store_states: bool | None = None,
) -> Trajectory:
    """Integrate the master equation over t_grid.

    The state propagates as its real Hermitian-basis coordinates under
    dr/dt = M r (see _generator), so rho0 must be Hermitian.  Each output
    state rho = T r is reduced once: observables are recorded at each grid
    time, and full states are kept when store_states is true (the default
    when no observables are requested).  Every trajectory carries the worst
    trace, Hermiticity and positivity deviations of its states as a
    ConservationReport.
    """
    d = h.shape[0]
    if rho0.shape != (d, d):
        raise ValueError(f"state shape {rho0.shape} does not match H {h.shape}")
    if hermiticity_residual(rho0) > 1e-12:  # it would have no real coordinates
        raise ValueError("initial state is not Hermitian")
    if store_states is None:
        store_states = observables is None
    observables = observables or {}

    basis, m = _generator(h, collapse)
    r0 = (basis.conj().T @ np.asarray(rho0, dtype=complex).ravel(order="F")).real
    audit, values, states = [], [], []
    for r in integrate_adaptive(lambda _t, r: m @ r, r0, t_grid):
        rho = (basis @ r).reshape((d, d), order="F")
        audit.append((abs(complex(np.trace(rho)) - 1.0), hermiticity_residual(rho), smallest_eigenvalue(rho)))
        values.append([expectation(op, rho) for op in observables.values()])
        if store_states:
            states.append(rho)
    audit = np.array(audit)
    traj = Trajectory(
        times=np.asarray(t_grid, dtype=float),
        conservation=ConservationReport(audit[:, 0].max(), audit[:, 1].max(), audit[:, 2].min()),
        states=states if store_states else None,
    )
    for name, series in zip(observables, np.array(values, dtype=complex).T):
        # Hermitian observables come out real up to roundoff; keep the
        # complex array only when the imaginary part is meaningful.
        scale = max(1.0, float(np.max(np.abs(series))))
        if np.max(np.abs(series.imag)) <= 1e-9 * scale:
            series = series.real
        traj.expectations[name] = series
    return traj


def _hermitian_basis(d: int) -> sp.csc_matrix:
    """Unitary d^2 x d^2 matrix whose columns are vec(G_k) for the orthonormal
    Hermitian basis: the d diagonal units E_aa, then (E_ab + E_ba)/sqrt(2) and
    i (E_ab - E_ba)/sqrt(2) for a < b.  Hermitian states have real coordinates."""
    a, b = np.triu_indices(d, 1)
    pair_rows = np.column_stack([a + b * d, b + a * d]).ravel()  # E_ab, E_ba
    s = np.sqrt(0.5)
    rows = np.concatenate([np.arange(d) * (d + 1), pair_rows, pair_rows])
    vals = np.concatenate([np.ones(d), np.full(2 * a.size, s), np.tile([1j * s, -1j * s], a.size)])
    starts = np.concatenate([np.arange(d), d + 2 * np.arange(2 * a.size + 1)])
    return sp.csc_matrix((vals, rows, starts), shape=(d * d, d * d))


def _generator(h: np.ndarray, collapse: list[CollapseOp]) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """The Hermitian basis T (see _hermitian_basis) and the sparse real
    generator M = T+ L T.  L maps Hermitian matrices to Hermitian matrices,
    so M is real; the roundoff in its imaginary part is dropped."""
    basis = _hermitian_basis(h.shape[0])
    return basis, (basis.conj().T @ liouvillian_matrix(h, collapse) @ basis).real


# Largest accepted scaled residual (see _residual) of a steady state or of
# the probed Ritz pair.  Converged ones at the sweep ranges' d^2 = 256 sit
# near 1e-16.
_RESIDUAL_TOL = 1e-9


def _residual(m: sp.csr_matrix, r: np.ndarray, lam: complex = 0.0) -> float:
    """|M r - lam r| / max(1, max|M|) for the generator M.  r is not
    normalized: a steady state has unit trace and a Ritz vector unit norm."""
    return float(np.linalg.norm(m @ r - lam * r)) / np.abs(m.data).max(initial=1.0)


def _steady(h: np.ndarray, collapse: list[CollapseOp]):
    """The steady state of one model with its generator, as (T, M, S, rho).

    S is M, dense, with its first row, the equation for rho[0, 0], replaced
    by Tr rho (the sum of the diagonal coordinates).  S r = e_0 is solved by
    LU, and r is accepted only if it nulls M to the residual tolerance.
    """
    if not collapse:
        raise ValueError("steady state needs at least one collapse channel")
    d = h.shape[0]
    basis, m = _generator(h, collapse)
    # S is the real view of a complex copy of M: that larger short-lived block
    # keeps the C heap from being trimmed after every solve, which costs a
    # d = 16 point about 320 page faults and a steady sweep about 25% of its time
    sys = m.astype(complex).toarray().real
    sys[0, :] = 0.0
    sys[0, :d] = 1.0
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    try:
        r = np.linalg.solve(sys, rhs)
    except np.linalg.LinAlgError as exc:
        raise MultipleSteadyStatesError(f"singular steady-state system: {exc}") from exc

    residual = _residual(m, r)
    if residual > _RESIDUAL_TOL:
        raise MultipleSteadyStatesError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e};"
            " the null space is likely degenerate"
        )
    rho = (basis @ r).reshape((d, d), order="F")
    return basis, m, sys, rho / np.trace(rho).real


def steady_state(h: np.ndarray, collapse: list[CollapseOp]) -> np.ndarray:
    """Unique steady state by a real dense solve in the Hermitian basis
    (see _steady)."""
    return _steady(h, collapse)[3]


# Krylov dimension of the shift-invert Arnoldi iteration in
# steady_state_and_mode.
_KRYLOV_DIM = 30


def steady_state_and_mode(
    h: np.ndarray, collapse: list[CollapseOp], probe: np.ndarray
) -> tuple[np.ndarray, complex]:
    """Steady state and the generator eigenvalue lambda of the mode that
    carries the Hermitian operator probe, from one generator build.

    The decay rate of that mode is -Re lambda.  Of the modes M = sum_k
    lambda_k r_k l_k^T (right and left eigenvectors, l_k . r_k = 1), the one
    picked has the largest weight |(x . r_k)(l_k . x)| in the autocorrelation
    x . exp(M t) x of the probe's traceless part x.

    The slow modes are found by shift-invert Arnoldi at 0 from x.  M is
    singular (the steady state spans its null space) but maps onto the
    traceless subspace, where it is invertible: for a traceless y, M^-1 y is
    the traceless solution of S v = y with y[0] set to 0.  That is exact,
    because row 0 of a traceless image is minus the sum of the other
    diagonal rows.  Raises ModeNotConvergedError when the iteration breaks
    down or the picked Ritz pair misses the residual tolerance.
    """
    basis, m, sys, rho = _steady(h, collapse)
    d = h.shape[0]
    x = (basis.conj().T @ np.asarray(probe, dtype=complex).ravel(order="F")).real
    x[:d] -= x[:d].sum() / d
    beta = float(np.linalg.norm(x))
    if beta == 0.0:
        raise ModeNotConvergedError("probe has no traceless part")
    inv = np.linalg.inv(sys)
    k = _KRYLOV_DIM
    vs = np.zeros((k + 1, d * d))
    hess = np.zeros((k + 1, k))
    vs[0] = x / beta
    for j in range(k):
        w = vs[j].copy()
        w[0] = 0.0
        w = inv @ w
        for _ in range(2):  # Gram-Schmidt, repeated once for orthogonality
            c = vs[: j + 1] @ w
            w -= c @ vs[: j + 1]
            hess[: j + 1, j] += c
        hess[j + 1, j] = np.linalg.norm(w)
        if hess[j + 1, j] <= 1e-12 * np.abs(hess[: j + 1, j]).max():
            raise ModeNotConvergedError(f"Arnoldi iteration broke down at step {j + 1} of {k}")
        vs[j + 1] = w / hess[j + 1, j]
    mu, right = np.linalg.eig(hess[:k])
    # x is beta times the first Krylov vector, so its weight on Ritz pair j
    # is beta^2 |right[0, j] left[j, 0]|, with left = right^-1 the dual vectors
    weight = np.abs(right[0] * np.linalg.inv(right)[:, 0])
    pick = int(np.argmax(weight))
    lam = complex(1.0 / mu[pick])
    residual = _residual(m, right[:, pick] @ vs[:k], lam)
    if residual > _RESIDUAL_TOL:
        raise ModeNotConvergedError(
            f"Ritz residual {residual:.3e} of the probed mode exceeds {_RESIDUAL_TOL:.1e}"
        )
    return rho, lam
