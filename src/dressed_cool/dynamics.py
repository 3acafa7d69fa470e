"""Lindblad master-equation integration and steady states.

The master equation is

    drho/dt = -i [H, rho] + sum_k D[L_k] rho,
    D[L] rho = L rho L+ - (L+ L rho + rho L+ L) / 2,

with the collapse operators L_k carrying their sqrt(rate) prefactor.  Both
time evolution and the steady-state solve act on the column-stacked state
vec(rho) through one sparse Liouvillian; the density matrix is symmetrized
after every accepted step.
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
    "liouvillian_matrix",
    "evolve",
    "steady_state",
]


class MultipleSteadyStatesError(RuntimeError):
    """The Liouvillian null space is degenerate beyond the trace constraint."""


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
    """Time grid plus recorded observables (and optionally full states)."""

    times: np.ndarray
    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    states: list[np.ndarray] | None = None
    conservation: ConservationReport | None = None


def _symmetrize(v: np.ndarray, d: int) -> np.ndarray:
    rho = v.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho.ravel(order="F")


def evolve(
    h: np.ndarray,
    collapse: list[CollapseOp],
    rho0: np.ndarray,
    t_grid,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    observables: dict[str, np.ndarray] | None = None,
    store_states: bool | None = None,
    track_conservation: bool = False,
) -> Trajectory:
    """Integrate the master equation over t_grid.

    Observables are recorded at each grid time; full states are kept when
    store_states is true (the default when no observables are requested).
    """
    d = h.shape[0]
    if rho0.shape != (d, d):
        raise ValueError(f"state shape {rho0.shape} does not match H {h.shape}")
    if store_states is None:
        store_states = observables is None

    liou = liouvillian_matrix(h, collapse)

    def rhs(_t, v):
        return liou.dot(v)

    v0 = np.asarray(rho0, dtype=complex).ravel(order="F")
    vs = integrate_adaptive(
        rhs, v0, t_grid, rtol=rtol, atol=atol,
        post_step=lambda v: _symmetrize(v, d),
    )

    times = np.asarray(t_grid, dtype=float)
    traj = Trajectory(times=times)
    rhos = [v.reshape((d, d), order="F") for v in vs]
    if observables:
        for name, op in observables.items():
            series = np.array([expectation(op, r) for r in rhos])
            # Hermitian observables come out real up to roundoff; keep the
            # complex array only when the imaginary part is meaningful.
            scale = max(1.0, float(np.max(np.abs(series))))
            if np.max(np.abs(series.imag)) <= 1e-9 * scale:
                series = series.real
            traj.expectations[name] = series
    if store_states:
        traj.states = rhos
    if track_conservation:
        trace_dev = max(abs(complex(np.trace(r)) - 1.0) for r in rhos)
        herm = max(hermiticity_residual(r) for r in rhos)
        min_eig = min(smallest_eigenvalue(r) for r in rhos)
        traj.conservation = ConservationReport(trace_dev, herm, min_eig)
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


def steady_state(h: np.ndarray, collapse: list[CollapseOp], residual_tol: float = 1e-9) -> np.ndarray:
    """Unique steady state by a real dense solve in a Hermitian basis.

    The generator maps Hermitian matrices to Hermitian matrices, so in the
    orthonormal Hermitian basis T (see _hermitian_basis) M = T+ L T is real.
    Its first row, the equation for rho[0, 0], is replaced by Tr rho = 1 (the
    sum of the diagonal coordinates), and the real system is solved by LU.
    The state is accepted only if it also nulls the complex L.
    """
    if not collapse:
        raise ValueError("steady state needs at least one collapse channel")
    d = h.shape[0]
    liou = liouvillian_matrix(h, collapse)
    basis = _hermitian_basis(d)
    sys = (basis.conj().T @ liou @ basis).toarray().real
    sys[0, :] = 0.0
    sys[0, :d] = 1.0
    rhs = np.zeros(d * d)
    rhs[0] = 1.0
    try:
        v = basis @ np.linalg.solve(sys, rhs)
    except np.linalg.LinAlgError as exc:
        raise MultipleSteadyStatesError(f"singular steady-state system: {exc}") from exc

    residual = float(np.linalg.norm(liou @ v))
    scale = max(1.0, float(abs(liou).max()))
    if residual > residual_tol * scale:
        raise MultipleSteadyStatesError(
            f"steady-state residual {residual:.3e} exceeds {residual_tol:.1e} x |L|;"
            " the null space is likely degenerate"
        )
    rho = v.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return rho
