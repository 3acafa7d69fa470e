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

    Column stacking gives vec(A rho B) = (B^T kron A) vec(rho).
    """
    d = h.shape[0]
    eye = sp.identity(d, dtype=complex, format="csr")
    hm = sp.csr_matrix(h)
    liou = -1j * (sp.kron(eye, hm) - sp.kron(hm.T, eye))
    for c in collapse:
        l = sp.csr_matrix(c.operator)
        ldl = l.conj().T @ l
        liou = liou + sp.kron(l.conj(), l) - 0.5 * (sp.kron(eye, ldl) + sp.kron(ldl.T, eye))
    return liou.tocsr()


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


def steady_state(h: np.ndarray, collapse: list[CollapseOp], residual_tol: float = 1e-9) -> np.ndarray:
    """Unique steady state by dense LU, replacing one row with Tr rho = 1."""
    if not collapse:
        raise ValueError("steady state needs at least one collapse channel")
    d = h.shape[0]
    liou = liouvillian_matrix(h, collapse)
    sys = liou.toarray()
    sys[0, :] = 0.0
    sys[0, :: d + 1] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    try:
        v = np.linalg.solve(sys, rhs)
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
