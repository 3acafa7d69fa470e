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

import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .integrate import integrate_adaptive
from .model import CollapseOp
from .operators import hermiticity_residual, smallest_eigenvalue, top_fock_population

__all__ = [
    "Trajectory",
    "PropagationStats",
    "MultipleSteadyStatesError",
    "ModeNotConvergedError",
    "evolve",
    "steady_state",
    "steady_state_and_mode",
]
# liouvillian_matrix is not public: _generator_map builds the dissipator D
# (H = 0) of every generator with it.  It keeps its unprefixed name only
# because bench/spans.py TARGETS times it under that name (ROADMAP items 1
# and 6).


class MultipleSteadyStatesError(RuntimeError):
    """The Liouvillian null space is degenerate beyond the trace constraint."""


class ModeNotConvergedError(RuntimeError):
    """The probe has no traceless part, or the Krylov estimate of its
    generator mode missed the residual tolerance."""


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
    rows, cols, vals = _identity_kron_triplets(i, j, heff[i, j], d)
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


def _identity_kron_triplets(i, j, v, d: int, offset=0):
    """Lists of (row, col, value) triplets of I kron A + conj(A) kron I for
    the d x d matrix A whose nonzeros v sit at (i, j), with offset added to
    each entry's rows (stacked generators)."""
    k = np.arange(d)[:, None]
    rows = [(k * d + i + offset).ravel(), (i * d + k + offset).ravel()]
    cols = [(k * d + j).ravel(), (j * d + k).ravel()]
    return rows, cols, [np.tile(v, d), np.tile(v.conj(), d)]


@dataclass(frozen=True)
class PropagationStats:
    """What one evolve call did: its generator applications (M r products),
    the wall seconds of its propagation, including the per-output
    reductions done inside it, the largest population of the cavity's top
    Fock level at any grid time, which shows how close the truncation came
    to its edge, and the worst trace deviation |tr rho - 1| and smallest
    eigenvalue of rho over the grid times.  Hermiticity holds by
    construction (see evolve)."""

    generator_applications: int
    wall_s: float
    top_fock_population: float
    max_trace_deviation: float
    min_eigenvalue: float

    def summary(self) -> str:
        """The stats as the one line that evolve and verify print."""
        return (
            f"{self.generator_applications} generator applications in {self.wall_s:.3g} s,"
            f" top Fock level population at most {self.top_fock_population:.3g}"
        )


@dataclass
class Trajectory:
    """Time grid, propagation stats and recorded observables (and
    optionally full states)."""

    times: np.ndarray
    stats: PropagationStats
    expectations: dict[str, np.ndarray] = field(default_factory=dict)
    states: list[np.ndarray] | None = None


def evolve(
    h: np.ndarray,
    collapse: list[CollapseOp],
    rho0: np.ndarray,
    t_grid,
    observables: dict[str, np.ndarray] | None = None,
    store_states: bool = False,
) -> Trajectory:
    """Integrate the master equation over t_grid.

    The state propagates as its real Hermitian-basis coordinates under
    dr/dt = M r (see _generator), so H and rho0 must be Hermitian, and every
    state rho = T r is exactly conjugate-symmetric.  At each grid time r
    gives the trace, sum r[:d], and each observable, <O> = w . r with
    w_k = Tr(O G_k); a series is real exactly when w is, as for a Hermitian
    O.  Every observable must be a d x d matrix.  These numbers are read off
    inside the integrator as each grid time is reached, so no state is held
    unless store_states is true: rho is formed for its smallest eigenvalue
    and kept only then.  Every trajectory carries what the propagation did,
    its worst trace and positivity deviations among it, as PropagationStats.
    M comes from the map cached per (d, pattern of H, collapse operators),
    so a trajectory and the steady points of the same model share one build.
    The top Fock level's population is read in the qubit-major layout of
    operators.py (top_fock_population), so d must be even.
    """
    d = h.shape[0]
    if rho0.shape != (d, d):
        raise ValueError(f"state shape {rho0.shape} does not match H {h.shape}")
    if d % 2:
        raise ValueError(f"dimension {d} is not 2 * n_fock")
    if hermiticity_residual(rho0) > 1e-12:  # it would have no real coordinates
        raise ValueError("initial state is not Hermitian")
    observables = observables or {}

    for name, op in observables.items():
        if np.shape(op) != (d, d):
            raise ValueError(f"observable {name!r} has shape {np.shape(op)}, not {(d, d)}")

    basis, m = _generator(h, collapse)
    r0 = (basis.conj().T @ np.asarray(rho0, dtype=complex).ravel(order="F")).real
    rows = [basis.T @ np.asarray(op).ravel() for op in observables.values()]
    rows = [w if w.imag.any() else w.real for w in rows]
    values = np.empty((len(t_grid), len(rows)), np.result_type(float, *rows))
    states = []
    applications = outputs = 0
    trace_dev, min_eig, top = 0.0, np.inf, 0.0

    def apply(_t, r):
        nonlocal applications
        applications += 1
        return m @ r

    def record(r):
        nonlocal outputs, trace_dev, min_eig, top
        rho = (basis @ r).reshape((d, d), order="F")
        trace_dev = max(trace_dev, abs(r[:d].sum() - 1.0))
        min_eig = min(min_eig, smallest_eigenvalue(rho))
        top = max(top, top_fock_population(rho))
        values[outputs] = [w @ r for w in rows]
        outputs += 1
        if store_states:
            states.append(rho)

    start = time.perf_counter()
    integrate_adaptive(apply, r0, t_grid, reduce=record)
    wall_s = time.perf_counter() - start
    return Trajectory(
        times=np.asarray(t_grid, dtype=float),
        stats=PropagationStats(applications, wall_s, top, trace_dev, min_eig),
        expectations={
            name: np.ascontiguousarray(values[:, j] if np.iscomplexobj(w) else values[:, j].real)
            for j, (name, w) in enumerate(zip(observables, rows))
        },
        states=states if store_states else None,
    )


@functools.lru_cache(maxsize=8)
def _hermitian_basis(d: int) -> sp.csc_matrix:
    """Unitary d^2 x d^2 matrix whose columns are vec(G_k) for the orthonormal
    Hermitian basis: the d diagonal units E_aa, then (E_ab + E_ba)/sqrt(2) and
    i (E_ab - E_ba)/sqrt(2) for a < b.  Hermitian states have real coordinates.
    Made once per d and read-only."""
    a, b = np.triu_indices(d, 1)
    pair_rows = np.column_stack([a + b * d, b + a * d]).ravel()  # E_ab, E_ba
    s = np.sqrt(0.5)
    rows = np.concatenate([np.arange(d) * (d + 1), pair_rows, pair_rows])
    vals = np.concatenate([np.ones(d), np.full(2 * a.size, s), np.tile([1j * s, -1j * s], a.size)])
    starts = np.concatenate([np.arange(d), d + 2 * np.arange(2 * a.size + 1)])
    basis = sp.csc_matrix((vals, rows, starts), shape=(d * d, d * d))
    for arr in (basis.data, basis.indices, basis.indptr):
        arr.flags.writeable = False
    return basis


@dataclass(frozen=True)
class _GeneratorMap:
    """M = F x + D on one sparsity pattern (see _generator): F
    (pattern entries x coordinates) and D (pattern entries) as CSR data, with
    the pattern's column indices and row pointers.  Every array is read-only."""

    f: sp.csr_matrix
    drift: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _generator_map(d: int, upper: np.ndarray, collapse: list[CollapseOp]) -> _GeneratorMap:
    """The map of one (d, upper nonzero pattern of H, collapse operators).

    With G_t the unit Hermitian terms of H (E_aa, then E_ab + E_ba and
    i (E_ab - E_ba) for each pattern entry a < b), F's column t is M for
    H = G_t without dissipation and D = Re(T+ L T) for H = 0.  All the G_t's
    Liouvillians come from one triplet assembly, stacked as row blocks of
    d^2, and two products with T make every M_t."""
    n, nn = upper.size, d * d
    basis = _hermitian_basis(d)
    a, b = np.divmod(upper, d)
    diag, pairs = np.arange(d), np.arange(n)
    # -i G_t on the nonzeros of each unit term t
    i = np.concatenate([diag, a, b, a, b])
    j = np.concatenate([diag, b, a, b, a])
    v = np.concatenate([np.full(d + 2 * n, -1j), np.ones(n), -np.ones(n)])
    term = np.concatenate([diag, d + pairs, d + pairs, d + n + pairs, d + n + pairs])
    rows, cols, vals = _identity_kron_triplets(i, j, v, d, offset=term * nn)
    k = d + 2 * n
    z = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(k * nn, nn))
    # each stage replaces z, the triplets freed first: the build holds about
    # one stage of the stack at a time
    del rows, cols, vals
    # T+ acts on each block from the left: transpose each block of z T,
    # multiply by conj(T) = (T+)^T, and read M_t^T off each block
    z = (z @ basis).tocoo()
    t, row = np.divmod(z.row.astype(np.int64), nn)
    z = sp.csr_matrix((z.data, (t * nn + z.col, row)), shape=(k * nn, nn))
    z = (z @ basis.conj()).tocoo()
    t, col = np.divmod(z.row.astype(np.int64), nn)
    drift = (basis.conj().T @ liouvillian_matrix(np.zeros((d, d)), collapse) @ basis).real.tocoo()
    keys = np.concatenate([drift.row.astype(np.int64) * nn + drift.col, z.col * nn + col])
    pattern, where = np.unique(keys, return_inverse=True)
    pattern_rows, indices = np.divmod(pattern, nn)
    out = _GeneratorMap(
        f=sp.csr_matrix((z.data.real, (where[drift.nnz:], t)), shape=(pattern.size, k)),
        drift=np.bincount(where[: drift.nnz], weights=drift.data, minlength=pattern.size),
        indices=indices.astype(np.int32),
        indptr=np.searchsorted(pattern_rows, np.arange(nn + 1)).astype(np.int32),
    )
    for arr in (out.f.data, out.f.indices, out.f.indptr, out.drift, out.indices, out.indptr):
        arr.flags.writeable = False
    return out


# Generator maps by (d, upper pattern of H, collapse operators), least
# recently used first; a map holds 0.09 MiB at d = 16 and 0.9 MiB at d = 48.
_MAPS: dict[tuple, _GeneratorMap] = {}
_MAPS_MAX = 8


def _generator(h: np.ndarray, collapse: list[CollapseOp]) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """The Hermitian basis T (see _hermitian_basis) and the sparse real
    generator M = T+ L T, assembled as M = F x(h) + D from a cached map (see
    _generator_map).  For a Hermitian H, which is checked, L maps Hermitian
    matrices to Hermitian matrices, so M is real.

    L is linear in H, and Re(T+ L T) depends on H only through its Hermitian
    part, so with x(h) the coordinates of (h + h+)/2 (its real diagonal, then
    Re and Im of each nonzero above it) M = sum_t x_t M_t + D.  A sweep's
    points share d, that pattern and the collapse operators, so the map is
    built once and each point costs one sparse product.  The entries of the
    map's union pattern that are zero at this h are dropped, so M keeps only
    its own nonzeros for the M r products of a trajectory."""
    if hermiticity_residual(h) > 1e-12 * np.abs(h).max(initial=1.0):
        raise ValueError("Hamiltonian is not Hermitian")
    d = h.shape[0]
    hs = 0.5 * (h + h.conj().T)
    upper = np.flatnonzero(np.triu(hs, 1))
    key = (d, upper.tobytes(), *((l.shape, l.dtype.str, l.tobytes()) for l in (c.operator for c in collapse)))
    gmap = _MAPS.pop(key, None) or _generator_map(d, upper, collapse)
    _MAPS[key] = gmap  # most recently used last
    if len(_MAPS) > _MAPS_MAX:
        del _MAPS[next(iter(_MAPS))]
    above = hs.flat[upper]
    x = np.concatenate([hs.diagonal().real, above.real, above.imag])
    m = sp.csr_matrix((gmap.f @ x + gmap.drift, gmap.indices, gmap.indptr), shape=(d * d, d * d), copy=True)
    m.eliminate_zeros()  # in place, so on copies of the shared pattern
    return _hermitian_basis(d), m


# Largest accepted scaled residual (see _residual) of a steady state or of
# the probed Ritz pair.  Converged ones at the sweep ranges' d^2 = 256 sit
# near 1e-16.
_RESIDUAL_TOL = 1e-9


def _residual(m: sp.csr_matrix, r: np.ndarray, lam: complex = 0.0) -> float:
    """|M r - lam r| / max(1, max|M|) for the generator M.  r is not
    normalized: a steady state has unit trace and a Ritz vector unit norm."""
    return float(np.linalg.norm(m @ r - lam * r)) / np.abs(m.data).max(initial=1.0)


# Largest accepted growth |S^-1 q| / |q| max(1, max|M|) of the steady-state
# system S (see _steady).  Physical points read at most about 1e6 (undriven,
# T1 = T2 = 1e5 us), degenerate null spaces 1e15 or more.
_DEGENERACY_TOL = 1e10


def _steady_system(m: sp.csr_matrix, d: int) -> np.ndarray:
    """The dense steady-state system S: M with its first row, the equation
    for rho[0, 0], replaced by Tr rho (the sum of the diagonal coordinates)."""
    # S is the real view of a complex copy of M: that larger short-lived block
    # keeps the C heap from being trimmed after every LU solve.  At d = 16
    # (ru_minflt over 200 warm calls, in each of four processes) steady_state
    # takes 0 page faults per call with it, and 0 or 320 without, as the
    # process's earlier allocations fall; steady_state_and_mode, whose
    # np.linalg.inv takes fresh blocks, takes 700 to 830 with it and 0 or
    # 575 without.
    sys = m.astype(complex).toarray().real
    sys[0, :] = 0.0
    sys[0, :d] = 1.0
    return sys


def _steady(h: np.ndarray, collapse: list[CollapseOp], invert: bool = False):
    """The steady state of one model with its generator, as (T, M, S^-1, rho).

    S (see _steady_system) is factored once: S r = e_0 is solved by LU, or,
    when invert is true, read off S^-1, which is then returned for the
    caller's own use (None otherwise).  r is accepted only if it nulls M to
    the residual tolerance.  A degenerate null space leaves S singular, which
    roundoff can hide from the factorisation, so the same factorisation also
    gives v = S^-1 q for q_k = cos k and rejects a v that grows past
    _DEGENERACY_TOL.
    """
    if not collapse:
        raise ValueError("steady state needs at least one collapse channel")
    d = h.shape[0]
    basis, m = _generator(h, collapse)
    sys = _steady_system(m, d)
    rhs = np.zeros((d * d, 2))
    rhs[0, 0] = 1.0
    rhs[:, 1] = np.cos(np.arange(d * d))
    try:
        inv = np.linalg.inv(sys) if invert else None
        r, v = (inv @ rhs if invert else np.linalg.solve(sys, rhs)).T
    except np.linalg.LinAlgError as exc:
        raise MultipleSteadyStatesError(f"singular steady-state system: {exc}") from exc

    growth = np.linalg.norm(v) / np.linalg.norm(rhs[:, 1]) * np.abs(m.data).max(initial=1.0)
    if growth > _DEGENERACY_TOL:
        raise MultipleSteadyStatesError(
            f"steady-state system is singular to roundoff (scaled growth {growth:.1e}"
            f" exceeds {_DEGENERACY_TOL:.0e}); the null space is degenerate"
        )
    residual = _residual(m, r)
    if residual > _RESIDUAL_TOL:
        raise MultipleSteadyStatesError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e};"
            " the solve does not null the generator"
        )
    rho = (basis @ r).reshape((d, d), order="F")
    return basis, m, inv, rho / np.trace(rho).real


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

    The slow modes are found by shift-invert Arnoldi at 0 from x, applying
    the S^-1 that _steady forms and reads the steady state off.  M is
    singular (the steady state spans its null space) but maps onto the
    traceless subspace, where it is invertible: for a traceless y, M^-1 y is
    the traceless solution of S v = y with y[0] set to 0.  That is exact,
    because row 0 of a traceless image is minus the sum of the other
    diagonal rows.  When the Krylov space becomes invariant after j < k
    steps (a lucky breakdown, as when d^2 - 1 < _KRYLOV_DIM), the j x j
    Hessenberg's Ritz pairs are exact eigenpairs.  Raises
    ModeNotConvergedError when the picked Ritz pair misses the residual
    tolerance.
    """
    basis, m, inv, rho = _steady(h, collapse, invert=True)
    d = h.shape[0]
    x = (basis.conj().T @ np.asarray(probe, dtype=complex).ravel(order="F")).real
    x[:d] -= x[:d].sum() / d
    beta = float(np.linalg.norm(x))
    if beta == 0.0:
        raise ModeNotConvergedError("probe has no traceless part")
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
            k = j + 1  # the Krylov space is invariant: its Ritz pairs are exact
            break
        vs[j + 1] = w / hess[j + 1, j]
    mu, right = np.linalg.eig(hess[:k, :k])
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
