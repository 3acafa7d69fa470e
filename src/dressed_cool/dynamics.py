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
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

try:  # the kernel of csr_matrix @ vector (see _matvec)
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # a scipy that moved it: _matvec falls back on the product
    _csr_matvec = None

from .integrate import StiffnessError, checked_grid, integrate_adaptive
from .model import CollapseOp, channel_ops
from .operators import hermiticity_residual, space, top_fock_population

__all__ = [
    "Trajectory",
    "PropagationStats",
    "MultipleSteadyStatesError",
    "ModeNotConvergedError",
    "evolve",
    "steady_state",
    "steady_states",
]
# liouvillian_matrix is not public: _generator_map builds the dissipator D
# (H = 0) of every generator with it.  It keeps its unprefixed name only
# because bench/spans.py TARGETS times it under that name (ROADMAP items 1
# and 4).


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


def _matvec(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = A x for the CSR matrix A of (data, indices, indptr), written
    into out and returned: the kernel that csr_matrix @ vector runs, on a
    zeroed output, so the product is the same bit for bit.  It is called
    directly because scipy's operator dispatch around it (type and shape
    checks and a fresh output array) makes A @ x cost 2.2-2.4x the kernel
    alone for evolve's M at d^2 = 256, where verify's trajectories make
    most of their generator applications.  The kernel, private to
    scipy.sparse, computes out += A x with this signature from scipy 1.10
    on; tests pin it against A @ x, and a scipy without it gets A @ x."""
    if _csr_matvec is None:
        out[:] = sp.csr_matrix((data, indices, indptr), shape=(out.size, x.size)) @ x
        return out
    out.fill(0.0)
    _csr_matvec(out.size, x.size, indptr, indices, data, x, out)
    return out


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
    """What one evolve call did: its propagator ("Runge-Kutta" or
    "Krylov"; see evolve), its generator applications (M r products), the
    wall seconds of its propagation, including the per-output reductions
    done inside it, and of those reductions alone (rho = T r, its
    eigenvalues, the top Fock population and the observables), the largest
    population of the cavity's top Fock level at any grid time, which shows
    how close the truncation came to its edge, and the worst trace deviation
    |tr rho - 1| and smallest eigenvalue of rho over the grid times.  A
    Krylov run also counts its accepted and rejected exponential steps; a
    Runge-Kutta run leaves them 0.  Hermiticity holds by construction (see
    evolve)."""

    propagator: str
    generator_applications: int
    wall_s: float
    reduce_s: float
    top_fock_population: float
    max_trace_deviation: float
    min_eigenvalue: float
    steps_accepted: int = 0
    steps_rejected: int = 0

    def summary(self) -> str:
        """The stats as the one line that evolve and verify print: the
        propagator (with the Krylov dimension), the microseconds of
        wall_s per generator application (0 when there was none), the
        seconds of wall_s that the per-output reductions took and a Krylov
        run's step counts."""
        n = self.generator_applications
        each = 1e6 * self.wall_s / n if n else 0.0
        name = self.propagator
        steps = ""
        if self.propagator == "Krylov":
            name += f" (dimension {_KRYLOV_DIM})"
            steps = f" {self.steps_accepted} steps accepted and {self.steps_rejected} rejected,"
        return (
            f"{name}: {n} generator applications in {self.wall_s:.3g} s"
            f" ({each:.3g} us each, {self.reduce_s:.3g} s reducing),{steps}"
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
    O.  Every observable must be a d x d matrix.  A generator of fewer than
    _KRYLOV_CROSSOVER coordinates (d^2) is integrated by the Dormand-Prince
    pair of integrate_adaptive, a larger one by the Krylov exponential
    steps of _krylov_propagate; both apply M by _matvec.  These numbers are
    read off inside the propagation as each grid time is reached, so no
    state is held unless store_states is true: rho is formed for its
    positivity audit and kept only then.  Every trajectory carries what the
    propagation did, its worst trace and positivity deviations among it, as
    PropagationStats.

    The audit keeps m, the smallest eigenvalue seen so far.  rho - m I is
    positive definite exactly when every eigenvalue of rho exceeds m, so at
    each grid time a Cholesky factorisation of rho - m I is tried, and
    eigvalsh runs only when it fails (and at the first grid time): m is
    that of an eigvalsh at every grid time.  Roundoff can make a Cholesky
    fail that should not, which costs one eigvalsh, or succeed when an
    eigenvalue lies a roundoff of |rho| below m, which misses that new
    minimum by no more than that roundoff.
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
    trace_dev, min_eig, top, reduce_s = 0.0, np.inf, 0.0, 0.0

    mr = np.empty(d * d)  # every Runge-Kutta M r, which integrate_adaptive copies at once
    indptr, indices, data = m.indptr, m.indices, m.data
    eye = np.eye(d)

    def apply(r, out=mr):
        nonlocal applications
        applications += 1
        return _matvec(indptr, indices, data, r, out)

    def record(r):
        nonlocal outputs, trace_dev, min_eig, top, reduce_s
        t0 = time.perf_counter()
        rho = (basis @ r).reshape((d, d), order="F")
        trace_dev = max(trace_dev, abs(r[:d].sum() - 1.0))
        # rho is exactly conjugate-symmetric: neither factorisation needs a
        # symmetrised copy
        if min_eig == np.inf or not _exceeds(rho, min_eig, eye):
            min_eig = min(min_eig, float(np.linalg.eigvalsh(rho)[0]))
        top = max(top, float(top_fock_population(rho)))
        values[outputs] = [w @ r for w in rows]
        outputs += 1
        if store_states:
            states.append(rho)
        reduce_s += time.perf_counter() - t0

    start = time.perf_counter()
    if d * d >= _KRYLOV_CROSSOVER:
        steps = _krylov_propagate(apply, r0, t_grid, record, float(abs(m).sum(axis=1).max()))
        propagator, extra = "Krylov", steps
    else:
        integrate_adaptive(lambda _t, r: apply(r), r0, t_grid, reduce=record)
        propagator, extra = "Runge-Kutta", ()
    wall_s = time.perf_counter() - start
    return Trajectory(
        times=np.asarray(t_grid, dtype=float),
        stats=PropagationStats(propagator, applications, wall_s, reduce_s, top, trace_dev, min_eig, *extra),
        expectations={
            name: np.ascontiguousarray(values[:, j] if np.iscomplexobj(w) else values[:, j].real)
            for j, (name, w) in enumerate(zip(observables, rows))
        },
        states=states if store_states else None,
    )


# Generators of at least this many coordinates (d^2) are propagated by
# Krylov exponential steps (_krylov_propagate), smaller ones by Runge-Kutta;
# tools/crossover.py measures where.
_KRYLOV_CROSSOVER = 784
# Krylov dimension m of each exponential step.
_KRYLOV_DIM = 25
# Largest accepted local error of a Krylov step, per unit time (us) of the step.
_KRYLOV_TOL = 1e-10


def _krylov_propagate(apply, r0: np.ndarray, t_grid, reduce, anorm: float) -> tuple[int, int]:
    """Propagate dr/dt = M r from r0 over t_grid by Krylov exponential
    steps, calling reduce(r) at each grid time, r0 first; apply(x, out)
    writes M x into out, and anorm is |M|_inf.  Returns the accepted and
    rejected steps.

    A step of length tau from r (Sidje, Expokit, ACM TOMS 24, 130 (1998))
    builds the Arnoldi basis V of the Krylov space of M and r, m =
    _KRYLOV_DIM vectors and one more, with its Hessenberg H, by
    _arnoldi_step, and takes r <- |r| V exp(tau H) e_1.  exp(tau H) is that
    of the (m + 2) x (m + 2) augmented Hessenberg, whose last column pair
    gives Saad's a posteriori estimate of the step's error (Saad, SIAM J.
    Numer. Anal. 29, 209 (1992)); a step is accepted when that estimate is
    at most 1.2 tau _KRYLOV_TOL and retried shorter otherwise, and the next
    step's length follows from it.  Steps run across grid times, cut only
    at the last: the grid times inside a step are read off the same basis,
    as |r| V exp(s H) e_1 at their offsets s into the step (_exp_columns).

    The Arnoldi process breaks down at vector j + 1 when its residual w,
    the part of M v_j outside the basis, is small against |M| (see
    _BREAKDOWN) and drops out at no more than _KRYLOV_TOL per unit time:
    |r| |w| <= _KRYLOV_TOL bounds the rate at which the error of |r| V
    exp(s H) e_1 grows, for any s.  Such a step runs to the last grid time
    without an error estimate.  Once r has reached its steady state to
    within that rate, the space breaks down after one vector, and v_0 . M
    v_0, below the rate too, is dropped, so that r, and its trace, stay as
    they are.  The small exponentials are _expm's."""
    t_grid = checked_grid(t_grid)
    m = _KRYLOV_DIM
    vs = np.zeros((1, m + 1, r0.size))
    hess = np.zeros((1, m + 2, m + 2))
    w = np.empty((1, r0.size))
    r = np.array(r0, dtype=float)
    reduce(r)
    # Expokit's first step, for |r| = 1
    fact = ((m + 1) / math.e) ** (m + 1) * math.sqrt(2 * math.pi * (m + 1))
    tau = (fact * _KRYLOV_TOL / (4 * anorm)) ** (1 / m) / anorm
    t, end, i = t_grid[0], t_grid[-1], 1  # t_grid[i] is the next grid time
    slack = 8 * _EPS * max(abs(t), abs(end))  # the grid times' own rounding
    accepted = rejected = 0
    while i < t_grid.size:
        accepted += 1
        beta = float(np.linalg.norm(r))
        vs[0, 0] = r / beta
        hess.fill(0.0)
        # the breakdown test: |w| <= _BREAKDOWN min(|M|, _KRYLOV_TOL / (_BREAKDOWN |r|))
        scale = min(anorm, _KRYLOV_TOL / (_BREAKDOWN * beta))
        for j in range(m):
            apply(vs[0, j], w[0])
            if _arnoldi_step(vs, hess, w, j, scale)[0]:
                k, h, stop = j + 1, hess[0, : j + 1, : j + 1], end
                if k == 1 and beta * abs(h[0, 0]) <= _KRYLOV_TOL:
                    h = np.zeros((1, 1))
                break
        else:
            k, h = m + 1, hess[0]
            h[m + 1, m] = 1.0
            avnorm = float(np.linalg.norm(apply(vs[0, m], w[0])))
            while True:
                step = min(tau, end - t)
                e = _expm(step * h)
                p1, p2 = abs(e[m, 0]) * beta, abs(e[m + 1, 0]) * beta * avnorm
                if p1 > p2:
                    err, order = (p2 if p1 > 10 * p2 else p1 * p2 / (p1 - p2)), m
                else:
                    err, order = p1, m - 1
                # the next length, from the estimate floored at the roundoff
                # of the new r, so that it grows by a bounded factor
                grown = 0.9 * step * (step * _KRYLOV_TOL / max(err, beta * _EPS)) ** (1 / order)
                if err <= 1.2 * step * _KRYLOV_TOL:
                    break
                rejected += 1
                tau = grown
                if tau < 1e-14 * max(abs(t), 1.0):
                    raise StiffnessError(t)
            if step < end - t:
                tau = grown
            stop = end if step == end - t else t + step
            r = beta * (e[: m + 1, 0] @ vs[0])
        last = np.searchsorted(t_grid, stop, side="right")
        for y in _exp_columns(h, t_grid[i:last] - t, slack):
            reduce(beta * (y[:k] @ vs[0, :k]))
        t, i = stop, last
    return accepted, rejected


def _exp_columns(h: np.ndarray, offsets: np.ndarray, slack: float) -> list:
    """exp(s h) e_1 for each of the increasing offsets s.  When they lie
    within slack of an even spacing s_0 + j delta, each is exp(delta h)
    applied to the one before, one small product instead of one _expm
    each."""
    if offsets.size == 0:
        return []
    y = _expm(offsets[0] * h)[:, 0]
    if offsets.size == 1:
        return [y]
    n = offsets.size
    delta = (offsets[-1] - offsets[0]) / (n - 1)
    if np.max(np.abs(offsets[0] + delta * np.arange(n) - offsets)) > slack:
        return [y, *(_expm(s * h)[:, 0] for s in offsets[1:])]
    power, out = _expm(delta * h), [y]
    for _ in range(n - 1):
        out.append(power @ out[-1])
    return out


_EPS = np.finfo(float).eps

# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, and the
# largest 1-norm at which it is accurate to double precision unscaled
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small dense real matrix by the [13/13] Pade approximant
    with scaling and squaring (Higham 2005): a is scaled by 2^-s to a
    1-norm of at most _THETA13, and the approximant squared s times.  It
    is numpy-only, since scipy.linalg would load a second OpenBLAS."""
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    return out


def _exceeds(rho: np.ndarray, m: float, eye: np.ndarray) -> bool:
    """Whether every eigenvalue of the Hermitian rho exceeds m: whether
    rho - m I, eye being the identity, has a Cholesky factor."""
    try:
        np.linalg.cholesky(rho - m * eye)
    except np.linalg.LinAlgError:
        return False
    return True


def _hermitian_basis(d: int) -> sp.csc_matrix:
    """Unitary d^2 x d^2 matrix whose columns are vec(G_k) for the orthonormal
    Hermitian basis: the d diagonal units E_aa, then (E_ab + E_ba)/sqrt(2) and
    i (E_ab - E_ba)/sqrt(2) for a < b.  Hermitian states have real coordinates.
    Only map builds call it; each map keeps a read-only copy, reordered."""
    a, b = np.triu_indices(d, 1)
    pair_rows = np.column_stack([a + b * d, b + a * d]).ravel()  # E_ab, E_ba
    s = np.sqrt(0.5)
    rows = np.concatenate([np.arange(d) * (d + 1), pair_rows, pair_rows])
    vals = np.concatenate([np.ones(d), np.full(2 * a.size, s), np.tile([1j * s, -1j * s], a.size)])
    starts = np.concatenate([np.arange(d), d + 2 * np.arange(2 * a.size + 1)])
    return sp.csc_matrix((vals, rows, starts), shape=(d * d, d * d))


@dataclass(frozen=True)
class _GeneratorMap:
    """What a model H = sum_k c_k O_k needs to reach its generators M = F
    [x c; 1] (see _generator), built by _generator_map: F (pattern entries
    x (coordinates + 1)) as CSR data, with the pattern's column indices and
    row pointers, all in the coordinates of basis, the Hermitian basis T
    reordered by breadth-first level (see _levels), whose level boundaries
    are offsets; and x, whose column k is the coordinates x(O_k) of term k
    without the trailing 1.  Every array is read-only.  probes holds the
    coordinates of each operators.space operator that a probe names, in the
    map's basis, from its first use."""

    f: sp.csr_matrix
    indices: np.ndarray
    indptr: np.ndarray
    basis: sp.csc_matrix
    offsets: np.ndarray
    x: np.ndarray
    probes: dict = field(default_factory=dict)

    def coordinates(self, c: np.ndarray) -> np.ndarray:
        """X = [x c; 1] for the coefficients c (terms x points).  The sum
        over terms is taken term by term, in the order of the list, as the
        builders add H = sum c O (operators.HilbertSpace.combine), so each
        column is x(h) of that h bit for bit, where one BLAS product could
        fuse or reorder the sums."""
        out = np.zeros((self.x.shape[0] + 1, c.shape[1]))
        for k in range(self.x.shape[1]):
            out[:-1] += np.multiply.outer(self.x[:, k], c[k])
        out[-1] = 1.0
        return out

    def probe(self, terms) -> np.ndarray:
        """The coordinates of sum c O over the (name, coefficient) pairs of
        a probe, from the cached coordinates Tr(G_k O) of each O in the
        map's basis T."""
        d = int(self.offsets[1])
        out = np.zeros(d * d)
        for name, c in terms:
            if name not in self.probes:
                op = getattr(space(d // 2), name)
                self.probes[name] = (self.basis.conj().T @ op.ravel(order="F")).real
            out += c * self.probes[name]
        return out

    @functools.cached_property
    def blocks(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """Each block (i, j) of levels that the steady-state system S (see
        _block_factor) holds entries in, mapped to the pattern entries
        there, row 0's left out, and their flat positions in the dense
        block; built on a steady solve's first use of the map, so a map
        that only drives trajectories does not hold it."""
        level = np.repeat(np.arange(self.offsets.size - 1), np.diff(self.offsets))
        rows = np.repeat(np.arange(level.size), np.diff(self.indptr))
        entries = np.flatnonzero(rows > 0)  # row 0 of S is the trace
        row, col = rows[entries], self.indices[entries]
        width = np.diff(self.offsets)
        position = (row - self.offsets[level[row]]) * width[level[col]] + col - self.offsets[level[col]]
        block = level[row] * width.size + level[col]
        blocks = {divmod(int(b), width.size): (entries[block == b], position[block == b])
                  for b in np.unique(block)}
        for arr in (a for pair in blocks.values() for a in pair):
            arr.flags.writeable = False
        return blocks


def _levels(d: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Breadth-first level of each of the d^2 coordinates over the
    symmetrised pattern with entries (rows, cols), from the d populations at
    level 0.  Each component that the populations do not reach is levelled
    by its own search from its first coordinate, which takes the level that
    the last search left empty.  An entry links coordinates of the same or
    adjacent levels only, so on any pattern the system is block tridiagonal
    in the levels."""
    level = np.full(d * d, -1)
    frontier = np.arange(d * d) < d
    k = 0
    while frontier.any():
        level[frontier] = k
        k += 1
        hit = frontier[rows] | frontier[cols]
        near = np.zeros_like(frontier)
        near[rows[hit]] = True
        near[cols[hit]] = True
        rows, cols = rows[~hit], cols[~hit]  # an entry that met a frontier is spent
        unreached = level < 0
        frontier = near & unreached
        if not frontier.any() and unreached.any():
            frontier[unreached.argmax()] = True  # the next component's seed
    return level


def _generator_map(d: int, ops: list, collapse: list[CollapseOp]) -> _GeneratorMap:
    """The map of the Hermitian d x d terms ops and the collapse operators:
    the one place a model meets its generators.

    The map's pattern is the union of the terms' upper nonzero patterns.
    With G_t the unit Hermitian terms of H (E_aa, then E_ab + E_ba and
    i (E_ab - E_ba) for each pattern entry a < b), F's column t is M for
    H = G_t without dissipation, and its last column is M for H = 0.  The
    G_t's Liouvillians and the dissipator's are stacked as row blocks of d^2
    in one triplet assembly, and two products with T make every M_t.  The
    coordinates are then ordered by breadth-first level over the union
    pattern (see _levels), populations first in their own order, so r[:d]
    stays the trace."""
    union = np.zeros((d, d), dtype=bool)
    for op in ops:
        union |= op != 0
    upper = np.flatnonzero(np.triu(union, 1))
    x = np.column_stack([np.concatenate([op.diagonal().real, op.flat[upper].real, op.flat[upper].imag])
                         for op in ops]) if ops else np.zeros((d + 2 * upper.size, 0))
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
    k = d + 2 * n + 1
    dissipator = liouvillian_matrix(np.zeros((d, d)), collapse).tocoo()
    rows.append(dissipator.row.astype(np.int64) + (k - 1) * nn)
    cols.append(dissipator.col)
    vals.append(dissipator.data)
    z = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(k * nn, nn))
    # each stage replaces z, the triplets freed first: the build holds about
    # one stage of the stack at a time
    del rows, cols, vals, dissipator
    # T+ acts on each block from the left: transpose each block of z T,
    # multiply by conj(T) = (T+)^T, and read M_t^T off each block
    z = (z @ basis).tocoo()
    t, row = np.divmod(z.row.astype(np.int64), nn)
    z = sp.csr_matrix((z.data, (t * nn + z.col, row)), shape=(k * nn, nn))
    z = (z @ basis.conj()).tocoo()
    t, col = np.divmod(z.row.astype(np.int64), nn)
    # number the coordinates by level, and the pattern's entries by their
    # renumbered (row, column)
    level = _levels(d, z.col, col)
    order = np.argsort(level, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(nn)
    pattern, where = np.unique(rank[z.col] * nn + rank[col], return_inverse=True)
    pattern_rows, indices = np.divmod(pattern, nn)
    out = _GeneratorMap(
        f=sp.csr_matrix((z.data.real, (where, t)), shape=(pattern.size, k)),
        indices=indices.astype(np.int32),
        indptr=np.searchsorted(pattern_rows, np.arange(nn + 1)).astype(np.int32),
        basis=basis[:, order],
        offsets=np.searchsorted(level[order], np.arange(level.max() + 2)),
        x=x,
    )
    for arr in (out.f.data, out.f.indices, out.f.indptr, out.indices, out.indptr,
                out.basis.data, out.basis.indices, out.basis.indptr, out.offsets, out.x):
        arr.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _terms_map(n_fock: int, names: tuple, channels: tuple) -> _GeneratorMap:
    """The map of operators.space(n_fock)'s named terms and the channels'
    collapse operators, cached per (n_fock, names, channels); a map holds
    0.10 MiB at d = 16 and 0.97 MiB at d = 48."""
    hs = space(n_fock)
    return _generator_map(2 * n_fock, [getattr(hs, name) for name in names], channel_ops(n_fock, channels))


def _matrix_map(h: np.ndarray, collapse: list[CollapseOp]) -> _GeneratorMap:
    """The map of a model given as matrices, built afresh: one term,
    (h + h+)/2, whose coefficient is 1.  A non-Hermitian h raises
    ValueError."""
    if hermiticity_residual(h) > 1e-12 * np.abs(h).max(initial=1.0):
        raise ValueError("Hamiltonian is not Hermitian")
    return _generator_map(h.shape[0], [0.5 * (h + h.conj().T)], collapse)


def _generator(h: np.ndarray, collapse: list[CollapseOp]) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """The map's basis T (the Hermitian basis of _hermitian_basis, its
    coordinates ordered by level) and the sparse real generator M = T+ L T
    in it, assembled as M = F [x(h); 1] on h's own map (see _matrix_map).
    For a Hermitian H, which is checked, L maps Hermitian matrices to
    Hermitian matrices, so M is real.

    L is linear in H, and Re(T+ L T) depends on H only through its Hermitian
    part, so with x(h) the coordinates of (h + h+)/2 (its real diagonal, then
    Re and Im of each nonzero above it) M = sum_t x_t M_t + D, D being M at
    H = 0, which rides as F's last column against x's trailing 1.  H is
    itself a sum c_k O_k of fixed operators, so x(h) = sum c_k x(O_k) on a
    map (see _GeneratorMap), whose X = [x c; 1] is F's right factor; here
    the map is h's own, of one term.  The entries of the map's union pattern
    that are zero at this h are dropped, so M keeps only its own nonzeros
    for the M r products of a trajectory."""
    gmap = _matrix_map(h, collapse)
    d = h.shape[0]
    m = sp.csr_matrix((gmap.f @ gmap.coordinates(np.ones((1, 1)))[:, 0], gmap.indices, gmap.indptr),
                      shape=(d * d, d * d), copy=True)
    m.eliminate_zeros()  # in place, so on copies of the map's read-only pattern
    return gmap.basis, m


# Largest accepted scaled residual (see _residual) of a steady state or of
# the probed Ritz pair.  Converged ones at the sweep ranges' d^2 = 256 sit
# near 1e-16.
_RESIDUAL_TOL = 1e-9


def _residual(gmap: _GeneratorMap, fx: np.ndarray, r: np.ndarray, lam=0.0):
    """|M r - lam r| / max(1, max|M|) for each generator M of a stack on one
    map, whose entries on the map's pattern are a column of fx (entries x
    n), its row of r (n x d^2) and lam, one number or one per row.  Each
    point's M is applied by _matvec on the map's pattern, to the real and
    imaginary parts of a complex r apart, so M is not cast to complex.  r
    is not normalized: a steady state has unit trace and a Ritz vector unit
    norm."""
    n = fx.shape[1]
    scale = np.abs(fx).max(axis=0, initial=1.0)
    data = np.ascontiguousarray(fx.T)  # each point's entries in one row
    parts = [r] if np.isrealobj(r) else [r.real, r.imag]
    mv = np.empty((len(parts), *r.shape))
    for part, out in zip(parts, mv):
        part = np.ascontiguousarray(part)
        for p in range(n):
            _matvec(gmap.indptr, gmap.indices, data[p], part[p], out[p])
    mv = mv[0] if len(parts) == 1 else mv[0] + 1j * mv[1]
    out = mv - np.reshape(lam, (-1, 1)) * r
    return np.linalg.norm(out, axis=1) / scale


# Largest accepted growth |S^-1 q| / |q| max(1, max|M|) of the steady-state
# system S (see _steady), with S^-1 q from the block solve.  Physical points
# read at most about 1e6 (undriven, T1 = T2 = 1e5 us), degenerate null spaces
# 1e15 or more.
_DEGENERACY_TOL = 1e10


def _block_factor(gmap: _GeneratorMap, fx: np.ndarray) -> tuple:
    """The factor of a stack of n steady-state systems S on one map, for
    _block_solve.  S is the generator M, whose entries on the map's pattern
    are a column of fx (entries x n), with its first row, the equation for
    rho[0, 0], replaced by Tr rho, the sum of the populations, which make
    level 0.

    S is block tridiagonal in the levels, whose diagonal blocks span
    offsets[i]:offsets[i + 1], and is eliminated by levels (block
    elimination, Golub & Van Loan 4.5) from the last one up: with A_i, B_i
    and C_i the diagonal, lower and upper blocks of level i, the Schur
    complements K_last = A_last and K_i = A_i - W_i B_{i+1}, W_i = C_i
    K_{i+1}^-1, are inverted with partial pivoting by np.linalg.inv, one
    level at a time for the whole stack.  Each block is gathered for the
    stack straight from fx and the map's blocks, so no dense S is formed,
    and A_i and C_i are dropped once used.  The factor is (K^-1, W, B, at):
    the stacked K_i^-1, W_i and B_{i+1} of every level, and the slice at[i]
    of level i's coordinates in a right-hand side.  It solves any number of
    right-hand sides and holds 0.21 MiB per point at d = 16.  Each point's
    products and inverses are those it would get alone, so its solves are
    the same bit for bit in a stack of any size.  A singular K_i of any
    point raises np.linalg.LinAlgError for the stack.

    Only the level blocks K_i are inverted, never S: an explicit inverse of
    S would cost about 3x its LU and be no more accurate (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 14).  The solve stays
    numpy-only: importing scipy.sparse.linalg for a sparse LU raises peak
    memory by about 10 MiB, and scipy.linalg's dense LU loads a second
    OpenBLAS and adds 13.5% peak RSS; a test checks that neither is
    imported."""
    offsets = gmap.offsets
    width = np.diff(offsets)
    at = [np.s_[:, p:q] for p, q in zip(offsets[:-1], offsets[1:])]
    n, last = fx.shape[1], width.size - 1

    def block(i, j):
        entries, positions = gmap.blocks.get((i, j), (slice(0), slice(0)))
        out = np.zeros((n, width[i], width[j]))
        out.reshape(n, -1)[:, positions] = fx[entries].T
        if i == j == 0:
            out[:, 0] = 1.0  # the trace row
        return out

    k_inv = [np.linalg.inv(block(last, last))]
    w, lower = [], []
    for i in range(last - 1, -1, -1):
        lower.append(block(i + 1, i))
        w.append(block(i, i + 1) @ k_inv[-1])
        schur = block(i, i)
        schur -= w[-1] @ lower[-1]
        k_inv.append(np.linalg.inv(schur))
        del schur  # before the next level's blocks are gathered
    for part in (k_inv, w, lower):
        part.reverse()
    return k_inv, w, lower, at


def _block_solve(factor: tuple, b: np.ndarray) -> np.ndarray:
    """S^-1 b for a stack (b n x d^2 x k) by the stack's factor of
    _block_factor: b swept up through the W_i, y_i = b_i - W_i y_{i+1},
    then down, x_i = K_i^-1 (y_i - B_i x_{i-1}).  Each product is a stacked
    np.matmul, one BLAS call per point on that point's slices, so a point's
    solution does not depend on the rest of the stack."""
    k_inv, w, lower, at = factor
    y = np.array(b, dtype=float)
    for i in range(len(w) - 1, -1, -1):
        y[at[i]] -= w[i] @ y[at[i + 1]]
    y[at[0]] = k_inv[0] @ y[at[0]]
    for i in range(1, len(k_inv)):
        y[at[i]] = k_inv[i] @ (y[at[i]] - lower[i - 1] @ y[at[i - 1]])
    return y


# An Arnoldi process breaks down (its Krylov space is invariant) when the
# norm of its next vector, before normalisation, is at most this fraction of
# the operator's scale (see _arnoldi_step).  _krylov_propagate's scale is
# |M|, capped so that the test also meets _KRYLOV_TOL; at criterion 6's |M|
# of 1.2e3 to 3.8e3 the cap sets it.
_BREAKDOWN = 1e-12


def _arnoldi_step(vs: np.ndarray, hess: np.ndarray, w: np.ndarray, j: int, scale=None) -> np.ndarray:
    """Step j of a stack of Arnoldi processes, one per row: each new vector
    w[p] (n x d^2, the operator applied to the Krylov vector vs[p, j]) is
    orthogonalised in place against vs[p, : j + 1] by Gram-Schmidt, applied
    twice, as stacked np.matmul products, so each point's arithmetic is its
    own; the coefficients go into column j of its Hessenberg hess[p], and
    |w[p]| below them.  Returns which Krylov spaces broke down: those whose
    |w[p]| is at most _BREAKDOWN times scale, by default the largest
    coefficient |hess[p, : j + 1, j]|.  Each other point's w[p] / |w[p]|
    becomes its vector vs[p, j + 1].  _modes (a stack of points) and
    _krylov_propagate (one state, scale |M|) run on it."""
    basis = vs[:, : j + 1]
    for _ in range(2):  # Gram-Schmidt, repeated once for orthogonality
        c = basis @ w[:, :, None]
        w -= (c.transpose(0, 2, 1) @ basis)[:, 0]
        hess[:, : j + 1, j] += c[:, :, 0]
    norm = hess[:, j + 1, j]
    norm[:] = np.sqrt((w[:, None] @ w[:, :, None])[:, 0, 0])
    broke = norm <= _BREAKDOWN * (np.abs(hess[:, : j + 1, j]).max(axis=1) if scale is None else scale)
    np.divide(w, norm[:, None], out=vs[:, j + 1], where=~broke[:, None])
    return broke


# Steps of the shift-invert Arnoldi of _modes after which each live point's
# picked Ritz pair is checked; the last is the cap.  A check is one stacked
# eig and residual, which would cost more than it saves at every step.  20
# steps reproduce the rates of 30 to about 1e-14 at the sweep ranges' d = 16.
_CHECKPOINTS = (20, 30)


def _modes(gmap: _GeneratorMap, fx: np.ndarray, factor: tuple, probes: list) -> list:
    """For each point of a stack on one map, whose M have the entries fx
    (one column each; see _residual) and whose S have the factor (see
    _block_factor): the generator eigenvalue lambda of the mode that carries
    its Hermitian probe, given by its coordinates in the map's basis, the
    ModeNotConvergedError that names why it has none, or None when its
    probe is None.

    The decay rate of that mode is -Re lambda.  Of the modes M = sum_k
    lambda_k r_k l_k^T (right and left eigenvectors, l_k . r_k = 1), the one
    picked has the largest weight |(x . r_k)(l_k . x)| in the autocorrelation
    x . exp(M t) x of the probe's traceless part x.

    The slow modes are found by shift-invert Arnoldi at 0 from x, run in
    lockstep for the stack: each step is one _block_solve of every point's
    vector with the factorisation of S that the steady state is read off, so
    no inverse is formed.  M is singular (the steady state spans its null
    space) but maps onto the traceless subspace, where it is invertible: for
    a traceless y, M^-1 y is the traceless solution of S v = y with y[0] set
    to 0.  That is exact, because row 0 of a traceless image is minus the
    sum of the other diagonal rows.  Krylov bases (n x cap + 1 x d^2,
    allocated once) and Hessenbergs are stacked, and each step orthogonalises
    by the shared _arnoldi_step.  After each of _CHECKPOINTS steps, a live
    point's picked Ritz pair is checked by _residual: one that meets the
    tolerance is done, its lambda frozen; one that misses goes on, and at
    the cap it raises ModeNotConvergedError.  A point whose Krylov space
    becomes invariant after its own k steps (a lucky breakdown, as when d^2
    - 1 < 20) is checked then and stops, its k x k Hessenberg's Ritz pairs
    being exact eigenpairs.  A point that is done, or has no vector, is
    solved as zeros.  Every product is per point, so a point's lambda is the
    one it gets alone, bit for bit.
    """
    n = fx.shape[1]
    d = gmap.offsets[1]
    cap = _CHECKPOINTS[-1]
    vs = np.zeros((n, cap + 1, d * d))
    hess = np.zeros((n, cap + 1, cap))
    out: list = [None] * n
    for p, probe in enumerate(probes):
        if probe is None:
            continue
        x = np.array(probe, dtype=float)
        x[:d] -= x[:d].sum() / d
        beta = float(np.linalg.norm(x))
        if beta == 0.0:
            out[p] = ModeNotConvergedError("probe has no traceless part")
        else:
            vs[p, 0] = x / beta
    live = np.array([probe is not None and out[p] is None for p, probe in enumerate(probes)])

    def settle(due, k, final):
        """Check the picked Ritz pair at k steps of each point that is due,
        and freeze those that pass, or that fail where final is true."""
        points = np.flatnonzero(due)
        mu, right = np.linalg.eig(hess[points, :k, :k])
        # complex whatever the other points' eigenvalues, so that a point's
        # arithmetic does not depend on its stack
        mu, right = mu.astype(complex), right.astype(complex)
        # x is beta times the first Krylov vector, so its weight on Ritz pair
        # j is beta^2 |right[0, j] left[j, 0]|, with left = right^-1 the dual
        # vectors
        weight = np.abs(right[:, 0] * np.linalg.inv(right)[:, :, 0])
        pick = weight.argmax(axis=1)
        at = np.arange(points.size)
        lam = np.zeros(n, complex)
        lam[points] = 1.0 / mu[at, pick]
        y = np.zeros((n, 1, k), complex)
        y[points, 0] = right[at, :, pick]
        ritz = (y.real @ vs[:, :k] + 1j * (y.imag @ vs[:, :k]))[:, 0]
        residual = _residual(gmap, fx, ritz, lam)  # 0 for the points not due
        for p in points:
            if residual[p] <= _RESIDUAL_TOL:
                out[p] = complex(lam[p])
            elif final[p]:
                out[p] = ModeNotConvergedError(
                    f"Ritz residual {residual[p]:.3e} of the probed mode exceeds"
                    f" {_RESIDUAL_TOL:.1e} after {k} Krylov steps"
                )
            live[p] = out[p] is None

    for j in range(cap):
        if not live.any():
            break
        w = np.where(live[:, None, None], vs[:, j, :, None], 0.0)
        w[:, 0] = 0.0
        w = _block_solve(factor, w)[:, :, 0]
        # the Krylov space of a point is invariant: its Ritz pairs are exact
        broke = live & _arnoldi_step(vs, hess, w, j)
        due = broke | live if j + 1 in _CHECKPOINTS else broke
        if due.any():
            settle(due, j + 1, broke | (j + 1 == cap))
    return out


def _steady(gmap: _GeneratorMap, x: np.ndarray, probes: list) -> list:
    """The outcome of each of a stack of points on one map, the columns of
    x holding their coordinates x(h) and probes their probes (the
    coordinates of a Hermitian operator in the map's basis, or None each):
    its rho, (rho, lambda) when it has a probe (see _modes), or the
    MultipleSteadyStatesError or ModeNotConvergedError that names why it
    failed.

    The stack's M are assembled as one product F X, and its systems S are
    factored at once by _block_factor; S r = e_0 is solved with it.  A
    point's r is accepted only if it nulls M to the residual tolerance.  A
    degenerate null space leaves S singular, which roundoff can hide from
    the factorisation, so the same solve also gives v = S^-1 q for q_k =
    cos k, and a point whose v grows past _DEGENERACY_TOL is rejected.  The
    points that passed and have a probe go on to the lockstep Arnoldi of
    _modes, each of whose steps is one solve with the same factor.  A
    singular block of one point stops the stack's factorisation, so the
    stack is then solved again point by point, and a point that stays
    singular alone fails.  Beside its factor, a stack of n points holds its
    n M (n x entries, 27 KiB per point at d = 16), the right-hand sides and
    solutions (n x d^2 x 2), its states and, when probed, its Krylov bases
    (62 KiB per point for the cap of 30 steps)."""
    n = x.shape[1]
    d = gmap.offsets[1]
    nn = d * d
    fx = gmap.f @ x
    q = np.cos(np.arange(nn))
    rhs = np.zeros((n, nn, 2))
    rhs[:, 0, 0] = 1.0
    rhs[:, :, 1] = q
    try:
        factor = _block_factor(gmap, fx)
    except np.linalg.LinAlgError as exc:
        if n > 1:
            return [_steady(gmap, x[:, j:j + 1], probes[j:j + 1])[0] for j in range(n)]
        error = MultipleSteadyStatesError(f"singular steady-state system: {exc}")
        error.__cause__ = exc
        return [error]

    r = _block_solve(factor, rhs)
    growth = np.linalg.norm(r[:, :, 1], axis=1) / np.linalg.norm(q) * np.abs(fx).max(axis=0, initial=1.0)
    residual = _residual(gmap, fx, r[:, :, 0])
    rhos = (gmap.basis @ r[:, :, 0].T).T.reshape((n, d, d)).transpose(0, 2, 1)
    outcomes = []
    for rho, g, res in zip(rhos, growth, residual):
        if g > _DEGENERACY_TOL:
            outcomes.append(MultipleSteadyStatesError(
                f"steady-state system is singular to roundoff (scaled growth {g:.1e}"
                f" exceeds {_DEGENERACY_TOL:.0e}); the null space is degenerate"
            ))
        elif res > _RESIDUAL_TOL:
            outcomes.append(MultipleSteadyStatesError(
                f"steady-state residual {res:.3e} exceeds {_RESIDUAL_TOL:.1e};"
                " the solve does not null the generator"
            ))
        else:
            outcomes.append(rho / np.trace(rho).real)
    if any(probe is not None for probe in probes):
        solved = [probe if isinstance(o, np.ndarray) else None for o, probe in zip(outcomes, probes)]
        lams = _modes(gmap, fx, factor, solved)
        outcomes = [o if lam is None else lam if isinstance(lam, Exception) else (o, lam)
                    for o, lam in zip(outcomes, lams)]
    return outcomes


def steady_states(models, probes=None) -> list:
    """The outcome of each model, a model.ModelTerms, in order: its steady
    state rho, or (rho, lambda) when probes, one probe or None per model,
    gives it a probe, lambda being the generator eigenvalue of the mode that
    carries the probe (see _modes), whose decay rate is -Re lambda; or the
    MultipleSteadyStatesError or ModeNotConvergedError that names why it
    has none.  A probe is a list of (name, coefficient) pairs on the same
    operator table, sum c O, which must be Hermitian.

    A model's H is a sum of Hermitian table operators with real
    coefficients, so it needs no Hermiticity check: its map, with the
    terms' coordinates x(O_k), is built once per (n_fock, names of its
    nonzero terms, channels) (see _terms_map), and a stack's X is its
    coefficients on them.  A term whose coefficient is zero is left out of
    the names, so the undriven point (eps_d = 0) has its own map, with the
    levels of its own pattern.  A probe's coordinates are the sum of its
    terms' coordinates, cached per map.

    The models that share a map are solved as one stack by _steady,
    wherever they stand in the list, by a real block-tridiagonal solve in
    the Hermitian basis.  A point's products and inverses in a stack are
    those it gets alone (see _block_factor), so its outcome does not depend
    on the stack, and its X is the x(h) of its builder's H bit for bit (see
    _GeneratorMap.coordinates), so its outcome is that of steady_state on
    that H too.  Each rho is T r over its real trace, so it is exactly
    conjugate-symmetric.  A model without a collapse channel raises
    ValueError; any other error is raised."""
    probes = [None] * len(models) if probes is None else probes
    stacks: dict[tuple, tuple] = {}
    for i, m in enumerate(models):
        if not m.channels:
            raise ValueError("steady state needs at least one collapse channel")
        live = [(name, c) for name, c in m.hamiltonian if c != 0.0]
        stack = stacks.setdefault((m.n_fock, tuple(name for name, _ in live), m.channels), ([], []))
        stack[0].append(i)
        stack[1].append([c for _, c in live])
    outcomes: list = [None] * len(models)
    for key, (where, points) in stacks.items():
        gmap = _terms_map(*key)
        x = gmap.coordinates(np.array(points).reshape(len(points), -1).T)
        stack_probes = [None if probes[i] is None else gmap.probe(probes[i]) for i in where]
        for i, outcome in zip(where, _steady(gmap, x, stack_probes)):
            outcomes[i] = outcome
    return outcomes


def steady_state(h: np.ndarray, collapse: list[CollapseOp]) -> np.ndarray:
    """Unique steady state of a model given as matrices, by the real
    block-tridiagonal solve of _steady on its one-term map (see
    _matrix_map), its error raised."""
    if not collapse:
        raise ValueError("steady state needs at least one collapse channel")
    gmap = _matrix_map(h, collapse)
    (rho,) = _steady(gmap, gmap.coordinates(np.ones((1, 1))), [None])
    if isinstance(rho, MultipleSteadyStatesError):
        raise rho
    return rho
