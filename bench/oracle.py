"""Independent steady-state reference for checking sweep outputs.

The reference takes the Hamiltonian and collapse operators from
``dressed_cool.model`` and nothing else: it assembles the dense column-stacking
Liouvillian with ``numpy.kron``, pins the trace through the last diagonal row
(the package pins it through the first) and solves with ``numpy.linalg.solve``.
Observables are traced against the full composite state rather than a reduced
qubit state.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from dressed_cool import config, model
from dressed_cool.operators import HilbertSpace

# Largest |sx|, |sy| or |sz| difference accepted between a sweep row and the
# reference.  The CSV keeps 9 significant digits; both solvers agree to ~1e-12.
TOLERANCE = 1e-6


def point_params(cfg: dict, p_d_db: float, delta_q: float) -> model.SystemParams:
    """Operating point of one sweep cell: drive power in dB re one photon,
    bare qubit detuning in rad/us, and the config's fixed parameters."""
    base = config.to_system_params(config.Config(**cfg))
    n_bar = 10.0 ** (p_d_db / 10.0)
    p = replace(
        base,
        eps_d=model.drive_for_photons(n_bar, base.delta_c, base.kappa),
        delta_q_prime=delta_q + 2.0 * base.chi * n_bar,
    )
    if cfg.get("n_fock") is None:
        p = p.with_n_fock(model.choose_fock_cutoff(p, frame="displaced"))
    return p


def dense_liouvillian(h: np.ndarray, collapse: list[np.ndarray]) -> np.ndarray:
    """vec(A rho B) = (B^T kron A) vec(rho), column stacking."""
    eye = np.eye(h.shape[0])
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for l in collapse:
        ldl = l.conj().T @ l
        liou += np.kron(l.conj(), l) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)
    return liou


def steady_state(p: model.SystemParams) -> np.ndarray:
    h = model.build_hamiltonian_displaced(p)
    ls = [c.operator for c in model.collapse_ops(p, frame="displaced")]
    d = h.shape[0]
    system = dense_liouvillian(h, ls)
    last = d * d - 1
    system[last, :] = 0.0
    system[last, :: d + 1] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[last] = 1.0
    return np.linalg.solve(system, rhs).reshape((d, d), order="F")


def bloch(p: model.SystemParams) -> tuple[float, float, float]:
    """Reference (sx, sy, sz) of the steady state at p."""
    rho = steady_state(p)
    hs = HilbertSpace(p.n_fock)
    return tuple(float(np.trace(op @ rho).real) for op in (hs.sx, hs.sy, hs.sz))


def deviation(p: model.SystemParams, observed: tuple[float, float, float]) -> float:
    """Largest |observed - reference| over sx, sy, sz; inf for non-finite rows."""
    if not all(math.isfinite(v) for v in observed):
        return math.inf
    return max(abs(o - r) for o, r in zip(observed, bloch(p)))
