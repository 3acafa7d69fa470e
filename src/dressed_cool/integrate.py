"""Adaptive embedded Runge-Kutta integration for real or complex ODE systems.

Dormand-Prince 5(4) pair with standard step-size control.  Steps are clamped
so every requested output time is hit exactly (no dense-output interpolation),
an optional hook runs after each accepted step, for example to project the
state back onto a constraint manifold, and another reduces the state at each
output time, so a caller that needs only a few numbers per output never holds
the states.

The state and the seven stages share one (8, n) work array, y in row 0 and
k_0..k_6 in rows 1-7, and each attempt scales the tableau by its step h once,
into a (7, 8) weight table whose column 0 is 1.  A stage argument
y + h sum_j a_ij k_j is then one matrix-vector product of a weight row with
the array's first rows, and the error estimate one of h E with the stages.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

# Butcher tableau, Dormand & Prince (1980), as a strictly lower-triangular
# 7 x 7 array: stage i's argument is y + h (_A[i] . k).  Its last row is the
# order-5 propagation weights B5; the B5 - B4 difference weights estimate the
# local error of the order-4 solution.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _A[6] - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Relative and absolute tolerance of the error norm (see _error_norm).
_RTOL = 1e-8
_ATOL = 1e-10
# Step budget of one call; exceeding it raises RuntimeError.
_MAX_STEPS = 20_000_000


class StiffnessError(RuntimeError):
    """Step size underflowed; the loudest symptom of a stiff or broken system."""

    def __init__(self, time: float):
        super().__init__(f"step size underflow at t = {time:.6g}; system too stiff for this tolerance")
        self.time = time


def _error_norm(err, y0, y1, rtol, atol, scale, ratio) -> float:
    """RMS of err / (atol + rtol max(|y0|, |y1|)), computed in the work
    buffers scale (real) and ratio (err's dtype) of err's length by the
    ufuncs of the allocating formula, in its order, so the norm is that
    formula's bit for bit."""
    # ratio.real is a real buffer: the array itself, or a complex one's real part
    np.maximum(np.abs(y0, out=scale), np.abs(y1, out=ratio.real), out=scale)
    scale *= rtol
    scale += atol
    np.divide(err, scale, out=ratio)
    # |x|^2 is x^2 bit for bit for a real x, and the mean is np.mean's sum / n
    np.square(ratio if ratio.dtype.kind == "f" else np.abs(ratio, out=scale), out=scale)
    return float(np.sqrt(np.add.reduce(scale) / scale.size))


def _initial_step(y0, f0, span):
    scale = _ATOL + _RTOL * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / scale) ** 2))
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6 * span
    return min(h0, 0.1 * span)


def checked_grid(t_grid: Sequence[float]) -> np.ndarray:
    """t_grid as a float array, which must be finite, strictly increasing
    and hold at least an initial and one output time (ValueError)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid needs at least an initial and one output time")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    return t_grid


def integrate_adaptive(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_grid: Sequence[float],
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
    reduce: Callable[[np.ndarray], Any] = np.copy,
) -> list:
    """Integrate y' = f(t, y) and return reduce(y) at each time in t_grid.

    t_grid must be finite and strictly increasing; t_grid[0] is the initial
    time.  reduce is called once per grid time, in order, starting with y0;
    by default it copies, so the list holds the solution at each time.  The
    array it is passed is the integrator's working buffer, which the next
    step overwrites: a reduce that keeps it must copy it.  A real y0 is
    integrated in real arithmetic and a complex one in complex arithmetic;
    an f that returns complex values for a real y0 raises TypeError rather
    than lose their imaginary part.  y and the stages k_0..k_6 are the rows
    of one preallocated (8, n) array, and each attempt writes h A into the
    last seven columns of a (7, 8) weight table whose first column is 1, and
    h E into a weight row: every stage argument y + h sum_j a_ij k_j and the
    error estimate is then one matrix-vector product, written into a
    preallocated buffer; the error norm works in two more, so a step
    allocates no work array.
    """
    t_grid = checked_grid(t_grid)
    dtype = complex if np.iscomplexobj(y0) else float
    t = float(t_grid[0])
    span = float(t_grid[-1] - t_grid[0])

    yk = np.empty((8, np.size(y0)), dtype=dtype)  # y, then the stages k_0..k_6
    y, k = yk[0], yk[1:]
    y[...] = y0
    out = [reduce(y)]

    # weights of y (column 0) and of h A (columns 1-7) per stage, and h E
    w, he = np.zeros((7, 8), dtype=dtype), np.empty(7, dtype=dtype)
    w[:, 0] = 1.0
    y_new, arg, err_vec = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    scale, ratio = np.empty(y.size), np.empty_like(y)  # _error_norm's buffers
    # stage i's weight row, the rows it weighs (y and the stages before i),
    # its output row and its time fraction, as views and floats made once;
    # the last stage's argument is the order-5 update (tableau row 7 equals
    # the propagation weights B5), so it goes into y_new
    stages = [
        (w[i, :i + 1], yk[:i + 1], k[i], float(_C[i]), y_new if i == 6 else arg)
        for i in range(1, 7)
    ]
    # casting="same_kind" raises TypeError, naming both dtypes, where a
    # plain assignment would drop the imaginary part of a complex f
    np.copyto(k[0], f(t, y), casting="same_kind")
    h = _initial_step(y, k[0], span)

    steps = 0
    for target in t_grid[1:]:
        while t < target - 1e-14 * max(1.0, abs(target)):
            steps += 1
            if steps > _MAX_STEPS:
                raise RuntimeError(f"exceeded {_MAX_STEPS} integration steps")
            clamped = h > target - t
            h_try = target - t if clamped else h
            if h_try < 1e-14 * max(abs(t), 1.0):
                raise StiffnessError(t)

            np.multiply(_A, h_try, out=w[:, 1:])
            np.multiply(_E, h_try, out=he)
            for row, before, ki, c, yi in stages:
                np.dot(row, before, out=yi)
                np.copyto(ki, f(t + c * h_try, yi), casting="same_kind")
            np.dot(he, k, out=err_vec)

            err = _error_norm(err_vec, y, y_new, _RTOL, _ATOL, scale, ratio)
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            )
            if err <= 1.0:
                if not clamped:
                    h = h_try * factor
                t = t + h_try
                y[...] = y_new
                if post_step is not None:
                    np.copyto(y, post_step(y), casting="same_kind")
                np.copyto(k[0], f(t, y), casting="same_kind")
            else:
                h = h_try * min(1.0, factor)
        out.append(reduce(y))
    return out
