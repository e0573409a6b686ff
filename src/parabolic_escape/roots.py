"""Newton root finding for the monotone branch inversions.

Every branch inverted here is increasing and convex on its bracket, so
Newton's method started at the upper end falls monotonically onto the root:
each iterate stays at or above it, no bisection safeguard is needed, and a
root at the bracket end costs one evaluation.  A point stops on the relative
residual f(x) - y <= 4 eps |y|, which keeps full relative precision for the
small targets near the neutral fixed point, or once rounding stops its
iterate from falling.  Every returned root must then meet the absolute
residual ``FTOL_HARD`` that the inversion contracts promise, so an f that is
not convex, and overshoots, fails loudly instead of returning a wrong root.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError

#: residual every returned root must meet
FTOL_HARD = 1e-13
MAXITER = 200  # Newton steps a point may take


def solve_monotone(f, df, lo, hi, *, y=0.0):
    """Solve f(x) = y for increasing convex f on the bracket [lo, hi], elementwise.

    ``lo``, ``hi`` and ``y`` are scalars or arrays (broadcast together);
    ``f`` and ``df`` must act elementwise on arrays, because after the first
    evaluation only the points still open are iterated.  Newton steps start
    at ``hi`` and are clamped at ``lo``, at most ``MAXITER`` a point.
    Requires f(lo) <= y <= f(hi) and f convex on [lo, hi].  Returns an array
    of the broadcast shape (or a scalar if all three were scalars).
    """
    lo_b, hi_b, y_b = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float), np.asarray(y, float))
    shape = lo_b.shape
    if np.any(hi_b < lo_b):
        raise ConvergenceError("invalid bracket: hi < lo")
    lo_b, y_b = lo_b.ravel(), y_b.ravel()
    tol = 4.0 * np.finfo(float).eps * np.abs(y_b)

    x = hi_b.ravel().copy()
    fx = np.asarray(f(x), float) - y_b
    at = np.nonzero(fx > tol)[0]  # the open points; a NaN residual closes and fails below
    for _ in range(MAXITER):
        if at.size == 0:
            break
        x_a = x[at]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.maximum(x_a - fx[at] / np.asarray(df(x_a), float), lo_b[at])
        falling = step < x_a  # a NaN step, or one that rounding no longer lowers, ends the point
        at = at[falling]
        if at.size == 0:
            break
        x[at] = step[falling]
        fx[at] = np.asarray(f(x[at]), float) - y_b[at]
        at = at[fx[at] > tol[at]]

    worst = float(np.max(np.abs(fx)))
    if not worst <= FTOL_HARD:  # a NaN residual fails too
        raise ConvergenceError(
            f"branch inversion did not converge: max residual {worst:.3e} after {MAXITER} iterations"
        )
    return float(x[0]) if shape == () else x.reshape(shape)
