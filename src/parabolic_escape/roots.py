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
The open points are iterated as a packed working set of their index, x,
f(x) - y, target and tolerance, compressed two arrays at a time where a point
closes and written back only then.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError

#: residual every returned root must meet
FTOL_HARD = 1e-13
MAXITER = 200  # Newton steps a point may take


def solve_monotone(f, df, lo, hi, *, y=0.0):
    """Solve f(x) = y for increasing convex f on the bracket [lo, hi], elementwise.

    ``lo`` is a scalar, ``hi`` and ``y`` scalars or arrays (broadcast together);
    ``f`` and ``df`` must act elementwise on arrays, because after the first
    evaluation only the points still open are iterated.  Newton steps start
    at ``hi`` and are clamped at ``lo``, at most ``MAXITER`` a point.
    Requires f(lo) <= y <= f(hi) and f convex on [lo, hi].  Returns an array
    of the broadcast shape (or a scalar if ``hi`` and ``y`` were scalars).
    """
    lo = float(lo)
    hi_b, y_b = np.broadcast_arrays(np.asarray(hi, float), np.asarray(y, float))
    shape = hi_b.shape
    if np.any(hi_b < lo):
        raise ConvergenceError("invalid bracket: hi < lo")
    y_b = y_b.ravel()
    x = hi_b.flatten()
    fx = np.asarray(f(x), float) - y_b
    tol = 4.0 * np.finfo(float).eps * np.abs(y_b)
    at = np.nonzero(fx > tol)[0]  # the open points; a NaN residual closes and fails below
    # the packed working set of the open points, compressed two arrays at a time
    x_w, fx_w, y_w, tol = x[at], fx[at], y_b[at], tol[at]
    for _ in range(MAXITER):
        if at.size == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.maximum(x_w - fx_w / np.asarray(df(x_w), float), lo)
        falling = step < x_w  # a NaN step, or one that rounding no longer lowers, ends the point
        if not falling.all():
            x[at], fx[at] = x_w, fx_w
            at, step = at[falling], step[falling]
            fx_w, y_w = fx_w[falling], y_w[falling]
            tol = tol[falling]
            if at.size == 0:
                break
        x_w = step
        del step  # the compression below frees the old iterates
        np.subtract(np.asarray(f(x_w), float), y_w, out=fx_w)
        still = fx_w > tol
        if not still.all():
            x[at], fx[at] = x_w, fx_w
            at, x_w = at[still], x_w[still]
            fx_w, y_w = fx_w[still], y_w[still]
            tol = tol[still]
    else:  # the points still open after MAXITER steps
        x[at], fx[at] = x_w, fx_w

    worst = float(np.max(np.abs(fx), initial=0.0))
    if not worst <= FTOL_HARD:  # a NaN residual fails too
        raise ConvergenceError(
            f"branch inversion did not converge: max residual {worst:.3e} after {MAXITER} iterations"
        )
    return float(x[0]) if shape == () else x.reshape(shape)
