"""Bracketed root finding for monotone branch inversions.

All branch maps handled here are strictly monotone on a known bracket, so a
bisection-safeguarded Newton iteration is both robust and fast: Newton steps
are accepted only while they stay inside the current sign-change bracket,
otherwise the step falls back to the midpoint.  Residuals are measured in
function space (|f(x)|), which is what the inversion contracts promise.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError

#: residual target for branch inversion
FTOL = 1e-14
#: residual that must be met even when the bracket collapses to rounding width
FTOL_HARD = 1e-13
MAXITER = 200


def solve_monotone(f, df, lo, hi, *, y=0.0, ftol=FTOL, maxiter=MAXITER):
    """Solve f(x) = y for increasing f on the bracket [lo, hi], elementwise.

    ``lo``, ``hi`` and ``y`` are scalars or arrays (broadcast together);
    ``f`` and ``df`` must act elementwise on arrays, because once fewer than a
    quarter of the points are still open only those are iterated (the
    arithmetic per point is the same either way).  Requires
    f(lo) <= y <= f(hi).  Returns an array of the broadcast shape (or a
    scalar if all three were scalars).
    """
    lo_b, hi_b, y_b = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float), np.asarray(y, float))
    shape = lo_b.shape
    lo_a = lo_b.flatten()
    hi_a = hi_b.flatten()
    y_a = y_b.ravel()
    if np.any(hi_a < lo_a):
        raise ConvergenceError("invalid bracket: hi < lo")

    x = 0.5 * (lo_a + hi_a)
    fx = np.asarray(f(x), float) - y_a
    done = np.abs(fx) <= ftol
    at = None  # positions of the open points, once they are iterated alone

    for _ in range(maxiter):
        if done.all():
            break
        if at is None and 4 * np.count_nonzero(~done) < done.size:
            # the points still open are iterated alone from here on
            at = np.nonzero(~done)[0]
            x_all, fx_all = x, fx
            x, fx, lo_a, hi_a, y_a, done = x[at], fx[at], lo_a[at], hi_a[at], y_a[at], done[at]
        # keep the sign change inside [lo, hi]
        neg = (fx < 0.0) & ~done
        pos = (fx > 0.0) & ~done
        lo_a[neg] = x[neg]
        hi_a[pos] = x[pos]

        d = np.asarray(df(x), float)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / d
        cand = x - step
        bad = ~np.isfinite(cand) | (cand <= lo_a) | (cand >= hi_a)
        mid = 0.5 * (lo_a + hi_a)
        cand = np.where(bad, mid, cand)

        x = np.where(done, x, cand)
        fx = np.where(done, fx, np.asarray(f(x), float) - y_a)
        width = hi_a - lo_a
        done = (np.abs(fx) <= ftol) | (width <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x)))

    if at is not None:
        x_all[at], fx_all[at] = x, fx
        x, fx = x_all, fx_all
    worst = float(np.max(np.abs(fx)))
    if not worst <= FTOL_HARD:  # a NaN residual fails too
        raise ConvergenceError(
            f"branch inversion did not converge: max residual {worst:.3e} after {maxiter} iterations"
        )
    return float(x[0]) if shape == () else x.reshape(shape)

