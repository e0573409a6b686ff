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


def solve_monotone(f, df, lo, hi, *, y=0.0, maxiter=MAXITER):
    """Solve f(x) = y for increasing f on the bracket [lo, hi], elementwise.

    ``lo``, ``hi`` and ``y`` are scalars or arrays (broadcast together);
    ``f`` and ``df`` must act elementwise on arrays, because after the first
    evaluation only the points still open are iterated.  A point leaves once
    |f(x) - y| <= ``FTOL`` or its bracket is a few ulps wide.  Requires
    f(lo) <= y <= f(hi).  Returns an array of the broadcast shape (or a
    scalar if all three were scalars).
    """
    lo_b, hi_b, y_b = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float), np.asarray(y, float))
    shape = lo_b.shape
    if np.any(hi_b < lo_b):
        raise ConvergenceError("invalid bracket: hi < lo")

    x = 0.5 * (lo_b + hi_b).ravel()
    fx = np.asarray(f(x), float) - y_b.ravel()
    at = np.nonzero(~(np.abs(fx) <= FTOL))[0]  # the open points; a NaN residual is open
    lo_a, hi_a, y_a = lo_b.ravel()[at], hi_b.ravel()[at], y_b.ravel()[at]
    x_a, fx_a = x[at], fx[at]

    for _ in range(maxiter):
        if at.size == 0:
            break
        # keep the sign change inside [lo, hi]
        np.copyto(lo_a, x_a, where=fx_a < 0.0)
        np.copyto(hi_a, x_a, where=fx_a > 0.0)

        d = np.asarray(df(x_a), float)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x_a - fx_a / d
        # a Newton step outside the open bracket (NaN and inf included) bisects
        x_a = np.where((lo_a < cand) & (cand < hi_a), cand, 0.5 * (lo_a + hi_a))
        fx_a = np.asarray(f(x_a), float) - y_a
        x[at], fx[at] = x_a, fx_a
        width = hi_a - lo_a
        done = (np.abs(fx_a) <= FTOL) | (width <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x_a)))
        if done.any():
            keep = ~done
            at, lo_a, hi_a, y_a, x_a, fx_a = at[keep], lo_a[keep], hi_a[keep], y_a[keep], x_a[keep], fx_a[keep]

    worst = float(np.max(np.abs(fx)))
    if not worst <= FTOL_HARD:  # a NaN residual fails too
        raise ConvergenceError(
            f"branch inversion did not converge: max residual {worst:.3e} after {maxiter} iterations"
        )
    return float(x[0]) if shape == () else x.reshape(shape)
