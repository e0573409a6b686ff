"""Chebyshev collocation of the open induced operator.

Every surviving branch zeta_n maps [0, 1] into [a_N, 1], away from the
indifferent fixed point, so N_t = sum_n e^(n t) L_n acts on functions analytic
near [0, 1] and its collocation on Chebyshev points converges geometrically
in the number of nodes (Wormell, Numer. Math. 142, 2019).  On the nodes x_i,
branch n becomes |zeta_n'(x_i)| times the matrix that interpolates node
values and evaluates the interpolant at zeta_n(x_i) (barycentric formula).

The nodes are Chebyshev-Lobatto points, nested under doubling of the degree,
so one walk down the inverse-branch chain on the finest node set serves every
coarser one.  The leading pair of N_t, from a dense eigen solve that must find
it real, simple and strictly dominant, gives the branch masses and the
unit-eigenvalue equation log lambda(N_t) = 0 that :mod:`.escape` solves.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError, NormalizationError, ReducibleMatrixError
from .induced import InducedOpenSystem, branch_walk
from .spectral import mean_return_time

#: polynomial degrees tried in turn; each node set contains the previous one
DEGREES = (16, 32, 64)


def lobatto_nodes(degree: int) -> np.ndarray:
    """The degree + 1 Chebyshev-Lobatto points of [0, 1], from 1 down to 0."""
    return 0.5 * (1.0 + np.cos(np.pi * np.arange(degree + 1) / degree))


def interpolation_matrices(nodes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P[..., i, j]: the value at y[..., i] of the polynomial through the
    Lobatto ``nodes`` that is one at node j and zero at the others."""
    weights = (-1.0) ** np.arange(len(nodes))
    weights[[0, -1]] *= 0.5
    P = y[..., None] - nodes  # the one full-size array: each step below is in place
    hit = P == 0.0
    P[hit] = 1.0
    np.divide(weights, P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
    on_node = hit.any(axis=-1)
    P[on_node] = hit[on_node]
    return P


def branch_values(sys: InducedOpenSystem, degree: int):
    """(zeta_n(x_i), log|zeta_n'(x_i)|) as two (N, degree + 1) arrays, from
    one :func:`branch_walk` over the Lobatto nodes of ``degree``."""
    ys, logws = zip(*branch_walk(sys, lobatto_nodes(degree)))
    return np.array(ys), np.array(logws)


def branch_stack(values, degree: int) -> np.ndarray:
    """The (N, degree + 1, degree + 1) collocation pieces L_n on the nodes
    of ``degree``, read from :func:`branch_values` of a finer node set."""
    ys, logws = values
    stride = (ys.shape[1] - 1) // degree
    ys, logws = ys[:, ::stride], logws[:, ::stride]
    P = interpolation_matrices(lobatto_nodes(degree), ys)
    P *= np.exp(logws)[:, :, None]
    return P


def leading_pair(A: np.ndarray) -> tuple:
    """Leading eigenvalue with its right and left eigenvectors, dense.

    The leading eigenvalue must be real and positive (ConvergenceError
    otherwise, as when the eigen solve itself fails) and strictly larger in
    modulus than every other one (ReducibleMatrixError otherwise).  The
    right vector is scaled to its largest entry being one, the left vector
    to pair with it to one.
    """
    try:
        vals, right = np.linalg.eig(A)
        vals_t, left = np.linalg.eig(A.T)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigen solve failed: {exc}") from exc
    order = np.argsort(-np.abs(vals))
    lam = vals[order[0]]
    if lam.imag != 0.0 or not lam.real > 0.0:
        raise ConvergenceError(f"leading eigenvalue {lam!r} is not real and positive")
    if len(vals) > 1 and abs(vals[order[1]]) >= abs(lam) * (1.0 - 1e-9):
        raise ReducibleMatrixError(
            f"no strictly dominant eigenvalue: top moduli {abs(lam):.6e} and {abs(vals[order[1]]):.6e}"
        )
    lam = lam.real
    h = right[:, order[0]].real
    h = h / h[np.argmax(np.abs(h))]
    ell = left[:, np.argmin(np.abs(vals_t - lam))].real
    return lam, h, ell / (ell @ h)


def leading_masses(stack: np.ndarray, t: float) -> tuple:
    """Leading eigenvalue of N_t = sum_n e^(n t) L_n for the (N, n, n) stack
    of collocation pieces, its branch masses and its eigen residual.

    The weights are formed from t, never from z = e^t.  At the leading pair
    (lambda, h, l) the masses are rho_n = e^(n t) l.L_n h / (lambda l.h); they
    add up to one, and their mean is the derivative of log lambda in t.
    """
    weights = np.exp(np.arange(1, len(stack) + 1) * t)
    A = np.tensordot(weights, stack, axes=1)
    lam, h, ell = leading_pair(A)
    rho = weights * (np.tensordot(stack, h, axes=(2, 0)) @ ell) / lam  # l.h = 1
    total = rho.sum()
    if abs(total - 1.0) > 1e-9:
        raise NormalizationError(f"cylinder masses sum to {total!r}, expected 1")
    residual = max(
        float(np.max(np.abs(A @ h - lam * h)) / np.max(np.abs(h))),
        float(np.max(np.abs(ell @ A - lam * ell)) / np.max(np.abs(ell))),
    )
    return lam, rho / total, residual


def unit_equation(stack: np.ndarray, t: float) -> tuple:
    """(f(t), f'(t)) for f(t) = log lambda(N_t)."""
    lam, rho, _ = leading_masses(stack, t)
    return math.log(lam), mean_return_time(rho)
