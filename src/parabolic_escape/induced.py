"""The open induced system: surviving branches of the jump transformation.

Inducing on the expanding region (a, 1] accelerates the parabolic map: the
jump map G applies the left branch until the orbit leaves [0, a] and then the
right branch once.  Its local inverses are the branch maps

    zeta_n = phi_0^(n-1) o phi_1 : (0, 1) -> (a_n, a_{n-1}),

and removing the Markov hole [0, a_N] from the target leaves exactly the
first N branches.  The branch weights |zeta_n'| carry the induced potential;
they are accumulated in log space along the inverse chain so deep branches of
smooth families cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import maps
from .exceptions import DomainError
from .maps import MapSpec, preimage_sequence


@dataclass(frozen=True, eq=False)
class InducedOpenSystem:
    """The first N branches of the jump map with their log weights.

    Immutable; evaluations are pure functions, safe under concurrent use.
    """

    map: MapSpec
    branch_count: int
    preimages: np.ndarray  # a_0 .. a_N

    def __post_init__(self):
        vals = np.asarray(self.preimages, float)
        vals.setflags(write=False)
        object.__setattr__(self, "preimages", vals)

    def branch_interval(self, n: int) -> tuple:
        """Closure of the image of branch n, [a_n, a_{n-1}]."""
        return float(self.preimages[n]), float(self.preimages[n - 1])


def build_induced(m: MapSpec, N: int) -> InducedOpenSystem:
    """Open induced system with surviving symbols 1..N (requires N >= 2)."""
    if N < 2:
        raise DomainError("Markov hole index must be >= 2")
    return InducedOpenSystem(m, N, preimage_sequence(m, N).values)


def zeta_and_log_weight(sys: InducedOpenSystem, n: int, x):
    """Evaluate branch n and log|zeta_n'| together (they share the chain).

    For the Farey map the branches are the closed-form Gauss branches
    1/(n + x); for piecewise-linear maps they are affine with slope p_n.  The
    smooth families compose the local inverses step by step, refreshing the
    root solve at every stage so the error stays linear in n.
    """
    if not 1 <= n <= sys.branch_count:
        raise DomainError(f"branch index {n} outside 1..{sys.branch_count}")
    m = sys.map
    x_a = np.asarray(x, float)
    if np.any(x_a < 0.0) or np.any(x_a > 1.0):
        raise DomainError("branch evaluation needs x in [0, 1]")
    scalar = np.asarray(x).ndim == 0

    if m.family == "farey":
        y = 1.0 / (n + x_a)
        logw = -2.0 * np.log(n + x_a)
    elif m.family == "pwl":
        w = m.weights
        p_n = float(np.asarray(w.mass(n), float))
        y = float(w.tail(n)) + p_n * x_a
        logw = np.full_like(np.asarray(x_a, float), np.log(p_n))
    else:
        y = maps.right_inverse(m, x_a)
        logw = -np.log(maps._right_derivative_abs(m, np.asarray(y, float)))
        for _ in range(n - 1):
            y = maps.left_inverse(m, y)
            logw = logw - np.log(maps._left_derivative(m, np.asarray(y, float)))
    y = np.asarray(y, float)
    logw = np.asarray(logw, float)
    if scalar:
        return float(y), float(logw)
    return y, logw


def forward_jump(sys: InducedOpenSystem, n: int, y):
    """G(y) for y in the n-th branch interval: n-1 left steps, then the right
    branch.  Used as the round-trip oracle |G(zeta_n(x)) - x|."""
    out = np.asarray(y, float)
    for _ in range(n - 1):
        out = np.asarray(maps._left_branch(sys.map, out), float)
    out = np.asarray(maps._right_branch(sys.map, out), float)
    return out if np.asarray(y).ndim else float(out)


def branch_weight_sums(sys: InducedOpenSystem, samples: int = 129) -> np.ndarray:
    """Cumulative sums over n of sup_x |zeta_n'(x)| on a sample grid.

    A finite-truncation proxy for the summability of the induced potential:
    the sequence is increasing in N by construction and must stay bounded.
    """
    xs = np.linspace(0.0, 1.0, samples)
    sups = []
    for n in range(1, sys.branch_count + 1):
        _, lw = zeta_and_log_weight(sys, n, xs)
        sups.append(float(np.exp(lw).max()))
    return np.cumsum(sups)
