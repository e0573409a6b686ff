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

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .maps import MapSpec, _check_unit_interval, preimage_sequence


@dataclass(frozen=True, eq=False)
class InducedOpenSystem:
    """The first N branches of the jump map with their log weights.

    Immutable; evaluations are pure functions, safe under concurrent use.
    ``preimages`` computes a_0 .. a_N from the map on each read.
    """

    map: MapSpec
    branch_count: int

    @property
    def preimages(self) -> np.ndarray:
        return preimage_sequence(self.map, self.branch_count).values

    def _check_branch(self, n: int):
        if not 1 <= n <= self.branch_count:
            raise DomainError(f"branch index {n} outside 1..{self.branch_count}")


def build_induced(m: MapSpec, N: int) -> InducedOpenSystem:
    """Open induced system with surviving symbols 1..N (requires N >= 2); the
    pwl chain is read here, so a short weight list fails here."""
    if N < 2:
        raise DomainError("Markov hole index must be >= 2")
    if m.family == "pwl":
        preimage_sequence(m, N)
    return InducedOpenSystem(m, N)


def branch_walk(sys: InducedOpenSystem, x):
    """Yield (zeta_n(x), log|zeta_n'(x)|) for n = 1, ..., N in one walk.

    x is checked here, once (DomainError outside [0, 1], NaN included);
    then the map's family object walks its own inverse branches: the
    closed-form Gauss branches 1/(n + x) for the Farey map, affine branches
    of slope p_n for piecewise-linear maps, and for the smooth families one
    left-inverse root solve per step down to branch k0, accumulating the log
    weight along the way, then every deeper branch from the Fatou coordinate
    of the parabolic point in one vector evaluation.  A smooth walk reads
    a_0..a_k0 from the family and keeps a_n past k0 in one local column, so
    zeta_n(1) = a_{n-1} and zeta_n(0) = a_n hold bit for bit.
    """
    x_a = np.asarray(x, float)
    _check_unit_interval(x_a)
    yield from sys.map.branches.walk(x_a, sys.branch_count)


def zeta_and_log_weight(sys: InducedOpenSystem, n: int, x):
    """Branch n and log|zeta_n'| together: the n-th step of :func:`branch_walk`."""
    sys._check_branch(n)
    y, logw = next(itertools.islice(branch_walk(sys, x), n - 1, None))
    y = np.asarray(y, float)
    logw = np.asarray(logw, float)
    if np.asarray(x).ndim == 0:
        return float(y), float(logw)
    return y, logw


def forward_jump(sys: InducedOpenSystem, n: int, y):
    """G(y) for y in the n-th branch interval (DomainError off [0, 1]): n-1
    left steps, then the right branch.  The round-trip oracle |G(zeta_n(x)) - x|."""
    sys._check_branch(n)
    f = sys.map.branches
    out = np.asarray(y, float)
    _check_unit_interval(out)
    for _ in range(n - 1):
        out = np.asarray(f.left(out), float)
    out = np.asarray(f.right(out), float)
    return out if np.asarray(y).ndim else float(out)


def branch_weight_sums(sys: InducedOpenSystem) -> np.ndarray:
    """Cumulative sums over n of sup_x |zeta_n'(x)| on 129 equispaced points.

    A finite-truncation proxy for the summability of the induced potential:
    the sequence is increasing in N by construction and must stay bounded.
    """
    xs = np.linspace(0.0, 1.0, 129)
    return np.cumsum([float(np.exp(lw).max()) for _, lw in branch_walk(sys, xs)])
