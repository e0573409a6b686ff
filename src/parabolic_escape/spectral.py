"""Leading spectral data of nonnegative transfer matrices.

The Perron root of these matrices is simple and dominant on a recurrent core,
so plain power iteration with the two-sided Collatz-Wielandt ratio bound
converges without any general eigensolver: iteration stops once the
componentwise ratios (A v)_i / v_i agree to the relative tolerance EIGEN_TOL.

Discretized open operators are never irreducible as raw matrices: cells
inside the hole have empty columns, and cells in the gaps of the survivor set
are transient (some carry small self-loops around periodic points of the
branch maps).  ``leading_eigen`` therefore prunes empty rows/columns, splits
the support graph into strongly connected components, solves on the dominant
component, and extends both eigenvectors to the transient cells by damped
application of the operator; the returned vectors are exact eigenvectors of
the full matrix and the dominant class must be unique.

The leading pair feeds three derived quantities: per-branch cylinder masses
of the normalized product h * nu, the accumulated hole-avoiding pullback
function of the eigenfunction, and the mass consistency check between its
integral and the mean return time.  The prune is one peel that reads every
edge once, where repeated sweeps read them all once per round, and the mass
check pulls back only the nodes of the cells where nu is nonzero (5.6 % of
the 262,144 cells for lsv s = 2, N = 3), not every node of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import maps
from .exceptions import ConvergenceError, DomainError, NormalizationError, ReducibleMatrixError
from .induced import InducedOpenSystem
from .operators import Grid, TransferMatrix, induced_branch_matrices, interval_cell_overlaps

#: relative ratio gap that ends power iteration, and |log lambda| that ends a unit-eigenvalue solve
EIGEN_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """Leading eigenvalue with right/left eigenvectors on a grid.

    ``eigenfunction`` holds per-cell values (the density-like right vector),
    ``eigenmeasure`` per-cell masses summing to one.  The joint normalization
    sum(eigenmeasure * eigenfunction) = 1 makes their product a probability.
    ``pieces`` are those the solved matrix recorded (see
    :class:`TransferMatrix`); the matrix itself is not kept.
    """

    eigenvalue: float
    eigenfunction: np.ndarray
    eigenmeasure: np.ndarray
    grid: Grid
    stats: dict = field(default_factory=dict)
    pieces: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("eigenfunction", "eigenmeasure"):
            arr = np.asarray(getattr(self, name), float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def residual(self) -> float:
        return max(self.stats.get("residual_right", 0.0), self.stats.get("residual_left", 0.0))


def _prune_support(A: sp.csr_matrix, AT: sp.csr_matrix) -> np.ndarray:
    """Indices of the largest set in which every index has a kept source and
    a kept target under the nonnegative ``A`` (``AT`` its CSR transpose,
    neither storing zeros).

    Dropping an index with a zero row (or column) leaves the nonzero spectrum
    unchanged, because the matrix is block triangular over the dropped set.
    The set is peeled from the in- and out-degrees: each round drops the
    indices left without a source or a target and takes their edges off the
    degrees of their neighbours, so the whole peel reads every edge once.
    """
    n = A.shape[0]
    out_deg = np.diff(A.indptr)
    in_deg = np.diff(AT.indptr)
    alive = np.ones(n, bool)
    dying = np.nonzero((out_deg == 0) | (in_deg == 0))[0]
    while dying.size:
        alive[dying] = False
        for M, deg in ((AT, out_deg), (A, in_deg)):
            first = M.indptr[dying]
            count = M.indptr[dying + 1] - first
            # the dying rows' entries from indptr: slicing the matrix costs more on small grids
            entries = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
            deg -= np.bincount(M.indices[entries], minlength=n)
        dying = np.nonzero(alive & ((out_deg == 0) | (in_deg == 0)))[0]
    if not alive.any():
        raise ReducibleMatrixError("matrix has no recurrent support")
    return np.nonzero(alive)[0]


def _power_pair(B: sp.csr_matrix, BT: sp.csr_matrix, tol: float, maxiter: int):
    """Two-sided power iteration on an irreducible nonnegative block ``B``,
    with ``BT`` its CSR transpose, from the uniform vectors."""
    m = B.shape[0]
    v = np.full(m, 1.0 / m)
    u = np.full(m, 1.0 / m)
    lam = 0.0
    gap = np.inf
    for iterations in range(1, maxiter + 1):
        Bv = B @ v
        BTu = BT @ u
        sv, su = Bv.sum(), BTu.sum()
        if sv <= 0 or su <= 0:
            raise ReducibleMatrixError("iteration left the positive cone")
        rv = Bv / v
        ru = BTu / u
        rv_max, rv_min = rv.max(), rv.min()
        lam = 0.5 * (rv_max + rv_min)
        gap = max(rv_max - rv_min, ru.max() - ru.min())
        v = Bv / sv
        u = BTu / su
        if gap <= tol * lam:
            return lam, v, u, iterations
    raise ConvergenceError(
        f"power iteration did not converge in {maxiter} iterations (ratio gap {gap:.3e})"
    )


def _component_radius(block: sp.csr_matrix) -> float:
    """Perron root of one strongly connected block.

    Small blocks go through a dense solve because they may be periodic (cells
    around a periodic point of the branch maps), where ratio-based power
    iteration cannot settle.
    """
    if block.shape[0] <= 256:
        return float(np.max(np.abs(np.linalg.eigvals(block.toarray()))))
    lam, _, _, _ = _power_pair(block, block.T.tocsr(), 1e-8, 20_000)
    return lam


def _extend_to_full(A, AT, lam, core_idx, h_core, nu_core, maxiter=2000):
    """Fill non-core entries so (h, nu) solve the full eigen equations.

    Off the dominant class the equations h = (A h)/lam and nu = (A^T nu)/lam
    are contractions (every other class has spectral radius strictly below
    lam), so fixed-point iteration from zero with the core pinned converges
    geometrically.
    """
    h = np.zeros(A.shape[0])
    nu = np.zeros(A.shape[0])
    h[core_idx] = h_core
    nu[core_idx] = nu_core
    for _ in range(maxiter):
        h_new = (A @ h) / lam
        nu_new = (AT @ nu) / lam
        h_new[core_idx] = h_core
        nu_new[core_idx] = nu_core
        delta = max(
            np.max(np.abs(h_new - h)) / max(np.max(np.abs(h_core)), 1e-300),
            np.max(np.abs(nu_new - nu)) / max(np.max(np.abs(nu_core)), 1e-300),
        )
        h, nu = h_new, nu_new
        if delta <= 1e-16:
            return h, nu
    raise ConvergenceError("eigenvector extension to transient cells did not settle")


def leading_eigen(tm: TransferMatrix, maxiter: int = 100_000) -> SpectralTriple:
    """Perron root and both eigenvectors by a cold solve: two-sided power
    iteration from the uniform vectors on the dominant class.

    The matrix must be nonnegative with a unique dominant strongly connected
    class on its support (ReducibleMatrixError otherwise).  Raises
    ConvergenceError when the ratio gap fails to reach ``EIGEN_TOL`` within
    ``maxiter`` iterations.  Every call prunes the support and splits it into
    classes; stored zeros are dropped first, so they change nothing.
    """
    A = tm.matrix.tocsr()
    if A.nnz == 0:
        raise ReducibleMatrixError("zero matrix")
    smallest = A.data.min()
    if smallest < 0:
        raise DomainError("transfer matrices must be nonnegative")
    if smallest == 0:
        A = A.copy()
        A.eliminate_zeros()

    AT = A.T.tocsr()
    keep = _prune_support(A, AT)
    B = A if len(keep) == A.shape[0] else A[np.ix_(keep, keep)].tocsr()
    ncomp, labels = connected_components(B, directed=True, connection="strong")
    if ncomp == 1:
        core, core_block = np.arange(len(keep)), B
    else:
        # one-cell classes take their radius straight from the diagonal
        sizes = np.bincount(labels, minlength=ncomp)
        radii = np.empty(ncomp)
        single = sizes[labels] == 1
        radii[labels[single]] = B.diagonal()[single]
        blocks = {}
        for c in np.nonzero(sizes > 1)[0]:
            idx = np.nonzero(labels == c)[0]
            blocks[c] = B[np.ix_(idx, idx)].tocsr()
            radii[c] = _component_radius(blocks[c])
        order = np.argsort(radii)
        best, second = order[-1], radii[order[-2]]
        if second >= radii[best] * (1.0 - 1e-9):
            raise ReducibleMatrixError(
                f"no unique dominant class: top spectral radii {radii[best]:.6e} and {second:.6e}"
            )
        core = np.nonzero(labels == best)[0]
        core_block = blocks.get(best, sp.csr_matrix([[radii[best]]]))
    core_idx = keep[core]
    n_transient = len(keep) - len(core_idx)

    # transposing a pruned block costs less than slicing it from AT
    core_T = AT if core_block is A else core_block.T.tocsr()
    lam, v, u, iterations = _power_pair(core_block, core_T, EIGEN_TOL, maxiter)
    h, nu = _extend_to_full(A, AT, lam, core_idx, v, u)

    nu_total = nu.sum()
    if nu_total <= 0:
        raise NormalizationError("eigenmeasure has no mass")
    nu = nu / nu_total
    pairing = float(nu @ h)
    if pairing <= 0:
        raise NormalizationError("degenerate pairing of eigenvectors")
    h = h / pairing

    res_r = float(np.max(np.abs(A @ h - lam * h)) / np.max(np.abs(h)))
    res_l = float(np.max(np.abs(AT @ nu - lam * nu)) / np.max(np.abs(nu)))
    stats = {
        "iterations": iterations,
        "residual_right": res_r,
        "residual_left": res_l,
        "pruned_cells": int(A.shape[0] - len(keep)),
        "transient_cells": int(n_transient),
    }
    return SpectralTriple(float(lam), h, nu, tm.grid, stats=stats, pieces=tm.pieces)


# ---------------------------------------------------------------------------
# cylinder masses and the mass identity
# ---------------------------------------------------------------------------

def cylinder_masses(sys: InducedOpenSystem, triple: SpectralTriple) -> np.ndarray:
    """Branch masses of the normalized eigen-pair product.

    Branch k receives (1/lambda) * integral of |zeta_k'(x)| h(zeta_k(x))
    d nu(x), evaluated through the same exact per-branch kernels used in the
    assembly; for the leading pair of N_1 the masses then add up to the
    pairing sum(nu h) = 1 to rounding.  Computed through the eigen-pair
    rather than by cell-indicator sums so cylinder boundaries cannot straddle
    cells.  Their mean k is the derivative of log lambda(e^t) at t = 0.
    The pieces are the triple's; a triple without pieces (exact pwl, Ulam or
    hand-built matrices) has them built from ``sys``.
    """
    pieces = triple.pieces or induced_branch_matrices(sys, triple.grid)
    lam = triple.eigenvalue
    nu = triple.eigenmeasure
    h = triple.eigenfunction
    masses = np.array([float(nu @ (piece @ h)) / lam for piece in pieces])
    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        raise NormalizationError(f"cylinder masses sum to {total!r}, expected 1")
    return masses / total


def invariant_function(sys: InducedOpenSystem, triple: SpectralTriple) -> np.ndarray:
    """Accumulated hole-avoiding pullbacks of the eigenfunction.

    Returns the grid function sum_{k=0}^{N-1} (Q0^k h) where Q0 is the
    left-branch pullback annihilating the hole.  The sum is finite because N
    left-branch pullbacks push all support into the hole.  Each power is a
    single monotone change of variables, so its cell averages are exact
    interval overlaps of the k-fold node images, with the survivor indicator
    realized by restricting source cells to (a_{N-k}, 1].
    """
    return _pullback_sum(sys, triple, np.ones(triple.grid.n_cells, bool))


def _pullback_sum(sys: InducedOpenSystem, triple: SpectralTriple, fill: np.ndarray) -> np.ndarray:
    """:func:`invariant_function` on the cells where ``fill`` is True, 0 on
    the others; only the nodes of those cells are pulled back."""
    grid = triple.grid
    nodes = grid.nodes
    widths = grid.widths
    h = triple.eigenfunction
    hole_edge = float(sys.preimages[sys.branch_count])

    e = np.where(fill, h, 0.0)
    live = np.append(fill, False) | np.insert(fill, 0, False)
    # the nodes of the filled cells, each run followed by a NaN node: no
    # interval ends at a NaN, so between kept[j] and kept[j + 1] lies cell kept[j]
    kept = np.nonzero(live | np.insert(live[:-1], 0, False))[0]
    live = live[kept]
    u = np.where(live, nodes[kept], np.nan)
    for k in range(1, sys.branch_count):
        u[live] = maps.left_inverse(sys.map, u[live])
        # x survives k pullbacks iff its k-fold image stays above the hole
        # edge, so clipping the image interval realizes the indicator exactly
        cells, which, overlap = interval_cell_overlaps(nodes, np.maximum(u, hole_edge))
        e = e + np.bincount(kept[which], overlap * h[cells], grid.n_cells) / widths
    return np.where(fill, e, 0.0)


class MassCheck(NamedTuple):
    mass_from_function: float
    mass_from_cylinders: float
    discrepancy: float


def invariant_mass(sys: InducedOpenSystem, triple: SpectralTriple) -> MassCheck:
    """Total mass of the accumulated invariant function versus the mean
    return time of the cylinder masses; their gap is a pure discretization
    diagnostic (the two agree in exact arithmetic).  The masses use the
    triple's pieces (see :func:`cylinder_masses`) and build none again.
    The eigenmeasure reads the invariant function only on its support, so
    only the cells there are pulled back."""
    nu = triple.eigenmeasure
    mass_a = float(nu @ _pullback_sum(sys, triple, nu != 0))
    mass_b = mean_return_time(cylinder_masses(sys, triple))
    return MassCheck(mass_a, mass_b, abs(mass_a - mass_b))


def mean_return_time(masses: np.ndarray) -> float:
    """Expected return time sum_k k * mass_k of a branch-mass vector."""
    masses = np.asarray(masses, float)
    ks = np.arange(1, len(masses) + 1)
    return float(ks @ masses)
