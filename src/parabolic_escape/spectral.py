"""Leading spectral data of nonnegative transfer matrices.

The Perron root of these matrices is simple and dominant on a recurrent core,
so plain power iteration with the two-sided Collatz-Wielandt ratio bound
converges without any general eigensolver: iteration stops once the
componentwise ratios (A v)_i / v_i agree to the requested relative tolerance.

Discretized open operators are never irreducible as raw matrices: cells
inside the hole have empty columns, and cells in the gaps of the survivor set
are transient (some carry small self-loops around periodic points of the
branch maps).  ``leading_eigen`` therefore prunes empty rows/columns, splits
the support graph into strongly connected components, solves on the dominant
component, and extends both eigenvectors to the transient cells by damped
application of the operator; the returned vectors are exact eigenvectors of
the full matrix and the dominant class must be unique.  The pruning and the
class split depend only on the sparsity pattern, so a
:class:`SupportStructure` computed once serves every matrix of that pattern;
the class radii and the dominance check are still evaluated per matrix, and
a previous eigenpair of a nearby matrix can start the iteration.

The leading pair feeds three derived quantities: per-branch cylinder masses
of the normalized product h * nu, the accumulated hole-avoiding pullback
function of the eigenfunction, and the mass consistency check between its
integral and the mean return time.
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


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """Leading eigenvalue with right/left eigenvectors on a grid.

    ``eigenfunction`` holds per-cell values (the density-like right vector),
    ``eigenmeasure`` per-cell masses summing to one.  The joint normalization
    sum(eigenmeasure * eigenfunction) = 1 makes their product a probability.
    """

    eigenvalue: float
    eigenfunction: np.ndarray
    eigenmeasure: np.ndarray
    grid: Grid
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("eigenfunction", "eigenmeasure"):
            arr = np.asarray(getattr(self, name), float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def residual(self) -> float:
        return max(self.stats.get("residual_right", 0.0), self.stats.get("residual_left", 0.0))

    def to_json_dict(self) -> dict:
        """JSON-serializable export: eigenvalue, vectors, grid and stats."""
        return {
            "lambda": self.eigenvalue,
            "eigenfunction": self.eigenfunction.tolist(),
            "eigenmeasure": self.eigenmeasure.tolist(),
            "grid_nodes": self.grid.nodes.tolist(),
            "stats": dict(self.stats),
        }


def _prune_support(A: sp.csr_matrix) -> np.ndarray:
    """Indices left after iteratively dropping zero rows/columns of the
    nonnegative ``A``.

    Dropping an index with a zero row (or column) leaves the nonzero spectrum
    unchanged, because the matrix is block triangular over the dropped set.
    Each round marks the rows and columns that still reach a kept index, so
    no submatrix is formed until the end.
    """
    alive = np.ones(A.shape[0], bool)
    while True:
        x = alive.astype(float)
        still = alive & (A @ x > 0) & (A.T @ x > 0)
        if not still.any():
            raise ReducibleMatrixError("matrix has no recurrent support")
        if np.array_equal(still, alive):
            return np.nonzero(alive)[0]
        alive = still


class _Block(NamedTuple):
    """One strongly connected class as a CSR block of the full matrix."""

    cells: np.ndarray  # the class's indices in the full matrix
    gather: np.ndarray  # position in the full matrix's data of each block entry
    indptr: np.ndarray
    indices: np.ndarray

    def of(self, data: np.ndarray) -> sp.csr_matrix:
        n = len(self.cells)
        return sp.csr_matrix((data[self.gather], self.indices, self.indptr), shape=(n, n))


@dataclass(frozen=True, eq=False)
class SupportStructure:
    """The pruned support and the strongly connected classes of a pattern.

    Neither depends on the values of the entries, only on where the positive
    ones sit, so one structure serves every matrix with the same CSR pattern:
    every N_z, z > 0, of a branch stack.  ``blocks`` maps each class of more
    than one cell (or the single class) to its block's index arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    keep: np.ndarray  # indices that survive the pruning
    labels: np.ndarray  # class of each kept index
    n_classes: int
    blocks: dict

    def fits(self, A: sp.csr_matrix) -> bool:
        return np.array_equal(A.indptr, self.indptr) and np.array_equal(A.indices, self.indices)


def support_structure(A: sp.csr_matrix) -> SupportStructure:
    """Prune and split the pattern of ``A``, whose stored entries are positive.

    The pruning and the class split run on a copy of the pattern that holds
    each entry's position in ``A.data``, so slicing it yields the gather
    index of every block.
    """
    n = A.shape[0]
    position = sp.csr_matrix((np.arange(1.0, A.nnz + 1.0), A.indices, A.indptr), shape=(n, n))
    keep = _prune_support(position)
    B = position if len(keep) == n else position[np.ix_(keep, keep)].tocsr()
    ncomp, labels = connected_components(B, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=ncomp)
    blocks = {}
    for c in np.nonzero((sizes > 1) | (ncomp == 1))[0]:
        idx = np.nonzero(labels == c)[0]
        block = B if ncomp == 1 else B[np.ix_(idx, idx)].tocsr()
        gather = block.data.astype(np.int64) - 1
        blocks[int(c)] = _Block(keep[idx], gather, block.indptr, block.indices)
    return SupportStructure(A.indptr, A.indices, keep, labels, int(ncomp), blocks)


def _power_pair(B: sp.csr_matrix, tol: float, maxiter: int, start=None):
    """Two-sided power iteration on an irreducible nonnegative block, from
    the uniform vectors or from a positive (right, left) ``start`` pair."""
    BT = B.T.tocsr()
    m = B.shape[0]
    if start is None:
        v = np.full(m, 1.0 / m)
        u = np.full(m, 1.0 / m)
    else:
        v = start[0] / start[0].sum()
        u = start[1] / start[1].sum()
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
    lam, _, _, _ = _power_pair(block, 1e-8, 20_000)
    return lam


def _extend_to_full(A, AT, lam, core_idx, h_core, nu_core, start=None, maxiter=2000):
    """Fill non-core entries so (h, nu) solve the full eigen equations.

    Off the dominant class the equations h = (A h)/lam and nu = (A^T nu)/lam
    are contractions (every other class has spectral radius strictly below
    lam), so fixed-point iteration with the core pinned converges
    geometrically, from zero or from the vectors of the ``start`` triple
    scaled to the core pair.
    """
    if start is None:
        h = np.zeros(A.shape[0])
        nu = np.zeros(A.shape[0])
    else:
        h = start.eigenfunction * (h_core.sum() / start.eigenfunction[core_idx].sum())
        nu = start.eigenmeasure * (nu_core.sum() / start.eigenmeasure[core_idx].sum())
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


def leading_eigen(
    tm: TransferMatrix,
    tol: float = 1e-13,
    maxiter: int = 100_000,
    support: Optional[SupportStructure] = None,
    start: Optional[SpectralTriple] = None,
) -> SpectralTriple:
    """Perron root and both eigenvectors by two-sided power iteration.

    The matrix must be nonnegative with a unique dominant strongly connected
    class on its support (ReducibleMatrixError otherwise).  Raises
    ConvergenceError when the ratio gap fails to reach ``tol`` within
    ``maxiter`` iterations.

    ``support`` is the :func:`support_structure` of the matrix's pattern,
    computed here when not given; a structure of another pattern raises
    DomainError.  ``start`` is a previous triple on the same grid (the pair
    of a nearby matrix); its vectors start the iteration where they are
    positive on the dominant class.  Every class radius is recomputed from
    the entries on each call, so neither input weakens the dominance check.
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
    if support is None:
        support = support_structure(A)
    elif not support.fits(A):
        raise DomainError("matrix pattern differs from the stored support structure")
    if start is not None and len(start.eigenfunction) != A.shape[0]:
        raise DomainError("start triple lives on a grid of another size")

    keep, labels, ncomp, blocks = support.keep, support.labels, support.n_classes, support.blocks
    matrices = {c: b.of(A.data) for c, b in blocks.items()}
    if ncomp == 1:
        best = 0
    else:
        # one-cell classes take their radius straight from the diagonal
        radii = np.empty(ncomp)
        single = np.bincount(labels, minlength=ncomp)[labels] == 1
        radii[labels[single]] = A.diagonal()[keep[single]]
        for c, block in matrices.items():
            radii[c] = _component_radius(block)
        order = np.argsort(radii)
        best, second = order[-1], radii[order[-2]]
        if second >= radii[best] * (1.0 - 1e-9):
            raise ReducibleMatrixError(
                f"no unique dominant class: top spectral radii {radii[best]:.6e} and {second:.6e}"
            )
    if best in blocks:
        core_idx, core_block = blocks[best].cells, matrices[best]
    else:  # a one-cell dominant class
        core_idx, core_block = keep[labels == best], sp.csr_matrix([[radii[best]]])
    n_transient = len(keep) - len(core_idx)

    pair = None
    if start is not None:
        pair = (start.eigenfunction[core_idx], start.eigenmeasure[core_idx])
        if not (np.all(pair[0] > 0) and np.all(pair[1] > 0)):
            start = pair = None  # only a positive pair can start the iteration
    lam, v, u, iterations = _power_pair(core_block, tol, maxiter, pair)
    h, nu = _extend_to_full(A, A.T.tocsr(), lam, core_idx, v, u, start)

    nu_total = nu.sum()
    if nu_total <= 0:
        raise NormalizationError("eigenmeasure has no mass")
    nu = nu / nu_total
    pairing = float(nu @ h)
    if pairing <= 0:
        raise NormalizationError("degenerate pairing of eigenvectors")
    h = h / pairing

    res_r = float(np.max(np.abs(A @ h - lam * h)) / np.max(np.abs(h)))
    res_l = float(np.max(np.abs(A.T @ nu - lam * nu)) / np.max(np.abs(nu)))
    stats = {
        "iterations": iterations,
        "residual_right": res_r,
        "residual_left": res_l,
        "pruned_cells": int(A.shape[0] - len(keep)),
        "transient_cells": int(n_transient),
    }
    return SpectralTriple(float(lam), h, nu, tm.grid, stats=stats)


# ---------------------------------------------------------------------------
# cylinder masses and the mass identity
# ---------------------------------------------------------------------------

def cylinder_masses(
    sys: InducedOpenSystem,
    triple: SpectralTriple,
    grid: Optional[Grid] = None,
    pieces: Optional[list] = None,
    z: float = 1.0,
) -> np.ndarray:
    """Branch masses of the normalized eigen-pair product.

    Branch k receives (z**k/lambda) * integral of |zeta_k'(x)| h(zeta_k(x))
    d nu(x), evaluated through the same exact per-branch kernels used in the
    assembly; for the leading pair of N_z the masses then add up to the
    pairing sum(nu h) = 1 to rounding.  Computed through the eigen-pair
    rather than by cell-indicator sums so cylinder boundaries cannot straddle
    cells.  Their mean k is the derivative of log lambda(e^t) at z = e^t.
    """
    grid = grid or triple.grid
    if pieces is None:
        pieces = induced_branch_matrices(sys, grid)
    lam = triple.eigenvalue
    nu = triple.eigenmeasure
    h = triple.eigenfunction
    masses = np.array([z ** k * float(nu @ (piece @ h)) / lam for k, piece in enumerate(pieces, start=1)])
    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        raise NormalizationError(f"cylinder masses sum to {total!r}, expected 1")
    return masses / total


def invariant_function(sys: InducedOpenSystem, triple: SpectralTriple, grid: Optional[Grid] = None) -> np.ndarray:
    """Accumulated hole-avoiding pullbacks of the eigenfunction.

    Returns the grid function sum_{k=0}^{N-1} (Q0^k h) where Q0 is the
    left-branch pullback annihilating the hole.  The sum is finite because N
    left-branch pullbacks push all support into the hole.  Each power is a
    single monotone change of variables, so its cell averages are exact
    interval overlaps of the k-fold node images, with the survivor indicator
    realized by restricting source cells to (a_{N-k}, 1].
    """
    grid = grid or triple.grid
    m = sys.map
    N = sys.branch_count
    seq = sys.preimages
    nodes = grid.nodes
    widths = grid.widths
    h = triple.eigenfunction

    e = h.copy()
    u = nodes.copy()
    hole_edge = float(seq[N])
    for k in range(1, N):
        u = np.asarray(maps.left_inverse(m, u), float)
        # x survives k pullbacks iff its k-fold image stays above the hole
        # edge, so clipping the image interval realizes the indicator exactly
        img_lo = np.maximum(u[:-1], hole_edge)
        img_hi = u[1:]
        cells, rows, overlap = interval_cell_overlaps(nodes, img_lo, img_hi)
        vals = np.zeros(grid.n_cells)
        np.add.at(vals, rows, overlap * h[cells])
        e = e + vals / widths
    return e


class MassCheck(NamedTuple):
    mass_from_function: float
    mass_from_cylinders: float
    discrepancy: float


def invariant_mass(
    sys: InducedOpenSystem,
    triple: SpectralTriple,
    grid: Optional[Grid] = None,
    pieces: Optional[list] = None,
) -> MassCheck:
    """Total mass of the accumulated invariant function versus the mean
    return time of the cylinder masses; their gap is a pure discretization
    diagnostic (the two agree in exact arithmetic).  ``pieces`` are passed on
    to :func:`cylinder_masses`, which otherwise builds them again."""
    grid = grid or triple.grid
    e = invariant_function(sys, triple, grid)
    mass_a = float(triple.eigenmeasure @ e)
    mass_b = mean_return_time(cylinder_masses(sys, triple, grid, pieces))
    return MassCheck(mass_a, mass_b, abs(mass_a - mass_b))


def mean_return_time(masses: np.ndarray) -> float:
    """Expected return time sum_k k * mass_k of a branch-mass vector."""
    masses = np.asarray(masses, float)
    ks = np.arange(1, len(masses) + 1)
    return float(ks @ masses)
