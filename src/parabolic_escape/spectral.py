"""Leading spectral data of nonnegative transfer matrices.

The Perron root of these matrices is simple and dominant on a recurrent core,
so plain power iteration with the two-sided Collatz-Wielandt ratio bound
converges without any general eigensolver: iteration stops once the
componentwise ratios (A v)_i / v_i agree to the relative tolerance EIGEN_TOL.

Discretized open operators are never irreducible as raw matrices: cells
inside the hole have empty columns, and cells in the gaps of the survivor set
are transient (some carry small self-loops around periodic points of the
branch maps).  ``leading_eigen`` therefore peels off the cells without a
source or a target and splits the rest into strongly connected classes.
Each class of more than 256 cells is solved once, by power iteration to
EIGEN_TOL, and that root is its radius; smaller classes, which may be
periodic, take a dense radius, one-cell classes their diagonal entry.  The
dominant class (which must be unique) keeps its pair, and both eigenvectors
are filled on the other cells so that they are eigenvectors of the full
matrix: by one sparse solve on the transient classes, and on the peeled
cells, which lie on no cycle, in one pass back along the peel.

The leading pair feeds three derived quantities: per-branch cylinder masses
of the normalized product h * nu, the accumulated hole-avoiding pullback
function of the eigenfunction, and the mass consistency check between its
integral and the mean return time.  The prune reads each edge at most once,
the fill each peeled row once, and the mass check pulls back only the nodes
of the cells where nu is nonzero (5.6 % of 262,144 cells, lsv s = 2, N = 3).
scipy.sparse and its csgraph are imported on the first ``leading_eigen`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from . import maps
from .exceptions import ConvergenceError, DomainError, NormalizationError, ReducibleMatrixError
from .induced import InducedOpenSystem
from .operators import Grid, TransferMatrix, induced_branch_matrices, interval_cell_overlaps

if TYPE_CHECKING:
    import scipy.sparse as sp

#: relative ratio gap that ends power iteration, and |log lambda| that ends a unit-eigenvalue solve
EIGEN_TOL = 1e-13
EIGEN_MAXITER = 100_000  # power iterations a class may take to reach EIGEN_TOL


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


def _prune_support(A: sp.csr_matrix, AT: sp.csr_matrix):
    """The largest set in which every index has a kept source and a kept
    target under the nonnegative ``A`` (``AT`` its CSR transpose, neither
    storing zeros), and the peel that found it.

    Dropping an index with a zero row (or column) leaves the nonzero spectrum
    unchanged, because the matrix is block triangular over the dropped set.
    The set is peeled from the in- and out-degrees: each round drops the
    indices left without a source or a target and takes their edges off the
    degrees of their neighbours.  A no-source index only has dead sources
    and a no-target index only dead targets, so only the out-edges of the
    one and the in-edges of the other are read: the whole peel reads each
    edge at most once.

    Returns ``(keep, rounds)``: the kept indices, and per round the indices
    it dropped as a pair ``(no_source, no_target)``, split by whether a kept
    source was left (no_target) or not (no_source).  Every target of a
    no-target index died in an earlier round as a no-target index, and
    every source of a no-source index as a no-source index:
    :func:`_extend_to_full` relies on both.
    """
    n = A.shape[0]
    out_deg = np.diff(A.indptr)
    in_deg = np.diff(AT.indptr)
    alive = np.ones(n, bool)
    rounds = []
    dying = np.nonzero((out_deg == 0) | (in_deg == 0))[0]
    while dying.size:
        sourced = in_deg[dying] > 0
        peeled = (dying[~sourced], dying[sourced])
        rounds.append(peeled)
        alive[dying] = False
        for M, deg, rows in ((A, in_deg, peeled[0]), (AT, out_deg, peeled[1])):
            if len(rows):
                first = M.indptr[rows]
                count = M.indptr[rows + 1] - first
                # the entries from indptr: slicing the matrix costs more on small grids
                entries = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
                deg -= np.bincount(M.indices[entries], minlength=n)
        dying = np.nonzero(alive & ((out_deg == 0) | (in_deg == 0)))[0]
    if not alive.any():
        raise ReducibleMatrixError("matrix has no recurrent support")
    return np.nonzero(alive)[0], rounds


def _power_pair(B: sp.csr_matrix, BT: sp.csr_matrix):
    """Two-sided power iteration on an irreducible nonnegative block ``B``,
    with ``BT`` its CSR transpose, from the uniform vectors, to ``EIGEN_TOL``."""
    m = B.shape[0]
    v = np.full(m, 1.0 / m)
    u = np.full(m, 1.0 / m)
    lam = 0.0
    gap = np.inf
    for iterations in range(1, EIGEN_MAXITER + 1):
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
        if gap <= EIGEN_TOL * lam:
            return lam, v, u, iterations
    raise ConvergenceError(
        f"power iteration did not converge in {EIGEN_MAXITER} iterations (ratio gap {gap:.3e})"
    )


def _extend_to_full(A, AT, lam, core_idx, h_core, nu_core, transient_idx, rounds):
    """Fill the non-core entries so (h, nu) solve the full eigen equations
    h = (A h)/lam and nu = (A^T nu)/lam, given the core pair.

    On the transient cells t (kept, outside the core), (lam I - T) h_t =
    A[t, core] h_core for T = A[t, t], and the transpose for nu: T's radius is
    below lam, so one sparse LU of this nonsingular M-matrix serves both.

    The peeled cells lie on no cycle and take one pass back over the peel's
    ``rounds`` (see :func:`_prune_support`).  h is 0 on every no-target cell
    and nu on every no-source cell: their targets (sources) are no-target
    (no-source) cells of earlier rounds, down to empty rows (columns).  Past
    those zeros, every other peeled value reads only core, transient and
    later-peeled cells, so the pass back from the last round sets each value
    once, from final ones.  It is the expression (A[i, :] . h)/lam that a
    whole-matrix fixed point reaches once it settles, at one read of each
    peeled row instead of one read of every row per round.
    """
    h = np.zeros(A.shape[0])
    nu = np.zeros(A.shape[0])
    h[core_idx] = h_core
    nu[core_idx] = nu_core
    if len(transient_idx):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        A_t = A[transient_idx]
        K = (lam * sp.identity(len(transient_idx)) - A_t[:, transient_idx]).tocsc()
        # diagonal pivots keep the M-matrix sign pattern in the factors: no negative value
        lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
        # a kept cell's peeled targets (sources) are no-target (no-source) cells:
        # their 0 is final, so the right-hand sides read the core only
        h[transient_idx] = lu.solve(A_t @ h)
        nu[transient_idx] = lu.solve(AT[transient_idx] @ nu, trans="T")
    for peeled in reversed(rounds):
        for M, v, rows in ((A, h, peeled[0]), (AT, nu, peeled[1])):
            if len(rows):
                v[rows] = (M[rows] @ v) / lam
    return h, nu


def leading_eigen(tm: TransferMatrix) -> SpectralTriple:
    """Perron root and both eigenvectors by a cold solve: two-sided power
    iteration from the uniform vectors on the dominant class.

    The matrix must be nonnegative with a unique dominant strongly connected
    class on its support: ReducibleMatrixError when the top two class radii
    lie within 1e-9 relative.  Every class of more than 256 cells is solved
    once and the dominant one keeps its pair: ConvergenceError when one does
    not settle within ``EIGEN_MAXITER`` iterations.  The transient cells take
    one sparse solve.  Stored zeros are dropped first.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
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
    keep, rounds = _prune_support(A, AT)
    B = A if len(keep) == A.shape[0] else A[np.ix_(keep, keep)].tocsr()
    ncomp, labels = connected_components(B, directed=True, connection="strong")
    if ncomp == 1:
        # transposing a pruned block costs less than slicing it from AT
        best, pair = 0, _power_pair(B, AT if B is A else B.T.tocsr())
    else:
        # one-cell classes take their radius straight from the diagonal
        sizes = np.bincount(labels, minlength=ncomp)
        radii = np.empty(ncomp)
        single = sizes[labels] == 1
        radii[labels[single]] = B.diagonal()[single]
        blocks, pairs = {}, {}
        for c in np.nonzero(sizes > 1)[0]:
            idx = np.nonzero(labels == c)[0]
            block = blocks[c] = B[np.ix_(idx, idx)].tocsr()
            if len(idx) <= 256:
                # small classes may be periodic (cells around a periodic point
                # of the branch maps), where the ratios cannot settle
                radii[c] = np.max(np.abs(np.linalg.eigvals(block.toarray())))
            else:
                pairs[c] = _power_pair(block, block.T.tocsr())
                radii[c] = pairs[c][0]
        order = np.argsort(radii)
        best, second = order[-1], radii[order[-2]]
        if second >= radii[best] * (1.0 - 1e-9):
            raise ReducibleMatrixError(
                "no unique dominant class: the top two spectral radii differ by "
                f"{(radii[best] - second) / radii[best]:.3e} relative"
            )
        if best not in pairs:
            core = blocks.get(best, sp.csr_matrix([[radii[best]]]))
            pairs[best] = _power_pair(core, core.T.tocsr())
        pair = pairs[best]
    in_core = labels == best
    core_idx, transient_idx = keep[in_core], keep[~in_core]
    lam, v, u, iterations = pair
    h, nu = _extend_to_full(A, AT, lam, core_idx, v, u, transient_idx, rounds)

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
        "transient_cells": len(transient_idx),
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
