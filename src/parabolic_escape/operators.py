"""Open transfer operators, pointwise and discretized.

Two operator families act here.  For the original map F with hole H = [0, c]
the open operator is Q = Q0 + Q1, where Q0 kills pullbacks landing in the
hole and Q1 is the untouched right-branch term (the hole sits inside the left
branch domain).  For the induced system the open operator is the finite
branch sum N_z g = sum_{n<=N} z^n |zeta_n'| g(zeta_n).  The two are tied by
the exact factorization

    (1 - N_z)(1 - z Q0) = 1 - z Q,

exact because N applications of Q0 push all support into the hole; evaluating
both sides numerically therefore measures only root-solver and rounding
error, which is what :func:`identity_residual` reports.  The pointwise
operators call the test function ``f`` on whole arrays of points, so ``f``
must be vectorized.

Discretization is by the Ulam method on aligned grids: piecewise-constant
densities, with every entry an exact interval overlap (branch images of the
cells for the induced operator, preimages of the cells for the direct one).
scipy.sparse is imported on first use, by the three matrix assemblers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import maps
from .exceptions import DomainError
from .induced import InducedOpenSystem, branch_walk
from .maps import MapSpec, preimage_sequence

if TYPE_CHECKING:
    import scipy.sparse as sp


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing cell boundaries spanning [0, 1]."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, float)
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise DomainError("grid must span [0, 1]")
        if not np.all(np.diff(nodes) > 0):  # NaN fails the comparison
            raise DomainError("grid nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def lo(self) -> np.ndarray:
        return self.nodes[:-1]

    @property
    def hi(self) -> np.ndarray:
        return self.nodes[1:]

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def node_index(self, value: float) -> int:
        i = int(np.argmin(np.abs(self.nodes - value)))
        if abs(self.nodes[i] - value) > 1e-12:
            raise DomainError(f"{value!r} is not a grid node")
        return i


def _graded_nodes(anchors: np.ndarray, size: int) -> np.ndarray:
    """Log-graded subdivision of [anchors[0], anchors[-1]] keeping anchors.

    Cell counts per anchor piece are proportional to the logarithmic measure
    of the piece, so resolution is densest toward the origin where branch
    weights and densities vary fastest.
    """
    lo_all, hi_all = anchors[0], anchors[-1]
    log_span = np.log(hi_all / lo_all)
    pieces = []
    for lo_p, hi_p in zip(anchors[:-1], anchors[1:]):
        count = max(2, int(round(size * np.log(hi_p / lo_p) / log_span)))
        pieces.append(np.geomspace(lo_p, hi_p, count + 1)[:-1])
    return np.concatenate(pieces + [[hi_all]])


def _anchor_chain(m: MapSpec, edge: float, limit: int = 4096) -> np.ndarray:
    """Preimage-chain anchors above ``edge`` plus right-branch preimages.

    The chain is read in doubling lengths until it passes ``edge``, capped
    at ``limit`` anchors: alignment to very deep preimages buys nothing once
    the chain outnumbers the cells, and the cap keeps tiny holes affordable.
    """
    seq = preimage_sequence(m, 2).values
    while seq[-1] > edge and len(seq) - 1 < limit:
        seq = preimage_sequence(m, min(2 * (len(seq) - 1), limit)).values
    chain = seq[seq > edge]
    primary = np.unique(np.concatenate([[edge, 1.0], chain]))
    derived = np.asarray(maps.right_inverse(m, primary), float)
    derived = derived[(derived > edge) & (derived < 1.0)]
    # drop derived anchors that collide with primary ones (root-solver noise
    # would otherwise create cells a few ulps wide)
    anchors = primary
    for u in np.sort(derived):
        pos = np.searchsorted(anchors, u)
        gap = min(
            u - anchors[pos - 1] if pos > 0 else np.inf,
            anchors[pos] - u if pos < len(anchors) else np.inf,
        )
        if gap > 1e-11:
            anchors = np.insert(anchors, pos, u)
    return anchors


def _with_hole_block(live_nodes: np.ndarray) -> Grid:
    # one cell spans the hole: nothing flows into it, and a single wide cell
    # keeps the overlap arithmetic well conditioned
    return Grid(np.unique(np.concatenate([[0.0], live_nodes])))


def markov_grid(m: MapSpec, N: int, size: int = 4096) -> Grid:
    """Grid for the Markov hole [0, a_N]: the nodes of ``hole_grid`` at
    epsilon = a_N, so they include the preimage chain a_N .. a_0.
    Piecewise-linear maps use the natural partition, which is already exact;
    for the other families ``size`` must exceed N (DomainError otherwise).
    """
    if m.family == "pwl":
        return natural_partition_grid(m, N)
    if size <= N:
        raise DomainError(f"grid size {size} must exceed the hole index {N}")
    edge = preimage_sequence(m, N)[N]
    return _with_hole_block(_graded_nodes(_anchor_chain(m, edge, limit=size), size))


def natural_partition_grid(m: MapSpec, N: int) -> Grid:
    """The coarse Markov grid whose cells are exactly A_N, ..., A_1."""
    return _with_hole_block(preimage_sequence(m, N).values[::-1])


def hole_grid(m: MapSpec, epsilon: float, size: int = 4096) -> Grid:
    """Grid for a general hole [0, epsilon]: epsilon is a node, boundaries
    include the preimage chain above epsilon and first-generation right-branch
    preimages, with log-graded subdivision in between."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    anchors = _anchor_chain(m, epsilon, limit=size)
    return _with_hole_block(_graded_nodes(anchors, size))


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Nonnegative matrix acting on piecewise-constant grid functions.

    Assembly is deterministic: every entry is an exact interval overlap,
    summed in a fixed order; shape, row sums and dense form are read from
    ``matrix``.  ``pieces`` (shared, not copied) are those of a
    :func:`combine_branch_matrices` sum; other matrices have none.
    """

    grid: Grid
    matrix: sp.csr_matrix = field(compare=False)
    pieces: Optional[tuple] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# pointwise open operators
# ---------------------------------------------------------------------------

def apply_Q0(m: MapSpec, N: int, f: Callable, x):
    """Left-branch open pullback: |phi_0'(x)| f(phi_0(x)) unless phi_0(x)
    falls into the hole [0, a_N], in which case the term is zero.

    The hole test is done in x-space: phi_0(x) <= a_N exactly when
    x <= a_{N-1}.
    """
    seq = preimage_sequence(m, N)
    x_a = np.asarray(x, float)
    maps._check_unit_interval(x_a)
    alive = x_a > seq[N - 1]
    out = np.zeros_like(np.atleast_1d(x_a))
    alive1 = np.atleast_1d(alive)
    if np.any(alive1):
        xs = np.atleast_1d(x_a)[alive1]
        y = np.asarray(maps.left_inverse(m, xs), float)
        w = 1.0 / np.asarray(m.branches.dleft(y), float)
        out[alive1] = w * np.asarray(f(y), float)
    out = out.reshape(x_a.shape)
    return out if np.asarray(x).ndim else float(out)


def apply_Q1(m: MapSpec, f: Callable, x):
    """Right-branch pullback |phi_1'(x)| f(phi_1(x)); the hole never meets the
    right branch image, so no indicator appears."""
    x_a = np.asarray(x, float)
    y = np.asarray(maps.right_inverse(m, x_a), float)
    w = 1.0 / np.asarray(m.branches.dright(y), float)
    out = w * np.asarray(f(y), float)
    return out if np.asarray(x).ndim else float(out)


def apply_open_induced(sys: InducedOpenSystem, z: float, f: Callable, x):
    """N_z f(x) = sum_{n=1}^{N} z^n |zeta_n'(x)| f(zeta_n(x)) for z in [0, 1]."""
    if not 0.0 <= z <= 1.0:
        raise DomainError("z must lie in [0, 1]")
    x_a = np.atleast_1d(np.asarray(x, float))
    total = np.zeros_like(x_a)
    for n, (y, lw) in enumerate(branch_walk(sys, x_a), start=1):
        zn = z ** n
        if zn == 0.0:
            break
        total += zn * np.exp(lw) * np.asarray(f(y), float)
    return total if np.asarray(x).ndim else float(total[0])


def identity_residual(sys: InducedOpenSystem, z: float, f: Callable, points) -> float:
    """Max over sample points of |(1 - N_z)(1 - z Q0)f - (1 - z Q)f|.

    Both sides are evaluated independently; the left side composes the open
    induced branches with one application of (1 - z Q0), the right side uses
    the direct open operator.  The residual reflects root-solver tolerance
    and floating-point noise only.
    """
    m = sys.map
    N = sys.branch_count
    pts = np.asarray(points, float)

    def g(x):
        return np.asarray(f(x), float) - z * np.asarray(apply_Q0(m, N, f, x), float)

    lhs = np.asarray(g(pts), float) - np.asarray(apply_open_induced(sys, z, g, pts), float)
    rhs = np.asarray(f(pts), float) - z * (
        np.asarray(apply_Q0(m, N, f, pts), float) + np.asarray(apply_Q1(m, f, pts), float)
    )
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

def interval_cell_overlaps(nodes: np.ndarray, bounds: np.ndarray):
    """Overlap lengths between the grid cells and the intervals that
    consecutive ``bounds`` span.

    ``bounds`` are the images of consecutive nodes under a monotone map, in
    either direction: interval k runs between bounds[k] and bounds[k + 1].
    Returns (cells, which, overlap) triplets: cell index, interval index, and
    the length of their intersection, ordered by interval and then by cell.
    Degenerate or empty intersections are dropped; repeated bounds give empty
    intervals, and so does a NaN bound on both of its sides (it marks a node
    left out).  One binary search of the K + 1 bounds places every interval,
    so the cost is O(K log M + nnz).
    """
    n_cells = len(nodes) - 1
    bounds = np.asarray(bounds, float)
    start, end = bounds[:-1], bounds[1:]
    # a NaN fails both comparisons
    which0 = np.nonzero((start < end) | (start > end))[0]
    up = start[which0] < end[which0]
    l_v = np.minimum(start[which0], end[which0])
    h_v = np.maximum(start[which0], end[which0])
    at = np.searchsorted(nodes, bounds, side="left")
    i_hi = np.clip(np.where(up, at[which0 + 1], at[which0]) - 1, 0, n_cells - 1)
    # side="right" differs from side="left" only where a bound is a node; as
    # a lower end, it skips the cell below, whose overlap is empty
    at += nodes[np.minimum(at, n_cells)] == bounds
    i_lo = np.clip(np.where(up, at[which0], at[which0 + 1]) - 1, 0, n_cells - 1)
    counts = i_hi - i_lo + 1
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, int), np.empty(0, int), np.empty(0))
    offsets = np.cumsum(counts) - counts
    cells = np.repeat(i_lo, counts) + (np.arange(total) - np.repeat(offsets, counts))
    which = np.repeat(which0, counts)
    l_rep = np.repeat(l_v, counts)
    h_rep = np.repeat(h_v, counts)
    overlap = np.minimum(nodes[cells + 1], h_rep) - np.maximum(nodes[cells], l_rep)
    keep = overlap > 0
    return cells[keep], which[keep], overlap[keep]


def induced_branch_matrices(sys: InducedOpenSystem, grid: Grid) -> list:
    """Per-branch pieces of the discretized induced operator.

    Piece n has entries (i, j) = (1/|cell_i|) * integral over cell_i of
    |zeta_n'(x)| [zeta_n(x) in cell_j] dx.  Because the weight is exactly the
    branch derivative, the integral is the length of zeta_n(cell_i)
    intersected with cell_j, so every entry is computed in closed form from
    branch values at the grid nodes; no integration rule enters.  The node
    values come from one walk down the inverse-branch chain
    (:func:`branch_walk`), so N pieces of pm or lsv cost min(N, k0) - 1
    left-inverse solves, plus one Abel-function evaluation past k0.  The
    open operator N_1 is the sum of the pieces.  Node images are clipped to
    the cylinder [a_n, a_{n-1}], whose ends farey's closed form misses by ulps.
    """
    import scipy.sparse as sp
    M = grid.n_cells
    nodes = grid.nodes
    widths = grid.widths
    seq = sys.preimages
    pieces = []
    for n, (u, _) in enumerate(branch_walk(sys, nodes), start=1):
        cells, rows, overlap = interval_cell_overlaps(nodes, np.clip(u, seq[n], seq[n - 1]))
        # the triplets come row by row, each row in cell order: CSR as they stand
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=M))])
        pieces.append(sp.csr_matrix((overlap / widths[rows], cells, indptr), shape=(M, M)))
    return pieces


def combine_branch_matrices(sys: InducedOpenSystem, grid: Grid, pieces) -> TransferMatrix:
    """N_1 = sum_n piece_n on the grid, as a branch-order sum: the pieces
    are added one after another, each entry in branch order; the result
    records them."""
    pieces = tuple(pieces)
    return TransferMatrix(grid, sum(pieces[1:], pieces[0]).tocsr(), pieces)


def pwl_exact_matrix(m: MapSpec, N: int) -> TransferMatrix:
    """The exact rank-one matrix of a piecewise-linear induced system: every
    row equals (p_1, ..., p_N) on the natural partition."""
    import scipy.sparse as sp
    if m.family != "pwl":
        raise DomainError("exact matrix exists only for the pwl family")
    grid = natural_partition_grid(m, N)
    p = np.asarray(m.weights.mass(np.arange(1, N + 1)), float)
    # natural grid cells run left to right: hole block, A_N, ..., A_1
    dense = np.zeros((grid.n_cells, grid.n_cells))
    dense[:, -N:] = p[::-1]
    return TransferMatrix(grid, sp.csr_matrix(dense))


def assemble_ulam_open(m: MapSpec, epsilon: float, grid: Grid) -> TransferMatrix:
    """Ulam matrix of the original open map on cells above the hole.

    Entry (i, j) = m(cell_i intersect F^{-1}(cell_j)) / m(cell_i), computed
    exactly from inverse-branch images of the cell boundaries; rows and
    columns of cells meeting [0, epsilon] are removed (their indices stay in
    the matrix as structural zeros so the grid indexing is unchanged).
    """
    import scipy.sparse as sp
    i0 = grid.node_index(epsilon)
    nodes = grid.nodes
    live_nodes = nodes[i0:]
    M = grid.n_cells
    widths = grid.widths

    blocks = []
    for inverse in (maps.left_inverse, maps.right_inverse):
        u = np.asarray(inverse(m, live_nodes), float)
        # source mass below the hole edge escaped already
        rows, tgt, overlap = interval_cell_overlaps(nodes, np.maximum(u, epsilon))
        if rows.size == 0:
            continue
        data = overlap / widths[rows]
        blocks.append(sp.coo_matrix((data, (rows, tgt + i0)), shape=(M, M)))
    matrix = sum(blocks).tocsr() if blocks else sp.csr_matrix((M, M))
    return TransferMatrix(grid, matrix)
