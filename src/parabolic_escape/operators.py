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
from typing import TYPE_CHECKING, Callable

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
        nodes = np.array(self.nodes, float)  # a copy: the caller's array stays writable
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
        if not abs(self.nodes[i] - value) <= 1e-12:  # NaN fails the comparison
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


def _aligned_grid(m: MapSpec, edge: float, size: int) -> Grid:
    """The grid of :func:`hole_grid` and :func:`markov_grid` for the hole [0, ``edge``].

    The preimage chain is read in doubling lengths until it passes ``edge``,
    capped at ``size`` anchors: alignment to very deep preimages buys nothing
    once the chain outnumbers the cells, and the cap keeps tiny holes affordable.
    """
    seq = preimage_sequence(m, 2).values
    while seq[-1] > edge and len(seq) - 1 < size:
        seq = preimage_sequence(m, min(2 * (len(seq) - 1), size)).values
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
    return _with_hole_block(_graded_nodes(anchors, size))


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
    return _aligned_grid(m, preimage_sequence(m, N)[N], size)


def natural_partition_grid(m: MapSpec, N: int) -> Grid:
    """The coarse Markov grid whose cells are exactly A_N, ..., A_1."""
    return _with_hole_block(preimage_sequence(m, N).values[::-1])


def hole_grid(m: MapSpec, epsilon: float, size: int = 4096) -> Grid:
    """Grid for a general hole [0, epsilon]: epsilon is a node, boundaries
    include the preimage chain above epsilon and first-generation right-branch
    preimages, with log-graded subdivision in between."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    return _aligned_grid(m, epsilon, size)


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Nonnegative matrix acting on piecewise-constant grid functions.

    Assembly is deterministic: every entry is an exact interval overlap,
    summed in a fixed order; shape, row sums and dense form are read from
    ``matrix``.
    """

    grid: Grid
    matrix: sp.csr_matrix = field(compare=False)


# ---------------------------------------------------------------------------
# pointwise open operators
# ---------------------------------------------------------------------------

def apply_Q0(m: MapSpec, N: int, f: Callable, x):
    """Left-branch open pullback: |phi_0'(x)| f(phi_0(x)) unless phi_0(x)
    falls into the hole [0, a_N], in which case the term is zero.

    The hole test is done in x-space: phi_0(x) <= a_N exactly when
    x <= a_{N-1}.
    """
    x_a = np.asarray(x, float)
    maps._check_unit_interval(x_a)
    x1 = np.atleast_1d(x_a)
    alive = x1 > preimage_sequence(m, N)[N - 1]
    out = np.zeros_like(x1)
    y = np.asarray(maps.left_inverse(m, x1[alive]), float)
    out[alive] = 1.0 / np.asarray(m.branches.dleft(y), float) * np.asarray(f(y), float)
    return out.reshape(x_a.shape) if x_a.ndim else float(out[0])


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
    Empty intersections are dropped, so repeated bounds give no triplet; a
    NaN bound is a DomainError.  The bounds, in increasing order, are merged
    with the M' nodes strictly inside their range, placed by one binary
    search: each piece between consecutive breakpoints is an overlap, whose
    cell and interval count the nodes and bounds before it.  The cost is
    O(M' log K + K + nnz) time, and beside the triplets the merge keeps one
    float and one flag per breakpoint; decreasing bounds have their groups put back in order.
    """
    bounds = np.asarray(bounds, float)
    if np.isnan(bounds).any():
        raise DomainError("interval bound is not a number")
    if len(bounds) < 2:
        return (np.empty(0, int), np.empty(0, int), np.empty(0))
    d = -1 if bounds[0] > bounds[-1] else 1  # decreasing bounds are read backwards
    b = bounds[::d]
    i0, i1 = int(np.searchsorted(nodes, b[0], side="right")), int(np.searchsorted(nodes, b[-1], side="left"))
    inner = nodes[i0:i1]
    merged = np.empty(len(b) + len(inner))
    # each node goes after the bounds below it
    at = np.searchsorted(b, inner, side="left") + np.arange(len(inner))
    is_node = np.zeros(len(merged), bool)
    is_node[at] = True
    merged[~is_node] = b
    merged[at] = inner
    np.clip(merged, nodes[0], nodes[-1], out=merged)  # past the nodes, the bounds meet no cell
    merged = np.diff(merged)
    seg = np.flatnonzero(merged > 0)
    overlap = merged[seg]
    del at, merged
    # the nodes at or before each piece's start, summed in the smallest type that holds them
    cells = np.cumsum(is_node, dtype=np.min_scalar_type(len(is_node)))[seg].astype(int)
    seg -= cells  # the interval of each piece, counted in b
    cells += i0 - 1
    if d > 0:
        return cells, seg, overlap
    # b runs backwards: interval r of b is interval K - 2 - r, and its
    # group moves from ends[r] - counts[r] to n - ends[r]
    counts = np.bincount(seg, minlength=len(b) - 1)
    ends = np.cumsum(counts)
    dest = np.arange(len(seg)) + (len(seg) - 2 * ends + counts)[seg]
    out = (np.empty_like(cells), np.empty_like(seg), np.empty_like(overlap))
    out[0][dest], out[1][dest], out[2][dest] = cells, (len(b) - 2) - seg, overlap
    return out


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
    M, nodes, widths, seq = grid.n_cells, grid.nodes, grid.widths, sys.preimages
    index = np.int32 if 2 * M < 2**31 else np.int64  # scipy's index type: nnz < 2 M
    pieces = []
    for n, (u, _) in enumerate(branch_walk(sys, nodes), start=1):
        cells, rows, overlap = interval_cell_overlaps(nodes, np.clip(u, seq[n], seq[n - 1]))
        # the triplets come row by row, each row in cell order: CSR as they stand
        indptr = np.zeros(M + 1, index)
        np.cumsum(np.bincount(rows, minlength=M), out=indptr[1:])
        overlap /= widths[rows]
        pieces.append(sp.csr_matrix((overlap, cells.astype(index), indptr), shape=(M, M)))
        del cells, rows, overlap  # before the next branch's root solves
    return pieces


def combine_branch_matrices(sys: InducedOpenSystem, grid: Grid, pieces) -> TransferMatrix:
    """N_1 = sum_n piece_n on the grid, as a branch-order sum: the pieces
    are added one after another, each entry in branch order."""
    return TransferMatrix(grid, sum(pieces[1:], pieces[0]).tocsr())


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
    M = grid.n_cells
    # source mass below the hole edge escaped already; coo sums an entry both branches reach
    parts = [interval_cell_overlaps(nodes, np.maximum(np.asarray(inverse(m, nodes[i0:]), float), epsilon))
             for inverse in (maps.left_inverse, maps.right_inverse)]
    rows, tgt, overlap = (np.concatenate(arrays) for arrays in zip(*parts))
    matrix = sp.coo_matrix((overlap / grid.widths[rows], (rows, tgt + i0)), shape=(M, M)).tocsr()
    return TransferMatrix(grid, matrix)
