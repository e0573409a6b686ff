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
densities, Gauss-Legendre quadrature of the branch weights for the induced
operator, and exact preimage-overlap entries for the direct operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import maps
from .exceptions import DomainError
from .induced import InducedOpenSystem, zeta_and_log_weight
from .maps import MapSpec, preimage_sequence

#: fixed quadrature rule per cell; order 5 Gauss-Legendre
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GL_AVG_WEIGHTS = _GL_WEIGHTS / 2.0  # averages instead of integrals

KIND_INDUCED = "induced-open"
KIND_ULAM = "ulam-open"
KIND_PWL_EXACT = "pwl-exact"


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
        if np.any(np.diff(nodes) <= 0):
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

    def locate(self, y) -> np.ndarray:
        """Cell index of each point (interior convention, clipped at the ends)."""
        idx = np.searchsorted(self.nodes, np.asarray(y, float), side="right") - 1
        return np.clip(idx, 0, self.n_cells - 1)

    def quadrature(self):
        """Per-cell Gauss-Legendre points, shape (n_cells, 5), and averaging
        weights that sum to one."""
        mid = 0.5 * (self.lo + self.hi)
        half = 0.5 * self.widths
        pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        return pts, _GL_AVG_WEIGHTS.copy()

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

    The chain is grown in doubling steps through the map's cache and capped
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
    """Grid for the Markov hole [0, a_N]: nodes include the preimage chain
    a_N .. a_0 and right-branch preimages, log-graded between anchors; the
    hole interior gets a handful of coarse cells (no mass flows into them).
    Piecewise-linear maps use the natural partition, which is already exact;
    for the other families ``size`` must exceed N (DomainError otherwise).
    """
    if m.family == "pwl":
        return natural_partition_grid(m, N)
    if size <= N:
        raise DomainError(f"grid size {size} must exceed the hole index {N}")
    seq = preimage_sequence(m, N).values
    edge = float(seq[N])
    anchors = np.unique(np.concatenate([seq[::-1], _anchor_chain(m, edge, limit=size)]))
    return _with_hole_block(_graded_nodes(anchors, size))


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

    Assembly is deterministic: fixed quadrature order and fixed per-row
    summation order.
    """

    kind: str
    grid: Grid
    matrix: sp.csr_matrix = field(compare=False)

    @property
    def shape(self):
        return self.matrix.shape

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


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
    alive = x_a > seq[N - 1]
    out = np.zeros_like(np.atleast_1d(x_a))
    alive1 = np.atleast_1d(alive)
    if np.any(alive1):
        xs = np.atleast_1d(x_a)[alive1]
        y = np.asarray(maps.left_inverse(m, xs), float)
        w = 1.0 / np.asarray(maps._left_derivative(m, y), float)
        out[alive1] = w * np.asarray(f(y), float)
    out = out.reshape(x_a.shape)
    return out if np.asarray(x).ndim else float(out)


def apply_Q1(m: MapSpec, f: Callable, x):
    """Right-branch pullback |phi_1'(x)| f(phi_1(x)); the hole never meets the
    right branch image, so no indicator appears."""
    x_a = np.asarray(x, float)
    y = np.asarray(maps.right_inverse(m, x_a), float)
    w = 1.0 / np.asarray(maps._right_derivative_abs(m, y), float)
    out = w * np.asarray(f(y), float)
    return out if np.asarray(x).ndim else float(out)


def apply_open_induced(sys: InducedOpenSystem, z: float, f: Callable, x):
    """N_z f(x) = sum_{n=1}^{N} z^n |zeta_n'(x)| f(zeta_n(x)) for z in [0, 1]."""
    if not 0.0 <= z <= 1.0:
        raise DomainError("z must lie in [0, 1]")
    x_a = np.atleast_1d(np.asarray(x, float))
    total = np.zeros_like(x_a)
    for n in range(1, sys.branch_count + 1):
        zn = z ** n
        if zn == 0.0:
            break
        y, lw = zeta_and_log_weight(sys, n, x_a)
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

def interval_cell_overlaps(nodes: np.ndarray, lo_k: np.ndarray, hi_k: np.ndarray):
    """Overlap lengths between intervals [lo_k, hi_k] and the grid cells.

    Returns (cells, which, overlap) triplets: cell index, interval index, and
    the length of their intersection.  Degenerate or empty intersections are
    dropped.  The staircase is resolved by binary search, so the cost is
    O((K + nnz) log M).
    """
    n_cells = len(nodes) - 1
    lo_k = np.asarray(lo_k, float)
    hi_k = np.asarray(hi_k, float)
    valid = hi_k > lo_k
    which0 = np.nonzero(valid)[0]
    l_v, h_v = lo_k[which0], hi_k[which0]
    i_lo = np.clip(np.searchsorted(nodes, l_v, side="right") - 1, 0, n_cells - 1)
    i_hi = np.clip(np.searchsorted(nodes, h_v, side="left") - 1, 0, n_cells - 1)
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
    branch values at the grid nodes; no quadrature error enters.  The full
    open operator at parameter z is sum_n z**n piece_n.
    """
    M = grid.n_cells
    nodes = grid.nodes
    widths = grid.widths
    pieces = []
    for n in range(1, sys.branch_count + 1):
        u, _ = zeta_and_log_weight(sys, n, nodes)
        img_lo = np.minimum(u[:-1], u[1:])
        img_hi = np.maximum(u[:-1], u[1:])
        cells, rows, overlap = interval_cell_overlaps(nodes, img_lo, img_hi)
        data = overlap / widths[rows]
        piece = sp.coo_matrix((data, (rows, cells)), shape=(M, M)).tocsr()
        pieces.append(piece)
    return pieces


def assemble_induced_matrix(sys: InducedOpenSystem, grid: Grid, z: float = 1.0) -> TransferMatrix:
    """Discretized open induced operator N_z on the given grid."""
    pieces = induced_branch_matrices(sys, grid)
    return combine_branch_matrices(sys, grid, pieces, z)


def combine_branch_matrices(sys: InducedOpenSystem, grid: Grid, pieces, z: float = 1.0) -> TransferMatrix:
    total = pieces[0] * z
    for n, piece in enumerate(pieces[1:], start=2):
        total = total + piece * (z ** n)
    return TransferMatrix(KIND_INDUCED, grid, total.tocsr())


def pwl_exact_matrix(m: MapSpec, N: int) -> TransferMatrix:
    """The exact rank-one matrix of a piecewise-linear induced system: every
    row equals (p_1, ..., p_N) on the natural partition."""
    if m.family != "pwl":
        raise DomainError("exact matrix exists only for the pwl family")
    grid = natural_partition_grid(m, N)
    p = np.asarray(m.weights.mass(np.arange(1, N + 1)), float)
    # natural grid cells run left to right: hole block, A_N, ..., A_1
    M = grid.n_cells
    dense = np.zeros((M, M))
    seq = preimage_sequence(m, N).values
    centers = 0.5 * (grid.lo + grid.hi)
    col_of_branch = {}
    for n in range(1, N + 1):
        inside = (centers > seq[n]) & (centers <= seq[n - 1])
        col_of_branch[n] = int(np.nonzero(inside)[0][0])
    for n in range(1, N + 1):
        dense[:, col_of_branch[n]] = p[n - 1]
    return TransferMatrix(KIND_PWL_EXACT, grid, sp.csr_matrix(dense))


def assemble_ulam_open(m: MapSpec, epsilon: float, grid: Grid) -> TransferMatrix:
    """Ulam matrix of the original open map on cells above the hole.

    Entry (i, j) = m(cell_i intersect F^{-1}(cell_j)) / m(cell_i), computed
    exactly from inverse-branch images of the cell boundaries; rows and
    columns of cells meeting [0, epsilon] are removed (their indices stay in
    the matrix as structural zeros so the grid indexing is unchanged).
    """
    i0 = grid.node_index(epsilon)
    nodes = grid.nodes
    live_nodes = nodes[i0:]
    M = grid.n_cells
    widths = grid.widths

    blocks = []
    for branch in (0, 1):
        u = np.asarray(maps.inverse_branch(m, branch, live_nodes), float)
        pre_lo = np.minimum(u[:-1], u[1:])
        pre_hi = np.maximum(u[:-1], u[1:])
        pre_lo = np.maximum(pre_lo, epsilon)  # source mass below the hole edge escaped already
        rows, tgt, overlap = interval_cell_overlaps(nodes, pre_lo, pre_hi)
        if rows.size == 0:
            continue
        data = overlap / widths[rows]
        blocks.append(sp.coo_matrix((data, (rows, tgt + i0)), shape=(M, M)))
    matrix = sum(blocks).tocsr() if blocks else sp.csr_matrix((M, M))
    return TransferMatrix(KIND_ULAM, grid, matrix)
