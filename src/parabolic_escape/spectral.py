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
EIGEN_TOL, and that root is its radius; with rivals, smaller classes, which
may be periodic, take a dense radius, one-cell classes their diagonal entry.
The dominant class (which must be unique) keeps its pair, or if small gets
one, and both eigenvectors are filled on the other cells so that they are
eigenvectors of the full matrix: by one sparse solve on the transient classes,
and on the peeled cells, which lie on no cycle, in one pass back along the peel.

The leading pair feeds three derived quantities: the cylinder masses of the
normalized product h * nu, the accumulated hole-avoiding pullback function of
the eigenfunction, and the mass consistency check between its integral and
the mean return time.  The prune reads each edge at most once and the fill
each peeled row of A once, ``PEEL_CHUNK`` rows at a time, and the mass check
pulls back only the nodes of the cells where nu is nonzero.
scipy.sparse and its csgraph are imported on the first ``leading_eigen`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import maps
from .exceptions import ConvergenceError, DomainError, NormalizationError, ReducibleMatrixError
from .induced import InducedOpenSystem
from .operators import Grid, TransferMatrix, interval_cell_overlaps

if TYPE_CHECKING:
    import scipy.sparse as sp

#: relative ratio gap that ends power iteration, and |log lambda| that ends a unit-eigenvalue solve
EIGEN_TOL = 1e-13
EIGEN_MAXITER = 100_000  # power iterations a class may take to reach EIGEN_TOL
PEEL_CHUNK = 16_384  # peeled rows whose entries the prune and the fill read at once


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """Leading eigenvalue with right/left eigenvectors on a grid.

    ``eigenfunction`` holds per-cell values (the density-like right vector),
    ``eigenmeasure`` per-cell masses summing to one.  The joint normalization
    sum(eigenmeasure * eigenfunction) = 1 makes their product a probability.
    The solved matrix itself is not kept.
    """

    eigenvalue: float
    eigenfunction: np.ndarray
    eigenmeasure: np.ndarray
    grid: Grid
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("eigenfunction", "eigenmeasure"):
            arr = np.array(getattr(self, name), float)  # a copy: the caller's array stays writable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def residual(self) -> float:
        return max(self.stats.get("residual_right", 0.0), self.stats.get("residual_left", 0.0))


def _prune_support(A: sp.csr_matrix, AT: sp.csr_matrix):
    """The largest set in which every index has a kept source and a kept
    target under the nonnegative ``A`` (``AT`` the CSR transpose of A or of
    its pattern, neither storing zeros), and the peel that found it.

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
            for _, _, entries in _row_entries(M, rows):
                np.subtract.at(deg, M.indices[entries], deg.dtype.type(1))  # deg's own type: no cast
        dying = np.nonzero(alive & ((out_deg == 0) | (in_deg == 0)))[0]
    if not alive.any():
        raise ReducibleMatrixError("matrix has no recurrent support")
    return np.nonzero(alive)[0], rounds


def _power_pair(B: sp.csr_matrix):
    """Two-sided power iteration on an irreducible nonnegative block ``B``, from
    the uniform vectors, to ``EIGEN_TOL``.  The left one multiplies by the CSC
    view ``B.T``: it sums as the CSR transpose would, so same bits, no copy."""
    BT = B.T
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
    once, from final ones: one read of each peeled row of A, and for nu one
    product with ``AT`` (A's transpose in any sparse format) per round that
    peeled no-target cells.
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
        nu[transient_idx] = lu.solve((AT @ nu)[transient_idx], trans="T")
    for no_source, no_target in reversed(rounds):
        for part, count, entries in _row_entries(A, no_source):
            # each row summed in CSR order from 0, as A[part] @ h sums it
            weights = A.data[entries] * h[A.indices[entries]]
            h[part] = np.bincount(np.repeat(np.arange(len(part)), count), weights, len(part)) / lam
        if len(no_target):
            nu[no_target] = (AT @ nu)[no_target] / lam
    return h, nu


def _row_entries(M, rows):
    """Per ``PEEL_CHUNK`` of ``rows``: those rows, their entry counts in the CSR
    ``M`` and their entries' positions, in CSR order (read from the indptr)."""
    for i in range(0, len(rows), PEEL_CHUNK):
        part = rows[i:i + PEEL_CHUNK]
        first = M.indptr[part]
        count = M.indptr[part + 1] - first
        yield part, count, np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def leading_eigen(tm: TransferMatrix) -> SpectralTriple:
    """Perron root and both eigenvectors by a cold solve: two-sided power
    iteration from the uniform vectors on the dominant class.

    The matrix must be nonnegative with a unique dominant strongly connected
    class on its support: ReducibleMatrixError when the top two class radii
    lie within 1e-9 relative.  Every class of more than 256 cells is solved
    once, as is a smaller dominant one: ConvergenceError when one does not
    settle within ``EIGEN_MAXITER`` iterations.  The transient cells take
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

    # the peel reads only the transpose's pattern: one byte of data an entry
    AT = sp.csr_matrix((np.ones(A.nnz, np.int8), A.indices, A.indptr), shape=A.shape).T.tocsr()
    keep, rounds = _prune_support(A, AT)
    B = A if len(keep) == A.shape[0] else A[np.ix_(keep, keep)].tocsr()
    ncomp, labels = connected_components(B, directed=True, connection="strong")

    def block(c):  # a lone class is the pruned matrix itself
        if ncomp == 1:
            return B
        idx = np.nonzero(labels == c)[0]
        return B[np.ix_(idx, idx)].tocsr()

    # one-cell classes take their radius straight from the diagonal
    sizes = np.bincount(labels, minlength=ncomp)
    radii = np.zeros(ncomp)
    single = sizes[labels] == 1
    radii[labels[single]] = B.diagonal()[single]
    pairs = {}
    for c in np.nonzero(sizes > 1)[0]:
        if sizes[c] > 256:
            pairs[c] = _power_pair(block(c))
            radii[c] = pairs[c][0]
        elif ncomp > 1:  # a lone class wins unranked: no dense radius
            # small classes may be periodic, where the ratios cannot settle
            radii[c] = np.max(np.abs(np.linalg.eigvals(block(c).toarray())))
    best = radii.argmax()
    second = np.partition(radii, -2)[-2] if ncomp > 1 else -np.inf
    if second >= radii[best] * (1.0 - 1e-9):
        raise ReducibleMatrixError(
            "no unique dominant class: the top two spectral radii differ by "
            f"{(radii[best] - second) / radii[best]:.3e} relative"
        )
    lam, v, u, iterations = pairs[best] if best in pairs else _power_pair(block(best))
    in_core = labels == best
    core_idx, transient_idx = keep[in_core], keep[~in_core]
    AT = A.T  # A.T @ nu sums in the CSR transpose's order: the fill keeps no transpose
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
    return SpectralTriple(float(lam), h, nu, tm.grid, stats=stats)


# ---------------------------------------------------------------------------
# cylinder masses and the mass identity
# ---------------------------------------------------------------------------

def cylinder_masses(sys: InducedOpenSystem, triple: SpectralTriple) -> np.ndarray:
    """Mass of the normalized product h * nu on each cylinder
    A_k = (a_k, a_{k-1}], k = 1 .. N; DomainError unless the grid nodes hold
    the chain a_N .. a_0, as those of Markov grids and natural partitions do.

    Only for the leading pair of the induced matrix N_1 do these equal its
    branch masses nu (P_k h) / lambda, whose mean k is the derivative of
    log lambda(e^t) at t = 0: the columns of piece P_k are the cells of A_k,
    where nu N_1 = lambda nu gives nu P_k = lambda nu.  Any other pair (Ulam,
    hand-built) gets its own h * nu mass on each cylinder.  NormalizationError
    when the masses do not add up to 1 within 1e-9 (mass in the hole).
    """
    nodes = triple.grid.nodes
    chain = sys.preimages[::-1]
    at = np.searchsorted(nodes, chain)
    if np.any(nodes[at] != chain):
        raise DomainError("grid nodes miss the preimage chain a_N .. a_0")
    # the cells of A_N, ..., A_1 run from each chain node to the next
    masses = np.add.reduceat(triple.eigenmeasure * triple.eigenfunction, at[:-1])[::-1]
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
    # the nodes of the filled cells; interval j, from kept[j] to kept[j + 1], is
    # cell kept[j] exactly when that cell is filled, for then kept[j + 1] = kept[j] + 1
    kept = np.flatnonzero(np.append(fill, False) | np.insert(fill, 0, False))
    own = fill[kept[:-1]]
    u = nodes[kept]
    for k in range(1, sys.branch_count):
        u = maps.left_inverse(sys.map, u)
        # x survives k pullbacks iff its k-fold image stays above the hole
        # edge, so clipping the image interval realizes the indicator exactly
        cells, which, overlap = interval_cell_overlaps(nodes, np.maximum(u, hole_edge))
        mine = own[which]
        e = e + np.bincount(kept[which[mine]], overlap[mine] * h[cells[mine]], grid.n_cells) / widths
    return e


class MassCheck(NamedTuple):
    mass_from_function: float
    mass_from_cylinders: float
    discrepancy: float


def invariant_mass(sys: InducedOpenSystem, triple: SpectralTriple) -> MassCheck:
    """Total mass of the accumulated invariant function versus the mean
    return time of the cylinder masses; their gap is a pure discretization
    diagnostic (the two agree in exact arithmetic).  The masses read the
    eigen-pair alone (see :func:`cylinder_masses`).  The eigenmeasure reads
    the invariant function only on its support, so only the cells there are
    pulled back."""
    nu = triple.eigenmeasure
    mass_a = float(nu @ _pullback_sum(sys, triple, nu != 0))
    mass_b = mean_return_time(cylinder_masses(sys, triple))
    return MassCheck(mass_a, mass_b, abs(mass_a - mass_b))


def mean_return_time(masses: np.ndarray) -> float:
    """Expected return time sum_k k * mass_k of a branch-mass vector."""
    masses = np.asarray(masses, float)
    ks = np.arange(1, len(masses) + 1)
    return float(ks @ masses)
