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
the full matrix and the dominant class must be unique.

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


def _prune_support(A: sp.csr_matrix):
    """Iteratively drop zero rows/columns; returns kept indices and the block.

    Dropping an index with a zero row (or column) leaves the nonzero spectrum
    unchanged, because the matrix is block triangular over the dropped set.
    """
    n = A.shape[0]
    keep = np.arange(n)
    B = A
    while True:
        row = np.asarray(np.abs(B).sum(axis=1)).ravel()
        col = np.asarray(np.abs(B).sum(axis=0)).ravel()
        alive = (row > 0) & (col > 0)
        if alive.all():
            return keep, B
        if not alive.any():
            raise ReducibleMatrixError("matrix has no recurrent support")
        B = B[np.ix_(alive, alive)].tocsr()
        keep = keep[alive]


def _power_pair(B: sp.csr_matrix, tol: float, maxiter: int):
    """Two-sided power iteration on an irreducible nonnegative block."""
    BT = B.T.tocsr()
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
        lam = 0.5 * (rv.max() + rv.min())
        gap = max(rv.max() - rv.min(), ru.max() - ru.min())
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


def _extend_to_full(A, AT, lam, core_idx, h_core, nu_core, maxiter=2000):
    """Fill non-core entries so (h, nu) solve the full eigen equations.

    Off the dominant class the equations h = (A h)/lam and nu = (A^T nu)/lam
    are contractions (every other class has spectral radius strictly below
    lam), so fixed-point iteration with the core pinned converges
    geometrically.
    """
    n = A.shape[0]
    h = np.zeros(n)
    nu = np.zeros(n)
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


def leading_eigen(tm: TransferMatrix, tol: float = 1e-13, maxiter: int = 100_000) -> SpectralTriple:
    """Perron root and both eigenvectors by two-sided power iteration.

    The matrix must be nonnegative with a unique dominant strongly connected
    class on its support (ReducibleMatrixError otherwise).  Raises
    ConvergenceError when the ratio gap fails to reach ``tol`` within
    ``maxiter`` iterations.
    """
    A = tm.matrix.tocsr()
    if A.nnz == 0:
        raise ReducibleMatrixError("zero matrix")
    if np.any(A.data < 0):
        raise DomainError("transfer matrices must be nonnegative")

    keep, B = _prune_support(A)
    ncomp, labels = connected_components(B, directed=True, connection="strong")
    if ncomp == 1:
        core_local = np.arange(B.shape[0])
        core_block = B
        n_transient = 0
    else:
        # one-cell classes take their radius straight from the diagonal
        sizes = np.bincount(labels, minlength=ncomp)
        radii = np.empty(ncomp)
        single = sizes[labels] == 1
        radii[labels[single]] = B.diagonal()[single]
        for c in np.nonzero(sizes > 1)[0]:
            idx = np.nonzero(labels == c)[0]
            radii[c] = _component_radius(B[np.ix_(idx, idx)].tocsr())
        order = np.argsort(radii)
        best, second = radii[order[-1]], radii[order[-2]]
        if second >= best * (1.0 - 1e-9):
            raise ReducibleMatrixError(
                f"no unique dominant class: top spectral radii {best:.6e} and {second:.6e}"
            )
        core_local = np.nonzero(labels == order[-1])[0]
        core_block = B[np.ix_(core_local, core_local)].tocsr()
        n_transient = B.shape[0] - core_local.size

    lam, v, u, iterations = _power_pair(core_block, tol, maxiter)
    core_idx = keep[core_local]
    h, nu = _extend_to_full(A, A.T.tocsr(), lam, core_idx, v, u)

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
        "pruned_cells": int(A.shape[0] - B.shape[0]),
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
) -> np.ndarray:
    """Branch masses of the normalized eigen-pair product.

    Branch k receives (1/lambda) * integral of |zeta_k'(x)| h(zeta_k(x))
    d nu(x), evaluated through the same exact per-branch kernels used in the
    assembly; the masses then add up to the pairing sum(nu h) = 1 to
    rounding.  Computed through the eigen-pair rather than by cell-indicator
    sums so cylinder boundaries cannot straddle cells.
    """
    grid = grid or triple.grid
    if pieces is None:
        pieces = induced_branch_matrices(sys, grid)
    lam = triple.eigenvalue
    nu = triple.eigenmeasure
    h = triple.eigenfunction
    masses = np.array([float(nu @ (piece @ h)) / lam for piece in pieces])
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
