import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from parabolic_escape import maps, operators
from parabolic_escape.exceptions import DomainError
from parabolic_escape.induced import branch_walk, build_induced
from parabolic_escape.maps import MapSpec, preimage_sequence
from parabolic_escape.operators import (
    Grid,
    apply_open_induced,
    apply_Q0,
    apply_Q1,
    assemble_ulam_open,
    combine_branch_matrices,
    hole_grid,
    identity_residual,
    induced_branch_matrices,
    interval_cell_overlaps,
    markov_grid,
    natural_partition_grid,
    pwl_exact_matrix,
)
from parabolic_escape.spectral import leading_eigen

FAREY = MapSpec.farey()
LSV_HALF = MapSpec.lsv(0.5)
PM_ONE = MapSpec.pomeau_manneville(1.0)
PWL_ONE = MapSpec.pwl(1.0)

ONES = lambda x: np.ones_like(np.asarray(x, float))  # noqa: E731
SQUARE = lambda x: np.asarray(x, float) ** 2  # noqa: E731


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_invariants():
    with pytest.raises(DomainError):
        Grid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(DomainError):
        Grid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(DomainError):
        Grid(np.array([0.0, np.nan, 1.0]))
    g = Grid(np.array([0.0, 0.25, 1.0]))
    assert g.n_cells == 2
    assert g.node_index(0.25) == 1
    with pytest.raises(DomainError):
        g.node_index(0.3)


def test_markov_grid_contains_preimage_chain():
    for m in (FAREY, LSV_HALF, PM_ONE):
        g = markov_grid(m, 5, 256)
        seq = preimage_sequence(m, 5).values
        for a in seq:
            assert np.min(np.abs(g.nodes - a)) <= 1e-14
    # pwl uses the natural partition regardless of size
    g = markov_grid(PWL_ONE, 5, 4096)
    assert g.n_cells <= 9


@pytest.mark.parametrize("m", [PM_ONE, MapSpec.pomeau_manneville(2.0), LSV_HALF, MapSpec.lsv(2.0), FAREY],
                         ids=lambda m: f"{m.family}-{m.s}")
def test_markov_grid_is_the_hole_grid_at_the_hole_edge(m, monkeypatch):
    cases = ((2, 16), (5, 256), (40, 4096), (300, 1024))
    expected = [hole_grid(m, preimage_sequence(m, N)[N], size).nodes for N, size in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("markov_grid called the public hole_grid")

    # a nested public call would count the grid twice in a traced run
    monkeypatch.setattr(operators, "hole_grid", forbidden)
    for (N, size), nodes in zip(cases, expected):
        assert np.array_equal(markov_grid(m, N, size).nodes, nodes)


def test_hole_grid_has_epsilon_node():
    g = hole_grid(LSV_HALF, 0.2, 128)
    assert g.node_index(0.2) >= 0
    for epsilon in (0.0, 1.0, 1.5, np.nan):
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1\)"):
            hole_grid(LSV_HALF, epsilon, 128)


def test_interval_cell_overlaps_oracle():
    nodes = np.array([0.0, 0.25, 0.5, 1.0])
    cells, which, overlap = interval_cell_overlaps(nodes, np.array([0.1, 0.6]))
    # [0.1, 0.6] meets [0, .25], [.25, .5], [.5, 1] with lengths .15, .25, .1
    assert list(cells) == [0, 1, 2]
    assert np.allclose(overlap, [0.15, 0.25, 0.1])
    assert set(which) == {0}


def _two_search_overlaps(nodes, lo_k, hi_k):
    """Overlaps of the intervals [lo_k, hi_k] with the cells, each end placed
    by its own binary search: the reference for the one-search form."""
    n_cells = len(nodes) - 1
    which0 = np.nonzero(hi_k > lo_k)[0]
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
    overlap = np.minimum(nodes[cells + 1], np.repeat(h_v, counts)) - np.maximum(nodes[cells], np.repeat(l_v, counts))
    keep = overlap > 0
    return cells[keep], which[keep], overlap[keep]


def _assert_same_triplets(got, ref):
    for a, b in zip(got, ref, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _bounds_cases():
    """Bounds as the callers pass them, each with the intervals [lo, hi] that
    the same caller passed to the two-search form."""
    nodes = markov_grid(LSV_HALF, 6, 512).nodes
    edge = float(preimage_sequence(LSV_HALF, 6)[6])
    rising = np.asarray(maps.left_inverse(LSV_HALF, nodes), float)
    falling = np.asarray(maps.right_inverse(FAREY, nodes), float)
    on_nodes = np.sort(np.concatenate([nodes[::7], 0.5 * (nodes[3:-1:11] + nodes[4::11])]))
    repeated = np.repeat(on_nodes, 3)[::-1]

    def spans(u):
        return np.minimum(u[:-1], u[1:]), np.maximum(u[:-1], u[1:])

    lo_fall, hi_fall = spans(falling)
    return nodes, {
        "increasing": (rising, *spans(rising)),
        "decreasing": (falling, *spans(falling)),
        # the invariant function's clip: the lower end of each image at the edge
        "clipped-increasing": (np.maximum(rising, edge), np.maximum(rising[:-1], edge), rising[1:]),
        # the Ulam assembly's clip, on a decreasing branch
        "clipped-decreasing": (np.maximum(falling, 0.6), np.maximum(lo_fall, 0.6), hi_fall),
        "on-nodes": (on_nodes, *spans(on_nodes)),
        "repeated": (repeated, *spans(repeated)),
    }


@pytest.mark.parametrize("case", ["increasing", "decreasing", "clipped-increasing", "clipped-decreasing",
                                  "on-nodes", "repeated"])
def test_overlaps_from_monotone_bounds_match_two_searches(case):
    nodes, cases = _bounds_cases()
    bounds, lo, hi = cases[case]
    got = interval_cell_overlaps(nodes, bounds)
    _assert_same_triplets(got, _two_search_overlaps(nodes, lo, hi))
    assert got[0].size > 0


@settings(max_examples=200, deadline=None)
@given(
    interior=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=12, unique=True),
    picks=st.lists(st.one_of(st.integers(0, 13), st.floats(0.0, 1.0)), min_size=1, max_size=30),
    reverse=st.booleans(),
)
def test_overlaps_from_drawn_bounds_match_two_searches(interior, picks, reverse):
    # bounds drawn from the nodes themselves and from [0, 1], with repeats
    nodes = np.concatenate([[0.0], np.sort(interior), [1.0]])
    values = [nodes[min(p, len(nodes) - 1)] if isinstance(p, int) else p for p in picks]
    bounds = np.sort(np.array(values, float))
    if reverse:
        bounds = bounds[::-1]
    ref = _two_search_overlaps(nodes, np.minimum(bounds[:-1], bounds[1:]), np.maximum(bounds[:-1], bounds[1:]))
    _assert_same_triplets(interval_cell_overlaps(nodes, bounds), ref)


def test_nan_bound_empties_both_neighbours():
    nodes = np.array([0.0, 0.25, 0.5, 1.0])
    cells, which, overlap = interval_cell_overlaps(nodes, np.array([0.1, 0.3, np.nan, 0.6, 0.9]))
    assert list(which) == [0, 0, 3] and list(cells) == [0, 1, 2]
    assert np.allclose(overlap, [0.15, 0.05, 0.3])


# ---------------------------------------------------------------------------
# pointwise operators
# ---------------------------------------------------------------------------

def test_apply_q0_examples():
    # pullback annihilated when the preimage falls in the hole
    assert apply_Q0(FAREY, 3, ONES, 0.2) == 0.0
    # moebius derivative by hand: phi0(1/2) = 1/3, weight (2/3)^2
    assert apply_Q0(FAREY, 3, ONES, 0.5) == pytest.approx(4 / 9, abs=1e-14)
    # affine slope ratio for the piecewise-linear family
    assert apply_Q0(PWL_ONE, 2, ONES, 0.9) == pytest.approx(1 / 3, abs=1e-14)


@pytest.mark.parametrize("m", [FAREY, LSV_HALF], ids=["farey", "lsv"])
@pytest.mark.parametrize("x", [np.nan, -0.5, 1.5, np.array([0.6, np.nan])], ids=["nan", "below", "above", "nan-array"])
def test_apply_q0_rejects_points_outside_the_unit_interval(m, x):
    # below a_{N-1} a point is in the hole and its term 0, but only inside [0, 1]
    with pytest.raises(DomainError):
        apply_Q0(m, 3, ONES, x)


def test_apply_q1_right_branch_weight():
    # |phi_1'| = x^2 at phi_1 for the farey family: phi1(x) = 1/(1+x)
    x = 0.5
    assert apply_Q1(FAREY, ONES, x) == pytest.approx(1.0 / (1 + x) ** 2, abs=1e-14)


def test_apply_open_induced_examples():
    pwl_sys = build_induced(PWL_ONE, 4)
    total = apply_open_induced(pwl_sys, 1.0, ONES, 0.37)
    assert total == pytest.approx(4 / 5, abs=1e-14)  # sum of the first four masses
    farey_sys = build_induced(FAREY, 2)
    assert apply_open_induced(farey_sys, 1.0, ONES, 0.0) == pytest.approx(1.25, abs=1e-14)
    assert apply_open_induced(farey_sys, 0.0, SQUARE, 0.3) == 0.0
    with pytest.raises(DomainError):
        apply_open_induced(farey_sys, 1.5, ONES, 0.3)


POINTS = np.linspace(0.013, 0.987, 50)


@pytest.mark.parametrize("m", [PWL_ONE, LSV_HALF, FAREY, PM_ONE], ids=lambda m: m.family)
@pytest.mark.parametrize("z", [0.0, 0.25, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8])
def test_identity_residual(m, z, N):
    sys = build_induced(m, N)
    tol = 1e-12 if m.family == "pwl" else 1e-10  # affine arithmetic is exact
    assert identity_residual(sys, z, SQUARE, POINTS) <= tol


# ---------------------------------------------------------------------------
# assembled matrices
# ---------------------------------------------------------------------------

def test_pwl_natural_grid_reproduces_exact_matrix():
    sys = build_induced(PWL_ONE, 4)
    grid = natural_partition_grid(PWL_ONE, 4)
    tm_gen = combine_branch_matrices(sys, grid, induced_branch_matrices(sys, grid))
    tm_ex = pwl_exact_matrix(PWL_ONE, 4)
    assert np.max(np.abs(tm_gen.matrix.toarray() - tm_ex.matrix.toarray())) <= 1e-14
    # live columns of the exact matrix: every row equals (p_1, ..., p_N)
    dense = tm_ex.matrix.toarray()
    live = np.nonzero(dense[0])[0]
    p_sorted = np.sort(1.0 / (np.arange(1, 5) * np.arange(2, 6)))
    assert np.allclose(np.sort(dense[0, live]), p_sorted, atol=1e-15)
    assert np.allclose(dense, dense[0], atol=1e-15)


@pytest.mark.parametrize("m", [LSV_HALF, FAREY, PM_ONE], ids=lambda m: m.family)
def test_exact_matrix_only_for_pwl(m):
    with pytest.raises(DomainError, match="only for the pwl family"):
        pwl_exact_matrix(m, 3)


def test_single_cell_grid_collapses_to_total_weight():
    # one live cell spanning (a_N, 1]: the entry is the full weight integral
    m = FAREY
    sys = build_induced(m, 2)
    a2 = preimage_sequence(m, 2)[2]
    grid = Grid(np.array([0.0, a2, 1.0]))
    tm = combine_branch_matrices(sys, grid, induced_branch_matrices(sys, grid))
    dense = tm.matrix.toarray()
    # integral of sum_n |zeta_n'| over the cell equals the measure of the
    # branch images of the cell: |zeta_1((1/3, 1])| + |zeta_2((1/3, 1])|
    total = (3 / 4 - 1 / 2) + (3 / 7 - 1 / 3)
    assert dense[1, 1] == pytest.approx(total / (1 - a2), abs=1e-13)


def test_ulam_rows_substochastic():
    for m in (FAREY, LSV_HALF, PM_ONE, PWL_ONE):
        eps = preimage_sequence(m, 3)[3]
        grid = hole_grid(m, eps, 512)
        tm = assemble_ulam_open(m, eps, grid)
        rs = tm.matrix.sum(axis=1).A1
        assert rs.min() >= 0.0
        assert rs.max() <= 1.0 + 1e-12


def test_ulam_closed_system_rows_stochastic():
    # epsilon -> 0: surviving rows approach full mass
    eps = 1e-4
    grid = hole_grid(FAREY, eps, 512)
    tm = assemble_ulam_open(FAREY, eps, grid)
    rs = tm.matrix.sum(axis=1).A1
    live = rs > 0
    assert rs[live].max() <= 1.0 + 1e-12
    assert np.median(rs[live]) >= 0.99


def test_pwl_ulam_markov_hole_recovers_branch_mass():
    # hole aligned at a_N: the Perron root equals the survivor mass exactly
    # once the grid is Markov-aligned, and stays there as the grid refines
    for size in (128, 512):
        eps = 1.0 / 3.0
        grid = hole_grid(PWL_ONE, eps, size)
        tm = assemble_ulam_open(PWL_ONE, eps, grid)
        lam = leading_eigen(tm).eigenvalue
        # exact survival decay rate for the two-cell renewal system
        target = (0.5 + np.sqrt(0.25 + 4 / 6)) / 2
        assert lam == pytest.approx(target, abs=1e-12)


def test_ulam_refinement_differences_decrease():
    m = LSV_HALF
    eps = preimage_sequence(m, 4)[4]
    lams = []
    for size in (512, 1024, 2048, 4096):
        grid = hole_grid(m, eps, size)
        lams.append(leading_eigen(assemble_ulam_open(m, eps, grid)).eigenvalue)
    diffs = np.abs(np.diff(lams))
    assert np.all(np.diff(diffs) < 0)


def test_assemble_ulam_requires_node():
    grid = hole_grid(FAREY, 0.2, 64)
    with pytest.raises(DomainError):
        assemble_ulam_open(FAREY, 0.21, grid)



# ---------------------------------------------------------------------------
# branch pieces from one chain walk, combined from one stack
# ---------------------------------------------------------------------------

def _reference_branch_nodes(m, n, x):
    """zeta_n(x) built from scratch for one n: the closed forms for farey and
    pwl, otherwise phi_1 followed by n - 1 applications of phi_0."""
    if m.family == "farey":
        return 1.0 / (n + x)
    if m.family == "pwl":
        p_n = float(np.asarray(m.weights.mass(n), float))
        return float(m.weights.tail(n)) + p_n * x
    y = maps.right_inverse(m, x)
    for _ in range(n - 1):
        y = maps.left_inverse(m, y)
    return np.asarray(y, float)


@pytest.mark.parametrize("m", [PM_ONE, LSV_HALF, FAREY, PWL_ONE], ids=lambda m: m.family)
def test_branch_pieces_match_per_branch_reference(m):
    N = 12
    sys = build_induced(m, N)
    grid = markov_grid(m, N, 512)
    nodes, widths, M = grid.nodes, grid.widths, grid.n_cells
    pieces = induced_branch_matrices(sys, grid)
    assert len(pieces) == N
    walked = [np.asarray(y, float) for y, _ in branch_walk(sys, nodes)]
    k0 = maps._walked_branches(m, N)
    seq = sys.preimages
    for n, piece in enumerate(pieces, start=1):
        u = _reference_branch_nodes(m, n, nodes)
        if n > k0:
            # past k0 a smooth walk reads its branches from the Abel function,
            # within 1e-14 relative of the composed inverses; the assembly from
            # those images is exact
            assert np.all(np.abs(walked[n - 1] - u) <= 1e-14 * u)
            u = walked[n - 1]
        # the images clipped to the cylinder [a_n, a_(n-1)]; the pieces are
        # assembled as CSR directly, the reference goes through COO
        cells, rows, overlap = interval_cell_overlaps(nodes, np.clip(u, seq[n], seq[n - 1]))
        ref = sp.coo_matrix((overlap / widths[rows], (rows, cells)), shape=(M, M)).tocsr()
        assert np.array_equal(piece.indptr, ref.indptr)
        assert np.array_equal(piece.indices, ref.indices)
        assert piece.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("m,N,size", [(PM_ONE, 13, 4096), (LSV_HALF, 40, 4096), (FAREY, 13, 4096), (FAREY, 100, 4096),
                                      (PWL_ONE, 25, 4096)], ids=["pm-13", "lsv-40", "farey-13", "farey-100", "pwl-25"])
def test_branch_pieces_stay_inside_their_cylinders(m, N, size):
    # piece n maps into zeta_n's image [a_n, a_(n-1)], whose ends are grid
    # nodes; a closed-form branch one ulp off the chain must not spill
    # entries into the neighbouring cylinders
    grid = markov_grid(m, N, size)
    seq = build_induced(m, N).preimages
    for n, piece in enumerate(induced_branch_matrices(build_induced(m, N), grid), start=1):
        targets = np.unique(piece.indices)
        assert targets.size and grid.lo[targets].min() >= seq[n] and grid.hi[targets].max() <= seq[n - 1]


def test_branch_pieces_walk_the_chain_once(monkeypatch):
    N = 40
    sys = build_induced(LSV_HALF, N)
    grid = markov_grid(LSV_HALF, N, 512)
    calls = []
    original = maps._Smooth.inv_left

    def counting(branches, y):
        calls.append(1)
        return original(branches, y)

    monkeypatch.setattr(maps._Smooth, "inv_left", counting)
    induced_branch_matrices(sys, grid)
    # root solves down to branch k0 = 13, the rest from the Abel function;
    # rebuilding each branch from scratch takes N(N-1)/2
    assert len(calls) == maps._walked_branches(LSV_HALF, N) - 1 == 12


def test_combined_matrix_is_the_sequential_sum():
    N = 100
    sys = build_induced(LSV_HALF, N)
    grid = markov_grid(LSV_HALF, N, 4096)
    pieces = induced_branch_matrices(sys, grid)
    # the scaled sum sum_n z**n piece_n at z = 1: every factor an exact 1.0
    total = pieces[0] * 1.0
    for piece in pieces[1:]:
        total = total + piece * 1.0
    total = total.tocsr()
    A = combine_branch_matrices(sys, grid, pieces).matrix
    assert np.array_equal(A.indptr, total.indptr)
    assert np.array_equal(A.indices, total.indices)
    assert A.data.tobytes() == total.data.tobytes()
