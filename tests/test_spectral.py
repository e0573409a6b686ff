import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.sparse.csgraph import breadth_first_order

from parabolic_escape import maps, operators, spectral
from parabolic_escape.exceptions import ConvergenceError, DomainError, NormalizationError, ReducibleMatrixError
from parabolic_escape.induced import build_induced
from parabolic_escape.maps import ExplicitWeights, MapSpec
from parabolic_escape.operators import (
    Grid,
    TransferMatrix,
    assemble_ulam_open,
    combine_branch_matrices,
    hole_grid,
    induced_branch_matrices,
    markov_grid,
    natural_partition_grid,
    pwl_exact_matrix,
)
from parabolic_escape.spectral import (
    cylinder_masses,
    invariant_function,
    invariant_mass,
    leading_eigen,
    mean_return_time,
)

FAREY = MapSpec.farey()
LSV_HALF = MapSpec.lsv(0.5)
PWL_ONE = MapSpec.pwl(1.0)


def _induced_triple(m, N, size):
    sys = build_induced(m, N)
    grid = markov_grid(m, N, size)
    pieces = induced_branch_matrices(sys, grid)
    triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
    return sys, grid, pieces, triple


# ---------------------------------------------------------------------------
# leading_eigen basics
# ---------------------------------------------------------------------------

def test_one_by_one_matrix():
    grid = Grid(np.array([0.0, 1.0]))
    # literal 1x1 case through the same machinery
    from parabolic_escape.operators import TransferMatrix

    tm = TransferMatrix(grid, sp.csr_matrix(np.array([[0.37]])))
    triple = leading_eigen(tm)
    assert triple.eigenvalue == pytest.approx(0.37, abs=1e-15)
    assert triple.eigenfunction[0] > 0
    assert triple.eigenmeasure[0] == 1.0


def test_pwl_exact_triple():
    tm = pwl_exact_matrix(PWL_ONE, 2)
    triple = leading_eigen(tm)
    assert triple.eigenvalue == pytest.approx(2 / 3, abs=1e-14)
    live = triple.eigenmeasure > 0
    h_live = triple.eigenfunction[live]
    assert np.max(np.abs(h_live - h_live[0])) <= 1e-12  # constant eigenfunction


def test_eigen_residual_invariants():
    for m, N, size in ((LSV_HALF, 4, 2048), (FAREY, 8, 1024)):
        sys, grid, pieces, triple = _induced_triple(m, N, size)
        A = combine_branch_matrices(sys, grid, pieces).matrix
        h, nu, lam = triple.eigenfunction, triple.eigenmeasure, triple.eigenvalue
        assert np.max(np.abs(A @ h - lam * h)) / np.max(np.abs(h)) <= 1e-12
        assert np.max(np.abs(A.T @ nu - lam * nu)) / np.max(np.abs(nu)) <= 1e-12
        assert nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(nu @ h) == pytest.approx(1.0, abs=1e-12)


def test_reducible_matrix_rejected():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    from parabolic_escape.operators import TransferMatrix

    # two decoupled unit blocks: no unique dominant class
    tm = TransferMatrix(grid, sp.csr_matrix(np.array([[0.7, 0.0], [0.0, 0.7]])))
    with pytest.raises(ReducibleMatrixError):
        leading_eigen(tm)


def test_periodic_core_fails_to_converge(monkeypatch):
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    from parabolic_escape.operators import TransferMatrix

    tm = TransferMatrix(grid, sp.csr_matrix(np.array([[0.0, 2.0], [0.5, 0.0]])))
    monkeypatch.setattr(spectral, "EIGEN_MAXITER", 300)
    with pytest.raises(ConvergenceError, match="in 300 iterations"):
        leading_eigen(tm)


def test_negative_entries_rejected():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    from parabolic_escape.operators import TransferMatrix

    tm = TransferMatrix(grid, sp.csr_matrix(np.array([[0.5, -0.1], [0.2, 0.4]])))
    with pytest.raises(DomainError):
        leading_eigen(tm)


def test_transient_cells_extended_exactly():
    # both full-matrix eigen equations hold on every cell, pruned and
    # transient ones included: to rounding of the cell's own value, and
    # exactly where that value is 0.  farey's Ulam matrix prunes cells whose
    # rows read transient classes.
    sys, grid, pieces, lsv = _induced_triple(LSV_HALF, 4, 1024)
    farey = assemble_ulam_open(FAREY, 0.236, hole_grid(FAREY, 0.236, 4096))
    for A, triple, pruned, transient in (
        (combine_branch_matrices(sys, grid, pieces).matrix, lsv, 338, 0),
        (farey.matrix, leading_eigen(farey), 3315, 117),
    ):
        lam = triple.eigenvalue
        for M, v in ((A, triple.eigenfunction), (A.T, triple.eigenmeasure)):
            assert np.all(np.abs(M @ v - lam * v) <= 1e-12 * lam * v)
        assert (triple.stats["pruned_cells"], triple.stats["transient_cells"]) == (pruned, transient)


@pytest.mark.parametrize("m,N,pruned,transient", [(FAREY, 13, 898, 0), (MapSpec("pm", 1.0), 13, 884, 0)],
                         ids=["farey-13", "pm-13"])
def test_cold_solve_prunes_and_splits(m, N, pruned, transient):
    # both prune hundreds of cells
    sys = build_induced(m, N)
    grid = markov_grid(m, N, 4096)
    triple = leading_eigen(combine_branch_matrices(sys, grid, induced_branch_matrices(sys, grid)))
    assert triple.stats["pruned_cells"] == pruned
    assert triple.stats["transient_cells"] == transient
    assert triple.residual <= 1e-12


def test_stored_structure_keeps_the_dominance_check():
    # two one-cell classes joined by a transient edge: a strictly larger
    # radius on the first dominates, an equal one is a tie and is rejected
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    untied = TransferMatrix(grid, sp.csr_matrix(np.array([[0.7, 0.1], [0.0, 0.5]])))
    triple = leading_eigen(untied)
    assert triple.eigenvalue == pytest.approx(0.7, abs=1e-14)
    assert triple.stats["transient_cells"] == 1
    tied = TransferMatrix(grid, sp.csr_matrix(np.array([[0.7, 0.1], [0.0, 0.7]])))
    with pytest.raises(ReducibleMatrixError):
        leading_eigen(tied)


def test_stored_zero_changes_nothing():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    stored = sp.csr_matrix(np.array([[0.5, 0.2], [0.1, 0.4]]))
    stored.data[2] = 0.0
    plain = sp.csr_matrix(np.array([[0.5, 0.2], [0.0, 0.4]]))
    a = leading_eigen(TransferMatrix(grid, stored))
    b = leading_eigen(TransferMatrix(grid, plain))
    assert a.eigenvalue == b.eigenvalue and a.stats == b.stats
    assert a.eigenfunction.tobytes() == b.eigenfunction.tobytes()
    assert a.eigenmeasure.tobytes() == b.eigenmeasure.tobytes()


def _aperiodic_block(n, seed):
    """A cycle, the diagonal and 3n random chords with weights in [0.1, 1],
    scaled to a dense spectral radius of 1: irreducible and aperiodic."""
    r = np.random.default_rng(seed)
    rows = np.r_[np.arange(n), np.arange(n), r.integers(0, n, 3 * n)]
    cols = np.r_[(np.arange(n) + 1) % n, np.arange(n), r.integers(0, n, 3 * n)]
    block = sp.csr_matrix((r.uniform(0.1, 1.0, len(rows)), (rows, cols)), shape=(n, n))
    return block / np.max(np.abs(np.linalg.eigvals(block.toarray())))


def _near_tie(seed, gap=3e-9):
    """Two disjoint 300-cell classes, the second's radius 1 + gap."""
    A = sp.block_diag([_aperiodic_block(300, seed), (1.0 + gap) * _aperiodic_block(300, 1000 + seed)], "csr")
    return TransferMatrix(Grid(np.linspace(0.0, 1.0, 601)), A)


def test_near_tied_classes_pick_the_larger_root():
    # radius estimates to 1e-8 could not order classes 3e-9 apart: the
    # smaller root came back, or a spurious tie was raised, for some seeds
    for seed in range(40):
        assert abs(leading_eigen(_near_tie(seed)).eigenvalue - (1.0 + 3e-9)) <= 1e-12
    with pytest.raises(ReducibleMatrixError, match=r"differ by (2\.99\d|3\.00\d)e-10 relative"):
        leading_eigen(_near_tie(0, gap=3e-10))


@pytest.mark.parametrize("rho", [0.99, 0.999, 0.9999, 0.99999])
def test_transient_fill_settles_inside_the_dominance_margin(rho):
    # a fixed point on the transient class converges at the ratio rho of its
    # radius to the core's: about 37,000 rounds at 0.999, and past 100,000 at
    # 0.9999; the fill solves the class's linear system instead
    A = sp.block_diag([_aperiodic_block(300, 1), rho * _aperiodic_block(300, 2)], "lil")
    A[300, 0] = 0.5
    A = A.tocsr()
    triple = leading_eigen(TransferMatrix(Grid(np.linspace(0.0, 1.0, 601)), A))
    lam = triple.eigenvalue
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert triple.stats["transient_cells"] == 300
    assert np.all(triple.eigenfunction[300:] > 0)
    for M, v in ((A, triple.eigenfunction), (A.T, triple.eigenmeasure)):
        assert np.all(np.abs(M @ v - lam * v) <= 1e-12 * lam * v)


def _markov_matrix(m, N, size):
    sys, grid = build_induced(m, N), markov_grid(m, N, size)
    return combine_branch_matrices(sys, grid, induced_branch_matrices(sys, grid))


@pytest.mark.parametrize("build,calls,iterations,transient", [
    (lambda: _markov_matrix(FAREY, 13, 4096), 1, 34, 0),                # one class above 256 cells, the core
    (lambda: _markov_matrix(MapSpec.lsv(1.0), 4, 65536), 1, 49, 1),     # a one-cell class beside the core
    (lambda: _near_tie(0), 2, None, 300),                               # two classes above 256 cells
], ids=["farey-13", "lsv-1-4", "near-tie"])
def test_each_class_is_solved_once(monkeypatch, build, calls, iterations, transient):
    tm = build()
    solves = []
    power_pair = spectral._power_pair

    def counting(*args):
        solves.append(power_pair(*args))
        return solves[-1]

    monkeypatch.setattr(spectral, "_power_pair", counting)
    triple = leading_eigen(tm)
    assert len(solves) == calls
    # the core's pair is the one its class was ranked by
    assert any(triple.eigenvalue == float(pair[0]) for pair in solves)
    if iterations is not None:
        assert triple.stats["iterations"] == iterations
    assert triple.stats["transient_cells"] == transient


def _sweep_support(A):
    """The prune as repeated sweeps, each a full A @ x and A.T @ x over the
    indicator of the kept set: the reference for the peel."""
    alive = np.ones(A.shape[0], bool)
    while True:
        x = alive.astype(float)
        still = alive & (A @ x > 0) & (A.T @ x > 0)
        if not still.any():
            raise ReducibleMatrixError("matrix has no recurrent support")
        if np.array_equal(still, alive):
            return np.nonzero(alive)[0]
        alive = still


def _peel_support(A):
    A = sp.csr_matrix(A)
    return spectral._prune_support(A, A.T.tocsr())[0]


@pytest.mark.parametrize("m,N", [(LSV_HALF, 4), (MapSpec.lsv(2.0), 3), (MapSpec("pm", 1.0), 4), (FAREY, 6)],
                         ids=["lsv-0.5", "lsv-2", "pm-1", "farey"])
def test_peel_keeps_what_the_sweeps_kept_on_markov_grids(m, N):
    _, grid, pieces, _ = _induced_triple(m, N, 4096)
    A = combine_branch_matrices(build_induced(m, N), grid, pieces).matrix
    kept = _peel_support(A)
    assert np.array_equal(kept, _sweep_support(A))
    assert 0 < len(kept) < A.shape[0]


@st.composite
def _sparse_graphs(draw):
    """Sparse nonnegative matrices: random edges and self-loops, plus a cycle
    with a transient chain running into it and one running out of it."""
    n = draw(st.integers(1, 24))
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    if draw(st.booleans()):
        path = draw(st.permutations(range(n)))
        a, b, c = sorted(draw(st.lists(st.integers(0, n), min_size=3, max_size=3)))
        chain_in, cycle, chain_out = path[:a], path[a:b], path[b:c]
        if cycle:
            edges += list(zip(chain_in, chain_in[1:] + cycle[:1]))
            edges += list(zip(cycle, cycle[1:] + cycle[:1]))
            edges += list(zip(cycle[-1:] + chain_out[:-1], chain_out))
    weights = draw(st.lists(st.floats(0.01, 2.0), min_size=len(edges), max_size=len(edges)))
    rows, cols = (np.array([e[k] for e in edges], int) for k in (0, 1))
    A = sp.coo_matrix((np.array(weights, float), (rows, cols)), shape=(n, n)).tocsr()
    A.sum_duplicates()
    return A


@settings(max_examples=300, deadline=None)
@given(A=_sparse_graphs())
def test_peel_keeps_what_the_sweeps_kept_on_drawn_matrices(A):
    try:
        expected = _sweep_support(A)
    except ReducibleMatrixError:
        with pytest.raises(ReducibleMatrixError):
            _peel_support(A)
        return
    assert np.array_equal(_peel_support(A), expected)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 24), data=st.data())
def test_peel_rejects_a_matrix_without_a_cycle(n, data):
    # every edge runs from a lower to a higher index: no cycle, no recurrent support
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
    rows = np.array([i for i, _ in edges], int)
    cols = np.array([j for _, j in edges], int)
    A = sp.csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
    with pytest.raises(ReducibleMatrixError):
        _sweep_support(A)
    with pytest.raises(ReducibleMatrixError):
        _peel_support(A)


def _fixed_point_fill(A, AT, lam, pinned, h_pinned, nu_pinned, maxiter=2000):
    """The fill as a whole-matrix fixed point: each round applies A and A.T
    to both vectors with the pinned cells held, until a round moves no entry
    at all: the reference for the one-pass fill, which pins the core.  (A
    stop at moves below 1e-16 of the largest pinned value would leave the
    far end of a long chain of small values at 0.)"""
    h = np.zeros(A.shape[0])
    nu = np.zeros(A.shape[0])
    h[pinned] = h_pinned
    nu[pinned] = nu_pinned
    for _ in range(maxiter):
        h_new = (A @ h) / lam
        nu_new = (AT @ nu) / lam
        h_new[pinned] = h_pinned
        nu_new[pinned] = nu_pinned
        settled = np.array_equal(h_new, h) and np.array_equal(nu_new, nu)
        h, nu = h_new, nu_new
        if settled:
            return h, nu
    raise ConvergenceError("fixed point did not settle")


def _solve_recording_fill(tm, **constants):
    """leading_eigen(tm), with the arguments and the raw result of its fill;
    ``constants`` override module constants of ``spectral`` for the solve."""
    fills = []
    fill = spectral._extend_to_full

    def recording(*args):
        fills.append((args, fill(*args)))
        return fills[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_extend_to_full", recording)
        for name, value in constants.items():
            mp.setattr(spectral, name, value)
        triple = leading_eigen(tm)
    (args, result), = fills
    return triple, args, result


def _assert_zero_off_the_paths(triple, A, AT, core_idx):
    # h lives on the cells with a path to the core, nu on the cells with a path from it
    for M, v in ((AT, triple.eigenfunction), (A, triple.eigenmeasure)):
        reached = np.zeros(A.shape[0], bool)
        reached[breadth_first_order(M, core_idx[0], return_predecessors=False)] = True
        assert np.all(v[~reached] == 0) and np.all(v[reached] >= 0)


def _check_fill(tm):
    """The one-pass fill against the fixed point from the same core pair,
    and its zeros against a breadth-first search from the core."""
    triple, (A, AT, lam, core_idx, h_core, nu_core, transient_idx, *_), fill = _solve_recording_fill(tm)
    for got, expected in zip(fill, _fixed_point_fill(A, AT, lam, core_idx, h_core, nu_core)):
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
        if len(transient_idx) == 0:
            assert got.tobytes() == expected.tobytes()
    _assert_zero_off_the_paths(triple, A, AT, core_idx)
    return triple


@pytest.mark.parametrize("m,N", [(LSV_HALF, 4), (MapSpec.lsv(2.0), 3), (MapSpec("pm", 1.0), 4), (FAREY, 6)],
                         ids=["lsv-0.5", "lsv-2", "pm-1", "farey"])
def test_one_pass_fill_matches_the_fixed_point_on_markov_grids(m, N):
    sys, grid = build_induced(m, N), markov_grid(m, N, 4096)
    _check_fill(combine_branch_matrices(sys, grid, induced_branch_matrices(sys, grid)))


def test_one_pass_fill_matches_the_fixed_point_past_transient_classes():
    # farey's Ulam matrix prunes 3,315 cells, some of whose rows read its 117 transient cells
    triple = _check_fill(assemble_ulam_open(FAREY, 0.236, hole_grid(FAREY, 0.236, 4096)))
    assert (triple.stats["pruned_cells"], triple.stats["transient_cells"]) == (3315, 117)


@settings(max_examples=300, deadline=None)
@given(A=_sparse_graphs())
def test_one_pass_fill_matches_the_fixed_point_on_drawn_matrices(A):
    tm = TransferMatrix(Grid(np.linspace(0.0, 1.0, A.shape[0] + 1)), A)
    try:
        triple, (A, AT, lam, core_idx, h_core, nu_core, transient_idx, *_), fill = _solve_recording_fill(
            tm, EIGEN_MAXITER=2000
        )
    except (ReducibleMatrixError, ConvergenceError):
        return  # no unique dominant class, or a periodic one
    _assert_zero_off_the_paths(triple, A, AT, core_idx)
    if len(transient_idx) == 0:
        reference = _fixed_point_fill(A, AT, lam, core_idx, h_core, nu_core)
        assert all(got.tobytes() == expected.tobytes() for got, expected in zip(fill, reference))
        return
    # the pass over the pruned cells is exact given the transient values ...
    pinned = np.concatenate([core_idx, transient_idx])
    exact = _fixed_point_fill(A, AT, lam, pinned, fill[0][pinned], fill[1][pinned])
    assert all(got.tobytes() == expected.tobytes() for got, expected in zip(fill, exact))
    # ... and those solve (lam I - T) x = M[t, core] x_core on the transient
    # block T of M = A (A^T for nu) as a dense solve does: two backward-stable
    # solves of one system differ by at most n kappa eps of its solution,
    # n the block's size and kappa its condition number in the max norm
    t = transient_idx
    eps = np.finfo(float).eps
    for got, core, M in zip(fill, (h_core, nu_core), (A, AT)):
        K = lam * np.eye(len(t)) - M[np.ix_(t, t)].toarray()
        dense = np.linalg.solve(K, M[np.ix_(t, core_idx)] @ core)
        kappa = np.linalg.cond(K, np.inf)
        assert np.all(np.abs(got[t] - dense) <= len(t) * kappa * eps * np.max(np.abs(dense)))


def _whole_round_fill(A, lam, core_idx, h_core, nu_core, transient_idx, rounds):
    """The fill as it read each round whole: the rows of A and of its CSR
    transpose sliced out as matrices, M[rows] @ v, and the transient cells'
    right-hand sides from the transpose's rows.  The bitwise reference for
    the chunked fill."""
    from scipy.sparse.linalg import splu
    AT = A.T.tocsr()
    h = np.zeros(A.shape[0])
    nu = np.zeros(A.shape[0])
    h[core_idx] = h_core
    nu[core_idx] = nu_core
    if len(transient_idx):
        A_t = A[transient_idx]
        K = (lam * sp.identity(len(transient_idx)) - A_t[:, transient_idx]).tocsc()
        lu = splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
        h[transient_idx] = lu.solve(A_t @ h)
        nu[transient_idx] = lu.solve(AT[transient_idx] @ nu, trans="T")
    for peeled in reversed(rounds):
        for M, v, rows in ((A, h, peeled[0]), (AT, nu, peeled[1])):
            if len(rows):
                v[rows] = (M[rows] @ v) / lam
    return h, nu


def _assert_chunks_read_as_whole_rounds(tm, chunk):
    """leading_eigen(tm) with PEEL_CHUNK = ``chunk``: its peel gives the rounds
    that whole-round reads give, and its fill the whole-round fill's bits."""
    triple, (A, _, lam, core_idx, h_core, nu_core, transient_idx, rounds), fill = _solve_recording_fill(
        tm, EIGEN_MAXITER=2000, PEEL_CHUNK=chunk
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "PEEL_CHUNK", A.shape[0])
        keep, whole = spectral._prune_support(A, A.T.tocsr())
    assert np.array_equal(keep, np.sort(np.concatenate([core_idx, transient_idx])))
    assert len(whole) == len(rounds)
    for got, expected in zip(rounds, whole):
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    reference = _whole_round_fill(A, lam, core_idx, h_core, nu_core, transient_idx, rounds)
    assert all(got.tobytes() == expected.tobytes() for got, expected in zip(fill, reference))
    return rounds, transient_idx


@settings(max_examples=300, deadline=None)
@given(A=_sparse_graphs(), chunk=st.integers(1, 3))
def test_chunked_peel_and_fill_read_as_whole_rounds_on_drawn_matrices(A, chunk):
    tm = TransferMatrix(Grid(np.linspace(0.0, 1.0, A.shape[0] + 1)), A)
    try:
        _assert_chunks_read_as_whole_rounds(tm, chunk)
    except (ReducibleMatrixError, ConvergenceError):
        return  # no unique dominant class, or a periodic one


def test_chunked_peel_and_fill_read_as_whole_rounds_past_transient_classes():
    # farey's Ulam matrix: 117 transient cells, and rounds of hundreds of
    # no-target cells, read seven rows at a time
    rounds, transient_idx = _assert_chunks_read_as_whole_rounds(
        assemble_ulam_open(FAREY, 0.236, hole_grid(FAREY, 0.236, 4096)), 7
    )
    assert len(transient_idx) == 117
    assert max(len(no_target) for _, no_target in rounds) > 7


def test_chunked_fill_reads_long_rounds_of_no_source_cells_as_whole_ones():
    # an induced matrix peels rounds of thousands of no-source cells, whose
    # rows the fill reads in chunks
    sys, grid = build_induced(MapSpec.lsv(2.0), 3), markov_grid(MapSpec.lsv(2.0), 3, 4096)
    rounds, _ = _assert_chunks_read_as_whole_rounds(
        combine_branch_matrices(sys, grid, induced_branch_matrices(sys, grid)), 100
    )
    assert max(len(no_source) for no_source, _ in rounds) > 1000


def test_mass_check_on_the_finest_grid_stays_under_54_mib():
    # acceptance 8's body at lsv s=2, N=3, the one pair that reaches 262,144
    # cells, holding what its loop holds: the last grid's pieces and triple
    # while the next ones are built.  Full-size scratch in the root solves,
    # the overlap merge, the peel and the fill peaked at 69.8 MiB here
    import tracemalloc
    m = MapSpec.lsv(2.0)
    sys = build_induced(m, 3)
    tracemalloc.start()
    try:
        size = 65536
        while True:
            grid = markov_grid(m, 3, size)
            pieces = induced_branch_matrices(sys, grid)
            triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
            check = invariant_mass(sys, triple)
            if check.discrepancy <= 1e-8 or size >= 262144:
                break
            size *= 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 262144
    assert peak <= 54 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# cylinder masses
# ---------------------------------------------------------------------------

def test_pwl_masses_are_normalized_weights():
    sys = build_induced(PWL_ONE, 4)
    triple = leading_eigen(pwl_exact_matrix(PWL_ONE, 4))
    rho = cylinder_masses(sys, triple)
    ks = np.arange(1, 5)
    expected = (1.0 / (ks * (ks + 1.0))) / (4 / 5)
    assert np.max(np.abs(rho - expected)) <= 1e-14
    assert rho.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_weights_split_evenly():
    m = MapSpec.pwl(1.0, ExplicitWeights((0.3, 0.3, 0.4)))
    sys = build_induced(m, 2)
    triple = leading_eigen(pwl_exact_matrix(m, 2))
    rho = cylinder_masses(sys, triple)
    assert np.allclose(rho, [0.5, 0.5], atol=1e-14)


def test_farey_first_mass_tends_to_gauss_value():
    oracle, _ = quad(lambda x: 1.0 / ((1.0 + x) * math.log(2.0)), 0.5, 1.0)
    gaps = []
    for N in (25, 50, 100):
        sys, grid, pieces, triple = _induced_triple(FAREY, N, 2048)
        rho = cylinder_masses(sys, triple)
        gaps.append(abs(rho[0] - oracle))
        assert rho.sum() == pytest.approx(1.0, abs=1e-10)
    assert gaps[0] > gaps[1] > gaps[2]
    # first-order convergence in the hole index
    assert gaps[2] == pytest.approx(0.0042, abs=0.001)


SUPPORT_CASES = [(LSV_HALF, 4), (MapSpec.lsv(2.0), 3), (MapSpec("pm", 1.0), 4), (FAREY, 5), (PWL_ONE, 3)]


def _support_triple(m, N):
    """The induced system and the leading triple of one of SUPPORT_CASES."""
    sys = build_induced(m, N)
    if m.family == "pwl":
        return sys, leading_eigen(pwl_exact_matrix(m, N))
    return sys, _induced_triple(m, N, 4096)[3]


def test_masses_match_the_piece_formula():
    # on each cylinder's cells nu P_k = lambda nu, so the h * nu mass of A_k
    # is the branch mass nu (P_k h) / lambda, formed here from the pieces
    for m, N in SUPPORT_CASES:
        sys, triple = _support_triple(m, N)
        pieces = induced_branch_matrices(sys, triple.grid)
        reference = np.array([triple.eigenmeasure @ (piece @ triple.eigenfunction) for piece in pieces])
        reference /= triple.eigenvalue
        rho = cylinder_masses(sys, triple)
        assert np.all(np.abs(rho - reference) <= 1e-14 * reference), m


def test_masses_need_the_chain_on_the_grid():
    sys = build_induced(LSV_HALF, 3)
    triple = leading_eigen(_markov_matrix(LSV_HALF, 3, 256))
    assert cylinder_masses(sys, triple).sum() == pytest.approx(1.0, abs=1e-12)
    a2 = sys.preimages[2]
    nodes = triple.grid.nodes
    # the same pair on a grid whose node a_2 moved by one ulp
    assert np.count_nonzero(nodes == a2) == 1
    moved = Grid(np.where(nodes == a2, np.nextafter(a2, 1.0), nodes))
    shifted = spectral.SpectralTriple(triple.eigenvalue, triple.eigenfunction, triple.eigenmeasure, moved)
    with pytest.raises(DomainError, match="chain"):
        cylinder_masses(sys, shifted)
    # a deeper system: a_4 lies inside the hole cell of the grid for N = 3
    with pytest.raises(DomainError, match="chain"):
        cylinder_masses(build_induced(LSV_HALF, 4), triple)


def test_mass_in_the_hole_is_a_normalization_error():
    # a hand-built pair on the natural partition of pwl N = 2, whose first
    # cell is the hole [0, a_2]: a tenth of its h * nu mass lies there
    grid = natural_partition_grid(PWL_ONE, 2)
    triple = spectral.SpectralTriple(0.5, np.ones(3), np.array([0.1, 0.45, 0.45]), grid)
    with pytest.raises(NormalizationError, match="0.9"):
        cylinder_masses(build_induced(PWL_ONE, 2), triple)


def test_lambda_increasing_in_hole_index():
    lams = []
    for N in (2, 4, 8, 16, 32):
        _, _, _, triple = _induced_triple(FAREY, N, 1024)
        lams.append(triple.eigenvalue)
        assert triple.eigenvalue < 1.0
    assert all(b > a for a, b in zip(lams, lams[1:]))


# ---------------------------------------------------------------------------
# invariant function and the mass identity
# ---------------------------------------------------------------------------

def test_pwl_invariant_function_levels():
    # two pullback levels with ratio set by the slope quotient
    sys = build_induced(PWL_ONE, 2)
    triple = leading_eigen(pwl_exact_matrix(PWL_ONE, 2))
    e = invariant_function(sys, triple)
    live = triple.eigenmeasure > 0
    h_level = triple.eigenfunction[live][0]
    grid = triple.grid
    centers = 0.5 * (grid.lo + grid.hi)
    on_a1 = live & (centers > 0.5)
    on_a2 = live & (centers <= 0.5) & (centers > 1 / 3)
    assert np.allclose(e[on_a1], h_level * (1 + 1 / 3), atol=1e-13)
    assert np.allclose(e[on_a2], h_level, atol=1e-13)


def test_pwl_mass_identity_exact():
    sys = build_induced(PWL_ONE, 2)
    triple = leading_eigen(pwl_exact_matrix(PWL_ONE, 2))
    check = invariant_mass(sys, triple)
    assert check.mass_from_cylinders == pytest.approx(1.25, abs=1e-12)
    assert check.discrepancy <= 1e-12


def test_lsv_mass_identity_converges():
    sys = build_induced(LSV_HALF, 4)
    grid = markov_grid(LSV_HALF, 4, 8192)
    pieces = induced_branch_matrices(sys, grid)
    triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
    check = invariant_mass(sys, triple)
    assert check.discrepancy <= 1e-6
    assert check.mass_from_cylinders >= 1.0  # mean return time is at least one


def test_mass_check_builds_the_pieces_once(monkeypatch):
    # the sequence of acceptance 8: the masses read the solved pair alone, so
    # nothing builds the pieces a second time
    builds = []

    def counting(sys, grid):
        builds.append(grid)
        return induced_branch_matrices(sys, grid)

    monkeypatch.setattr(operators, "induced_branch_matrices", counting)
    sys = build_induced(LSV_HALF, 3)
    grid = markov_grid(LSV_HALF, 3, 4096)
    pieces = operators.induced_branch_matrices(sys, grid)
    triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
    check = invariant_mass(sys, triple)
    # the values a second build of the pieces gave, bit for bit
    assert tuple(check) == (1.52838926758709, 1.5283894204979052, 1.5291081512103233e-07)
    assert builds == [grid]

    # nor does a triple of the exact pwl matrix
    exact = leading_eigen(pwl_exact_matrix(PWL_ONE, 4))
    ks = np.arange(1, 5)
    rho = cylinder_masses(build_induced(PWL_ONE, 4), exact)
    assert np.max(np.abs(rho - (1.0 / (ks * (ks + 1.0))) / (4 / 5))) <= 1e-14
    assert builds == [grid]


@pytest.mark.parametrize("m,N", SUPPORT_CASES, ids=["lsv-0.5", "lsv-2", "pm-1", "farey", "pwl-exact"])
def test_mass_check_reads_only_the_support(m, N, monkeypatch):
    sys, triple = _support_triple(m, N)
    full = float(triple.eigenmeasure @ invariant_function(sys, triple))
    points = []
    original = maps.left_inverse

    def counting(mm, y):
        points.append(np.size(y))
        return original(mm, y)

    monkeypatch.setattr(maps, "left_inverse", counting)
    check = invariant_mass(sys, triple)
    assert check.mass_from_function.hex() == full.hex()
    support = np.count_nonzero(triple.eigenmeasure)
    assert 0 < sum(points) <= 2 * (N - 1) * support


def _fill_masks(M):
    """Named cell masks: isolated cells at both ends and inside, runs of 1..5
    cells between gaps of 1..4, one unfilled cell between filled ones, a
    random third of the cells, and every cell."""
    isolated = np.zeros(M, bool)
    isolated[[0, 5, 17, M // 2, M - 1]] = True
    runs = np.zeros(M, bool)
    start, length = 3, 1
    while start < M:
        runs[start:start + length] = True
        start += length + 1 + length % 4
        length = length % 5 + 1
    one_gap = np.zeros(M, bool)
    one_gap[[40, 42]] = True
    one_gap[M // 3:2 * M // 3] = True
    one_gap[M // 2] = False
    return {"isolated": isolated, "runs": runs, "one-gap": one_gap,
            "random": np.random.default_rng(7).random(M) < 0.3, "all": np.ones(M, bool)}


@pytest.mark.parametrize("mask", ["isolated", "runs", "one-gap", "random", "all"])
def test_pullback_sum_on_filled_cells_is_the_invariant_function(mask):
    # each filled cell gets exactly the triplets of its own interval, in the same
    # order, so it matches the sum over every cell bit for bit; the rest stay 0
    sys, grid, _, triple = _induced_triple(LSV_HALF, 4, 512)
    fill = _fill_masks(grid.n_cells)[mask]
    e = spectral._pullback_sum(sys, triple, fill)
    assert e[fill].tobytes() == invariant_function(sys, triple)[fill].tobytes()
    assert np.all(e[~fill] == 0.0)


def test_mean_return_growth_regimes():
    # partial sums of k * rho_k stabilize for s < 1 and grow like log N at s = 1
    values = {}
    for N in (50, 100, 200):
        sys = build_induced(FAREY, N)
        grid = markov_grid(FAREY, N, 1024)
        pieces = induced_branch_matrices(sys, grid)
        triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
        values[N] = mean_return_time(cylinder_masses(sys, triple))
    growth_100 = values[100] - values[50]
    growth_200 = values[200] - values[100]
    assert growth_100 > 0.3  # log-growth regime: roughly log(2)/log(2) per doubling
    assert growth_200 == pytest.approx(growth_100, rel=0.25)

    ws = MapSpec.pwl(0.5)
    tails = []
    for N in (50, 100, 200):
        ia_masses = cylinder_masses(
            build_induced(ws, N), leading_eigen(pwl_exact_matrix(ws, N))
        )
        tails.append(mean_return_time(ia_masses))
    assert tails[2] - tails[1] < 0.005  # summable regime: the mean settles

    # power regime: the mean grows like N**(1 - 1/s)
    from parabolic_escape.maps import ZipfWeights

    w2 = ZipfWeights(2.0)
    means = []
    for N in (100, 200, 400):
        ks = np.arange(1, N + 1)
        p = np.asarray(w2.mass(ks), float)
        means.append(float(ks @ p) / p.sum())
    assert means[1] / means[0] == pytest.approx(math.sqrt(2.0), rel=0.1)
    assert means[2] / means[1] == pytest.approx(math.sqrt(2.0), rel=0.1)


def test_mean_return_time_lower_bound():
    rho = np.array([1.0])
    assert mean_return_time(rho) == 1.0
    rho = np.array([0.25, 0.25, 0.5])
    assert mean_return_time(rho) == pytest.approx(2.25)


def test_pwl_exact_triple_fields():
    sys = build_induced(PWL_ONE, 3)
    triple = leading_eigen(pwl_exact_matrix(PWL_ONE, 3))
    assert triple.eigenvalue == pytest.approx(0.75, abs=1e-14)
    assert len(triple.eigenfunction) == triple.grid.n_cells
    assert sum(cylinder_masses(sys, triple)) == pytest.approx(1.0, abs=1e-12)
    assert triple.grid.nodes[0] == 0.0 and triple.grid.nodes[-1] == 1.0
