import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad

from parabolic_escape.exceptions import ConvergenceError, DomainError, ReducibleMatrixError
from parabolic_escape.induced import build_induced
from parabolic_escape.maps import ExplicitWeights, MapSpec
from parabolic_escape.operators import (
    Grid,
    assemble_induced_matrix,
    combine_branch_matrices,
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
    tm_like = pwl_exact_matrix(PWL_ONE, 2)
    # literal 1x1 case through the same machinery
    from parabolic_escape.operators import TransferMatrix

    tm = TransferMatrix("ulam-open", grid, sp.csr_matrix(np.array([[0.37]])))
    triple = leading_eigen(tm)
    assert triple.eigenvalue == pytest.approx(0.37, abs=1e-15)
    assert triple.eigenfunction[0] > 0
    assert triple.eigenmeasure[0] == 1.0
    assert tm_like.kind == "pwl-exact"


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
    tm = TransferMatrix("ulam-open", grid, sp.csr_matrix(np.array([[0.7, 0.0], [0.0, 0.7]])))
    with pytest.raises(ReducibleMatrixError):
        leading_eigen(tm)


def test_periodic_core_fails_to_converge():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    from parabolic_escape.operators import TransferMatrix

    tm = TransferMatrix("ulam-open", grid, sp.csr_matrix(np.array([[0.0, 2.0], [0.5, 0.0]])))
    with pytest.raises(ConvergenceError):
        leading_eigen(tm, maxiter=300)


def test_negative_entries_rejected():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    from parabolic_escape.operators import TransferMatrix

    tm = TransferMatrix("ulam-open", grid, sp.csr_matrix(np.array([[0.5, -0.1], [0.2, 0.4]])))
    with pytest.raises(DomainError):
        leading_eigen(tm)


def test_transient_cells_extended_exactly():
    # the full-matrix eigen equation must hold also on pruned/transient cells
    sys, grid, pieces, triple = _induced_triple(LSV_HALF, 4, 1024)
    A = combine_branch_matrices(sys, grid, pieces).matrix
    res = np.max(np.abs(A @ triple.eigenfunction - triple.eigenvalue * triple.eigenfunction))
    assert res / np.max(triple.eigenfunction) <= 1e-12
    assert triple.stats["pruned_cells"] > 0


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
        rho = cylinder_masses(sys, triple, pieces=pieces)
        gaps.append(abs(rho[0] - oracle))
        assert rho.sum() == pytest.approx(1.0, abs=1e-10)
    assert gaps[0] > gaps[1] > gaps[2]
    # first-order convergence in the hole index
    assert gaps[2] == pytest.approx(0.0042, abs=0.001)


def test_masses_match_indicator_sums_on_aligned_grid():
    sys, grid, pieces, triple = _induced_triple(LSV_HALF, 4, 2048)
    rho = cylinder_masses(sys, triple, pieces=pieces)
    seq = sys.preimages
    centers = 0.5 * (grid.lo + grid.hi)
    for k in range(1, 5):
        inside = (centers > seq[k]) & (centers <= seq[k - 1])
        indicator = float(triple.eigenmeasure[inside] @ triple.eigenfunction[inside])
        assert abs(rho[k - 1] - indicator) <= 1e-8


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


def test_mean_return_growth_regimes():
    # partial sums of k * rho_k stabilize for s < 1 and grow like log N at s = 1
    values = {}
    for N in (50, 100, 200):
        sys = build_induced(FAREY, N)
        grid = markov_grid(FAREY, N, 1024)
        pieces = induced_branch_matrices(sys, grid)
        triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
        values[N] = mean_return_time(cylinder_masses(sys, triple, pieces=pieces))
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


def test_triple_json_export_roundtrip():
    import json

    sys = build_induced(PWL_ONE, 3)
    triple = leading_eigen(pwl_exact_matrix(PWL_ONE, 3))
    payload = json.loads(json.dumps(triple.to_json_dict()))
    assert payload["lambda"] == pytest.approx(0.75, abs=1e-14)
    assert len(payload["eigenfunction"]) == triple.grid.n_cells
    assert sum(cylinder_masses(sys, triple)) == pytest.approx(1.0, abs=1e-12)
    assert payload["grid_nodes"][0] == 0.0 and payload["grid_nodes"][-1] == 1.0
