import numpy as np
import pytest

from parabolic_escape.exceptions import DomainError
from parabolic_escape.induced import build_induced
from parabolic_escape.maps import MapSpec, preimage_sequence
from parabolic_escape.operators import (
    Grid,
    apply_open_induced,
    apply_Q0,
    apply_Q1,
    assemble_induced_matrix,
    assemble_ulam_open,
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
    g = Grid(np.array([0.0, 0.25, 1.0]))
    assert g.n_cells == 2
    assert g.locate(0.3) == 1
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


def test_hole_grid_has_epsilon_node():
    g = hole_grid(LSV_HALF, 0.2, 128)
    assert g.node_index(0.2) >= 0


def test_interval_cell_overlaps_oracle():
    nodes = np.array([0.0, 0.25, 0.5, 1.0])
    cells, which, overlap = interval_cell_overlaps(nodes, np.array([0.1]), np.array([0.6]))
    # [0.1, 0.6] meets [0, .25], [.25, .5], [.5, 1] with lengths .15, .25, .1
    assert list(cells) == [0, 1, 2]
    assert np.allclose(overlap, [0.15, 0.25, 0.1])
    assert set(which) == {0}


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
    tm_gen = assemble_induced_matrix(sys, natural_partition_grid(PWL_ONE, 4))
    tm_ex = pwl_exact_matrix(PWL_ONE, 4)
    assert tm_ex.kind == "pwl-exact"
    assert np.max(np.abs(tm_gen.to_dense() - tm_ex.to_dense())) <= 1e-14
    # live columns of the exact matrix: every row equals (p_1, ..., p_N)
    dense = tm_ex.to_dense()
    live = np.nonzero(dense[0])[0]
    p_sorted = np.sort(1.0 / (np.arange(1, 5) * np.arange(2, 6)))
    assert np.allclose(np.sort(dense[0, live]), p_sorted, atol=1e-15)
    assert np.allclose(dense, dense[0], atol=1e-15)


def test_single_cell_grid_collapses_to_total_weight():
    # one live cell spanning (a_N, 1]: the entry is the full weight integral
    m = FAREY
    sys = build_induced(m, 2)
    a2 = preimage_sequence(m, 2)[2]
    grid = Grid(np.array([0.0, a2, 1.0]))
    tm = assemble_induced_matrix(sys, grid)
    dense = tm.to_dense()
    # integral of sum_n |zeta_n'| over the cell equals the measure of the
    # branch images of the cell: |zeta_1((1/3, 1])| + |zeta_2((1/3, 1])|
    total = (3 / 4 - 1 / 2) + (3 / 7 - 1 / 3)
    assert dense[1, 1] == pytest.approx(total / (1 - a2), abs=1e-13)


def test_ulam_rows_substochastic():
    for m in (FAREY, LSV_HALF, PM_ONE, PWL_ONE):
        eps = preimage_sequence(m, 3)[3]
        grid = hole_grid(m, eps, 512)
        tm = assemble_ulam_open(m, eps, grid)
        rs = tm.row_sums()
        assert rs.min() >= 0.0
        assert rs.max() <= 1.0 + 1e-12


def test_ulam_closed_system_rows_stochastic():
    # epsilon -> 0: surviving rows approach full mass
    eps = 1e-4
    grid = hole_grid(FAREY, eps, 512)
    tm = assemble_ulam_open(FAREY, eps, grid)
    rs = tm.row_sums()
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

