"""The Chebyshev collocation route against independent oracles."""

import numpy as np
import pytest

from parabolic_escape import collocation, escape, operators, spectral
from parabolic_escape.escape import _collocation_analysis, compute_escape, induced_analysis
from parabolic_escape.exceptions import ConvergenceError, ReducibleMatrixError
from parabolic_escape.induced import build_induced
from parabolic_escape.maps import Hole, MapSpec
from test_acceptance import open_gauss_first_mass


def test_nodes_nest_under_doubling():
    fine = collocation.lobatto_nodes(64)
    for degree in collocation.DEGREES:
        assert np.array_equal(collocation.lobatto_nodes(degree), fine[:: 64 // degree])
    assert fine[0] == 1.0 and fine[-1] == 0.0


def test_interpolation_is_exact_on_polynomials_and_nodes():
    nodes = collocation.lobatto_nodes(16)
    y = np.array([[0.0, 0.3, 1.0 / 3.0], [nodes[5], 0.999, 1.0]])
    P = collocation.interpolation_matrices(nodes, y)
    assert P.shape == (2, 3, 17)
    poly = np.polynomial.Polynomial([0.3, -1.0, 2.0, 0.0, 5.0, -4.0])
    assert np.max(np.abs(P @ poly(nodes) - poly(y))) <= 1e-13
    assert np.array_equal(P[1, 0], np.eye(17)[5])  # a target on a node picks it exactly


def test_complex_leading_pair_raises():
    c, s = np.cos(0.3), np.sin(0.3)
    with pytest.raises(ConvergenceError):
        collocation.leading_pair(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.5]]))


def test_tied_leading_pair_raises():
    with pytest.raises(ReducibleMatrixError):
        collocation.leading_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))  # eigenvalues 1 and -1
    with pytest.raises(ReducibleMatrixError):
        collocation.leading_pair(np.diag([0.7, 0.7, 0.2]))


def test_failed_eigen_solve_raises_convergence_error():
    # numpy's LinAlgError would escape the library's error hierarchy, and
    # with it a sweep's collection of failures
    with pytest.raises(ConvergenceError):
        collocation.leading_pair(np.array([[np.nan, 0.0], [0.0, 0.5]]))


def test_leading_pair_is_normalized():
    A = np.array([[0.5, 0.2, 0.1], [0.1, 0.6, 0.2], [0.3, 0.1, 0.4]])
    lam, h, ell = collocation.leading_pair(A)
    assert np.max(np.abs(A @ h - lam * h)) <= 1e-14
    assert np.max(np.abs(ell @ A - lam * ell)) <= 1e-14
    assert np.max(np.abs(h)) == 1.0 and ell @ h == pytest.approx(1.0, abs=1e-15)


def test_pwl_collocation_matches_closed_form():
    m = MapSpec.pwl(1.0)
    for N in (2, 5, 50):
        closed = induced_analysis(m, N)
        colloc = induced_analysis(m, N, exact_pwl=False)
        assert colloc.collocation_nodes is not None and closed.collocation_nodes is None
        assert colloc.eigenvalue == pytest.approx(closed.eigenvalue, abs=1e-13)
        assert colloc.gamma == pytest.approx(closed.gamma, abs=1e-12)
        assert np.max(np.abs(colloc.masses - closed.masses)) <= 1e-12


def test_farey_first_mass_matches_open_gauss_collocation():
    # the test helper collocates the Gauss branches 1/(n + x) on Chebyshev
    # points of the first kind, sharing no code with the library route
    rho_1 = induced_analysis(MapSpec.farey(), 100).masses[0]
    assert abs(rho_1 - open_gauss_first_mass(100)) <= 1e-12


def test_ulam_approaches_collocation():
    m = MapSpec.lsv(0.5)
    gamma = induced_analysis(m, 25).gamma
    gaps = [
        abs(compute_escape(m, Hole.markov(25), method="ulam", grid_size=M).gamma - gamma) / gamma
        for M in (4096, 16384, 65536)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 3e-6


AGREEMENT_CASES = [(MapSpec.lsv(s), N) for s in (0.5, 1.0, 2.0) for N in (25, 200)] + [
    (MapSpec.farey(), 100),
    (MapSpec.farey(), 1000),
    (MapSpec("pm", 1.0), 25),
]


@pytest.mark.parametrize("m,N", AGREEMENT_CASES, ids=[f"{m.family}-{m.s}-{N}" for m, N in AGREEMENT_CASES])
def test_node_counts_agree(m, N):
    ia = induced_analysis(m, N)
    assert ia.converged
    assert ia.error_estimate <= 1e-10 * ia.gamma
    # a full solve at twice the chosen degree agrees as well
    degree = ia.collocation_nodes - 1
    system = build_induced(m, N)
    fine = collocation.branch_stack(collocation.branch_values(system, 2 * degree), 2 * degree)
    assert abs(_collocation_analysis(fine).gamma - ia.gamma) <= 1e-10 * ia.gamma


DERIVATIVE_CASES = [(MapSpec.lsv(0.5), 25), (MapSpec.lsv(2.0), 25), (MapSpec("pm", 1.0), 10), (MapSpec.farey(), 20)]


@pytest.mark.parametrize("m,N", DERIVATIVE_CASES, ids=[f"{m.family}-{m.s}-{N}" for m, N in DERIVATIVE_CASES])
def test_unit_equation_derivative_is_the_t_derivative(m, N):
    # Newton reads the second value as the t-derivative of the first
    stack = collocation.branch_stack(collocation.branch_values(build_induced(m, N), 32), 32)
    gamma = _collocation_analysis(stack).gamma
    step = 1e-4 * gamma
    for t in (0.0, gamma / 2, gamma):
        _, df = collocation.unit_equation(stack, t)
        f_up = collocation.unit_equation(stack, t + step)[0]
        f_down = collocation.unit_equation(stack, t - step)[0]
        assert abs((f_up - f_down) / (2 * step) - df) <= 1e-7 * df


def test_collocation_route_builds_no_grid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("grid work on the collocation route")

    for module, name in ((operators, "markov_grid"), (escape, "leading_eigen"),
                         (operators, "induced_branch_matrices"), (spectral, "leading_eigen")):
        monkeypatch.setattr(module, name, forbidden)
    for m in (MapSpec.lsv(0.5), MapSpec.farey(), MapSpec("pm", 1.0)):
        assert induced_analysis(m, 13, grid_size=16).gamma > 0.0
