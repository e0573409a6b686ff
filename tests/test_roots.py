import numpy as np
import pytest

from parabolic_escape import maps, roots
from parabolic_escape.exceptions import ConvergenceError
from parabolic_escape.maps import MapSpec
from parabolic_escape.operators import markov_grid
from parabolic_escape.roots import solve_monotone


def test_scalar_cubic():
    x = solve_monotone(lambda t: t**3 - 0.3, lambda t: 3 * t**2, 0.0, 1.0)
    assert abs(x**3 - 0.3) <= 1e-13


def test_vectorized_targets():
    y = np.linspace(0.0, 1.0, 101)
    x = solve_monotone(lambda t: t + t**2, lambda t: 1 + 2 * t, np.zeros_like(y), np.ones_like(y), y=y)
    assert np.max(np.abs(x + x**2 - y)) <= 1e-13


def test_endpoint_roots():
    # degenerate bracket at an exact root
    assert solve_monotone(lambda t: t, lambda t: np.ones_like(t), 0.0, 0.0) == 0.0


def test_flat_region_near_zero():
    # nearly flat derivative at the left end exercises the bisection fallback
    y = np.array([1e-12, 1e-8, 1e-4])
    x = solve_monotone(lambda t: t + t**3, lambda t: 1 + 3 * t**2, np.zeros(3), np.ones(3), y=y)
    assert np.max(np.abs(x + x**3 - y)) <= 1e-13


def test_unsolvable_raises():
    with pytest.raises(ConvergenceError):
        # no sign change: f > 0 on the whole bracket
        solve_monotone(lambda t: t + 1.0, lambda t: np.ones_like(t), 0.0, 1.0, maxiter=30)


def test_nan_residual_raises():
    # NaN fails every comparison, so the final residual check must not pass it
    with pytest.raises(ConvergenceError):
        solve_monotone(lambda t: np.full_like(t, np.nan), lambda t: np.ones_like(t), 0.0, 1.0, maxiter=30)


def test_left_inverse_iterates_only_open_points(monkeypatch):
    # the grid's last node y = 1 has its root at the bracket end and bisects
    # to rounding width; the points that converged early must not be
    # evaluated again while it does
    m = MapSpec.lsv(0.5)
    nodes = markov_grid(m, 25, 4096).nodes
    evaluated = []

    def counting(g, dg, lo, hi, **kwargs):
        def g_counted(x):
            evaluated.append(np.size(x))
            return g(x)

        return roots.solve_monotone(g_counted, dg, lo, hi, **kwargs)

    monkeypatch.setattr(maps, "solve_monotone", counting)
    x = maps.left_inverse(m, nodes)
    assert len(evaluated) > 20  # the slow point still takes its iterations
    assert sum(evaluated) <= 19_866  # measured: no point is evaluated after it converges
    assert np.max(np.abs(x + np.sqrt(2.0) * x**1.5 - nodes)) <= 1e-13
