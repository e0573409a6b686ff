import numpy as np
import pytest

from parabolic_escape import maps, roots
from parabolic_escape.exceptions import ConvergenceError
from parabolic_escape.maps import MapSpec, preimage_sequence
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
    # targets decades below f(hi): Newton from hi falls onto each root without overshooting
    y = np.array([1e-12, 1e-8, 1e-4])
    x = solve_monotone(lambda t: t + t**3, lambda t: 1 + 3 * t**2, np.zeros(3), np.ones(3), y=y)
    assert np.max(np.abs(x + x**3 - y)) <= 1e-13


def test_unsolvable_raises(monkeypatch):
    monkeypatch.setattr(roots, "MAXITER", 30)
    with pytest.raises(ConvergenceError, match="after 30 iterations"):
        # no sign change: f > 0 on the whole bracket
        solve_monotone(lambda t: t + 1.0, lambda t: np.ones_like(t), 0.0, 1.0)


def test_nan_residual_raises(monkeypatch):
    # NaN fails every comparison, so the final residual check must not pass it
    monkeypatch.setattr(roots, "MAXITER", 30)
    with pytest.raises(ConvergenceError):
        solve_monotone(lambda t: np.full_like(t, np.nan), lambda t: np.ones_like(t), 0.0, 1.0)


def test_reversed_bracket_raises():
    with pytest.raises(ConvergenceError, match="hi < lo"):
        solve_monotone(lambda t: t, lambda t: np.ones_like(t), 1.0, 0.0, y=0.5)


def test_concave_function_raises():
    # misuse: Newton from hi overshoots a concave f down to lo, and the final
    # residual check must refuse that point rather than return it
    with pytest.raises(ConvergenceError):
        solve_monotone(np.sqrt, lambda t: 0.5 / np.sqrt(t), 0.0, 1.0, y=0.5)


@pytest.fixture
def evaluated(monkeypatch):
    """The sizes of the arrays each root solve of ``maps`` evaluates f on."""
    sizes = []

    def counting(g, dg, lo, hi, **kwargs):
        def g_counted(x):
            sizes.append(np.size(x))
            return g(x)

        return roots.solve_monotone(g_counted, dg, lo, hi, **kwargs)

    monkeypatch.setattr(maps, "solve_monotone", counting)
    return sizes


def test_left_inverse_iterates_only_open_points(evaluated):
    # the grid's last node y = 1 has its root at the bracket end, where
    # Newton from hi starts on it; no point is evaluated after it converges
    m = MapSpec.lsv(0.5)
    nodes = markov_grid(m, 25, 4096).nodes
    evaluated.clear()
    x = maps.left_inverse(m, nodes)
    assert len(evaluated) <= 8  # no more than an interior target takes
    assert sum(evaluated) <= 19_347  # measured
    assert np.max(np.abs(x + np.sqrt(2.0) * x**1.5 - nodes)) <= 1e-13


@pytest.mark.parametrize(
    "inverse,m",
    [(maps.left_inverse, MapSpec.lsv(0.5)), (maps.left_inverse, MapSpec("pm", 1.0)), (maps.right_inverse, MapSpec("pm", 1.0))],
    ids=["left-lsv-0.5", "left-pm-1", "right-pm-1"],
)
def test_bracket_end_costs_no_more_than_interior_targets(evaluated, inverse, m):
    # y = 1 has its root at hi; Newton from hi starts there and stops at once
    def cost(y):
        evaluated.clear()
        inverse(m, y)
        return len(evaluated)

    assert cost(1.0) <= min(cost(0.3), cost(0.7))


@pytest.mark.parametrize("family,s", [("lsv", 0.5), ("lsv", 2.0), ("pm", 1.0), ("pm", 2.0)])
def test_preimage_chain_keeps_relative_precision(family, s):
    # a_n ~ n^(-1/s) shrinks towards the neutral point, so only a relative
    # stop keeps every step of a_n = phi_0(a_{n-1}) to a few ulps of a_n
    mp = pytest.importorskip("mpmath")
    chain = preimage_sequence(MapSpec(family, s), 1000).values
    worst = 0.0
    with mp.workdps(40):
        s_mp = mp.mpf(s)
        c = mp.mpf(2) ** s_mp if family == "lsv" else mp.mpf(1)  # left branch x + c x^(1+s)
        a = mp.mpf(1)
        for n in range(1, len(chain)):
            x = mp.mpf(float(chain[n]))
            for _ in range(5):  # Newton from the float value: 1e-7 -> 1e-40 relative at most
                x -= (x + c * x ** (1 + s_mp) - a) / (1 + c * (1 + s_mp) * x**s_mp)
            a = x  # a_1 = phi_0(1) is the cut of both families
            worst = max(worst, float(abs(mp.mpf(float(chain[n])) - a) / a))
    assert worst <= 5e-14
