from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    x = solve_monotone(lambda t: t + t**2, lambda t: 1 + 2 * t, 0.0, np.ones_like(y), y=y)
    assert np.max(np.abs(x + x**2 - y)) <= 1e-13


def test_endpoint_roots():
    # degenerate bracket at an exact root
    assert solve_monotone(lambda t: t, lambda t: np.ones_like(t), 0.0, 0.0) == 0.0


def test_flat_region_near_zero():
    # targets decades below f(hi): Newton from hi falls onto each root without overshooting
    y = np.array([1e-12, 1e-8, 1e-4])
    x = solve_monotone(lambda t: t + t**3, lambda t: 1 + 3 * t**2, 0.0, np.ones(3), y=y)
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


def _index_loop(f, df, lo, hi, *, y=0.0):
    """The solver as an index-array loop, gathering and scattering every open
    point through ``at`` on each step: the bitwise reference for the packed
    working set."""
    lo_b, hi_b, y_b = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float), np.asarray(y, float))
    shape = lo_b.shape
    lo_b, y_b = lo_b.ravel(), y_b.ravel()
    tol = 4.0 * np.finfo(float).eps * np.abs(y_b)
    x = hi_b.ravel().copy()
    fx = np.asarray(f(x), float) - y_b
    at = np.nonzero(fx > tol)[0]
    for _ in range(roots.MAXITER):
        if at.size == 0:
            break
        x_a = x[at]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.maximum(x_a - fx[at] / np.asarray(df(x_a), float), lo_b[at])
        falling = step < x_a
        at = at[falling]
        if at.size == 0:
            break
        x[at] = step[falling]
        fx[at] = np.asarray(f(x[at]), float) - y_b[at]
        at = at[fx[at] > tol[at]]
    worst = float(np.max(np.abs(fx), initial=0.0))
    if not worst <= roots.FTOL_HARD:
        raise ConvergenceError(
            f"branch inversion did not converge: max residual {worst:.3e} after {roots.MAXITER} iterations"
        )
    return float(x[0]) if shape == () else x.reshape(shape)


def _run_both(f, df, lo, hi, y):
    """The outcome of both loops (the root, or the error message) and the
    sizes of the arrays each evaluated f on."""
    outcomes = []
    for solver in (roots.solve_monotone, _index_loop):
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        try:
            outcome = np.asarray(solver(counted, df, lo, hi, y=y)).tobytes()
        except ConvergenceError as exc:
            outcome = str(exc)
        outcomes.append((outcome, sizes))
    return outcomes


# (family, s, inverse) for every branch inverted by a root solve; lsv's right branch is affine
ROOT_SOLVED = [("lsv", 0.5, "left"), ("lsv", 1.0, "left"), ("lsv", 2.0, "left"),
               ("pm", 1.0, "left"), ("pm", 1.0, "right"), ("pm", 2.0, "left"), ("pm", 2.0, "right")]


@pytest.mark.parametrize("family,s,branch", ROOT_SOLVED, ids=lambda v: str(v))
@settings(max_examples=40, deadline=None)
@given(targets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300))
def test_packed_loop_matches_the_index_loop_bitwise(family, s, branch, targets):
    m = MapSpec(family, s)
    inverse = maps.left_inverse if branch == "left" else maps.right_inverse
    solves = []

    def both(f, df, lo, hi, *, y=0.0):
        (got, got_sizes), (ref, ref_sizes) = _run_both(f, df, lo, hi, y)
        assert got == ref and got_sizes == ref_sizes
        solves.append(ref_sizes)
        return roots.solve_monotone(f, df, lo, hi, y=y)

    with mock.patch.object(maps, "solve_monotone", both):
        inverse(m, np.array(targets))
    assert len(solves) == 1


@pytest.mark.parametrize("maxiter", [1, 2, 3, 5])
def test_points_open_after_maxiter_fail_as_in_the_index_loop(maxiter):
    # the open points are written back once, after the last step; their
    # residuals must reach the final check as the index loop leaves them
    lsv = MapSpec.lsv(0.5).branches
    y = np.concatenate([np.geomspace(1e-9, 1.0, 200), [0.0]])
    with mock.patch.object(roots, "MAXITER", maxiter):
        (got, got_sizes), (ref, ref_sizes) = _run_both(lsv.left, lsv.dleft, 0.0, np.minimum(y, lsv.cut), y)
    assert got == ref and got_sizes == ref_sizes
    assert isinstance(got, str) == (maxiter < 5)


def _counted_outcome(solver, f, df, lo, hi, y):
    """One solver's outcome (the root, or the error message) and the sizes of
    the arrays it evaluated f on."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return f(x)

    try:
        return np.asarray(solver(counted, df, lo, hi, y=y)).tobytes(), sizes
    except ConvergenceError as exc:
        return str(exc), sizes


def _scalar_bracket_cases(family, s, targets):
    """(f, df, the bracket ends maps passes, the same ends as full arrays, y)
    for each root solve of ``maps`` whose ends are scalars."""
    br = MapSpec(family, s).branches
    y = np.array(targets)
    if family == "pm":
        # the right inverse: both ends scalar, and the branch cut: everything scalar
        yield br.right, br.dright, (br.cut, 1.0), (np.full_like(y, br.cut), np.ones_like(y)), y
        yield br.right, br.dright, (0.0, 1.0), (np.zeros(1), np.ones(1)), 0.0
    # the left inverse: a scalar lower end under array targets
    hi = np.minimum(y, br.cut)
    yield br.left, br.dleft, (0.0, hi), (np.zeros_like(y), hi), y


@pytest.mark.parametrize("family,s", [("lsv", 0.5), ("lsv", 2.0), ("pm", 1.0), ("pm", 2.0)], ids=str)
@settings(max_examples=40, deadline=None)
@given(targets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300))
def test_scalar_bracket_ends_match_the_index_loop_on_arrays_bitwise(family, s, targets):
    # a scalar end is never expanded, and gives the bits and the f-call sizes
    # of the index loop on full arrays of it
    for f, df, (lo, hi), (lo_a, hi_a), y in _scalar_bracket_cases(family, s, targets):
        got = _counted_outcome(roots.solve_monotone, f, df, lo, hi, y)
        assert got == _counted_outcome(_index_loop, f, df, lo_a, hi_a, y)
        assert got == _counted_outcome(_index_loop, f, df, lo, hi, y)


def test_maps_pass_scalar_bracket_ends(monkeypatch):
    lsv, pm = MapSpec.lsv(0.5), MapSpec("pm", 1.0)
    y = np.linspace(0.0, 1.0, 7)
    # each map solves its own chain on first use: that happens before the recording
    maps.left_inverse(lsv, y)
    maps.right_inverse(pm, y)
    ends = []

    def recording(f, df, lo, hi, **kwargs):
        ends.append((np.ndim(lo), np.ndim(hi)))
        return roots.solve_monotone(f, df, lo, hi, **kwargs)

    monkeypatch.setattr(maps, "solve_monotone", recording)
    maps.left_inverse(lsv, y)
    maps.right_inverse(pm, y)
    pm.branches._branch_cut()
    assert ends == [(0, 1), (0, 0), (0, 0)]


def test_left_inverse_on_the_finest_grid_stays_under_24_mib_of_scratch():
    # the 262,145 nodes of acceptance 8's finest grid: beside its result the
    # solve holds f(x) - y and the working set of the open points; the lower
    # end, the tolerances and the compressions at full size took 34.5 MiB
    import tracemalloc
    m = MapSpec.lsv(2.0)
    nodes = np.array(markov_grid(m, 3, 262144).nodes)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x = maps.left_inverse(m, nodes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(x + 4.0 * x**3 - nodes)) <= 1e-13
    assert peak <= 24 * 2**20, peak / 2**20
