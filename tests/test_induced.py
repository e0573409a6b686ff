import numpy as np
import pytest

from parabolic_escape import maps
from parabolic_escape.collocation import lobatto_nodes
from parabolic_escape.escape import compute_escape
from parabolic_escape.exceptions import DomainError
from parabolic_escape.induced import (
    branch_walk,
    branch_weight_sums,
    build_induced,
    forward_jump,
    zeta_and_log_weight,
)
from parabolic_escape.maps import ExplicitWeights, Hole, MapSpec, left_inverse, preimage_sequence, right_inverse

FAREY = MapSpec.farey()
LSV_HALF = MapSpec.lsv(0.5)
PM_ONE = MapSpec.pomeau_manneville(1.0)
PWL_ONE = MapSpec.pwl(1.0)

XS = np.linspace(0.0, 1.0, 41)


def test_build_requires_two_branches():
    with pytest.raises(DomainError):
        build_induced(FAREY, 1)
    assert build_induced(FAREY, 2).branch_count == 2


def test_short_explicit_weight_list_fails_at_build():
    m = MapSpec.pwl(1.0, ExplicitWeights((0.5, 0.25, 0.25)))
    with pytest.raises(DomainError, match="^tail index outside the explicit weight list$"):
        build_induced(m, 5)


@pytest.mark.parametrize("n", [0, -1, 6, 9])
def test_branch_index_outside_range_rejected(n):
    sys = build_induced(MapSpec.lsv(0.5), 5)
    with pytest.raises(DomainError, match="outside 1..5"):
        forward_jump(sys, n, 0.3)
    with pytest.raises(DomainError, match="outside 1..5"):
        zeta_and_log_weight(sys, n, 0.3)


def test_farey_branches_are_gauss():
    sys = build_induced(FAREY, 5)
    assert zeta_and_log_weight(sys, 2, 1.0)[0] == pytest.approx(1 / 3, abs=1e-15)
    for n in (1, 3, 5):
        z, lw = zeta_and_log_weight(sys, n, XS)
        assert np.max(np.abs(z - 1.0 / (n + XS))) <= 1e-12
        assert np.max(np.abs(lw + 2.0 * np.log(n + XS))) <= 1e-12


def test_gauss_crosscheck_composed_inverses():
    # compose the local inverses by hand; must reproduce the closed branches
    sys = build_induced(FAREY, 6)
    xs = np.linspace(0.01, 0.99, 17)
    for n in (2, 4, 6):
        y = right_inverse(FAREY, xs)
        for _ in range(n - 1):
            y = left_inverse(FAREY, y)
        assert np.max(np.abs(zeta_and_log_weight(sys, n, xs)[0] - y)) <= 1e-12


def test_pwl_branches_affine():
    sys = build_induced(PWL_ONE, 4)
    z, lw = zeta_and_log_weight(sys, 3, np.array([0.0, 0.5, 1.0]))
    p3 = 1.0 / 12.0
    assert np.allclose(np.exp(lw), p3, atol=1e-15)
    assert np.allclose(z, 0.25 + p3 * np.array([0.0, 0.5, 1.0]), atol=1e-15)


def test_first_branch_is_right_inverse():
    xs = np.linspace(0.05, 0.95, 11)
    for m in (FAREY, LSV_HALF, PM_ONE, PWL_ONE):
        sys = build_induced(m, 3)
        assert np.max(np.abs(zeta_and_log_weight(sys, 1, xs)[0] - right_inverse(m, xs))) <= 1e-13


def test_branches_nest_into_disjoint_intervals():
    xs = np.linspace(0.0, 1.0, 100)
    for m in (FAREY, LSV_HALF, PM_ONE, PWL_ONE):
        sys = build_induced(m, 6)
        values = [zeta_and_log_weight(sys, n, xs)[0] for n in range(1, 7)]
        for n in range(1, 7):
            lo, hi = sys.preimages[n], sys.preimages[n - 1]
            assert values[n - 1].min() >= lo - 1e-13
            assert values[n - 1].max() <= hi + 1e-13
        for deeper, shallower in zip(values[1:], values[:-1]):
            assert deeper.max() <= shallower.min() + 1e-13


def test_jump_roundtrip_residual():
    xs = np.linspace(0.01, 0.99, 23)
    for m in (FAREY, LSV_HALF, PM_ONE):
        sys = build_induced(m, 8)
        for n in (1, 4, 8):
            z, _ = zeta_and_log_weight(sys, n, xs)
            assert np.max(np.abs(forward_jump(sys, n, z) - xs)) <= 1e-11


@pytest.mark.parametrize("m", [FAREY, LSV_HALF, PM_ONE], ids=["farey", "lsv", "pm"])
@pytest.mark.parametrize("y", [np.nan, -0.5, 1.5, np.array([0.6, np.nan])], ids=["nan", "below", "above", "nan-array"])
def test_forward_jump_rejects_points_outside_the_unit_interval(m, y):
    # the left and right branch formulas would extend past [0, 1] and return a number
    with pytest.raises(DomainError, match="outside"):
        forward_jump(build_induced(m, 5), 2, y)


def test_chain_rule_against_central_differences():
    xs = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    for m in (LSV_HALF, PM_ONE, FAREY):
        sys = build_induced(m, 6)
        for n in (2, 5):
            _, lw = zeta_and_log_weight(sys, n, xs)
            num = (zeta_and_log_weight(sys, n, xs + h)[0] - zeta_and_log_weight(sys, n, xs - h)[0]) / (2 * h)
            assert np.max(np.abs(np.exp(lw) - np.abs(num))) <= 1e-6


def test_branch_weight_sums_bounded():
    sums = branch_weight_sums(build_induced(FAREY, 64))
    assert np.all(np.diff(sums) > 0)
    assert sums[-1] < np.pi**2 / 6 + 1e-9  # the closed-form limit of the Gauss weights
    sums_lsv = branch_weight_sums(build_induced(LSV_HALF, 32))
    assert np.all(np.diff(sums_lsv) > 0)
    # tails decay faster than geometrically; the total stays well bounded
    assert sums_lsv[-1] < 2.0


def test_branch_index_validation():
    sys = build_induced(FAREY, 3)
    with pytest.raises(DomainError):
        zeta_and_log_weight(sys, 0, 0.5)
    with pytest.raises(DomainError):
        zeta_and_log_weight(sys, 4, 0.5)
    with pytest.raises(DomainError):
        zeta_and_log_weight(sys, 2, 1.5)


# ---------------------------------------------------------------------------
# the smooth branch walk and the preimage chain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,s", [("lsv", 0.5), ("pm", 1.0)])
def test_markov_rate_on_a_fresh_map_walks_the_chain_once(monkeypatch, family, s):
    m = MapSpec(family, s)  # its head is computed here, or was by an earlier map
    calls, solves = [], []
    original, solve = maps._Smooth.inv_left, maps.solve_monotone

    def counting(branches, y):
        calls.append(1)
        return original(branches, y)

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(maps._Smooth, "inv_left", counting)
    monkeypatch.setattr(maps, "solve_monotone", counting_solve)
    report = compute_escape(m, Hole.markov(100), method="induced")
    k0 = report.diagnostics["walked_branches"]
    # root solves down to branch k0 only, none for the chain, which comes
    # from the head and the Abel function; the other branches come from the
    # Abel function too
    assert len(calls) == k0 - 1
    assert report.diagnostics["fatou_branches"] == 100 - k0 > 0
    # a second map of the same family and exponent reads the head, the cut
    # and the series of the first: its construction and chain solve nothing
    del solves[:]
    again = MapSpec(family, s)
    assert report.hole_edge == preimage_sequence(again, 100)[100]
    assert solves == []


@pytest.mark.parametrize("family,s", [("lsv", 0.5), ("lsv", 2.0), ("pm", 1.0), ("pm", 2.0)])
def test_walk_publishes_the_serial_chain(family, s):
    # the walk hands out the chain of preimage_sequence at the interval ends:
    # zeta_n(0) = a_n and zeta_n(1) = a_{n-1} byte for byte, on both sides of
    # k0 and across the row blocks of the Fatou walk (257 nodes: two blocks),
    # so the branch images meet a Markov grid's chain nodes exactly
    N = 500
    m = MapSpec(family, s)
    chain = preimage_sequence(m, N).values
    ends = np.array([y[[0, -1]] for y, _ in branch_walk(build_induced(m, N), lobatto_nodes(256))])
    assert ends[:, 0].tobytes() == chain[:-1].tobytes()  # the nodes run from x = 1 down to x = 0
    assert ends[:, 1].tobytes() == chain[1:].tobytes()


@pytest.mark.parametrize("x", [lobatto_nodes(64), np.array(0.3), 1.0])
def test_walk_values_do_not_depend_on_the_chain_lane(x):
    # the walk reads nothing a map could have gained from an earlier chain
    fresh, grown = MapSpec.pomeau_manneville(1.0), MapSpec.pomeau_manneville(1.0)
    preimage_sequence(grown, 30)
    for a, b in zip(branch_walk(build_induced(fresh, 30), x), branch_walk(build_induced(grown, 30), x), strict=True):
        assert np.shape(a[0]) == np.shape(b[0]) == np.shape(x)
        assert type(a[0]) is type(b[0])
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
