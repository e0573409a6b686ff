import copy
import hashlib
import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parabolic_escape import maps
from parabolic_escape.collocation import lobatto_nodes
from parabolic_escape.exceptions import DomainError, ReturnTimeOverflowError
from parabolic_escape.induced import branch_walk, build_induced
from parabolic_escape.maps import (
    ExplicitWeights,
    HarmonicWeights,
    Hole,
    MapSpec,
    ZipfWeights,
    eval_derivative,
    eval_map,
    left_inverse,
    preimage_sequence,
    return_time,
    right_inverse,
    validate_hypotheses,
)

FAREY = MapSpec.farey()
LSV_HALF = MapSpec.lsv(0.5)
LSV_ONE = MapSpec.lsv(1.0)
PM_ONE = MapSpec.pomeau_manneville(1.0)
PWL_ONE = MapSpec.pwl(1.0)

ALL_MAPS = [FAREY, LSV_HALF, LSV_ONE, PM_ONE, PWL_ONE, MapSpec.pwl(2.0), MapSpec.pwl(0.5)]


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def test_eval_map_values():
    assert eval_map(FAREY, 0.0) == 0.0
    assert eval_map(FAREY, 1 / 3) == pytest.approx(0.5, abs=1e-15)
    assert eval_map(LSV_HALF, 0.5) == pytest.approx(1.0, abs=1e-15)
    # branch cut takes the left-branch value
    assert eval_map(FAREY, FAREY.branch_cut) == pytest.approx(1.0, abs=1e-15)
    assert eval_map(PM_ONE, PM_ONE.branch_cut) == pytest.approx(1.0, abs=1e-12)


def test_eval_map_domain_error():
    with pytest.raises(DomainError):
        eval_map(FAREY, 1.5)
    with pytest.raises(DomainError):
        eval_map(FAREY, -0.1)


def _mixed_points(m):
    a = m.branch_cut
    points = [0.0, np.nextafter(a, 0.0), a, np.nextafter(a, 1.0), 1.0, 0.3 * a, 0.5 * (1.0 + a)]
    return np.array(points + list(np.linspace(0.0, 1.0, 41)[1:-1]))


FOUR_FAMILIES = [LSV_HALF, MapSpec.pomeau_manneville(0.5), FAREY, PWL_ONE]


@pytest.mark.parametrize("m", FOUR_FAMILIES, ids=lambda m: m.family)
def test_array_evaluation_matches_scalar_bitwise(m):
    x = _mixed_points(m)
    assert eval_map(m, x).tolist() == [eval_map(m, float(v)) for v in x]
    xd = x[x != m.branch_cut]
    assert eval_derivative(m, xd).tolist() == [eval_derivative(m, float(v)) for v in xd]
    # a 2-d array keeps its shape and its values
    grid = xd[:40].reshape(5, 8)
    assert eval_map(m, grid).tolist() == eval_map(m, xd[:40]).reshape(5, 8).tolist()
    assert eval_derivative(m, grid).tolist() == eval_derivative(m, xd[:40]).reshape(5, 8).tolist()


@pytest.mark.parametrize("m", FOUR_FAMILIES, ids=lambda m: m.family)
def test_each_branch_formula_sees_only_its_points(m, monkeypatch):
    seen = {}

    def recording(name):
        original = getattr(m.branches, name)

        def formula(x):
            seen[name] = np.copy(x)
            return original(x)

        return formula

    for name in ("left", "right"):
        monkeypatch.setattr(m.branches, name, recording(name))
    x = _mixed_points(m)
    left = x <= m.branch_cut
    eval_map(m, x)
    assert seen["left"].tolist() == x[left].tolist()
    # the right formula sees the left points as 1.0, never as the slow 0.0
    assert seen["right"].tolist() == np.where(left, 1.0, x).tolist()


def test_nan_rejected_by_every_domain_check():
    with pytest.raises(DomainError):
        eval_map(LSV_HALF, float("nan"))
    with pytest.raises(DomainError):
        eval_derivative(LSV_HALF, np.array([np.nan]))
    with pytest.raises(DomainError):
        left_inverse(LSV_HALF, np.array([0.3, np.nan]))
    with pytest.raises(DomainError):
        eval_map(FAREY, np.array([0.2, np.inf]))


@pytest.mark.parametrize("m", [PM_ONE, LSV_HALF, FAREY, PWL_ONE], ids=["pm", "lsv", "farey", "pwl"])
@pytest.mark.parametrize("x", [np.nan, np.array([0.3, np.nan]), -0.5, np.array([0.3, 1.5])],
                         ids=["nan", "nan-array", "below", "above-array"])
def test_branch_walk_rejects_points_outside_the_unit_interval(m, x):
    # the walk checks x once, before its first step; the closed-form farey
    # and pwl branches would otherwise carry a NaN through every branch
    with pytest.raises(DomainError):
        next(branch_walk(build_induced(m, 3), x))


@pytest.mark.parametrize("m,x", [(PWL_ONE, 2e-7), (MapSpec.pwl(0.5), 1e-13)], ids=["harmonic", "zipf"])
def test_pwl_deep_cells_need_no_return_time_cap(m, x):
    # both points lie in cells beyond the default return-time cap of 10**6
    w = m.weights
    k = int(w.cell_index(x, cap=10**9))
    assert k > maps.DEFAULT_RETURN_TIME_CAP
    assert w.tail(k) < x <= w.tail(k - 1)
    slope = float(w.mass(k - 1) / w.mass(k))
    assert eval_map(m, x) == pytest.approx(float(w.tail(k - 1)) + (x - float(w.tail(k))) * slope, rel=1e-12)
    assert eval_derivative(m, x) == pytest.approx(slope, rel=1e-12)
    # the left inverse sends x on into cell k + 1
    y = left_inverse(m, x)
    assert y == pytest.approx(float(w.tail(k + 1)) + (x - float(w.tail(k))) * float(w.mass(k + 1) / w.mass(k)), rel=1e-12)
    assert eval_map(m, y) == pytest.approx(x, rel=1e-12)


def test_derivative_values():
    # indifferent fixed point: F'(0+) -> 1
    assert eval_derivative(FAREY, 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert eval_derivative(PM_ONE, 0.1) == pytest.approx(1.2, abs=1e-14)
    assert eval_derivative(LSV_ONE, 0.75) == pytest.approx(2.0, abs=1e-14)


def test_derivative_branch_cut_error():
    with pytest.raises(DomainError):
        eval_derivative(FAREY, 0.5)
    # pwl is piecewise affine: one-sided slope everywhere, no error
    assert eval_derivative(PWL_ONE, PWL_ONE.branch_cut) > 1.0


def test_inverse_branch_values():
    assert left_inverse(FAREY, 0.0) == 0.0
    assert right_inverse(LSV_HALF, 0.0) == pytest.approx(0.5, abs=1e-15)
    # independent bisection oracle for the root-found branch
    y = 0.3
    lo, hi = 0.0, PM_ONE.branch_cut
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + mid**2 < y:
            lo = mid
        else:
            hi = mid
    assert left_inverse(PM_ONE, y) == pytest.approx(0.5 * (lo + hi), abs=1e-13)


def test_inverse_branch_residual_contract():
    ys = np.linspace(0.0, 1.0, 201)
    for m in ALL_MAPS:
        for inverse in (left_inverse, right_inverse):
            x = inverse(m, ys)
            back = eval_map(m, np.clip(x, 0.0, 1.0))
            # right-branch values at y = 0 sit on the branch cut, which maps
            # with the left branch by convention; skip that single point
            ok = np.abs(back - ys) <= 1e-12
            if inverse is right_inverse:
                ok[0] = True
            assert ok.all(), m.family


# ---------------------------------------------------------------------------
# preimage chain and return times
# ---------------------------------------------------------------------------

def test_farey_preimages_closed_form():
    seq = preimage_sequence(FAREY, 50)
    expected = 1.0 / (np.arange(51) + 1.0)
    assert np.max(np.abs(seq.values - expected)) <= 1e-14


def test_pwl_preimages_are_tail_sums():
    seq = preimage_sequence(PWL_ONE, 30)
    expected = 1.0 / (np.arange(31) + 1.0)
    assert np.max(np.abs(seq.values - expected)) <= 1e-14
    w = ZipfWeights(2.0)
    seq2 = preimage_sequence(MapSpec.pwl(2.0, w), 20)
    direct = [1.0] + [float(sum(w.mass(np.arange(k + 1, k + 200000))) + float(w.tail(k + 199999))) for k in range(1, 21)]
    assert np.max(np.abs(seq2.values - np.asarray(direct))) <= 1e-12


def test_preimage_recurrence_and_monotone():
    for m in ALL_MAPS:
        seq = preimage_sequence(m, 20).values
        assert seq[0] == 1.0
        assert seq[1] == pytest.approx(m.branch_cut, abs=1e-15)
        assert np.all(np.diff(seq) < 0)
        # each element maps back to its predecessor
        fwd = eval_map(m, seq[1:])
        assert np.max(np.abs(fwd - seq[:-1])) <= 1e-12


@pytest.mark.parametrize("N", [0, -1])
def test_preimage_sequence_needs_one_step(N):
    with pytest.raises(DomainError, match="need N >= 1"):
        preimage_sequence(FAREY, N)


def test_return_time_examples():
    assert return_time(FAREY, 0.6) == 1
    assert return_time(FAREY, 0.3) == 3
    for m in ALL_MAPS:
        assert return_time(m, m.branch_cut) == 2


def test_return_time_against_orbit_iteration():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    for m in (FAREY, LSV_HALF, PM_ONE, PWL_ONE):
        a = m.branch_cut
        boundary = preimage_sequence(m, 60).values
        count = 0
        while count < 1000:
            x = float(rng.uniform(boundary[55], 1.0))
            if np.min(np.abs(boundary - x)) < 1e-8:
                continue
            count += 1
            tau = 1
            y = x
            while y <= a:
                y = eval_map(m, y)
                tau += 1
                assert tau < 60
            assert return_time(m, x) == tau


def test_preimage_chain_shared_across_threads():
    # four threads build fresh maps at once, with the family's head, cut and
    # series dropped from the memo so they race to compute them, and read the
    # chain to a_2000; every thread must see the serial bytes
    serial = preimage_sequence(MapSpec.lsv(0.5), 2000).values
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            maps._FATOU.pop((type(MapSpec.lsv(0.5).branches), 0.5))
            start = threading.Barrier(4)
            results = [None] * 4

            def grow(i, start=start, results=results):
                start.wait(timeout=30)
                results[i] = preimage_sequence(MapSpec.lsv(0.5), 2000).values

            threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for values in results:
                assert values is not None and values.tobytes() == serial.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_walks_and_chain_growth_share_one_chain_across_threads():
    # on one fresh map, with its family's head, cut and series dropped from
    # the memo so the threads race to compute them, two threads walk 200
    # branches on many nodes while two read the chain to a_100 and a_400;
    # every thread must see the serial bytes
    fresh = MapSpec.lsv(0.5)
    chain = preimage_sequence(fresh, 400).values
    walk = [np.asarray(pair) for pair in branch_walk(build_induced(fresh, 200), lobatto_nodes(1024))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            maps._FATOU.pop((type(fresh.branches), 0.5))
            start = threading.Barrier(4)
            results = [None] * 4

            def work(i, start=start, results=results):
                start.wait(timeout=30)
                m = MapSpec.lsv(0.5)
                if i % 2:
                    results[i] = [np.asarray(pair) for pair in branch_walk(build_induced(m, 200), lobatto_nodes(1024))]
                else:
                    results[i] = preimage_sequence(m, 400 if i else 100).values

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for i, values in enumerate(results):
                assert values is not None
                if i % 2:
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(values, walk, strict=True))
                else:
                    assert values.tobytes() == chain[: len(values)].tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_return_time_cap():
    with pytest.raises(ReturnTimeOverflowError):
        return_time(FAREY, 1e-7, cap=1000)
    # 1/x beyond the int64 range must not wrap into a small cell index
    with pytest.raises(ReturnTimeOverflowError):
        return_time(PWL_ONE, 1e-20)
    with pytest.raises(ReturnTimeOverflowError):
        eval_map(PWL_ONE, 1e-20)
    with pytest.raises(DomainError):
        return_time(FAREY, 0.0)
    # every return time is at least 1, so it exceeds any cap below 1; the
    # search must not clip its start to the cap and read tail(0)
    for m in ALL_MAPS:
        for cap in (0, -3):
            for x in (1.0, 0.3, 1e-4):
                with pytest.raises(ReturnTimeOverflowError):
                    return_time(m, x, cap=cap)
            if m.family == "pwl":
                with pytest.raises(ReturnTimeOverflowError):
                    m.weights.cell_index(1.0, cap=cap)


@pytest.mark.parametrize(
    "m", [PWL_ONE, MapSpec.pwl(0.5), MapSpec.pwl(2.0), FAREY, LSV_HALF, MapSpec.pomeau_manneville(2.0)],
    ids=["harmonic", "zipf-0.5", "zipf-2", "farey", "lsv-0.5", "pm-2"],
)
def test_return_time_at_the_cell_boundaries(m):
    # tau is n + 1 at a_n and one ulp below it, n one ulp above it
    top = 10**4 if m.family == "farey" else 10**5
    chain = preimage_sequence(m, top).values
    for n in (1, 2, 3, 10, 10**3, top):
        a = chain[n]
        assert [return_time(m, x) for x in (np.nextafter(a, 0.0), a, np.nextafter(a, 1.0))] == [n + 1, n + 1, n]


@pytest.mark.parametrize("m", [PWL_ONE, MapSpec.pwl(0.5), MapSpec.pwl(2.0)], ids=["harmonic", "zipf-0.5", "zipf-2"])
def test_pwl_cell_index_of_an_array_is_the_chain_search(m):
    # 2,000 points on, beside and between the chain's nodes, in one call
    chain = preimage_sequence(m, 10**5).values
    n = np.random.default_rng(5).integers(1, 10**5, 500)
    x = np.concatenate([chain[n], np.nextafter(chain[n], 0.0), np.nextafter(chain[n], 1.0), 0.5 * (chain[n] + chain[n - 1])])
    cells = m.weights.cell_index(x.reshape(40, 50))
    assert cells.shape == (40, 50)
    assert cells.ravel().tolist() == np.searchsorted(-chain, -x, side="right").tolist()


CAPPED_LOOKUPS = {
    "harmonic": HarmonicWeights().cell_index,
    "zipf-0.5": ZipfWeights(0.5).cell_index,
    "zipf-2": ZipfWeights(2.0).cell_index,
    "lsv-0.5": lambda x, cap: return_time(LSV_HALF, x, cap=cap),
}


@pytest.mark.parametrize("x", [0.1, 1e-3, 2e-7])
@pytest.mark.parametrize("name", CAPPED_LOOKUPS)
def test_the_cap_is_the_largest_return_time_allowed(name, x):
    lookup = CAPPED_LOOKUPS[name]
    n = lookup(x, cap=10**15)
    assert n >= 2
    assert lookup(x, cap=n) == n
    with pytest.raises(ReturnTimeOverflowError):
        lookup(x, cap=n - 1)


def test_the_search_costs_two_tail_evaluations_at_an_exact_guess():
    calls = []

    def tail(n):
        calls.append(n)
        return 1.0 / (n + 1.0)

    x = np.array([0.3, 1e-3, 2e-7])
    cells = HarmonicWeights().cell_index(x, cap=10**9)
    for offset, cost in ((0, 2), (-1, 2), (1, 3), (-2, 3)):
        calls.clear()
        assert maps._first_below(tail, x, cells + offset, 10**9).tolist() == cells.tolist()
        assert len(calls) == cost


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**7), st.floats(-10.0, 1e8), st.integers(1, 10**7))
def test_the_search_finds_the_first_tail_below_x_from_any_guess(answer, start, cap):
    # tail(n) = -n falls below x = 1/2 - answer first at n = answer
    evaluated = []

    def tail(n):
        evaluated.extend(n.tolist())
        return -n.astype(float)

    if answer > cap:
        with pytest.raises(ReturnTimeOverflowError):
            maps._first_below(tail, 0.5 - answer, start, cap)
    else:
        assert maps._first_below(tail, 0.5 - answer, start, cap) == answer
    # never tail(0) nor past the cap, and a number of steps logarithmic in the miss
    assert 1 <= min(evaluated) and max(evaluated) <= cap
    miss = abs(int(min(max(start, 1), cap)) - min(answer, cap + 1))
    assert len(evaluated) <= 2 * np.log2(miss + 1) + 3
    if answer <= cap:  # each point of an array on its own
        found = maps._first_below(tail, np.full(3, 0.5 - answer), np.array([start, answer, 1.0]), cap)
        assert found.tolist() == [answer] * 3


def test_the_search_spans_every_cell_a_float_can_index():
    # a gallop of 53 steps from a guess of 1, then a bisection of 52; no int64 overflow
    answer = 2**52 + 3
    assert maps._first_below(lambda n: -n.astype(float), 0.5 - answer, 1.0, maps._CELL_LIMIT) == answer


# ---------------------------------------------------------------------------
# properties (randomized)
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["farey", "lsv", "pm", "pwl"]),
    st.floats(min_value=1e-4, max_value=1.0 - 1e-9),
)
def test_inverse_roundtrip_property(family, x):
    m = {"farey": FAREY, "lsv": LSV_HALF, "pm": PM_ONE, "pwl": PWL_ONE}[family]
    inverse = left_inverse if x <= m.branch_cut else right_inverse
    y = eval_map(m, x)
    back = inverse(m, min(y, 1.0))
    assert abs(back - x) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0))
def test_return_time_level_set_property(x):
    n = return_time(FAREY, x)
    seq = preimage_sequence(FAREY, n).values
    assert seq[n] < x <= seq[n - 1]


# ---------------------------------------------------------------------------
# weights and holes
# ---------------------------------------------------------------------------

def test_harmonic_cells_match_zipf_interface():
    w = HarmonicWeights()
    ks = np.array([1, 2, 3, 10])
    assert np.allclose(w.mass(ks), 1.0 / (ks * (ks + 1.0)))
    assert w.cell_index(0.4) == 2
    assert w.cell_index(1.0) == 1


def test_zipf_tail_accuracy():
    w = ZipfWeights(1.0)
    ks = np.arange(1, 2000)
    direct = 1.0 - np.cumsum(w.mass(ks))
    assert np.max(np.abs(np.asarray(w.tail(ks)) - direct)) <= 1e-12


def test_explicit_weights_bounds():
    w = ExplicitWeights((0.5, 0.3, 0.2))
    assert w.tail(0) == pytest.approx(1.0)
    assert w.cell_index(0.4) == 2
    assert w.cell_index(0.1) == 3  # the final cell reaches down to zero
    with pytest.raises(DomainError):
        w.mass(4)
    short = ExplicitWeights((0.4, 0.3))  # sums to 0.7; nothing above the top tail
    with pytest.raises(DomainError):
        short.cell_index(0.9)


@pytest.mark.parametrize("values", [(), (0.5, -0.1, 0.6), (0.5, 0.0, 0.5), (0.5, np.nan, 0.5), (0.5, np.inf)])
def test_explicit_weights_must_be_finite_and_positive(values):
    with pytest.raises(DomainError):
        ExplicitWeights(values)


def test_hole_construction():
    h = Hole.markov(3)
    assert h.edge(FAREY) == pytest.approx(0.25, abs=1e-14)
    assert Hole.interval(0.1).edge(FAREY) == 0.1
    with pytest.raises(DomainError):
        Hole(index=2, epsilon=0.1)
    with pytest.raises(DomainError):
        Hole()
    for epsilon in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1\)"):
            Hole(epsilon=epsilon)
    # the index is a positive integer, stored as an int
    for index in (2.5, 3.0, "3", 0, -2):
        with pytest.raises(DomainError):
            Hole.markov(index)
    hole = Hole.markov(np.int64(7))
    assert type(hole.index) is int and hole == Hole.markov(7)


# ---------------------------------------------------------------------------
# hypothesis diagnostics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: f"{m.family}-s{m.s}")
def test_builtin_families_pass_diagnostics(m):
    report = validate_hypotheses(m)
    assert report.ok, str(report)


def test_pwl_exponent_estimate():
    report = validate_hypotheses(PWL_ONE)
    check = {c.name: c for c in report.checks}["local_exponent"]
    assert check.passed  # the harmonic tails behave like exponent one


def test_bad_weights_flagged():
    bad = MapSpec.pwl(1.0, ExplicitWeights((0.4, 0.3, 0.2)))  # sums to 0.9
    report = validate_hypotheses(bad)
    names = {c.name: c.passed for c in report.checks}
    assert not names["weights_normalized"]
    assert not report.ok
    # one line a check, its verdict first
    lines = str(report).splitlines()
    assert len(lines) == len(report.checks)
    assert all(line.startswith(f"[{'pass' if c.passed else 'FAIL'}] {c.name}: ")
               for line, c in zip(lines, report.checks))
    assert any(line.startswith("[FAIL] weights_normalized: ") for line in lines)


def test_mapspec_validation():
    with pytest.raises(DomainError):
        MapSpec("nope", 1.0)
    with pytest.raises(DomainError):
        MapSpec("lsv", -1.0)
    with pytest.raises(DomainError):
        MapSpec("farey", 1.0, HarmonicWeights())


def test_farey_rejects_any_other_exponent():
    # the Farey map has s = 1; any other declared exponent would be ignored
    # by the branches while a scaling fit still read it
    assert MapSpec("farey", 1.0) == MapSpec.farey()
    for s in (0.5, 2.0, 1.0 + 1e-12):
        with pytest.raises(DomainError):
            MapSpec("farey", s)


@pytest.mark.parametrize("family", ["pm", "lsv", "farey", "pwl"])
@pytest.mark.parametrize("s", [np.inf, np.nan, 0.0, -1.0])
def test_exponent_must_be_positive_and_finite(family, s):
    with pytest.raises(DomainError):
        MapSpec(family, s)


@pytest.mark.parametrize("s", [np.inf, np.nan, 0.0])
def test_zipf_exponent_must_be_positive_and_finite(s):
    # at s = inf every Zipf mass would be 0
    with pytest.raises(DomainError):
        ZipfWeights(s)


def test_pwl_weights_must_have_the_declared_exponent():
    # harmonic tails have exponent 1 and zipf tails their own s; a pwl map
    # declaring another s would fit its scaling against the wrong exponent
    assert MapSpec("pwl", 1.0 + 1e-13, HarmonicWeights()).weights == HarmonicWeights()
    assert MapSpec("pwl", 2.0, ZipfWeights(2.0)).weights == ZipfWeights(2.0)
    for s, weights in ((2.0, HarmonicWeights()), (1.0 + 1e-12, HarmonicWeights()), (2.0, ZipfWeights(1.5))):
        with pytest.raises(DomainError):
            MapSpec("pwl", s, weights)
    # explicit weights declare no exponent
    explicit = ExplicitWeights((0.5, 0.25, 0.25))
    for s in (0.5, 1.0, 2.0):
        assert MapSpec("pwl", s, explicit).weights == explicit


@pytest.mark.parametrize("family,s", [("pm", 1.0), ("pm", 2.0), ("lsv", 0.5), ("lsv", 2.0)])
def test_return_time_and_hole_edge_agree_with_the_chain_on_both_sides_of_k0(family, s):
    # at a_n itself tau is n + 1, one ulp above it n, in the head and past
    # it; a Markov hole's edge, read without the chain, is a_n itself
    m = MapSpec(family, s)
    k0 = maps._walked_branches(m, 10**6)
    chain = preimage_sequence(m, 10**5 + 1).values
    for n in (k0 - 1, k0, k0 + 1, 10**3, 10**5):
        assert return_time(m, chain[n], cap=10**6) == n + 1
        assert return_time(m, np.nextafter(chain[n], 1.0), cap=10**6) == n
    assert [Hole.markov(n).edge(m) for n in range(1, k0 + 3)] == chain[1:k0 + 3].tolist()
    assert Hole.markov(10**5).edge(m) == chain[10**5]


def test_return_time_deep_in_the_parabolic_basin_is_cheap():
    # epsilon = 1e-4 lies in cell 12,500,013 of lsv s = 2; the Abel function
    # finds it without a chain of that length
    start = time.perf_counter()
    assert return_time(MapSpec.lsv(2.0), 1e-4, cap=10**8) == 12_500_013
    assert time.perf_counter() - start < 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from x**-s either
        for x in (1e-4, 1e-300):
            start = time.perf_counter()
            with pytest.raises(ReturnTimeOverflowError):
                return_time(MapSpec.lsv(2.0), x)
            assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("m", [LSV_HALF, PM_ONE, FAREY, MapSpec.pwl(0.5), MapSpec.pwl(1.0, ExplicitWeights((0.5, 0.3, 0.2)))],
                         ids=lambda m: m.family)
def test_maps_pickle_and_copy(m):
    # a round trip rebuilds the map from its fields: equal, with the same
    # chain and walk bytes
    N = getattr(m.weights, "kmax", None) or 300  # a short explicit list ends early
    induced = build_induced(m, min(N, 40))
    for copied, induced_copy in ((pickle.loads(pickle.dumps(m)), pickle.loads(pickle.dumps(induced))),
                                 (copy.deepcopy(m), copy.deepcopy(induced))):
        assert copied == m and induced_copy.map == m and induced_copy.branch_count == induced.branch_count
        assert preimage_sequence(copied, N).values.tobytes() == preimage_sequence(m, N).values.tobytes()
        walks = [branch_walk(i, lobatto_nodes(64)) for i in (induced, induced_copy)]
        for a, b in zip(*walks, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---------------------------------------------------------------------------
# past k0: the chain and the branches from the Fatou coordinate, at 40 digits
# ---------------------------------------------------------------------------

def _left_branch_mp(mp, family, s):
    """x + c x^(1+s) and its derivative at the working precision of mp."""
    s_mp = mp.mpf(s)
    c = mp.mpf(2) ** s_mp if family == "lsv" else mp.mpf(1)
    return (lambda x: x + c * x ** (1 + s_mp)), (lambda x: 1 + c * (1 + s_mp) * x**s_mp)


@pytest.mark.parametrize("family,s", [
    ("lsv", 0.25), ("lsv", 0.5), ("lsv", 1.0), ("lsv", 2.0), ("pm", 1.0), ("pm", 2.0), ("farey", 1.0),
])
def test_preimage_chain_is_exact_to_ten_thousand(family, s):
    # a_n ~ n^(-1/s) for n <= 10^4 against a_n = phi_0(a_{n-1}) at 40 digits;
    # past k0 the chain comes from a_k0 by the Abel function, so the ulp-level
    # errors of a root solve per step no longer add up along it.  The farey
    # chain takes the float steps a/(1 + a), against the exact 1/(n + 1)
    mp = pytest.importorskip("mpmath")
    chain = preimage_sequence(MapSpec(family, s), 10_000).values
    worst = 0.0
    with mp.workdps(40):
        f, df = _left_branch_mp(mp, family, s)
        a = mp.mpf(1)
        for n in range(1, len(chain)):
            if family == "farey":
                a = mp.mpf(1) / (n + 1)
            else:
                x = mp.mpf(float(chain[n]))
                for _ in range(3):  # Newton from the float value: 1e-13 -> 1e-52 relative at most
                    x -= (f(x) - a) / df(x)
                a = x  # a_1 = phi_0(1) is the cut of both smooth families
            worst = max(worst, float(abs(mp.mpf(float(chain[n])) - a) / a))
    assert worst <= 1e-14


@pytest.mark.parametrize("family,s", [("lsv", 0.25), ("lsv", 0.5), ("lsv", 2.0), ("pm", 1.0)])
def test_fatou_branches_match_composed_inverses(family, s):
    # zeta_n and log|zeta_n'| at n = k0 + 1, 2 k0 and 100, on five Lobatto
    # nodes, against phi_1 and n - 1 steps of phi_0 composed at 40 digits
    mp = pytest.importorskip("mpmath")
    m = MapSpec(family, s)
    k0 = maps._walked_branches(m, 100)
    ns = {k0 + 1, 2 * k0, 100}
    xs = lobatto_nodes(64)[[0, 1, 32, 63, 64]]
    walk = list(branch_walk(build_induced(m, 100), xs))
    worst_y = worst_lw = 0.0
    with mp.workdps(40):
        f, df = _left_branch_mp(mp, family, s)
        s_mp = mp.mpf(s)
        for i, x in enumerate(xs):
            x = mp.mpf(float(x))
            if family == "lsv":
                y, lw = (x + 1) / 2, -mp.log(2)
            else:
                y = mp.findroot(lambda z: z + z ** (1 + s_mp) - 1 - x, 0.8)
                lw = -mp.log(1 + (1 + s_mp) * y**s_mp)
            for n in range(2, 101):
                target = y
                for _ in range(60):  # Newton from the previous point, above the root
                    step = (f(y) - target) / df(y)
                    y -= step
                    if step <= mp.mpf(10) ** -38 * y:
                        break
                lw -= mp.log(df(y))
                if n in ns:
                    y_n, lw_n = walk[n - 1][0][i], walk[n - 1][1][i]
                    worst_y = max(worst_y, float(abs(mp.mpf(float(y_n)) - y) / y))
                    worst_lw = max(worst_lw, float(abs(mp.mpf(float(lw_n)) - lw)))
    assert k0 < 50
    assert worst_y <= 1e-14
    assert worst_lw <= 1e-13


@pytest.mark.parametrize("family,s", [("lsv", 0.25), ("lsv", 0.5), ("lsv", 2.0), ("pm", 1.0), ("pm", 2.0)])
def test_abel_function_conjugates_the_left_branch_to_a_unit_step(family, s):
    # Psi(F(u)) = Psi(u) - 1 for u = x^-s and F(u) = f(x)^-s, from the edge
    # of the series out to u = 1e8: the series at 40 digits with the float
    # coefficients, and the float inversion Psi^-1(Psi(F(u)) + 1) = u to
    # rounding
    mp = pytest.importorskip("mpmath")
    branches = MapSpec(family, s).branches
    us = np.geomspace(branches.fatou_edge ** -s, 1e8, 40)
    images = []
    worst = 0.0
    with mp.workdps(40):
        f, _ = _left_branch_mp(mp, family, s)

        def psi(u):
            series = sum(mp.mpf(g) * u ** -(k + 1) for k, g in enumerate(branches._gamma))
            return u / mp.mpf(branches._cs) + mp.mpf(branches._beta) * mp.log(u) + series

        for u in us:
            u = mp.mpf(u)
            image = f(u ** (-1 / mp.mpf(s))) ** -mp.mpf(s)
            worst = max(worst, float(abs(psi(image) - psi(u) + 1)))
            images.append(float(image))
    assert worst <= 1e-15
    images = np.array(images)
    series = maps._horner(branches._gamma, 1.0 / images)
    assert np.all(np.abs(images + branches._psi_step(images, series, 1.0) - us) <= 4 * np.finfo(float).eps * us)


@pytest.mark.parametrize("family,s,k0", [("lsv", 0.1, 37), ("lsv", 0.5, 13), ("lsv", 2.0, 11), ("pm", 1.0, 10)])
def test_k0_is_the_first_branch_the_series_serves(family, s, k0):
    # the last Abel term is below ABEL_CUTOFF of the leading one at the top
    # u = a_{k0-1}^-s of branch k0, and not yet at the top of branch k0 - 1
    m = MapSpec(family, s)
    f = m.branches
    assert maps._walked_branches(m, 1000) == k0
    a = preimage_sequence(m, k0).values

    def last_over_leading(x):
        u = x ** -s
        return abs(f._gamma[-1]) * u ** -maps.ABEL_TERMS / (u / f._cs)

    assert last_over_leading(a[k0 - 1]) < maps.ABEL_CUTOFF <= last_over_leading(a[k0 - 2])
    assert maps._walked_branches(m, 5) == 5  # shallower holes are walked whole


def test_chain_grown_in_pieces_is_the_chain_grown_at_once():
    # each point of the Abel-function chain depends on a_k0 and its index only
    at_once = preimage_sequence(MapSpec.lsv(2.0), 3000).values
    m = MapSpec.lsv(2.0)
    for n in (5, 11, 12, 40, 1000, 3000):
        preimage_sequence(m, n)
    assert preimage_sequence(m, 3000).values.tobytes() == at_once.tobytes()


# ---------------------------------------------------------------------------
# bitwise pins of the branch primitives
# ---------------------------------------------------------------------------

# sha256 of the primitives below: a change to any bit of them fails here, so
# a change of the branch code that moves numbers must say so and re-record.
# pm and lsv were re-recorded when the chain and the branches past k0 came
# from the Abel function.  Against 40 digits, on every one of the four maps,
# the chain to a_300 went from 1.2e-14..1.9e-14 to 2.5e-16..6.6e-16
# relative, the walk to N = 40 from 1.0e-15..1.1e-15 to 5.3e-16..9.7e-16
# relative and its log weights from 5.2e-15..6.5e-15 to 2.8e-15..5.1e-15
# absolute; the other primitives kept their bits
PRIMITIVE_DIGESTS = {
    ("pm", 1.0): "c635106823de15f356a24f1ab88d6eca690b757c5a40d4f8359da4585734d8a7",
    ("pm", 2.0): "41eadb776867b77f83863a7dc50d2dc8b4a886e65cab0768ad2a9fe8a3c1e4db",
    ("lsv", 0.5): "84542b9184496c1811c23afbdbe2aafc0db2712490d59f961ee2780ebecb69de",
    ("lsv", 2.0): "9a989703af2ba9f70ee23346d8703e55bfb29c9bf41c8578f5090e86d1195d25",
    ("farey", 1.0): "d039cc38c152e682b8af0f6e293ec90e6463e643bf04ce223fccf02db29e3d51",
    ("pwl", 1.0): "05959820eca1d5c49a640f99dd72bf9ec0d24b6d1452a7c2bdfc7dcbbde4dead",
    ("pwl", 0.5): "d0d43667148b810b2be9a6ed05e459eaa60caeffb88d89d2fd1d4d5922a96576",
}


def primitive_digest(m):
    """Both inverses, F and |F'| on 1,001 points, the chain a_0..a_300 and
    the branch walk at N = 40 on the 65 Chebyshev-Lobatto nodes."""
    xs = np.linspace(0.0, 1.0, 1001)
    arrays = [
        maps.left_inverse(m, xs),
        maps.right_inverse(m, xs),
        eval_map(m, xs),
        eval_derivative(m, xs[xs != m.branch_cut]),
        preimage_sequence(m, 300).values,
    ]
    for pair in branch_walk(build_induced(m, 40), lobatto_nodes(64)):
        arrays.extend(pair)
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("family,s", sorted(PRIMITIVE_DIGESTS), ids=lambda v: str(v))
def test_primitives_bitwise_pinned(family, s):
    assert primitive_digest(MapSpec(family, s)) == PRIMITIVE_DIGESTS[family, s]
