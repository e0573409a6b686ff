import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parabolic_escape.exceptions import DomainError, ReturnTimeOverflowError
from parabolic_escape.maps import (
    ExplicitWeights,
    HarmonicWeights,
    Hole,
    MapSpec,
    ZipfWeights,
    eval_derivative,
    eval_map,
    inverse_branch,
    preimage_sequence,
    return_time,
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
    assert inverse_branch(FAREY, 0, 0.0) == 0.0
    assert inverse_branch(LSV_HALF, 1, 0.0) == pytest.approx(0.5, abs=1e-15)
    # independent bisection oracle for the root-found branch
    y = 0.3
    lo, hi = 0.0, PM_ONE.branch_cut
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + mid**2 < y:
            lo = mid
        else:
            hi = mid
    assert inverse_branch(PM_ONE, 0, y) == pytest.approx(0.5 * (lo + hi), abs=1e-13)


def test_inverse_branch_residual_contract():
    ys = np.linspace(0.0, 1.0, 201)
    for m in ALL_MAPS:
        for branch in (0, 1):
            x = inverse_branch(m, branch, ys)
            back = eval_map(m, np.clip(x, 0.0, 1.0))
            # right-branch values at y = 0 sit on the branch cut, which maps
            # with the left branch by convention; skip that single point
            ok = np.abs(back - ys) <= 1e-12
            if branch == 1:
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
    # four threads grow the chain of one fresh map at once; a lost or doubled
    # append would break the exact match with a chain grown serially
    serial = preimage_sequence(MapSpec.lsv(0.5), 2000).values
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            m = MapSpec.lsv(0.5)
            start = threading.Barrier(4)
            results = [None] * 4

            def grow(i, m=m, start=start, results=results):
                start.wait(timeout=30)
                results[i] = preimage_sequence(m, 2000).values

            threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for values in results:
                assert values is not None and np.array_equal(values, serial)
            assert np.array_equal(preimage_sequence(m, 2000).values, serial)
    finally:
        sys.setswitchinterval(interval)


def test_return_time_cap():
    with pytest.raises(ReturnTimeOverflowError):
        return_time(FAREY, 1e-7, cap=1000)
    with pytest.raises(DomainError):
        return_time(FAREY, 0.0)


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
    branch = 0 if x <= m.branch_cut else 1
    y = eval_map(m, x)
    back = inverse_branch(m, branch, min(y, 1.0))
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


def test_hole_construction():
    h = Hole.markov(3)
    assert h.edge(FAREY) == pytest.approx(0.25, abs=1e-14)
    assert Hole.interval(0.1).edge(FAREY) == 0.1
    with pytest.raises(DomainError):
        Hole(index=2, epsilon=0.1)
    with pytest.raises(DomainError):
        Hole()


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


def test_mapspec_validation():
    with pytest.raises(DomainError):
        MapSpec("nope", 1.0)
    with pytest.raises(DomainError):
        MapSpec("lsv", -1.0)
    with pytest.raises(DomainError):
        MapSpec("farey", 1.0, HarmonicWeights())
