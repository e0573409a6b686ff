import math
import tracemalloc

import numpy as np
import pytest

from parabolic_escape import montecarlo
from parabolic_escape.exceptions import DomainError, InsufficientSurvivorsError
from parabolic_escape.maps import Hole, MapSpec, ZipfWeights, eval_map
from parabolic_escape.montecarlo import (
    CHUNK_SIZE,
    SurvivalCurve,
    curve_csv_text,
    mc_escape_rate,
    survival_curve,
)

PWL_ONE = MapSpec.pwl(1.0)
LSV_HALF = MapSpec.lsv(0.5)

# exact survivor counts at n_max=25, 300,000 samples, seed 5, hole markov(3):
# a change in any per-point expression of the map changes them
PINNED_SURVIVORS = {
    "lsv": (
        MapSpec.lsv(0.5),
        [
            246673, 220004, 194222, 169238, 148756, 130290, 114132, 100120, 87645,
            76724, 67197, 58913, 51702, 45329, 39792, 34800, 30489, 26713, 23409, 20459,
            17834, 15607, 13712, 11987, 10528
        ],
    ),
    "pm": (
        MapSpec.pomeau_manneville(0.5),
        [
            228296, 195379, 164493, 135135, 112427, 93397, 77423, 64287, 53493, 44414,
            36872, 30586, 25300, 20943, 17397, 14446, 11895, 9877, 8141, 6758, 5587,
            4635, 3812, 3165, 2575
        ],
    ),
    "farey": (
        MapSpec.farey(),
        [
            225234, 165121, 131816, 102006, 79327, 61760, 47869, 37200, 28870, 22459,
            17398, 13530, 10479, 8203, 6361, 4953, 3788, 2950, 2304, 1787, 1398, 1056,
            815, 626, 505
        ],
    ),
    "pwl": (
        MapSpec.pwl(1.0),
        [
            225234, 187824, 156433, 128194, 105785, 87229, 71958, 59409, 48907, 40237,
            33210, 27375, 22611, 18611, 15274, 12537, 10266, 8425, 7009, 5786, 4797,
            3996, 3329, 2788, 2328
        ],
    ),
}


def test_determinism_across_thread_counts():
    kwargs = dict(n_max=20, samples=200_000, seed=42)
    c1 = survival_curve(PWL_ONE, Hole.markov(2), threads=1, **kwargs)
    c4 = survival_curve(PWL_ONE, Hole.markov(2), threads=4, **kwargs)
    assert np.array_equal(c1.survivors, c4.survivors)
    c1b = survival_curve(PWL_ONE, Hole.markov(2), threads=1, **kwargs)
    assert np.array_equal(c1.survivors, c1b.survivors)


def test_different_seeds_differ():
    a = survival_curve(PWL_ONE, Hole.markov(2), n_max=15, samples=100_000, seed=1)
    b = survival_curve(PWL_ONE, Hole.markov(2), n_max=15, samples=100_000, seed=2)
    assert not np.array_equal(a.survivors, b.survivors)


def test_survivors_monotone_and_first_step():
    curve = survival_curve(LSV_HALF, Hole.markov(3), n_max=25, samples=300_000, seed=5)
    assert np.all(np.diff(curve.survivors) <= 0)
    m_hole = Hole.markov(3).edge(LSV_HALF)
    # one-step survival = complement of the hole, up to binomial error
    est = curve.estimates[0]
    se = math.sqrt(m_hole * (1 - m_hole) / curve.samples)
    assert abs(est - (1.0 - m_hole)) <= 4 * se


def test_everything_escapes_for_huge_hole():
    curve = survival_curve(PWL_ONE, Hole.interval(0.99), n_max=10, samples=50_000, seed=3)
    assert curve.estimates[1] <= 0.01
    assert curve.estimates[5] <= 1e-3


def test_matrix_power_oracle_pwl():
    # exact survival masses from the two-cell renewal chain
    p1, p2 = 0.5, 1.0 / 6.0
    T = np.array([[p1, p2], [1.0, 0.0]])
    w = np.array([p1, p2])
    exact = []
    for _ in range(10):
        exact.append(w.sum())
        w = w @ T
    curve = survival_curve(PWL_ONE, Hole.markov(2), n_max=10, samples=1_000_000, seed=12)
    for n in range(10):
        se = math.sqrt(exact[n] * (1 - exact[n]) / curve.samples)
        assert abs(curve.estimates[n] - exact[n]) <= 3.5 * se


def test_geometric_curve_recovers_rate_exactly():
    lam = 0.9
    samples = 10**7
    n = np.arange(1, 41)
    survivors = np.round(samples * lam**n).astype(np.int64)
    curve = SurvivalCurve(n, survivors, samples, 0, 0.1)
    est = mc_escape_rate(curve, (5, 35))
    assert est.gamma == pytest.approx(-math.log(lam), abs=1e-5)


def test_insufficient_survivors_error():
    n = np.arange(1, 21)
    survivors = np.maximum(1000 - 60 * n, 0)
    curve = SurvivalCurve(n, survivors, 10_000, 0, 0.3)
    with pytest.raises(InsufficientSurvivorsError):
        mc_escape_rate(curve, (10, 20))


def test_window_validation():
    curve = survival_curve(PWL_ONE, Hole.markov(2), n_max=12, samples=10_000, seed=1)
    with pytest.raises(DomainError):
        mc_escape_rate(curve, (5, 30))
    # window ends are not truncated or parsed
    for window in ((3.7, 12), (3, 11.0), ("3", 12), (3,), (3, 8, 12)):
        with pytest.raises(DomainError):
            mc_escape_rate(curve, window)
    assert mc_escape_rate(curve, (np.int64(3), 12)).window == (3, 12)
    with pytest.raises(DomainError):
        survival_curve(PWL_ONE, Hole.markov(2), n_max=5, samples=10_000, seed=1)
    with pytest.raises(DomainError):
        survival_curve(PWL_ONE, Hole.markov(2), n_max=12, samples=10, seed=1)


def test_statistical_acceptance_against_exact_rate():
    """95%-style check: the windowed slope lands within 3 standard errors of
    the exact decay rate (renewal polynomial root) in nearly all repetitions."""
    p = np.array([1.0 / (k * (k + 1)) for k in range(1, 6)])
    ks = np.arange(1, 6)
    z = 1.0
    for _ in range(100):
        val = float(np.polynomial.polynomial.polyval(z, np.concatenate([[0.0], p])))
        dval = float(np.polynomial.polynomial.polyval(z, np.concatenate([[0.0], p * ks]))) / z
        z -= (val - 1.0) / dval
    gamma_exact = math.log(z)

    hits = 0
    reps = 100
    for seed in range(reps):
        curve = survival_curve(PWL_ONE, Hole.markov(5), n_max=30, samples=1 << 16, seed=seed)
        est = mc_escape_rate(curve, (10, 30))
        if abs(est.gamma - gamma_exact) <= 3.0 * est.stderr:
            hits += 1
    assert hits >= 95, f"only {hits}/100 within three standard errors"


def test_curve_csv():
    curve = survival_curve(PWL_ONE, Hole.markov(2), n_max=12, samples=10_000, seed=1)
    lines = curve_csv_text(curve).splitlines()
    assert lines[0] == "n,survivors,estimate,stderr"
    assert len(lines) == 13
    n, k, est, se = lines[1].split(",")
    assert int(n) == 1 and int(k) == curve.survivors[0]
    assert float(est) == pytest.approx(curve.estimates[0])


@pytest.mark.parametrize("family", sorted(PINNED_SURVIVORS))
def test_survivor_counts_pinned_bitwise(family):
    m, expected = PINNED_SURVIVORS[family]
    curve = survival_curve(m, Hole.markov(3), n_max=25, samples=300_000, seed=5)
    assert curve.survivors.tolist() == expected


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": -1}, {"seed": 2**64}, {"threads": 0}, {"samples": 2000.5}, {"n_max": 20.0}, {"seed": 1.5}],
)
def test_survival_curve_rejects_bad_arguments(kwargs):
    args = dict(n_max=12, samples=10_000, seed=1, threads=1)
    args.update(kwargs)
    with pytest.raises(DomainError):
        survival_curve(PWL_ONE, Hole.markov(2), **args)


def test_tiny_hole_on_pwl_reaches_deep_cells():
    # orbits land in cells beyond the default return-time cap, where the map
    # is still defined
    curve = survival_curve(PWL_ONE, Hole.interval(1e-8), n_max=10, samples=2_000_000, seed=0)
    assert len(curve.survivors) == 10


def eval_map_counts(m, hole, n_max, samples, seed):
    """Survivor counts from the plain loop on ``eval_map``, chunk by chunk with
    the same per-chunk random keys, keeping the survivors in order."""
    edge = hole.edge(m)
    counts = np.zeros(n_max, dtype=np.int64)
    for chunk, start in enumerate(range(0, samples, CHUNK_SIZE)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
        x = rng.random(min(CHUNK_SIZE, samples - start))
        for n in range(n_max):
            x = x[x > edge]
            counts[n] += x.size
            if n < n_max - 1:
                x = eval_map(m, x)
    return counts


EVAL_MAP_CASES = {
    "lsv-0.5": MapSpec.lsv(0.5),
    "pm-1": MapSpec.pomeau_manneville(1.0),
    "farey": MapSpec.farey(),
    "pwl-1": MapSpec.pwl(1.0),
    "pwl-zipf-0.5": MapSpec.pwl(0.5, ZipfWeights(0.5)),
}


@pytest.mark.parametrize("name", sorted(EVAL_MAP_CASES))
def test_survivor_counts_equal_the_eval_map_loop(name):
    # the Monte Carlo step applies the branch formulas itself, so it must not
    # drift from eval_map: same counts for both hole kinds and thread counts,
    # with a last chunk shorter than the others
    m = EVAL_MAP_CASES[name]
    samples = 3 * CHUNK_SIZE + 12_345
    for hole in (Hole.markov(3), Hole.interval(0.0123)):
        expected = eval_map_counts(m, hole, 30, samples, seed=11)
        for threads in (1, 2):
            curve = survival_curve(m, hole, n_max=30, samples=samples, seed=11, threads=threads)
            assert curve.survivors.tolist() == expected.tolist()


def test_a_nan_from_a_branch_formula_is_a_domain_error(monkeypatch):
    m = MapSpec.lsv(0.5)
    monkeypatch.setattr(m.branches, "left", lambda x: np.full_like(x, np.nan))
    with pytest.raises(DomainError):
        survival_curve(m, Hole.markov(3), n_max=12, samples=10_000, seed=1)


def test_a_nan_at_the_last_step_is_a_domain_error(monkeypatch):
    # 1000 samples are one chunk, below the tail size from step 0, so the ninth
    # call of the left branch makes the images counted at n_max = 10
    m = MapSpec.lsv(0.5)
    left, calls = m.branches.left, []

    def nan_on_ninth_call(x):
        calls.append(x.size)
        return np.full_like(x, np.nan) if len(calls) == 9 else left(x)

    monkeypatch.setattr(m.branches, "left", nan_on_ninth_call)
    with pytest.raises(DomainError):
        survival_curve(m, Hole.markov(3), n_max=10, samples=1000, seed=1)
    assert len(calls) == 9


@pytest.mark.parametrize("group", [4, 16])
@pytest.mark.parametrize("name", ["lsv-0.5", "farey"])
def test_pooled_tails_equal_the_eval_map_loop(monkeypatch, name, group):
    # group + 2 chunks, the last one below the tail size from step 0: at 1, 2
    # and 3 threads the tails pool in groups of (4, 2), (3, 3) and (2, 2, 2)
    # chunks at group 4, and of (16, 2), (9, 9) and (6, 6, 6) at group 16
    monkeypatch.setattr(montecarlo, "_GROUP_CHUNKS", group)
    m = EVAL_MAP_CASES[name]
    samples = (group + 1) * CHUNK_SIZE + 1000
    expected = eval_map_counts(m, Hole.markov(3), 30, samples, seed=3)
    for threads in (1, 2, 3):
        curve = survival_curve(m, Hole.markov(3), n_max=30, samples=samples, seed=3, threads=threads)
        assert curve.survivors.tolist() == expected.tolist()


def test_a_left_branch_that_moves_points_down_still_counts_exactly(monkeypatch):
    # only right images are hole-tested while the left branch moves points up;
    # a left image in the hole must send the step back to testing all images
    m = MapSpec.lsv(0.5)
    left = m.branches.left
    monkeypatch.setattr(m.branches, "left", lambda x: 0.5 * left(x))
    expected = eval_map_counts(m, Hole.markov(3), 20, CHUNK_SIZE + 5000, seed=2)
    curve = survival_curve(m, Hole.markov(3), n_max=20, samples=CHUNK_SIZE + 5000, seed=2)
    assert curve.survivors.tolist() == expected.tolist()


def test_survival_memory_stays_within_one_chunk_of_a_one_chunk_curve():
    # a group parks at most 15 tails of under CHUNK_SIZE // 16 points while a
    # chunk steps, and drops each waiting list once pooled, so 32 chunks (two
    # groups) peak less than one chunk of float64 above a single chunk: 0.89 of
    # it with numpy 2.4, against 1.15 with the lists kept and 1.02 with each
    # tail parked as a view of its chunk's buffer
    def traced_peak(samples):
        tracemalloc.start()
        try:
            survival_curve(LSV_HALF, Hole.markov(3), n_max=60, samples=samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    survival_curve(LSV_HALF, Hole.markov(3), n_max=60, samples=1000, seed=1)  # one-time allocations
    assert traced_peak(32 * CHUNK_SIZE) - traced_peak(CHUNK_SIZE) < 8 * CHUNK_SIZE
