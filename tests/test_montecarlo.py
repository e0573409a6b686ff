import math

import numpy as np
import pytest

from parabolic_escape.exceptions import DomainError, InsufficientSurvivorsError
from parabolic_escape.maps import Hole, MapSpec
from parabolic_escape.montecarlo import (
    SurvivalCurve,
    curve_csv_text,
    mc_escape_rate,
    survival_curve,
)

PWL_ONE = MapSpec.pwl(1.0)
LSV_HALF = MapSpec.lsv(0.5)


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
