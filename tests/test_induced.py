import numpy as np
import pytest

from parabolic_escape.exceptions import DomainError
from parabolic_escape.induced import (
    branch_weight_sums,
    build_induced,
    forward_jump,
    zeta_and_log_weight,
)
from parabolic_escape.maps import MapSpec, inverse_branch

FAREY = MapSpec.farey()
LSV_HALF = MapSpec.lsv(0.5)
PM_ONE = MapSpec.pomeau_manneville(1.0)
PWL_ONE = MapSpec.pwl(1.0)

XS = np.linspace(0.0, 1.0, 41)


def test_build_requires_two_branches():
    with pytest.raises(DomainError):
        build_induced(FAREY, 1)
    assert build_induced(FAREY, 2).branch_count == 2


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
        y = inverse_branch(FAREY, 1, xs)
        for _ in range(n - 1):
            y = inverse_branch(FAREY, 0, y)
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
        assert np.max(np.abs(zeta_and_log_weight(sys, 1, xs)[0] - inverse_branch(m, 1, xs))) <= 1e-13


def test_branches_nest_into_disjoint_intervals():
    xs = np.linspace(0.0, 1.0, 100)
    for m in (FAREY, LSV_HALF, PM_ONE, PWL_ONE):
        sys = build_induced(m, 6)
        values = [zeta_and_log_weight(sys, n, xs)[0] for n in range(1, 7)]
        for n in range(1, 7):
            lo, hi = sys.branch_interval(n)
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
