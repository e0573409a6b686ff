import math

import numpy as np
import pytest

from parabolic_escape.escape import (
    EscapeReport,
    compute_escape,
    escape_rate_induced,
    escape_rate_original,
    fit_scaling,
    induced_analysis,
    reports_csv_text,
    sandwich_bounds,
    sweep,
)
from parabolic_escape.exceptions import DomainError, InsufficientRangeError, MonotonicityError
from parabolic_escape.induced import build_induced
from parabolic_escape.maps import Hole, MapSpec, ZipfWeights, preimage_sequence
from parabolic_escape.operators import pwl_exact_matrix
from parabolic_escape.spectral import cylinder_masses, leading_eigen

FAREY = MapSpec.farey()
LSV_HALF = MapSpec.lsv(0.5)
PWL_ONE = MapSpec.pwl(1.0)


def harmonic_number(n: int) -> float:
    return float(sum(1.0 / k for k in range(1, n + 1)))


def renewal_decay_rate(weights, N: int) -> float:
    """Independent oracle: exact survival decay of a piecewise-linear system
    as the root of the renewal polynomial sum p_k z**k = 1 (Newton)."""
    ks = np.arange(1, N + 1)
    p = np.asarray(weights.mass(ks), float)
    z = 1.0
    for _ in range(200):
        val = float(np.polynomial.polynomial.polyval(z, np.concatenate([[0.0], p])))
        dval = float(np.polynomial.polynomial.polyval(z, np.concatenate([[0.0], p * ks]))) / z
        step = (val - 1.0) / dval
        z -= step
        if abs(step) < 1e-15:
            break
    return math.log(z)


# ---------------------------------------------------------------------------
# rate formulas
# ---------------------------------------------------------------------------

def test_escape_rate_induced_values():
    triple = leading_eigen(pwl_exact_matrix(PWL_ONE, 2))
    assert escape_rate_induced(triple) == pytest.approx(math.log(1.5), abs=1e-13)
    assert escape_rate_induced(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        escape_rate_induced(1.0)
    with pytest.raises(DomainError):
        escape_rate_induced(0.0)


def test_escape_rate_original_ratio():
    triple = leading_eigen(pwl_exact_matrix(PWL_ONE, 2))
    masses = cylinder_masses(build_induced(PWL_ONE, 2), triple)
    value = escape_rate_original(triple, masses)
    assert value == pytest.approx(0.3243720864865315, abs=1e-12)
    # degenerate all-mass-on-first-branch: the ratio equals the induced rate
    assert escape_rate_original(triple, np.array([1.0])) == pytest.approx(
        escape_rate_induced(triple), abs=1e-14
    )
    with pytest.raises(DomainError):
        escape_rate_original(triple, np.array([0.4, 0.4]))


def test_exact_rate_matches_renewal_oracle():
    for N in (2, 3, 5, 8):
        ia = induced_analysis(PWL_ONE, N)
        assert ia.gamma == pytest.approx(renewal_decay_rate(PWL_ONE.weights, N), abs=1e-12)
        # the pressure-ratio value always sits above the exact rate
        assert ia.gamma_formula > ia.gamma


def test_pwl_ratio_formula_closed_form():
    # log(1 + 1/N) * (N/(N+1)) / (H_{N+1} - 1) across a spread of indices
    for N in (2, 5, 10, 50, 100):
        ia = induced_analysis(PWL_ONE, N)
        expected = math.log1p(1.0 / N) * (N / (N + 1)) / (harmonic_number(N + 1) - 1.0)
        assert ia.gamma_formula == pytest.approx(expected, abs=1e-10)


def test_generic_pipeline_matches_pwl_closed_forms():
    ia_closed = induced_analysis(PWL_ONE, 5)
    ia_generic = induced_analysis(PWL_ONE, 5, grid_size=64, exact_pwl=False)
    assert ia_generic.eigenvalue == pytest.approx(ia_closed.eigenvalue, abs=1e-13)
    assert ia_generic.gamma == pytest.approx(ia_closed.gamma, abs=1e-12)
    assert ia_generic.mean_return == pytest.approx(ia_closed.mean_return, abs=1e-12)


def test_cross_method_agreement_lsv():
    for N in (2, 4):
        ia = induced_analysis(LSV_HALF, N, grid_size=2048)
        rep = compute_escape(LSV_HALF, Hole.markov(N), method="ulam", grid_size=2048)
        assert abs(ia.gamma - rep.gamma) / ia.gamma <= 2e-3
        # the pressure-ratio value is biased high by about half the return
        # time variance times the rate; both facts are stable and checked
        excess = ia.gamma_formula / rep.gamma - 1.0
        assert 1e-3 < excess < 0.05


def test_cross_method_agreement_farey_small_hole():
    ia = induced_analysis(FAREY, 100, grid_size=4096)
    rep = compute_escape(FAREY, Hole.markov(100), method="ulam", grid_size=4096)
    assert abs(ia.gamma - rep.gamma) / ia.gamma <= 1e-3


def test_ulam_rate_monotone_in_hole():
    g1 = escape_rate_ulam_from(LSV_HALF, 0.25)
    g2 = escape_rate_ulam_from(LSV_HALF, 0.20)
    assert g2 <= g1


def escape_rate_ulam_from(m, eps):
    rep = compute_escape(m, Hole.interval(eps), method="ulam", grid_size=1024)
    return rep.gamma


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_is_monotone_and_complete():
    result = sweep(PWL_ONE, [2, 3, 5, 8, 13], method="induced")
    assert not result.failures
    gammas = [r.gamma for r in result.reports]
    assert all(b <= a + 1e-10 for a, b in zip(gammas, gammas[1:]))
    assert [r.hole_index for r in result.reports] == [2, 3, 5, 8, 13]


def test_sweep_single_index():
    result = sweep(FAREY, [4], method="induced", grid_size=512)
    assert len(result.reports) == 1


def test_sweep_aggregates_failures():
    result = sweep(PWL_ONE, [1, 2, 3], method="induced")
    assert len(result.reports) == 2
    assert len(result.failures) == 1 and result.failures[0][0] == 1


def test_sweep_detects_monotonicity_violation(monkeypatch):
    template = compute_escape(PWL_ONE, Hole.markov(2), method="induced")

    def fake_compute(m, hole, method="induced", **kwargs):
        # fabricate an increasing escape rate along shrinking holes
        data = dict(template.__dict__)
        data["hole_index"] = hole.index
        data["gamma"] = 0.1 * hole.index
        return EscapeReport(**data)

    from parabolic_escape import escape as esc

    monkeypatch.setattr(esc, "compute_escape", fake_compute)
    with pytest.raises(MonotonicityError):
        esc.sweep(PWL_ONE, [2, 3, 4], method="induced")


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

def test_fit_power_regime():
    m = MapSpec.pwl(2.0, ZipfWeights(2.0))
    idx = sorted(set(int(round(v)) for v in np.geomspace(100, 10000, 20)))
    fit = fit_scaling(sweep(m, idx).reports, 2.0)
    assert fit.regime == "power"
    assert fit.value == pytest.approx(2.0, rel=0.03)
    assert fit.r_squared > 0.999


def test_fit_linear_regime():
    m = MapSpec.pwl(0.5, ZipfWeights(0.5))
    idx = sorted(set(int(round(v)) for v in np.geomspace(30, 3000, 16)))
    fit = fit_scaling(sweep(m, idx).reports, 0.5)
    assert fit.regime == "linear"
    assert fit.variation < 0.1


def test_fit_log_regime():
    m = MapSpec.pwl(1.0, ZipfWeights(1.0))
    idx = sorted(set(int(round(v)) for v in np.geomspace(100, 10000, 20)))
    fit = fit_scaling(sweep(m, idx).reports, 1.0)
    assert fit.regime == "log"
    assert fit.variation < 0.1


def test_fit_insufficient_rows():
    reports = sweep(PWL_ONE, [2, 3], method="induced").reports
    with pytest.raises(InsufficientRangeError):
        fit_scaling(reports, 1.0)


def test_fit_insufficient_span():
    reports = sweep(PWL_ONE, [10, 11, 12, 13, 14, 15], method="induced").reports
    with pytest.raises(InsufficientRangeError):
        fit_scaling(reports, 1.0)


# ---------------------------------------------------------------------------
# sandwich bounds
# ---------------------------------------------------------------------------

def test_sandwich_farey_literal_example():
    bounds = sandwich_bounds(FAREY, 0.3, grid_size=1024)
    assert bounds.index == 2  # 1/4 < 0.3 <= 1/3
    assert bounds.gamma_lower < bounds.gamma_upper


def test_sandwich_attained_at_markov_edge():
    a4 = preimage_sequence(FAREY, 4)[4]
    bounds = sandwich_bounds(FAREY, a4, grid_size=1024)
    assert bounds.index == 4
    ia = induced_analysis(FAREY, 4, grid_size=1024)
    assert bounds.gamma_upper == pytest.approx(ia.gamma, abs=1e-12)


def test_sandwich_contains_ulam_value():
    eps = 0.22
    bounds = sandwich_bounds(LSV_HALF, eps, grid_size=2048)
    rep = compute_escape(LSV_HALF, Hole.interval(eps), method="ulam", grid_size=2048)
    tol = 1e-3 * rep.gamma
    assert bounds.gamma_lower - tol <= rep.gamma <= bounds.gamma_upper + tol


def test_sandwich_rejects_large_holes():
    with pytest.raises(DomainError):
        sandwich_bounds(FAREY, 0.45)  # bracket index 1: no surviving system
    with pytest.raises(DomainError):
        sandwich_bounds(FAREY, 0.7)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_schema():
    rep = compute_escape(PWL_ONE, Hole.markov(2), method="induced")
    text = reports_csv_text([rep])
    header = text.splitlines()[0]
    assert header == "family,s,N,a_N,m_H,lambda,gamma_rho,sum_k_rho,gamma_mu,method,grid_M,eigen_residual,runtime_ms"
    row = text.splitlines()[1].split(",")
    assert row[0] == "pwl"
    assert float(row[8]) == pytest.approx(rep.gamma)
    d = rep.to_dict()
    assert d["gamma_mu"] == rep.gamma
    assert d["diagnostics"]["gamma_pressure_ratio"] == pytest.approx(0.3243720864865315, abs=1e-12)


def test_mc_method_report():
    rep = compute_escape(
        PWL_ONE, Hole.markov(2), method="montecarlo", samples=300_000, n_max=30, window=(8, 22), seed=11
    )
    assert rep.method == "montecarlo"
    assert rep.eigenvalue is None
    assert rep.diagnostics["stderr"] > 0
    # statistical agreement with the exact decay rate
    exact = induced_analysis(PWL_ONE, 2).gamma
    assert abs(rep.gamma - exact) <= max(0.05 * exact, 4 * rep.diagnostics["stderr"])
