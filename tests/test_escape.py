import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from parabolic_escape import collocation
from parabolic_escape import escape as esc
from parabolic_escape.escape import (
    CSV_COLUMNS,
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
from parabolic_escape.exceptions import (
    ConvergenceError, DomainError, InsufficientRangeError, MonotonicityError, ReturnTimeOverflowError,
)
from parabolic_escape.induced import InducedOpenSystem, branch_weight_sums, build_induced
from parabolic_escape.maps import Hole, MapSpec, ZipfWeights, preimage_sequence
from parabolic_escape.operators import Grid, pwl_exact_matrix
from parabolic_escape.roots import solve_monotone
from parabolic_escape.spectral import cylinder_masses, leading_eigen

SRC = Path(__file__).resolve().parents[1] / "src"
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


def test_every_exported_name_resolves():
    import parabolic_escape

    missing = [name for name in parabolic_escape.__all__ if not hasattr(parabolic_escape, name)]
    assert missing == []


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


@pytest.mark.parametrize("m", [PWL_ONE, LSV_HALF, FAREY], ids=["pwl", "lsv", "farey"])
def test_non_integer_hole_index_is_a_domain_error(m):
    # not a numpy IndexError or TypeError from deep inside the route
    with pytest.raises(DomainError):
        compute_escape(m, Hole.markov(2.5))
    # nor a sweep that silently computes N = 2
    with pytest.raises(DomainError):
        sweep(m, [2.5, 3])


def test_sweep_propagates_programming_errors(monkeypatch):
    # only the library's own failures become failure rows; a bug surfaces
    def broken(m, hole, method="induced", **kwargs):
        raise TypeError("not a library failure")

    monkeypatch.setattr(esc, "compute_escape", broken)
    with pytest.raises(TypeError):
        esc.sweep(PWL_ONE, [2, 3], method="induced")


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


def test_sandwich_past_the_return_time_cap_raises():
    # epsilon = 1e-4 lies in the cell of index about 1.25e7 on lsv s = 2, past
    # the cap of 10^6; the chain grows to the cap by Abel-function evaluations
    # past k0, not by 10^6 root solves
    with pytest.raises(ReturnTimeOverflowError):
        sandwich_bounds(MapSpec.lsv(2.0), 1e-4)


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


@pytest.mark.parametrize("fields,message", [
    ({"hole_measure": 0.0}, r"hole measure 0\.0 outside \(0, 1\)"),
    ({"hole_measure": 1.0}, r"hole measure 1\.0 outside \(0, 1\)"),
    ({"gamma": -1e-3}, "escape rates are nonnegative"),
    ({"gamma": 0.3, "gamma_induced": 0.2}, "original rate cannot exceed the induced rate"),
], ids=["no-hole", "whole-interval", "negative-rate", "above-induced"])
def test_report_rejects_impossible_fields(fields, message):
    rep = compute_escape(PWL_ONE, Hole.markov(2), method="induced")
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(rep, **fields)


def test_unknown_method_rejected():
    with pytest.raises(DomainError, match="unknown method 'bogus'"):
        compute_escape(PWL_ONE, Hole.markov(2), method="bogus")


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


def test_induced_analysis_leaves_no_reference_cycle():
    # a cycle through the z-solve would pin the grid, the system and the
    # branch pieces until a full garbage collection
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        induced_analysis(LSV_HALF, 25, grid_size=512)
        gc.collect()
        pinned = [type(o).__name__ for o in gc.garbage if isinstance(o, (Grid, InducedOpenSystem))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert pinned == []


def test_diagnostics_carry_solver_counts_in_json_only(monkeypatch):
    rep = compute_escape(LSV_HALF, Hole.markov(4), method="induced", grid_size=512)
    assert rep.diagnostics["zsolve_evals"] >= 1
    # the z = 1 solve plus one per Newton evaluation, each at least one iteration
    assert rep.diagnostics["eigen_iterations"] >= rep.diagnostics["zsolve_evals"] + 1
    # collocation: the node count, the gap to half the degree, no flag when converged
    assert rep.diagnostics["collocation_nodes"] == rep.grid_size == 33
    assert 0.0 <= rep.diagnostics["error_estimate"] <= 1e-10 * rep.gamma
    assert "converged" not in rep.diagnostics
    d = rep.to_dict()
    assert d["diagnostics"]["zsolve_evals"] == rep.diagnostics["zsolve_evals"]
    assert d["diagnostics"]["eigen_iterations"] == rep.diagnostics["eigen_iterations"]
    assert d["diagnostics"]["collocation_nodes"] == 33
    assert d["diagnostics"]["error_estimate"] == rep.diagnostics["error_estimate"]
    # N = 4 lies above k0: every branch walked, none from the Fatou coordinate
    assert (d["diagnostics"]["walked_branches"], d["diagnostics"]["fatou_branches"]) == (4, 0)
    deep = compute_escape(LSV_HALF, Hole.markov(100), method="induced").to_dict()["diagnostics"]
    assert (deep["walked_branches"], deep["fatou_branches"]) == (13, 87)
    # degrees too low to agree end at the last one with a flag, not a silent value
    monkeypatch.setattr(collocation, "DEGREES", (2, 4))
    coarse = compute_escape(LSV_HALF, Hole.markov(4), method="induced")
    assert coarse.diagnostics["converged"] is False
    assert coarse.diagnostics["collocation_nodes"] == coarse.grid_size == 5
    assert coarse.diagnostics["error_estimate"] > 1e-10 * coarse.gamma
    assert coarse.to_dict()["diagnostics"]["converged"] is False
    assert tuple(coarse.to_row()) == CSV_COLUMNS
    fixed = ("family", "s", "N", "a_N", "m_H", "lambda", "gamma_rho", "sum_k_rho", "gamma_mu",
             "method", "grid_M", "eigen_residual", "runtime_ms")
    assert CSV_COLUMNS == fixed
    assert tuple(rep.to_row()) == fixed
    header = reports_csv_text([rep]).splitlines()[0]
    assert header == "family,s,N,a_N,m_H,lambda,gamma_rho,sum_k_rho,gamma_mu,method,grid_M,eigen_residual,runtime_ms"


def run_fresh(code: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    # the subprocess does not inherit pytest's pythonpath, so hand it the checkout's src
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
                         timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


FOOTPRINT = """
import json, sys
import parabolic_escape, parabolic_escape.cli
from parabolic_escape import Hole, MapSpec, compute_escape, survival_curve

def loaded():
    return sorted(n for n in sys.modules if n.split(".")[0] in ("scipy", "concurrent"))

seen = {"import": loaded()}
for m in (MapSpec("pm", 1.0), MapSpec.lsv(0.5), MapSpec.farey(), MapSpec.pwl(1.0)):
    compute_escape(m, Hole.markov(25), method="induced")
survival_curve(MapSpec.lsv(0.5), Hole.markov(3), n_max=10, samples=1000, threads=1)
seen["numpy routes"] = loaded()
compute_escape(MapSpec.lsv(0.5), Hole.markov(10), method="ulam", grid_size=256)
seen["ulam"] = loaded()
MapSpec.pwl(2.0)
seen["zipf"] = loaded()
print(json.dumps(seen))
"""


def test_scipy_loads_only_on_the_routes_that_call_it():
    # the induced rates (pm, lsv, farey, the pwl closed form) and Monte Carlo
    # on one thread run on numpy alone; scipy.optimize is never loaded
    seen = run_fresh(FOOTPRINT)
    assert seen["import"] == seen["numpy routes"] == []
    assert {"scipy.sparse", "scipy.sparse.csgraph"} <= set(seen["ulam"])
    assert "scipy.special" not in seen["ulam"]
    assert "scipy.special" in seen["zipf"]
    assert "scipy.optimize" not in seen["zipf"]


FIRST_USE_FROM_THREADS = """
import json, sys, threading
from parabolic_escape import Hole, MapSpec, compute_escape

def run():
    rep = compute_escape(MapSpec.lsv(0.5), Hole.markov(10), method="ulam", grid_size=512).to_dict()
    del rep["runtime_ms"]
    return json.dumps(rep)

fresh = "scipy.sparse" not in sys.modules
start, out = threading.Barrier(2), [None, None]

def worker(i):
    start.wait(60)
    out[i] = run()

# a short switch interval interleaves the two imports more finely
sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(120)
done = not any(t.is_alive() for t in threads)
sys.setswitchinterval(0.005)
print(json.dumps({"fresh": fresh, "done": done, "threaded": out, "serial": run()}))
"""


def test_first_scipy_import_from_two_threads():
    # both threads reach the first import of scipy.sparse at once; each report
    # must equal a serial run's, bit for bit (json keeps every float's repr)
    seen = run_fresh(FIRST_USE_FROM_THREADS)
    assert seen["fresh"] and seen["done"]
    assert seen["threaded"] == [seen["serial"]] * 2


# ---------------------------------------------------------------------------
# the unit-eigenvalue solve
# ---------------------------------------------------------------------------

# gamma of the collocation route at lsv s = 0.5 (33 nodes at every N here),
# where TRUE_GAMMA below has no 40-digit value; N = 200 is 3.0e-11 relative from the same route with every inversion
# rounded from 40 digits (2.1944884896818935e-05)
LSV_HALF_COLLOCATION_GAMMA = {
    50: 0.00039264446372470354,
    200: 2.1944884897471635e-05,
}


@pytest.mark.parametrize("N", sorted(LSV_HALF_COLLOCATION_GAMMA))
def test_collocation_gamma_pinned(N):
    rep = compute_escape(LSV_HALF, Hole.markov(N), method="induced", grid_size=4096)
    assert abs(rep.gamma - LSV_HALF_COLLOCATION_GAMMA[N]) <= 1e-10 * LSV_HALF_COLLOCATION_GAMMA[N]


# the escape rate of lsv at 40 digits, the whole collocation run in mpmath:
# phi_1 and n - 1 steps of phi_0 composed by Newton on the Chebyshev-Lobatto
# nodes of [0, 1], the barycentric interpolation matrices, the leading pair
# of sum_n e^(n t) L_n from mp.eig, and Newton in t on log lambda from the
# pressure-ratio rate, to a step below 1e-34 t.  Degrees 32 and 64 agree to
# 25 digits, so each value is the rate of the exact operator, rounded to a
# float.  (Degree 16 is 3.0e-15, 1.8e-14 and 2.6e-13 relative away.)
TRUE_GAMMA = {
    # (s, N): gamma
    (0.5, 25): 0.0017255875267341038,
    (0.5, 100): 9.173388447470346e-05,
    (2.0, 25): 0.029393176863576797,
}


@pytest.mark.parametrize("s,N", sorted(TRUE_GAMMA), ids=[f"lsv-{s}-{N}" for s, N in sorted(TRUE_GAMMA)])
def test_collocation_gamma_matches_forty_digits(s, N):
    rep = compute_escape(MapSpec.lsv(s), Hole.markov(N), method="induced")
    # the float route's own error is rounding in log lambda near one:
    # 2.2e-13, 4.1e-12 and 1.3e-14 relative in the order above
    assert abs(rep.gamma - TRUE_GAMMA[s, N]) <= 1e-11 * TRUE_GAMMA[s, N]


def gauss_renewal_rate(N: int) -> float:
    """Independent oracle for farey: the root t of the first-order renewal
    equation sum_{n<=N} mu_n expm1(n t) = mu_G(tau > N), with the Gauss
    masses mu_n = log2(1 + 1/(n(n + 2))) of the return times and the tail
    mu_G(tau > N) = log2(1 + 1/(N + 1))."""
    n = np.arange(1, N + 1)
    mu = np.log2(1.0 + 1.0 / (n * (n + 2.0)))
    tail = math.log2(1.0 + 1.0 / (N + 1))
    # the root lies below 1/N, and a wider bracket overflows expm1
    return brentq(lambda t: mu @ np.expm1(n * t) - tail, 0.0, 1.0 / N, xtol=1e-300)


def test_farey_rate_approaches_the_gauss_renewal_root():
    # the rate sits above the first-order root by a relative gap that falls
    # faster than 1/N: N times it is 0.0203, 0.0124 and 0.0083
    scaled = [N * (induced_analysis(FAREY, N).gamma / gauss_renewal_rate(N) - 1.0) for N in (100, 316, 1000)]
    assert all(0.0 < g <= 0.03 for g in scaled), scaled
    assert scaled[0] > scaled[1] > scaled[2], scaled


NEWTON_CASES = [(MapSpec.lsv(0.5), 25), (FAREY, 13), (MapSpec("pm", 1.0), 3)]


@pytest.mark.parametrize("m,N", NEWTON_CASES, ids=["lsv-25", "farey-13", "pm-3"])
def test_unit_eigenvalue_solve_takes_few_eigen_solves(monkeypatch, m, N):
    sizes = []
    original = collocation.leading_pair

    def counting(A):
        sizes.append(len(A))
        return original(A)

    monkeypatch.setattr(collocation, "leading_pair", counting)
    ia = esc.induced_analysis(m, N, grid_size=4096)
    per_node_count = {n: sizes.count(n) for n in set(sizes)}
    assert all(count <= 6 for count in per_node_count.values()), per_node_count
    assert ia.eigen_iterations == len(sizes)  # a dense solve counts as one
    assert ia.zsolve_evals == len(sizes) - 1  # all but the z = 1 solve


@pytest.mark.parametrize("m,N", NEWTON_CASES + [(PWL_ONE, 50)], ids=["lsv-25", "farey-13", "pm-3", "pwl-50"])
def test_newton_iterates_fall_onto_the_root(monkeypatch, m, N):
    iterates = []
    original = esc._bracket_and_solve

    def recording(evaluate, *args):
        def ev(t):
            iterates.append(t)
            return evaluate(t)

        return original(ev, *args)

    monkeypatch.setattr(esc, "_bracket_and_solve", recording)
    ia = esc.induced_analysis(m, N, grid_size=4096)
    # the first iterate is the pressure-ratio rate, the Newton step from t = 0
    assert iterates[0] == ia.gamma_formula
    assert all(b <= a for a, b in zip(iterates, iterates[1:]))
    assert min(iterates) >= ia.gamma
    assert 0.0 < ia.gamma < ia.gamma_formula


def test_newton_solver_stops_and_fails_loudly():
    # a convex increasing f, started above its root log 1.5
    root, evals = esc._bracket_and_solve(lambda t: (math.exp(t) - 1.5, math.exp(t)), 0.5, 1.0, 1e-15)
    assert root == pytest.approx(math.log(1.5), rel=1e-14)
    assert evals <= 8
    with pytest.raises(DomainError):  # eigenvalue one already at z = 1
        esc._bracket_and_solve(lambda t: (t, 1.0), 1.0, 0.1, 1e-15)
    with pytest.raises(ConvergenceError):  # steps that never shrink hit the cap
        esc._bracket_and_solve(lambda t: (1.0, 1e-3), 0.5, 1.0, 1e-15)
    with pytest.raises(ConvergenceError, match="Newton step nan"):  # a NaN f stops at once
        esc._bracket_and_solve(lambda t: (math.nan, 1.0), 0.5, 1.0, 1e-15)


# ---------------------------------------------------------------------------
# bitwise pin of the reports
# ---------------------------------------------------------------------------

# sha256 of report_digest(): a change to any bit of a report, of its CSV row
# or of an InducedAnalysis fails here, so a change that moves numbers must say
# so and re-record.  Re-recorded when induced reports gained walked_branches
# and fatou_branches and the pm and lsv reports at N = 100 took their
# branches past k0 from the Abel function: a_N became the correctly rounded
# 40-digit value, and the eigenvalue and rates moved by at most 2.7e-15
# (one-ulp noise on the 6,500 collocation inputs moves the eigenvalue by
# 8e-16..9e-16, one standard deviation).  Re-recorded again when the
# Markov-grid reference was deleted and its InducedAnalysis left the inputs:
# the code before the deletion gives this same hash for the inputs that remain
REPORTS_DIGEST = "4947b43cb9b381eaade47c6d4d698c7642ba3cd4d7b5f663f2b32c0e401b10d1"

PINNED_MAPS = (
    MapSpec("pm", 1.0),
    LSV_HALF,
    MapSpec.lsv(2.0),
    FAREY,
    PWL_ONE,
    MapSpec.pwl(0.5, ZipfWeights(0.5)),
)
ANALYSIS_FIELDS = (
    "eigenvalue", "masses", "gamma_induced", "mean_return", "gamma_formula", "gamma", "eigen_residual",
    "grid_size", "zsolve_evals", "eigen_iterations", "collocation_nodes", "error_estimate", "converged",
)


def report_digest(monkeypatch):
    """Rows and dicts (less runtime_ms) of the induced reports of PINNED_MAPS
    at N = 10 and 100, their Ulam reports at N = 10, an Ulam report of an
    epsilon hole, a Monte Carlo report and an induced report whose degrees
    never agree; then every InducedAnalysis field of the generic pipeline on
    a pwl map."""
    reports = [compute_escape(m, Hole.markov(N), method=method, grid_size=256)
               for m in PINNED_MAPS for N, method in ((10, "induced"), (100, "induced"), (10, "ulam"))]
    reports.append(compute_escape(LSV_HALF, Hole.interval(0.22), method="ulam", grid_size=512))
    reports.append(compute_escape(PWL_ONE, Hole.markov(2), method="montecarlo", samples=20_000, n_max=20,
                                  window=(4, 12), seed=3))
    with monkeypatch.context() as patch:
        patch.setattr(collocation, "DEGREES", (2, 4))
        reports.append(compute_escape(LSV_HALF, Hole.markov(4), method="induced"))
    h = hashlib.sha256()
    for rep in reports:
        for out in (rep.to_row(), rep.to_dict()):
            del out["runtime_ms"]
            h.update(json.dumps(out).encode())
    ia = induced_analysis(PWL_ONE, 10, exact_pwl=False)
    for name in ANALYSIS_FIELDS:
        h.update(np.asarray(getattr(ia, name), float).tobytes() if name == "masses" else
                 repr(getattr(ia, name)).encode())
    return h.hexdigest()


def test_reports_bitwise_pinned(monkeypatch):
    assert report_digest(monkeypatch) == REPORTS_DIGEST


# each tolerance and iteration cap is one module constant; a caller's own
# value would move a rate without any report recording it
REMOVED_KEYWORDS = {
    "compute_escape-eigen_tol": lambda: compute_escape(PWL_ONE, Hole.markov(2), eigen_tol=1e-4),
    "induced_analysis-eigen_tol": lambda: induced_analysis(PWL_ONE, 2, eigen_tol=1e-4),
    "leading_eigen-tol": lambda: leading_eigen(pwl_exact_matrix(PWL_ONE, 2), tol=1e-4),
    "leading_eigen-maxiter": lambda: leading_eigen(pwl_exact_matrix(PWL_ONE, 2), maxiter=10),
    "solve_monotone-ftol": lambda: solve_monotone(lambda t: t, np.ones_like, 0.0, 1.0, y=0.5, ftol=1e-4),
    "solve_monotone-maxiter": lambda: solve_monotone(lambda t: t, np.ones_like, 0.0, 1.0, y=0.5, maxiter=10),
    "sweep-monotone_slack": lambda: sweep(PWL_ONE, [2, 3], monotone_slack=1.0),
    "branch_weight_sums-samples": lambda: branch_weight_sums(build_induced(PWL_ONE, 2), samples=9),
}


@pytest.mark.parametrize("call", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS)
def test_removed_tolerance_keywords_raise_type_error(call):
    with pytest.raises(TypeError):
        call()
