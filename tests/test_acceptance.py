"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one summary line (visible with ``pytest -rA`` or ``-s``) and
asserts both the numerical tolerance and the runtime budget.  Criterion 6 is
split in two: the eigenvalue clauses, and the first-cylinder mass, whose
Gauss limit is checked through an extrapolation in the hole index because the
finite-hole masses approach the closed-system ones only at first order in 1/N
(gap about 0.42/N, confirmed against a collocation of the exact operator).
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from parabolic_escape.escape import (
    compute_escape,
    escape_rate_original,
    fit_scaling,
    induced_analysis,
    sweep,
)
from parabolic_escape.induced import build_induced
from parabolic_escape.maps import Hole, MapSpec, ZipfWeights, preimage_sequence, return_time
from parabolic_escape.montecarlo import mc_escape_rate, survival_curve
from parabolic_escape.operators import (
    combine_branch_matrices,
    identity_residual,
    induced_branch_matrices,
    markov_grid,
)
from parabolic_escape.spectral import cylinder_masses, invariant_mass, leading_eigen


def harmonic_number(n: int) -> float:
    return float(sum(1.0 / k for k in range(1, n + 1)))


def gauss_density_mass(lo: float, hi: float) -> float:
    value, _ = quad(lambda x: 1.0 / ((1.0 + x) * math.log(2.0)), lo, hi)
    return value


def open_gauss_first_mass(N: int, nodes: int = 32) -> float:
    """First-cylinder mass of the open Gauss operator by Chebyshev collocation.

    L_N f(x) = sum_{n<=N} (n+x)^-2 f(1/(n+x)) is discretized on Chebyshev
    points of [0, 1]: each branch becomes the matrix that interpolates node
    values and evaluates the interpolant at 1/(n+x_i).  The right eigenvector
    approximates h and the left one the eigenmeasure nu (as a functional on
    interpolants); rho_1 = nu(L_1 h) / (lambda nu(h)).  The branches are
    analytic on [0, 1], so the result converges geometrically in `nodes`
    (32 and 48 nodes agree to 1e-16) and shares no code with the grid route.
    """
    t = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
    to_coeffs = np.linalg.inv(np.polynomial.chebyshev.chebvander(t, nodes - 1))
    x = 0.5 * (t + 1.0)
    branches = []
    for n in range(1, N + 1):
        y = 1.0 / (n + x)
        interp = np.polynomial.chebyshev.chebvander(2.0 * y - 1.0, nodes - 1) @ to_coeffs
        branches.append(y[:, None] ** 2 * interp)
    op = sum(branches)
    vals, right = np.linalg.eig(op)
    lam, h = vals.real.max(), right[:, np.argmax(vals.real)].real
    vals_t, left = np.linalg.eig(op.T)
    nu = left[:, np.argmax(vals_t.real)].real
    return float(nu @ branches[0] @ h) / (lam * float(nu @ h))


def test_acceptance_1_pwl_exact_oracle():
    """Exactly solvable family through the generic grid pipeline."""
    t0 = time.perf_counter()
    m = MapSpec.pwl(1.0)
    worst_lam = worst_rho = worst_gamma = 0.0
    for N in (2, 5, 10, 100):
        sys = build_induced(m, N)
        grid = markov_grid(m, N, 64)
        pieces = induced_branch_matrices(sys, grid)
        triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
        rho = cylinder_masses(sys, triple)

        lam_exact = N / (N + 1.0)
        ks = np.arange(1, N + 1)
        rho_exact = (1.0 / (ks * (ks + 1.0))) * (N + 1.0) / N
        gamma_exact = math.log1p(1.0 / N) * (N / (N + 1.0)) / (harmonic_number(N + 1) - 1.0)
        gamma_ratio = escape_rate_original(triple, rho)

        worst_lam = max(worst_lam, abs(triple.eigenvalue - lam_exact))
        worst_rho = max(worst_rho, float(np.max(np.abs(rho - rho_exact))))
        worst_gamma = max(worst_gamma, abs(gamma_ratio - gamma_exact))
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 1 PASS: pwl oracle, |dlambda|<={worst_lam:.2e}, |drho|<={worst_rho:.2e}, "
        f"|dgamma|<={worst_gamma:.2e}, {elapsed:.2f}s"
    )
    assert worst_lam <= 1e-12
    assert worst_rho <= 1e-12
    assert worst_gamma <= 1e-10
    assert elapsed < 1.0


def test_acceptance_2_scaling_regimes():
    """Shrinking-hole asymptotics for the three intermittency regimes."""
    t0 = time.perf_counter()
    indices = sorted(set(int(round(v)) for v in np.geomspace(100, 10000, 25)))

    fit2 = fit_scaling(sweep(MapSpec.pwl(2.0, ZipfWeights(2.0)), indices).reports, 2.0)
    fit1 = fit_scaling(sweep(MapSpec.pwl(1.0, ZipfWeights(1.0)), indices).reports, 1.0)
    fit_half = fit_scaling(sweep(MapSpec.pwl(0.5, ZipfWeights(0.5)), indices).reports, 0.5)

    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 2 PASS: slope(s=2)={fit2.value:.4f}, variation(s=1)={fit1.variation:.4f}, "
        f"variation(s=1/2)={fit_half.variation:.5f}, {elapsed:.1f}s"
    )
    assert fit2.regime == "power" and abs(fit2.value - 2.0) <= 0.03 * 2.0
    assert fit1.regime == "log" and fit1.variation < 0.10
    assert fit_half.regime == "linear" and fit_half.variation < 0.10
    assert elapsed < 30.0


def test_acceptance_3_operator_identity():
    """Exact factorization of the open operators, numerically."""
    t0 = time.perf_counter()
    points = np.linspace(0.013, 0.987, 50)
    square = lambda x: np.asarray(x, float) ** 2  # noqa: E731
    worst = 0.0
    for m in (MapSpec.pwl(1.0), MapSpec.lsv(0.5), MapSpec.farey()):
        for N in (2, 4, 8):
            sys = build_induced(m, N)
            for z in (0.25, 0.9, 1.0):
                worst = max(worst, identity_residual(sys, z, square, points))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 3 PASS: max identity residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_acceptance_4_cross_method_agreement():
    """Induced route versus direct discretization at grid 4096."""
    t0 = time.perf_counter()
    m = MapSpec.lsv(0.5)
    worst = 0.0
    for N in range(2, 7):
        ia = induced_analysis(m, N, grid_size=4096)
        rep = compute_escape(m, Hole.markov(N), method="ulam", grid_size=4096)
        worst = max(worst, abs(ia.gamma - rep.gamma) / ia.gamma)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 4 PASS: worst relative gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 2e-3
    assert elapsed < 60.0


def test_acceptance_5_monte_carlo_consistency():
    """Independent orbit simulation against the induced route."""
    t0 = time.perf_counter()
    m = MapSpec.lsv(0.5)
    gamma_ind = induced_analysis(m, 3, grid_size=4096).gamma
    curve = survival_curve(m, Hole.markov(3), n_max=60, samples=10_000_000, seed=20260808)
    est = mc_escape_rate(curve, (20, 60))
    gap = abs(est.gamma - gamma_ind)
    budget = max(0.05 * gamma_ind, 3.0 * est.stderr)
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 5 PASS: |mc - induced| = {gap:.2e} <= {budget:.2e} "
        f"(stderr {est.stderr:.2e}), {elapsed:.1f}s"
    )
    assert gap <= budget
    assert elapsed < 120.0


def test_acceptance_6_gauss_limit_eigenvalues():
    """Leading eigenvalue against the tail mass of the Gauss measure."""
    t0 = time.perf_counter()
    m = MapSpec.farey()
    lams = []
    worst_rel = 0.0
    for N in (10, 25, 50, 100):
        sys = build_induced(m, N)
        grid = markov_grid(m, N, 4096)
        pieces = induced_branch_matrices(sys, grid)
        triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
        lams.append(triple.eigenvalue)
        tail = gauss_density_mass(0.0, 1.0 / (N + 1))
        worst_rel = max(worst_rel, abs((1.0 - triple.eigenvalue) - tail) / tail)
    increasing = all(b > a for a, b in zip(lams, lams[1:]))
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 6 (eigenvalues) PASS: increasing={increasing}, "
        f"worst tail-mass deviation {worst_rel:.1%}, {elapsed:.1f}s"
    )
    assert increasing
    assert worst_rel <= 0.20
    assert elapsed < 60.0


def test_acceptance_6_gauss_limit_first_cylinder_mass():
    """First cylinder mass tends to the Gauss value log2(4/3) as the hole shrinks.

    The open-system masses reach the closed-system ones only at first order
    in the hole's measure: rho_1(N) - log2(4/3) is about 0.42/N (4.2e-3 at
    N = 100, 2.1e-3 at N = 200), a property of the exact open operator, not
    of the grid.  So the 1e-3 tolerance is put on the limit, estimated by the
    first-order extrapolant 2 rho_1(200) - rho_1(100); the first-order law is
    checked through gap(100) / gap(200), and the raw rho_1(100) is pinned to
    an independent collocation of the exact operator.
    """
    t0 = time.perf_counter()
    m = MapSpec.farey()
    rho_1 = {}
    for N in (100, 200):
        sys = build_induced(m, N)
        grid = markov_grid(m, N, 4096)
        pieces = induced_branch_matrices(sys, grid)
        triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
        rho_1[N] = cylinder_masses(sys, triple)[0]
    oracle = gauss_density_mass(0.5, 1.0)
    gap = {N: rho_1[N] - oracle for N in rho_1}
    limit_gap = abs(2.0 * rho_1[200] - rho_1[100] - oracle)
    ratio = gap[100] / gap[200]
    reference_gap = abs(rho_1[100] - open_gauss_first_mass(100))
    elapsed = time.perf_counter() - t0
    law_holds = min(gap.values()) > 0 and 1.9 <= ratio <= 2.1
    ok = limit_gap <= 1e-3 and law_holds and reference_gap <= 1e-6
    print(
        f"ACCEPTANCE 6 (first cylinder mass) {'PASS' if ok else 'FAIL'}: "
        f"|2 rho_1(200) - rho_1(100) - log2(4/3)| = {limit_gap:.2e} vs 1e-3; "
        f"raw gap at N=100 {gap[100]:.3e} (N*gap {100 * gap[100]:.3f}), "
        f"gap ratio 100/200 {ratio:.3f}, collocation difference {reference_gap:.1e}, "
        f"{elapsed:.1f}s"
    )
    assert elapsed < 60.0
    assert limit_gap <= 1e-3, (
        f"extrapolated first-cylinder mass is {limit_gap:.3e} from log2(4/3), "
        f"beyond 1e-3 (raw gap at N=100 {gap[100]:.3e}, N*gap {100 * gap[100]:.3f})"
    )
    assert law_holds, (
        f"gaps {gap[100]:.3e} / {gap[200]:.3e} at N = 100 / 200 break the first-order "
        f"law rho_1(N) - log2(4/3) ~ 0.42/N (ratio {ratio:.3f}, expected about 2)"
    )
    assert reference_gap <= 1e-6, (
        f"grid-route rho_1(100) is {reference_gap:.2e} from the collocation of the "
        "exact open Gauss operator"
    )


def test_acceptance_7_sandwich_bounds():
    """General holes squeezed between Markov holes, all four families."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=np.array([20260808, 7], dtype=np.uint64)))
    families = (
        MapSpec.pwl(1.0),
        MapSpec.lsv(0.5),
        MapSpec.farey(),
        MapSpec.pomeau_manneville(1.0),
    )
    violations = []
    for m in families:
        seq = preimage_sequence(m, 21)
        a2, a20 = seq[2], seq[20]
        cached = {}
        for eps in a20 + (a2 - a20) * rng.random(20):
            eps = float(eps)
            n_eps = return_time(m, eps) - 1
            for k in (n_eps, n_eps + 1):
                if k not in cached:
                    cached[k] = induced_analysis(m, k, grid_size=4096).gamma
            rep = compute_escape(m, Hole.interval(eps), method="ulam", grid_size=4096)
            tol = 1e-3 * rep.gamma
            if not (cached[n_eps + 1] - tol <= rep.gamma <= cached[n_eps] + tol):
                violations.append((m.family, eps, rep.gamma, cached[n_eps + 1], cached[n_eps]))
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 7 PASS: 80 holes, {len(violations)} violations, {elapsed:.1f}s")
    assert not violations, violations
    assert elapsed < 120.0


def test_acceptance_8_mass_identity():
    """Total invariant mass versus the mean return time."""
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        m = MapSpec.lsv(s)
        for N in range(2, 7):
            sys = build_induced(m, N)
            size = 65536
            while True:
                grid = markov_grid(m, N, size)
                pieces = induced_branch_matrices(sys, grid)
                triple = leading_eigen(combine_branch_matrices(sys, grid, pieces))
                check = invariant_mass(sys, triple)
                if check.discrepancy <= 1e-8 or size >= 262144:
                    break
                size *= 2
            worst = max(worst, check.discrepancy)
            assert check.mass_from_cylinders >= 1.0
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 8 PASS: worst mass discrepancy {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0
