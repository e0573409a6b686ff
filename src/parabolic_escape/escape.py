"""Escape rates by every route, hole sweeps, scaling fits, sandwich bounds.

Three methods produce escape rates of the original map:

``induced``
    Build the open induced system for a Markov hole and find the smallest t at
    which its operator family N_t = sum_n e^(n t) L_n reaches eigenvalue one;
    that t is the escape rate.  :mod:`.collocation` collocates N_t on
    Chebyshev-Lobatto nodes and forms its z = 1 leading data and its
    unit-eigenvalue equation; piecewise-linear maps supply the same two from
    their closed form.  :func:`_solve_rates` forms both rates from them, and
    the degree loop of :func:`induced_analysis` chooses the node count: the
    degree doubles from 16 until the rates at degrees d and d/2 agree to 1e-10
    relative.  The classical pressure-ratio value (induced rate divided by the
    mean return time) is reported alongside as a diagnostic: it is an upper
    bound that becomes exact only as the hole shrinks, with a relative excess
    of roughly half the return time variance times the rate itself.  It is also
    the first Newton iterate on the convex function log lambda(e^t), whose
    derivative is the mean return time of the cylinder masses at t; the
    iterates fall onto the root from above, so a rate costs a handful of dense
    eigen solves.  Induced reports carry the node count, the gap to the
    half-degree rate, the solver counts, and how many branches the walk took by
    root solves (``walked_branches``) and how many from the Fatou coordinate
    (``fatou_branches``) in their JSON diagnostics.

``ulam``
    Discretize the open operator of the original map directly on a
    hole-aligned grid and take minus the log of its Perron root.  Works for
    Markov and general holes.

``montecarlo``
    Windowed regression on a simulated survival curve.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import collocation
from . import montecarlo as mc
from .exceptions import ConvergenceError, DomainError, EscapeError, InsufficientRangeError, MonotonicityError
from .induced import build_induced
from .maps import Hole, MapSpec, _walked_branches, return_time
from .operators import assemble_ulam_open, hole_grid
from .spectral import EIGEN_TOL, SpectralTriple, leading_eigen, mean_return_time

CSV_COLUMNS = (
    "family",
    "s",
    "N",
    "a_N",
    "m_H",
    "lambda",
    "gamma_rho",
    "sum_k_rho",
    "gamma_mu",
    "method",
    "grid_M",
    "eigen_residual",
    "runtime_ms",
)


# ---------------------------------------------------------------------------
# elementary rate formulas
# ---------------------------------------------------------------------------

def escape_rate_induced(triple: SpectralTriple) -> float:
    """Escape rate of the induced open system: -log of its Perron root."""
    lam = triple.eigenvalue if isinstance(triple, SpectralTriple) else float(triple)
    if not 0.0 < lam < 1.0:
        raise DomainError(f"leading eigenvalue {lam!r} outside (0, 1); closed or empty system")
    return -math.log(lam)


def escape_rate_original(triple: SpectralTriple, masses: np.ndarray) -> float:
    """Pressure-ratio escape rate: induced rate over the mean return time of
    the cylinder ``masses``.

    The value is exact in the shrinking-hole limit and an upper bound for any
    fixed hole.
    """
    masses = np.asarray(masses, float)
    if abs(masses.sum() - 1.0) > 1e-6 or np.any(masses < -1e-15):
        raise DomainError("masses must form a probability vector")
    return escape_rate_induced(triple) / mean_return_time(masses)


# ---------------------------------------------------------------------------
# induced-route analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InducedAnalysis:
    """Everything the induced route produces for one Markov hole."""

    eigenvalue: float
    masses: np.ndarray
    gamma_induced: float
    mean_return: float
    gamma_formula: float
    gamma: float  # exact rate, log of the unit-eigenvalue parameter
    eigen_residual: float
    grid_size: int
    zsolve_evals: int  # evaluations of the unit-eigenvalue equation
    eigen_iterations: int = 0  # dense solves of the collocation, z = 1 included; none for the closed form
    collocation_nodes: Optional[int] = None
    error_estimate: Optional[float] = None  # |gamma_n - gamma_(n/2)| of the collocation
    converged: bool = True  # False when the collocation degrees never agreed


_NEWTON_CAP = 50


def _bracket_and_solve(evaluate, lam1: float, t1: float, ftol: float) -> tuple:
    """Root t > 0 of f(t) = log lambda(e^t) by one-sided Newton iteration.

    ``evaluate(t)`` returns (f(t), f'(t)); ``lam1`` is lambda(1), so
    f(0) = log lam1, and ``t1`` is the Newton iterate from t = 0, the
    pressure-ratio rate.  f is convex (N_t is a sum of e^(n t) times
    positive operators, and a spectral radius of log-convex entries is
    log-convex, Kingman 1961) and increasing, so every iterate from t1 on lies
    above the root and the iterates fall to it monotonically and
    quadratically.  The iteration stops when a step falls below 1e-15 t, when
    it would not decrease t, or when |f(t)| <= ``ftol``: f is known only to the
    eigenvalue tolerance, and a smaller step would follow rounding.  The last
    step taken is the final Newton correction.  Returns the root and the
    number of evaluations.
    """
    if lam1 >= 1.0:
        raise DomainError("open system already has eigenvalue one at z = 1")
    t = t1
    for evals in range(1, _NEWTON_CAP + 1):
        f, df = evaluate(t)
        step = f / df
        if not math.isfinite(step):
            raise ConvergenceError(f"Newton step {step!r} at t = {t!r}")
        if step <= 1e-15 * t or abs(f) <= ftol:
            return t - max(step, 0.0), evals
        t -= step
    raise ConvergenceError(f"unit-eigenvalue Newton iteration did not settle in {_NEWTON_CAP} steps")


def _solve_rates(
    lam: float, masses: np.ndarray, mean_return: float, residual: float, evaluate, grid_size: int,
    collocation_nodes: Optional[int] = None,
) -> InducedAnalysis:
    """Both rates from a route's z = 1 leading data and its ``evaluate(t)``
    for :func:`_bracket_and_solve`, which stops at |f| <= ``EIGEN_TOL``."""
    gamma_induced = escape_rate_induced(lam)
    gamma_formula = gamma_induced / mean_return
    gamma, evals = _bracket_and_solve(evaluate, lam, gamma_formula, EIGEN_TOL)
    return InducedAnalysis(
        lam, masses, gamma_induced, mean_return, gamma_formula, gamma, residual, grid_size, evals,
        collocation_nodes=collocation_nodes,
    )


def induced_analysis(m: MapSpec, N: int, grid_size: int = 4096, exact_pwl: bool = True) -> InducedAnalysis:
    """Leading data plus both escape rates for the Markov hole [0, a_N].

    Every route builds the open induced system first, so N < 2 is a
    DomainError, and supplies only its leading data at z = 1 and its
    unit-eigenvalue equation; :func:`_solve_rates` forms both rates from
    them.  Piecewise-linear maps take their closed forms (rank-one operator;
    polynomial unit-eigenvalue condition) unless ``exact_pwl`` is disabled.
    Every other case runs the Chebyshev collocation of :mod:`.collocation`:
    the degree starts at 16 and doubles up to 64 until the rates at degrees
    d and d/2 agree to 1e-10 relative; their gap is reported as
    ``error_estimate``, and ``converged`` is False when degree 64 is reached
    without agreement.  Every unit-eigenvalue solve stops at the fixed
    ``spectral.EIGEN_TOL``.  ``grid_size`` is not used by either route; it
    stays in the signature for the callers that pass it to every method.
    """
    sys = build_induced(m, N)
    if m.family == "pwl" and exact_pwl:
        ks = np.arange(1, N + 1)
        p = np.asarray(m.weights.mass(ks), float)
        lam = 1.0 - float(m.weights.tail(N))
        coeffs = np.concatenate([[0.0], p])  # polynomial P(z) = sum p_k z^k
        dcoeffs = coeffs * np.arange(N + 1)  # z P'(z)

        def evaluate(t: float) -> tuple:
            z = math.exp(t)
            value = float(np.polynomial.polynomial.polyval(z, coeffs))
            return math.log(value), float(np.polynomial.polynomial.polyval(z, dcoeffs)) / value

        return _solve_rates(lam, p / lam, float(ks @ p) / lam, 0.0, evaluate, N)

    values = collocation.branch_values(sys, collocation.DEGREES[-1])
    coarse = collocation.branch_stack(values, collocation.DEGREES[0])
    evals = solves = 0
    for degree in collocation.DEGREES[1:]:
        stack = collocation.branch_stack(values, degree)
        ia = _collocation_analysis(stack)
        # the coarse rate is one Newton step from the fine one, which is
        # exact to second order in their gap
        f, df = collocation.unit_equation(coarse, ia.gamma)
        gap = abs(f / df)
        evals += ia.zsolve_evals + 1
        # the z = 1 solve, one per Newton evaluation, and the coarse step
        solves += ia.zsolve_evals + 2
        if gap <= 1e-10 * ia.gamma:
            break
        coarse = stack
    return replace(
        ia, zsolve_evals=evals, eigen_iterations=solves, error_estimate=gap, converged=gap <= 1e-10 * ia.gamma
    )


def _collocation_analysis(stack: np.ndarray) -> InducedAnalysis:
    """Both rates from one stack of collocation pieces."""
    lam, masses, residual = collocation.leading_masses(stack, 0.0)
    nodes = stack.shape[1]
    return _solve_rates(
        lam, masses, mean_return_time(masses), residual, lambda t: collocation.unit_equation(stack, t), nodes,
        collocation_nodes=nodes,
    )


# ---------------------------------------------------------------------------
# escape reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EscapeReport:
    family: str
    s: float
    hole_index: Optional[int]
    epsilon: Optional[float]
    hole_edge: float
    hole_measure: float
    eigenvalue: Optional[float]
    gamma_induced: Optional[float]
    mean_return: Optional[float]
    gamma: float
    method: str
    grid_size: Optional[int]
    eigen_residual: Optional[float]
    runtime_ms: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.hole_measure < 1.0:
            raise DomainError(f"hole measure {self.hole_measure!r} outside (0, 1)")
        if self.gamma < 0.0:
            raise DomainError("escape rates are nonnegative")
        if self.gamma_induced is not None and self.gamma > self.gamma_induced + 1e-12:
            raise DomainError("original rate cannot exceed the induced rate")

    def to_row(self) -> dict:
        """Row for the fixed CSV schema."""
        out = self.to_dict()
        return {c: _fmt(out[c]) for c in CSV_COLUMNS}

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "s": self.s,
            "N": self.hole_index,
            "epsilon": self.epsilon,
            "a_N": self.hole_edge if self.hole_index is not None else None,
            "m_H": self.hole_measure,
            "lambda": self.eigenvalue,
            "gamma_rho": self.gamma_induced,
            "sum_k_rho": self.mean_return,
            "gamma_mu": self.gamma,
            "method": self.method,
            "grid_M": self.grid_size,
            "eigen_residual": self.eigen_residual,
            "runtime_ms": self.runtime_ms,
            "diagnostics": dict(self.diagnostics),
        }


def _fmt(value) -> str:
    """CSV cell: empty for None, strings and ints as they are, floats at 17 digits."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".17g")


def compute_escape(
    m: MapSpec,
    hole: Hole,
    method: str = "induced",
    grid_size: int = 4096,
    samples: int = 1_000_000,
    n_max: int = 60,
    window: Optional[tuple] = None,
    seed: int = 0,
    threads: int = 1,
) -> EscapeReport:
    """One escape-rate computation, returned as a schema-stable report."""
    t0 = time.perf_counter()
    edge = hole.edge(m)
    if method == "induced":
        if hole.index is None:
            raise DomainError("the induced route needs a Markov hole index; use ulam or montecarlo for epsilon holes")
        ia = induced_analysis(m, hole.index)
        walked = _walked_branches(m, hole.index)
        lam, gamma_rho, mean_ret, gamma, cells, residual = (
            ia.eigenvalue, ia.gamma_induced, ia.mean_return, ia.gamma, ia.grid_size, ia.eigen_residual
        )
        diagnostics = {
            "gamma_pressure_ratio": ia.gamma_formula,
            "zsolve_evals": ia.zsolve_evals,
            "eigen_iterations": ia.eigen_iterations,
            "collocation_nodes": ia.collocation_nodes,
            "error_estimate": ia.error_estimate,
            "walked_branches": walked,
            "fatou_branches": hole.index - walked,
        }
        if not ia.converged:
            diagnostics["converged"] = False
    elif method == "ulam":
        grid = hole_grid(m, edge, grid_size)
        triple = leading_eigen(assemble_ulam_open(m, edge, grid))
        lam, gamma_rho, mean_ret, gamma, cells, residual = (
            triple.eigenvalue, None, None, escape_rate_induced(triple), grid.n_cells, triple.residual
        )
        diagnostics = {"eigen_iterations": triple.stats.get("iterations")}
    elif method == "montecarlo":
        curve = mc.survival_curve(m, hole, n_max=n_max, samples=samples, seed=seed, threads=threads)
        est = mc.mc_escape_rate(curve, window)
        lam, gamma_rho, mean_ret, gamma, cells, residual = None, None, None, est.gamma, None, None
        diagnostics = {"stderr": est.stderr, "window": list(est.window), "samples": samples, "seed": seed}
    else:
        raise DomainError(f"unknown method {method!r}")
    runtime = (time.perf_counter() - t0) * 1e3
    return EscapeReport(
        m.family, m.s, hole.index, hole.epsilon, edge, edge, lam, gamma_rho, mean_ret, gamma, method, cells, residual,
        runtime, diagnostics,
    )


# ---------------------------------------------------------------------------
# sweeps and scaling fits
# ---------------------------------------------------------------------------

class SweepResult(NamedTuple):
    reports: list
    failures: list  # (hole index, error message)


def sweep(m: MapSpec, indices: Sequence[int], method: str = "induced", **kwargs) -> SweepResult:
    """One report per Markov hole index; library failures (EscapeError)
    are collected, not raised, and any other exception propagates.

    For the deterministic methods the escape rate must not increase along
    shrinking holes; an increase beyond 1e-10 raises MonotonicityError.
    Monte Carlo sweeps are exempt (sampling noise).  An index that is not
    an integer is a DomainError, raised before any computation.
    """
    try:
        indices = sorted(map(operator.index, indices))
    except TypeError:
        raise DomainError("Markov hole indices must be integers") from None
    reports = []
    failures = []
    for n in indices:
        try:
            reports.append(compute_escape(m, Hole.markov(n), method=method, **kwargs))
        except EscapeError as exc:
            failures.append((n, f"{type(exc).__name__}: {exc}"))
    if method != "montecarlo":
        for a, b in zip(reports, reports[1:]):
            if b.gamma > a.gamma + 1e-10:
                raise MonotonicityError(
                    f"escape rate increased from N={a.hole_index} ({a.gamma!r}) to "
                    f"N={b.hole_index} ({b.gamma!r})"
                )
    return SweepResult(reports, failures)


@dataclass(frozen=True)
class ScalingFit:
    regime: str  # "linear" (s < 1), "log" (s = 1), "power" (s > 1)
    value: float  # plateau constant, or the fitted exponent for "power"
    variation: Optional[float]  # max/min - 1 of the plateau ratio over the top decade
    r_squared: Optional[float]
    n_points: int


def fit_scaling(reports: Sequence[EscapeReport], s: float) -> ScalingFit:
    """Check the shrinking-hole regime for intermittency exponent s.

    Needs at least 5 usable rows spanning 1.5 decades of hole measure.  For
    s < 1 the ratio gamma / m(H) must plateau; for s = 1 the ratio
    gamma * (-log m(H)) / m(H); for s > 1 the log-log slope of gamma against
    m(H) estimates the exponent.
    """
    pts = [(r.hole_measure, r.gamma) for r in reports if r.gamma > 0 and r.hole_measure > 0]
    if len(pts) < 5:
        raise InsufficientRangeError(f"need >= 5 usable sweep rows, got {len(pts)}")
    m_h = np.array([p[0] for p in pts])
    gam = np.array([p[1] for p in pts])
    # steep regimes (s > 1) compress the hole-measure axis, so the span test
    # accepts either axis reaching 1.5 decades
    span = max(math.log10(m_h.max() / m_h.min()), math.log10(gam.max() / gam.min()))
    if span < 1.5:
        raise InsufficientRangeError(f"sweep spans {span:.2f} decades; need >= 1.5")

    if s > 1.0 + 1e-9:
        slope, intercept = np.polyfit(np.log(m_h), np.log(gam), 1)
        fitted = slope * np.log(m_h) + intercept
        ss_res = float(np.sum((np.log(gam) - fitted) ** 2))
        ss_tot = float(np.sum((np.log(gam) - np.log(gam).mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return ScalingFit("power", float(slope), None, r2, len(pts))

    if abs(s - 1.0) <= 1e-9:
        ratio = gam * (-np.log(m_h)) / m_h
        regime = "log"
    else:
        ratio = gam / m_h
        regime = "linear"
    # plateau quality over the smallest-hole decade
    top = m_h <= m_h.min() * 10.0
    r_top = ratio[top]
    variation = float(r_top.max() / r_top.min() - 1.0)
    return ScalingFit(regime, float(r_top.mean()), variation, None, len(pts))


# ---------------------------------------------------------------------------
# sandwich bounds for general holes
# ---------------------------------------------------------------------------

class SandwichBounds(NamedTuple):
    index: int  # N with a_{N+1} < epsilon <= a_N
    gamma_lower: float  # rate of the inner Markov hole [0, a_{N+1}]
    gamma_upper: float  # rate of the outer Markov hole [0, a_N]


def sandwich_bounds(m: MapSpec, epsilon: float, grid_size: int = 4096) -> SandwichBounds:
    """Markov-hole bounds for a general hole [0, epsilon].

    The nesting H_{N+1} subset H_eps subset H_N squeezes the escape rate
    between the two Markov rates, both computed by the induced route, which
    reads no grid: ``grid_size`` stays for the callers that pass it.
    """
    if not 0.0 < epsilon < m.branch_cut:
        raise DomainError("epsilon must lie strictly between 0 and the branch cut")
    n_eps = return_time(m, epsilon) - 1
    if n_eps < 2:
        raise DomainError(
            f"epsilon = {epsilon!r} gives bracket index {n_eps}; need epsilon <= a_2"
        )
    upper = induced_analysis(m, n_eps).gamma
    lower = induced_analysis(m, n_eps + 1).gamma
    return SandwichBounds(n_eps, lower, upper)


# ---------------------------------------------------------------------------
# table output
# ---------------------------------------------------------------------------

def reports_csv_text(reports: Sequence[EscapeReport]) -> str:
    """Fixed-schema CSV; floats at 17 significant digits, lines ended by \\n."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for r in reports:
        writer.writerow(r.to_row())
    return buf.getvalue()
