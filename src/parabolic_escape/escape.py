"""Escape rates by every route, hole sweeps, scaling fits, sandwich bounds.

Three methods produce escape rates of the original map:

``induced``
    Build the open induced system for a Markov hole, take the leading
    spectral data of its discretized operator, and find the smallest
    parameter z at which the weighted operator family reaches eigenvalue
    one; the escape rate is log of that root.  The classical pressure-ratio
    value (induced rate divided by the mean return time) is reported
    alongside as a diagnostic: it is an upper bound that becomes exact only
    as the hole shrinks, with a relative excess of roughly half the return
    time variance times the rate itself.

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
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from . import montecarlo as mc
from .exceptions import DomainError, InsufficientRangeError, MonotonicityError
from .induced import InducedOpenSystem, build_induced
from .maps import Hole, MapSpec, return_time
from .operators import (
    Grid,
    assemble_ulam_open,
    combine_branch_matrices,
    hole_grid,
    induced_branch_matrices,
    markov_grid,
)
from .spectral import SpectralTriple, cylinder_masses, leading_eigen, mean_return_time

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

    system: InducedOpenSystem
    grid: Optional[Grid]
    triple: Optional[SpectralTriple]
    eigenvalue: float
    masses: np.ndarray
    gamma_induced: float
    mean_return: float
    gamma_formula: float
    gamma: float  # exact rate, log of the unit-eigenvalue parameter
    eigen_residual: float
    grid_size: int


def _bracket_and_solve(evaluate, gamma_formula: float) -> float:
    """Solve evaluate(z) = 1 for z >= 1; evaluate is increasing in z.

    The pressure-ratio rate bounds the exact rate from above, so
    z = exp(gamma_formula) brackets the root; a short expansion loop guards
    against rounding at the boundary.
    """
    z_hi = math.exp(gamma_formula)
    for _ in range(60):
        if evaluate(z_hi) >= 1.0:
            break
        z_hi *= 1.25
    else:
        raise DomainError("failed to bracket the unit-eigenvalue parameter")
    if evaluate(1.0) >= 1.0:
        raise DomainError("open system already has eigenvalue one at z = 1")
    z_bar = brentq(lambda z: evaluate(z) - 1.0, 1.0, z_hi, xtol=1e-14, rtol=8.9e-16)
    return math.log(z_bar)


def induced_analysis(
    m: MapSpec,
    N: int,
    grid_size: int = 4096,
    eigen_tol: float = 1e-13,
    exact_pwl: bool = True,
) -> InducedAnalysis:
    """Leading data plus both escape rates for the Markov hole [0, a_N].

    Piecewise-linear maps short-circuit to their closed forms (rank-one
    operator; polynomial unit-eigenvalue condition) unless ``exact_pwl`` is
    disabled, in which case the generic grid pipeline runs.
    """
    if m.family == "pwl" and exact_pwl:
        w = m.weights
        ks = np.arange(1, N + 1)
        p = np.asarray(w.mass(ks), float)
        lam = 1.0 - float(w.tail(N))
        masses = p / lam
        gamma_induced = -math.log(lam)
        mean_ret = float(ks @ p) / lam
        gamma_formula = gamma_induced / mean_ret
        coeffs = np.concatenate([[0.0], p])  # polynomial sum p_k z^k

        def evaluate(z: float) -> float:
            return float(np.polynomial.polynomial.polyval(z, coeffs))

        gamma = _bracket_and_solve(evaluate, gamma_formula)
        sys = build_induced(m, N)
        return InducedAnalysis(
            sys, None, None, lam, masses, gamma_induced, mean_ret, gamma_formula, gamma, 0.0, N
        )

    sys = build_induced(m, N)
    grid = markov_grid(m, N, grid_size)
    pieces = induced_branch_matrices(sys, grid)
    tm = combine_branch_matrices(sys, grid, pieces, z=1.0)
    triple = leading_eigen(tm, tol=eigen_tol)
    masses = cylinder_masses(sys, triple, pieces=pieces)
    gamma_induced = escape_rate_induced(triple)
    mean_ret = mean_return_time(masses)
    gamma_formula = gamma_induced / mean_ret

    def evaluate(z: float) -> float:
        tm_z = combine_branch_matrices(sys, grid, pieces, z=z)
        return leading_eigen(tm_z, tol=eigen_tol).eigenvalue

    gamma = _bracket_and_solve(evaluate, gamma_formula)
    return InducedAnalysis(
        sys,
        grid,
        triple,
        triple.eigenvalue,
        masses,
        gamma_induced,
        mean_ret,
        gamma_formula,
        gamma,
        triple.residual,
        grid.n_cells,
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
        return {
            "family": self.family,
            "s": _fmt(self.s),
            "N": "" if self.hole_index is None else str(self.hole_index),
            "a_N": "" if self.hole_index is None else _fmt(self.hole_edge),
            "m_H": _fmt(self.hole_measure),
            "lambda": _fmt(self.eigenvalue),
            "gamma_rho": _fmt(self.gamma_induced),
            "sum_k_rho": _fmt(self.mean_return),
            "gamma_mu": _fmt(self.gamma),
            "method": self.method,
            "grid_M": "" if self.grid_size is None else str(self.grid_size),
            "eigen_residual": _fmt(self.eigen_residual),
            "runtime_ms": _fmt(self.runtime_ms),
        }

    def to_dict(self) -> dict:
        out = {
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
        return out


def _fmt(value) -> str:
    if value is None:
        return ""
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
    eigen_tol: float = 1e-13,
) -> EscapeReport:
    """One escape-rate computation, returned as a schema-stable report."""
    t0 = time.perf_counter()
    edge = hole.edge(m)

    if method == "induced":
        if hole.index is None:
            raise DomainError("the induced route needs a Markov hole index; use ulam or montecarlo for epsilon holes")
        ia = induced_analysis(m, hole.index, grid_size=grid_size, eigen_tol=eigen_tol)
        runtime = (time.perf_counter() - t0) * 1e3
        return EscapeReport(
            m.family,
            m.s,
            hole.index,
            None,
            edge,
            edge,
            ia.eigenvalue,
            ia.gamma_induced,
            ia.mean_return,
            ia.gamma,
            "induced",
            ia.grid_size,
            ia.eigen_residual,
            runtime,
            {"gamma_pressure_ratio": ia.gamma_formula},
        )

    if method == "ulam":
        grid = hole_grid(m, edge, grid_size)
        tm = assemble_ulam_open(m, edge, grid)
        triple = leading_eigen(tm, tol=eigen_tol)
        gamma = escape_rate_induced(triple)
        runtime = (time.perf_counter() - t0) * 1e3
        return EscapeReport(
            m.family,
            m.s,
            hole.index,
            hole.epsilon,
            edge,
            edge,
            triple.eigenvalue,
            None,
            None,
            gamma,
            "ulam",
            grid.n_cells,
            triple.residual,
            runtime,
            {"eigen_iterations": triple.stats.get("iterations")},
        )

    if method == "montecarlo":
        curve = mc.survival_curve(m, hole, n_max=n_max, samples=samples, seed=seed, threads=threads)
        est = mc.mc_escape_rate(curve, window)
        runtime = (time.perf_counter() - t0) * 1e3
        return EscapeReport(
            m.family,
            m.s,
            hole.index,
            hole.epsilon,
            edge,
            edge,
            None,
            None,
            None,
            est.gamma,
            "montecarlo",
            None,
            None,
            runtime,
            {"stderr": est.stderr, "window": list(est.window), "samples": samples, "seed": seed},
        )

    raise DomainError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# sweeps and scaling fits
# ---------------------------------------------------------------------------

class SweepResult(NamedTuple):
    reports: list
    failures: list  # (hole index, error message)


def sweep(
    m: MapSpec,
    indices: Sequence[int],
    method: str = "induced",
    monotone_slack: float = 1e-10,
    **kwargs,
) -> SweepResult:
    """One report per Markov hole index; failures are collected, not raised.

    For the deterministic methods the escape rate must not increase along
    shrinking holes; violations beyond ``monotone_slack`` raise
    MonotonicityError.  Monte Carlo sweeps are exempt (sampling noise).
    """
    indices = sorted(int(n) for n in indices)
    reports = []
    failures = []
    for n in indices:
        try:
            reports.append(compute_escape(m, Hole.markov(n), method=method, **kwargs))
        except Exception as exc:  # noqa: BLE001 - aggregated per contract
            failures.append((n, f"{type(exc).__name__}: {exc}"))
    if method != "montecarlo":
        for a, b in zip(reports, reports[1:]):
            if b.gamma > a.gamma + monotone_slack:
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
    between the two Markov rates, both computed by the induced route.
    """
    if not 0.0 < epsilon < m.branch_cut:
        raise DomainError("epsilon must lie strictly between 0 and the branch cut")
    n_eps = return_time(m, epsilon) - 1
    if n_eps < 2:
        raise DomainError(
            f"epsilon = {epsilon!r} gives bracket index {n_eps}; need epsilon <= a_2"
        )
    upper = induced_analysis(m, n_eps, grid_size=grid_size).gamma
    lower = induced_analysis(m, n_eps + 1, grid_size=grid_size).gamma
    return SandwichBounds(n_eps, lower, upper)


# ---------------------------------------------------------------------------
# table output
# ---------------------------------------------------------------------------

def reports_csv_text(reports: Sequence[EscapeReport]) -> str:
    """Fixed-schema CSV; floats at 17 significant digits."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_COLUMNS))
    writer.writeheader()
    for r in reports:
        writer.writerow(r.to_row())
    return buf.getvalue()
