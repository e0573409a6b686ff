"""Direct survival estimation by orbit simulation.

This estimator deliberately shares no machinery with the spectral routes: it
iterates the map forward, exactly, one step at a time, so it can serve as an
independent oracle for them.  Points are processed in fixed chunks of 2**16
samples, each chunk driven by its own counter-based random stream keyed by
(seed, chunk index); survivor counts are therefore identical for any thread
count, and merging is plain integer addition.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .exceptions import DomainError, InsufficientSurvivorsError
from .maps import Hole, MapSpec, eval_map

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """Survivor counts by time step under a fixed hole.

    ``survivors[i]`` counts sample points whose first i+1 positions (starting
    with the initial condition) all avoid the hole; estimates are the counts
    divided by the total sample size.
    """

    n_values: np.ndarray
    survivors: np.ndarray
    samples: int
    seed: int
    hole_measure: float

    def __post_init__(self):
        for name in ("n_values", "survivors"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def estimates(self) -> np.ndarray:
        return self.survivors / self.samples

    def stderr(self) -> np.ndarray:
        """Binomial standard error of each survival estimate."""
        p = self.estimates
        return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / self.samples)


def _chunk_counts(m: MapSpec, edge: float, n_max: int, size: int, seed: int, chunk: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    x = rng.random(size)
    counts = np.zeros(n_max, dtype=np.int64)
    alive = x > edge
    x = x[alive]
    counts[0] = x.size
    for n in range(1, n_max):
        if x.size == 0:
            break
        x = eval_map(m, x)
        x = x[x > edge]
        counts[n] = x.size
    return counts


def survival_curve(
    m: MapSpec,
    hole: Hole,
    n_max: int = 60,
    samples: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> SurvivalCurve:
    """Estimate the survival probabilities m(S_1), ..., m(S_n_max).

    Samples are uniform on [0, 1]; a point survives to time n when its first
    n positions avoid the hole [0, edge].  Deterministic given (seed, samples,
    n_max) regardless of ``threads``.
    """
    if samples < 1000:
        raise DomainError("need at least 1000 samples")
    if n_max < 10:
        raise DomainError("need n_max >= 10")
    edge = hole.edge(m)
    sizes = [CHUNK_SIZE] * (samples // CHUNK_SIZE)
    if samples % CHUNK_SIZE:
        sizes.append(samples % CHUNK_SIZE)

    def run(args) -> np.ndarray:
        chunk, size = args
        return _chunk_counts(m, edge, n_max, size, seed, chunk)

    jobs = list(enumerate(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, jobs))
    else:
        parts = [run(job) for job in jobs]
    counts = np.sum(parts, axis=0, dtype=np.int64)
    return SurvivalCurve(np.arange(1, n_max + 1), counts, samples, seed, edge)


class McEstimate(NamedTuple):
    gamma: float
    stderr: float
    window: Tuple[int, int]


def mc_escape_rate(curve: SurvivalCurve, window: Optional[Tuple[int, int]] = None) -> McEstimate:
    """Escape rate as the windowed slope of -log survival versus time.

    The window defaults to [n_max/3, n_max].  Requires at least 100 survivors
    at the right window edge.  The reported standard error combines the
    regression residual error with binomial error propagated from the curve
    (the points are correlated, so this is a scale estimate, not an exact
    confidence radius).
    """
    n_max = int(curve.n_values[-1])
    if window is None:
        window = (max(1, n_max // 3), n_max)
    lo, hi = int(window[0]), int(window[1])
    if not 1 <= lo < hi <= n_max:
        raise DomainError(f"window {window} outside 1..{n_max}")
    sel = (curve.n_values >= lo) & (curve.n_values <= hi)
    surv = curve.survivors[sel]
    if surv[-1] < 100:
        raise InsufficientSurvivorsError(
            f"only {int(surv[-1])} survivors at n={hi}; need >= 100"
        )
    ns = curve.n_values[sel].astype(float)
    ys = -np.log(surv / curve.samples)

    slope, intercept = np.polyfit(ns, ys, 1)
    resid = ys - (slope * ns + intercept)
    dof = max(len(ns) - 2, 1)
    centered = ns - ns.mean()
    denom = float(centered @ centered)
    se_ols = float(np.sqrt(resid @ resid / dof / denom))
    # binomial propagation through the per-step increments: the survivor
    # ratios are martingale differences, so var(Delta_j) ~ 1/k_{j+1} - 1/k_j
    # and the slope is their cumulative-weight combination
    c = centered / denom
    cum_w = np.cumsum(c[::-1])[::-1][1:]  # W_j = sum_{n > j} c_n
    var_inc = 1.0 / surv[1:] - 1.0 / surv[:-1]
    se_binom = float(np.sqrt(np.sum(cum_w**2 * np.maximum(var_inc, 0.0))))
    return McEstimate(float(slope), float(np.hypot(se_ols, se_binom)), (lo, hi))


def curve_csv_text(curve: SurvivalCurve) -> str:
    """The curve as CSV rows n, survivors, estimate, stderr; floats at 17
    significant digits."""
    rows = ["n,survivors,estimate,stderr\n"]
    for n, k, est, err in zip(curve.n_values, curve.survivors, curve.estimates, curve.stderr()):
        rows.append(f"{int(n)},{int(k)},{est:.17g},{err:.17g}\n")
    return "".join(rows)
