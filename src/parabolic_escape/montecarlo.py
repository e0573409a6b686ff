"""Direct survival estimation by orbit simulation.

This estimator shares no machinery with the spectral routes: it iterates the
map forward, exactly, so it can serve as an independent oracle for them.
Points come in chunks of 2**16, each from its own counter-based random stream
keyed by (seed, chunk index); a count depends only on the multiset of (time,
point) pairs, so counts are identical for any thread count or grouping.

A step partitions the survivors in place at the branch cut, runs each branch
formula of ``maps.eval_map`` on its part with the same clip, and partitions
only the right images at the hole edge: the left branch moves points up.  A
chunk steps alone while 2**12 of its points survive; then the tails of 16
chunks step together as one array.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .exceptions import DomainError, InsufficientSurvivorsError
from .maps import Hole, MapSpec

CHUNK_SIZE = 1 << 16
_GROUP_CHUNKS = 16  # the tails of a group's chunks, each below CHUNK_SIZE // 16 points, step together


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
            arr = np.array(getattr(self, name))  # a copy: the caller's array stays writable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def estimates(self) -> np.ndarray:
        return self.survivors / self.samples

    def stderr(self) -> np.ndarray:
        """Binomial standard error of each survival estimate."""
        p = self.estimates
        return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / self.samples)


def _split(y: np.ndarray, t: float) -> int:
    """Partition y in place so that its k points <= t come first (NaN last); return k."""
    k = int(np.count_nonzero(y <= t))
    if k:
        y.partition(k - 1)  # a single kth keeps numpy's SIMD selection
    return k


def _survivors(y: np.ndarray, r: int, edge: float) -> np.ndarray:
    """The points of y outside the hole [0, edge], a view of y partitioned in place.
    Only y[:r] is hole-tested: the left branch moves the survivors behind it up.
    The min that checks this finds NaN too (points lie in [0, 1] otherwise), and
    a left image in the hole falls back to testing all of y."""
    x = y[_split(y[:r], edge):]
    lo = x.min(initial=1.0)
    if np.isnan(lo):
        raise DomainError("argument outside [0, 1] or not a number")
    return x if lo > edge else y[_split(y, edge):]


def _images(m: MapSpec, x: np.ndarray) -> Tuple[np.ndarray, int]:
    """F(x) clipped to [0, 1] as eval_map does, the r right-branch images first; (F(x), r)."""
    j = _split(x, m.branch_cut)
    y = np.concatenate([m.branches.right(x[j:]), m.branches.left(x[:j])])
    np.clip(y, 0.0, 1.0, out=y)
    return y, x.size - j


def _chunk_counts(m: MapSpec, edge: float, n_max: int, seed: int, chunks) -> np.ndarray:
    """Survivor counts of a group of (index, size) chunks.  A chunk steps alone
    while CHUNK_SIZE // _GROUP_CHUNKS of its points survive, then its tail waits,
    by time, to step with the group's other tails as one array: a count depends
    only on the multiset of (time, point) pairs."""
    counts = np.zeros(n_max, dtype=np.int64)
    waiting = {}
    for chunk, size in chunks:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
        x, n = _survivors(rng.random(size), size, edge), 0
        counts[0] += x.size
        while x.size >= CHUNK_SIZE // _GROUP_CHUNKS and n < n_max - 1:
            x, n = _survivors(*_images(m, x), edge), n + 1
            counts[n] += x.size
        if x.size and n < n_max - 1:
            waiting.setdefault(n, []).append(x.copy())  # a view would hold its step's whole array
    x = np.empty(0)
    for n in range(min(waiting, default=n_max), n_max - 1):
        x = np.concatenate([x, *waiting.pop(n, ())])  # pop: a kept list holds its tails to the end
        if x.size:
            x = _survivors(*_images(m, x), edge)
            counts[n + 1] += x.size
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
    n_max) regardless of ``threads``.  The four counts must be integers, with
    0 <= seed < 2**64 (the random key) and threads >= 1; DomainError otherwise.
    """
    try:
        samples, n_max, seed, threads = map(operator.index, (samples, n_max, seed, threads))
    except TypeError:
        raise DomainError("samples, n_max, seed and threads must be integers") from None
    if samples < 1000:
        raise DomainError("need at least 1000 samples")
    if n_max < 10:
        raise DomainError("need n_max >= 10")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must lie in [0, 2**64)")
    if threads < 1:
        raise DomainError("threads must be >= 1")
    edge = hole.edge(m)
    chunks = list(enumerate(min(CHUNK_SIZE, samples - start) for start in range(0, samples, CHUNK_SIZE)))
    g = min(_GROUP_CHUNKS, -(-len(chunks) // threads))  # smaller groups give every thread work
    groups = [chunks[i:i + g] for i in range(0, len(chunks), g)]
    run = partial(_chunk_counts, m, edge, n_max, seed)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, groups))
    else:
        parts = [run(group) for group in groups]
    counts = np.sum(parts, axis=0, dtype=np.int64)
    return SurvivalCurve(np.arange(1, n_max + 1), counts, samples, seed, edge)


class McEstimate(NamedTuple):
    gamma: float
    stderr: float
    window: Tuple[int, int]


def mc_escape_rate(curve: SurvivalCurve, window: Optional[Tuple[int, int]] = None) -> McEstimate:
    """Escape rate as the windowed slope of -log survival versus time.

    The window [lo, hi] defaults to [n_max/3, n_max]; non-integer ends raise
    DomainError.  Requires at least 100 survivors at hi.  The standard error
    combines the regression residual error with binomial error propagated from
    the curve (the points are correlated, so this is a scale estimate, not an
    exact confidence radius).
    """
    n_max = int(curve.n_values[-1])
    if window is None:
        window = (max(1, n_max // 3), n_max)
    try:
        lo, hi = map(operator.index, window)
    except (TypeError, ValueError):
        raise DomainError(f"window {window!r} is not a pair of integers") from None
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
