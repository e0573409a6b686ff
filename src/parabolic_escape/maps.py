"""Parabolic interval maps, their branches, local inverses and return times.

Four built-in families are supported, all full-branch maps of [0, 1] with an
indifferent fixed point at the origin:

* ``pm``     x + x**(1+s) (mod 1), branch cut at the root of a + a**(1+s) = 1
* ``lsv``    x * (1 + 2**s * x**s) on [0, 1/2], 2x - 1 on (1/2, 1]
* ``farey``  x/(1-x) on [0, 1/2], (1-x)/x on (1/2, 1]
* ``pwl``    countably piecewise linear, cell k has length p_k

Conventions: the left branch domain is the closed interval [0, a], so the map
value at the branch cut is the left-branch value 1.  The level sets of the
return time are the half-open cells A_n = (a_n, a_{n-1}].
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import zeta as _zeta

from .exceptions import DomainError, ReturnTimeOverflowError
from .roots import invert_increasing, solve_monotone

FAMILIES = ("pm", "lsv", "farey", "pwl")

DEFAULT_RETURN_TIME_CAP = 1_000_000


# ---------------------------------------------------------------------------
# piecewise-linear weight sequences
# ---------------------------------------------------------------------------

class Weights:
    """Interface for the cell lengths p_k of a piecewise-linear map.

    ``mass(k)`` is p_k, ``tail(n)`` is a_n = sum_{j>n} p_j, both vectorized
    over integer arrays.  ``kmax`` is the largest usable cell index (None for
    an infinite sequence).
    """

    kmax: Optional[int] = None

    def mass(self, k):  # pragma: no cover - interface
        raise NotImplementedError

    def tail(self, n):  # pragma: no cover - interface
        raise NotImplementedError

    def cell_index(self, x, cap=DEFAULT_RETURN_TIME_CAP):
        """Smallest n >= 1 with tail(n) < x, i.e. the return time of x."""
        raise NotImplementedError


@dataclass(frozen=True)
class HarmonicWeights(Weights):
    """p_k = 1/(k(k+1)), the exactly solvable choice with a_n = 1/(n+1)."""

    def mass(self, k):
        k = np.asarray(k, float)
        return 1.0 / (k * (k + 1.0))

    def tail(self, n):
        n = np.asarray(n, float)
        return 1.0 / (n + 1.0)

    def cell_index(self, x, cap=DEFAULT_RETURN_TIME_CAP):
        x = np.asarray(x, float)
        # a_n < x <= a_{n-1}  <=>  n <= 1/x < n+1, up to boundary rounding
        n = np.floor(1.0 / x).astype(np.int64)
        n = np.maximum(n, 1)
        # fix up boundary rounding: x == a_{n-1} must give n, x <= a_n gives n+1
        n = np.where(x > self.tail(n - 1), n - 1, n)
        n = np.where(x <= self.tail(n), n + 1, n)
        if np.any(n > cap):
            raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
        return n if n.ndim else int(n)


@dataclass(frozen=True)
class ZipfWeights(Weights):
    """p_k proportional to k**(-1 - 1/s); tails via the Hurwitz zeta function.

    The normalizing constant makes the masses sum to one, so the tails behave
    like a_n ~ const * n**(-1/s), which is the piecewise-linear realization of
    intermittency exponent s.
    """

    s: float

    def __post_init__(self):
        if not self.s > 0:
            raise DomainError("zipf weights need s > 0")

    @property
    def exponent(self):
        return 1.0 + 1.0 / self.s

    def _norm(self):
        return float(_zeta(self.exponent))

    def mass(self, k):
        k = np.asarray(k, float)
        return k ** (-self.exponent) / self._norm()

    def tail(self, n):
        n = np.asarray(n, float)
        return _zeta(self.exponent, n + 1.0) / self._norm()

    def cell_index(self, x, cap=DEFAULT_RETURN_TIME_CAP):
        x = np.asarray(x, float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        # binary search for the smallest n with tail(n) < x; the predicate is
        # monotone in n, and the asymptotic tail inversion seeds the bracket
        guess = np.maximum((self.s / (self._norm() * x)) ** self.s, 1.0)
        hi = np.minimum(guess, float(cap) + 1).astype(np.int64)
        hi = np.maximum(hi, 1)
        for _ in range(80):
            unresolved = np.asarray(self.tail(hi), float) >= x
            if not unresolved.any():
                break
            if np.any(unresolved & (hi > cap)):
                raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
            hi = np.where(unresolved, np.minimum(hi * 2, cap + 1), hi)
        else:  # pragma: no cover - doubling reaches the cap in < 80 steps
            raise ReturnTimeOverflowError("cell bracket search failed")
        lo = np.ones_like(hi)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            below = np.asarray(self.tail(mid), float) < x
            hi = np.where(below & (lo < hi), mid, hi)
            lo = np.where(~below & (lo < hi), mid + 1, lo)
        if np.any(lo > cap):
            raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
        return int(lo[0]) if scalar else lo


@dataclass(frozen=True)
class ExplicitWeights(Weights):
    """Finite explicit weight list; tails are exact suffix sums."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        arr = np.asarray(vals, float)
        tails = np.concatenate([[arr.sum()], arr.sum() - np.cumsum(arr)])
        object.__setattr__(self, "_tails", tails)

    @property
    def kmax(self):
        return len(self.values)

    def mass(self, k):
        k = np.asarray(k, np.int64)
        if np.any(k < 1) or np.any(k > len(self.values)):
            raise DomainError("cell index outside the explicit weight list")
        out = np.asarray(self.values, float)[k - 1]
        return out if out.ndim else float(out)

    def tail(self, n):
        n = np.asarray(n, np.int64)
        if np.any(n < 0) or np.any(n > len(self.values)):
            raise DomainError("tail index outside the explicit weight list")
        out = self._tails[n]
        return out if out.ndim else float(out)

    def cell_index(self, x, cap=DEFAULT_RETURN_TIME_CAP):
        x = np.asarray(x, float)
        desc = self._tails  # descending
        n = np.searchsorted(-desc, -x, side="right")
        if np.any(n < 1):
            raise DomainError("point above the top tail of the explicit weights")
        if np.any(n > len(self.values)) or np.any(x <= desc[-1]):
            raise ReturnTimeOverflowError("point below the last explicit cell")
        return n if n.ndim else int(n)


def default_pwl_weights(s: float) -> Weights:
    """Preferred weights for a given exponent: the exact harmonic choice at
    s = 1, Zipf tails otherwise."""
    if abs(s - 1.0) < 1e-12:
        return HarmonicWeights()
    return ZipfWeights(s)


# ---------------------------------------------------------------------------
# map specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapSpec:
    """Immutable description of one parabolic map.

    All evaluation helpers accept scalars or numpy arrays and are pure.  The
    cached preimage chain is a read-only array that only grows, under a lock,
    by publishing a longer copy, so a MapSpec may be shared across threads.
    """

    family: str
    s: float = 1.0
    weights: Optional[Weights] = None
    _branch_cut: float = field(init=False, repr=False, compare=False)
    _chain: np.ndarray = field(init=False, repr=False, compare=False)
    _chain_lock: threading.Lock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not self.s > 0:
            raise DomainError("intermittency exponent s must be positive")
        if self.family == "pwl":
            w = self.weights if self.weights is not None else default_pwl_weights(self.s)
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise DomainError("weights are only meaningful for the pwl family")
        object.__setattr__(self, "_branch_cut", self._compute_branch_cut())
        chain = np.array([1.0, self._branch_cut])
        chain.setflags(write=False)
        object.__setattr__(self, "_chain", chain)
        object.__setattr__(self, "_chain_lock", threading.Lock())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def pomeau_manneville(s: float) -> "MapSpec":
        return MapSpec("pm", s)

    @staticmethod
    def lsv(s: float) -> "MapSpec":
        return MapSpec("lsv", s)

    @staticmethod
    def farey() -> "MapSpec":
        return MapSpec("farey", 1.0)

    @staticmethod
    def pwl(s: float = 1.0, weights: Optional[Weights] = None) -> "MapSpec":
        return MapSpec("pwl", s, weights if weights is not None else default_pwl_weights(s))

    # -- basic geometry ------------------------------------------------------

    def _compute_branch_cut(self) -> float:
        if self.family in ("lsv", "farey"):
            return 0.5
        if self.family == "pwl":
            return float(self.weights.tail(1))
        # pm: the point where x + x**(1+s) crosses 1
        s = self.s
        return float(
            solve_monotone(
                lambda a: a + a ** (1.0 + s) - 1.0,
                lambda a: 1.0 + (1.0 + s) * a ** s,
                0.0,
                1.0,
            )
        )

    @property
    def branch_cut(self) -> float:
        """Right endpoint a of the left branch domain [0, a]."""
        return self._branch_cut

    def __hash__(self):
        return hash((self.family, self.s, self.weights))


# ---------------------------------------------------------------------------
# branch primitives (vectorized; no domain checks, callers validate)
# ---------------------------------------------------------------------------

def _left_branch(m: MapSpec, x):
    if m.family == "pm":
        return x + x ** (1.0 + m.s)
    if m.family == "lsv":
        return x + (2.0 ** m.s) * x ** (1.0 + m.s)
    if m.family == "farey":
        return x / (1.0 - x)
    # pwl: locate the cell and map it affinely one level up
    w = m.weights
    x_in = np.asarray(x, float)
    x1 = np.atleast_1d(x_in)
    out = np.zeros_like(x1)
    pos = x1 > 0.0
    if np.any(pos):
        k = np.atleast_1d(w.cell_index(x1[pos]))
        ak = np.asarray(w.tail(k), float)
        slope = np.asarray(w.mass(np.maximum(k - 1, 1)), float) / np.asarray(w.mass(k), float)
        out[pos] = np.asarray(w.tail(k - 1), float) + (x1[pos] - ak) * slope
    return out.reshape(x_in.shape)


def _right_branch(m: MapSpec, x):
    if m.family == "pm":
        return x + x ** (1.0 + m.s) - 1.0
    if m.family == "lsv":
        return 2.0 * x - 1.0
    if m.family == "farey":
        return (1.0 - x) / x
    w = m.weights
    a1 = w.tail(1)
    return (x - a1) / w.mass(1)


def _left_derivative(m: MapSpec, x):
    if m.family == "pm":
        return 1.0 + (1.0 + m.s) * x ** m.s
    if m.family == "lsv":
        return 1.0 + (2.0 ** m.s) * (1.0 + m.s) * x ** m.s
    if m.family == "farey":
        return 1.0 / (1.0 - x) ** 2
    w = m.weights
    x_in = np.asarray(x, float)
    x1 = np.atleast_1d(x_in)
    out = np.ones_like(x1)
    pos = x1 > 0.0
    if np.any(pos):
        k = np.atleast_1d(w.cell_index(x1[pos]))
        out[pos] = np.asarray(w.mass(np.maximum(k - 1, 1)), float) / np.asarray(w.mass(k), float)
    return out.reshape(x_in.shape)


def _right_derivative_abs(m: MapSpec, x):
    if m.family == "pm":
        return 1.0 + (1.0 + m.s) * np.asarray(x, float) ** m.s
    if m.family == "lsv":
        return np.full_like(np.asarray(x, float), 2.0)
    if m.family == "farey":
        return 1.0 / np.asarray(x, float) ** 2
    w = m.weights
    return np.full_like(np.asarray(x, float), 1.0 / w.mass(1))


def left_inverse(m: MapSpec, y):
    """phi_0(y): the left-branch local inverse, mapping [0, 1] into [0, a]."""
    y_a = np.asarray(y, float)
    _check_unit_interval(y_a)
    if m.family == "farey":
        out = y_a / (1.0 + y_a)
    elif m.family == "pwl":
        w = m.weights
        y1 = np.atleast_1d(y_a)
        out = np.zeros_like(y1)
        pos = y1 > 0.0
        if np.any(pos):
            k = np.atleast_1d(w.cell_index(y1[pos]))
            ak = np.asarray(w.tail(k), float)
            slope = np.asarray(w.mass(k + 1), float) / np.asarray(w.mass(k), float)
            out[pos] = np.asarray(w.tail(k + 1), float) + (y1[pos] - ak) * slope
        out = out.reshape(y_a.shape)
    else:
        c = 2.0 ** m.s if m.family == "lsv" else 1.0
        s = m.s
        hi = np.minimum(y_a, m.branch_cut)
        out = invert_increasing(
            lambda x: x + c * x ** (1.0 + s),
            lambda x: 1.0 + c * (1.0 + s) * x ** s,
            y_a,
            np.zeros_like(y_a),
            hi,
        )
    return out if np.asarray(y).ndim else float(out)


def right_inverse(m: MapSpec, y):
    """phi_1(y): the right-branch local inverse, mapping [0, 1] into [a, 1]."""
    y_a = np.asarray(y, float)
    _check_unit_interval(y_a)
    if m.family == "farey":
        out = 1.0 / (1.0 + y_a)
    elif m.family == "lsv":
        out = 0.5 * (y_a + 1.0)
    elif m.family == "pwl":
        w = m.weights
        out = w.tail(1) + y_a * w.mass(1)
    else:
        s = m.s
        out = invert_increasing(
            lambda x: x + x ** (1.0 + s) - 1.0,
            lambda x: 1.0 + (1.0 + s) * x ** s,
            y_a,
            np.full_like(y_a, m.branch_cut),
            np.ones_like(y_a),
        )
    return out if np.asarray(y).ndim else float(out)


def _check_unit_interval(x):
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("argument outside [0, 1]")


# ---------------------------------------------------------------------------
# public map operations
# ---------------------------------------------------------------------------

def eval_map(m: MapSpec, x):
    """F(x) for x in [0, 1]; the branch cut takes the left-branch value 1."""
    x_a = np.asarray(x, float)
    _check_unit_interval(x_a)
    left = x_a <= m.branch_cut
    lx = np.where(left, x_a, 0.0)
    rx = np.where(left, 1.0, x_a)
    out = np.where(left, _left_branch(m, lx), _right_branch(m, rx))
    out = np.clip(out, 0.0, 1.0)
    return out if np.asarray(x).ndim else float(out)


def eval_derivative(m: MapSpec, x):
    """|F'(x)|.  Raises DomainError at the branch cut for the smooth families."""
    x_a = np.asarray(x, float)
    _check_unit_interval(x_a)
    if m.family != "pwl" and np.any(x_a == m.branch_cut):
        raise DomainError("derivative undefined at the branch cut")
    left = x_a <= m.branch_cut
    lx = np.where(left, x_a, 0.0)
    rx = np.where(left, 1.0, x_a)
    out = np.where(left, _left_derivative(m, lx), _right_derivative_abs(m, rx))
    return out if np.asarray(x).ndim else float(out)


def inverse_branch(m: MapSpec, branch: int, y):
    """phi_branch(y) with |F(phi(y)) - y| <= 1e-13; branch is 0 or 1."""
    if branch == 0:
        return left_inverse(m, y)
    if branch == 1:
        return right_inverse(m, y)
    raise DomainError("branch must be 0 or 1")


@dataclass(frozen=True, eq=False)
class PreimageSeq:
    """The decreasing preimage chain a_0 = 1, a_1 = a, a_n = phi_0(a_{n-1})."""

    values: np.ndarray

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return float(self.values[i])


def _preimage_chain(m: MapSpec, n: int) -> np.ndarray:
    """The map's read-only chain a_0, a_1, ..., at least up to a_n.

    Growth happens under the map's lock and publishes a new array, so readers
    never see a partly written chain and each entry is computed once.
    """
    chain = m._chain
    if len(chain) > n:
        return chain
    with m._chain_lock:
        chain = m._chain
        if len(chain) <= n:
            values = chain.tolist()
            while len(values) <= n:
                if m.family == "pwl":
                    values.append(float(m.weights.tail(len(values))))
                else:
                    values.append(float(left_inverse(m, values[-1])))
            chain = np.array(values)
            chain.setflags(write=False)
            object.__setattr__(m, "_chain", chain)
    return chain


def preimage_sequence(m: MapSpec, N: int) -> PreimageSeq:
    """a_0..a_N.  Values are cached on the map and never recomputed."""
    if N < 1:
        raise DomainError("need N >= 1")
    return PreimageSeq(_preimage_chain(m, N)[: N + 1])


def return_time(m: MapSpec, x: float, cap: int = DEFAULT_RETURN_TIME_CAP) -> int:
    """tau(x): the unique n with a_n < x <= a_{n-1}, for x in (0, 1].

    Implemented by binary search in the preimage chain (extending it on
    demand), never by orbit iteration, so points near the indifferent fixed
    point cost O(tau) root solves at worst and raise once tau exceeds ``cap``.
    """
    if not 0.0 < x <= 1.0:
        raise DomainError("return time defined for x in (0, 1]")
    if m.family == "pwl":
        return int(m.weights.cell_index(x, cap=cap))
    chain = m._chain
    while chain[-1] >= x:
        target = min(2 * len(chain), cap + 2)
        if len(chain) >= target:
            raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
        chain = _preimage_chain(m, target - 1)
    n = int(np.searchsorted(-chain, -x, side="right"))
    if n > cap:
        raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
    return n


# ---------------------------------------------------------------------------
# holes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hole:
    """A hole [0, edge] around the indifferent fixed point.

    Markov holes are indexed by N (edge a_N); general holes carry an explicit
    epsilon.  Exactly one of the two is set.
    """

    index: Optional[int] = None
    epsilon: Optional[float] = None

    def __post_init__(self):
        if (self.index is None) == (self.epsilon is None):
            raise DomainError("exactly one of index and epsilon must be given")
        if self.index is not None and self.index < 1:
            raise DomainError("Markov hole index must be >= 1")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")

    @staticmethod
    def markov(N: int) -> "Hole":
        return Hole(index=N)

    @staticmethod
    def interval(epsilon: float) -> "Hole":
        return Hole(epsilon=epsilon)

    def edge(self, m: MapSpec) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return preimage_sequence(m, self.index)[self.index]


# ---------------------------------------------------------------------------
# hypothesis diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class MapDiagnostics:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks]
        return "\n".join(lines)


def validate_hypotheses(m: MapSpec) -> MapDiagnostics:
    """Numerical spot checks of the standing assumptions on the map.

    Checks full-branch endpoints, branch monotonicity on a sample, the fitted
    local exponent at the origin against the declared s (5% relative), and
    uniform expansion away from the fixed point.  Failures are reported, not
    raised.
    """
    checks = []
    a = m.branch_cut

    # fixed point and full branches
    f0 = eval_map(m, 0.0)
    fa = eval_map(m, a)
    checks.append(Check("fixed_point", abs(f0) <= 1e-12, f"F(0) = {f0:.3e}"))
    checks.append(Check("left_branch_onto", abs(fa - 1.0) <= 1e-9, f"F(a) = {fa:.12f}"))
    lo_img = float(_right_branch(m, np.asarray(a + 1e-12)))
    hi_img = float(_right_branch(m, np.asarray(1.0)))
    ends = sorted([lo_img, hi_img])
    closure_ok = abs(ends[0]) <= 1e-9 and abs(ends[1] - 1.0) <= 1e-9
    checks.append(Check("right_branch_onto", closure_ok, f"closure of image ends = {ends}"))

    # monotonicity on each branch (pwl sampling stays above a reachable cell)
    if m.family == "pwl":
        k_lo = min(500, (m.weights.kmax or 500) - 1)
        lo_l = float(m.weights.tail(k_lo)) * (1 + 1e-9)
    else:
        lo_l = a * 1e-3
    xs_l = np.linspace(lo_l, a * (1 - 1e-9), 200)
    xs_r = np.linspace(a + (1 - a) * 1e-6, 1.0, 200)
    dl = np.diff(_left_branch(m, xs_l))
    dr = np.diff(_right_branch(m, xs_r))
    mono = bool(np.all(dl > 0) and (np.all(dr > 0) or np.all(dr < 0)))
    checks.append(Check("piecewise_monotone", mono, "sampled increments have constant sign"))

    # local exponent: F'(x) - 1 ~ c x**s near 0
    try:
        if m.family == "pwl":
            k_hi = 2000 if m.weights.kmax is None else max(m.weights.kmax - 2, 2)
            ks = np.unique(np.geomspace(8, max(k_hi, 9), 24).astype(int))
            xs = np.asarray(m.weights.tail(ks), float) * 0.999
        else:
            xs = np.geomspace(1e-6, 1e-2, 24)
        excess = np.asarray(_left_derivative(m, xs), float) - 1.0
        good = excess > 0
        slope = float(np.polyfit(np.log(xs[good]), np.log(excess[good]), 1)[0])
        exp_ok = abs(slope - m.s) <= 0.05 * m.s
        checks.append(Check("local_exponent", exp_ok, f"fitted s = {slope:.4f}, declared {m.s}"))
    except Exception as exc:  # root failures or degenerate weights
        checks.append(Check("local_exponent", False, f"fit failed: {exc}"))

    # uniform expansion off the fixed point (inset avoids |F'(1)| = 1 for farey)
    delta = 1e-2
    xs = np.linspace(a + delta, 1.0 - delta, 100)
    try:
        dv = eval_derivative(m, xs)
        checks.append(Check("expansion", bool(np.all(dv > 1.0)), f"min |F'| = {float(np.min(dv)):.6f}"))
    except DomainError:
        checks.append(Check("expansion", False, "derivative undefined on sample"))

    if m.family == "pwl":
        w = m.weights
        total = float(w.tail(0))
        norm_ok = abs(total - 1.0) <= 1e-9
        checks.append(Check("weights_normalized", norm_ok, f"sum p_k = {total!r}"))
        kk = np.arange(1, min(50, (w.kmax or 50)) + 1)
        tails = np.asarray(w.tail(kk), float)
        dec = bool(np.all(np.diff(tails) < 0)) and bool(np.all(np.asarray(w.mass(kk)) > 0))
        checks.append(Check("weights_decreasing_tails", dec, "p_k > 0 and a_k strictly decreasing"))

    return MapDiagnostics(tuple(checks))
