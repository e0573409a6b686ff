"""Parabolic interval maps, their branches, local inverses and return times.

Four built-in families are supported, all full-branch maps of [0, 1] with an
indifferent fixed point at the origin, each by one private class:

* ``pm``     _PomeauManneville: x + x**(1+s) (mod 1), cut at the root of a + a**(1+s) = 1
* ``lsv``    _Lsv: x * (1 + 2**s * x**s) on [0, 1/2], 2x - 1 on (1/2, 1]
* ``farey``  _Farey: x/(1-x) on [0, 1/2], (1-x)/x on (1/2, 1], for s = 1 only
* ``pwl``    _Pwl: the cell A_k, of length p_k, onto A_{k-1} (A_1 onto (a, 1]),
             and (a, 1] onto [0, 1], all affine

``MapSpec.branches`` holds the map's instance.  It provides ``cut``, the
branches ``left``/``right``, their absolute derivatives ``dleft``/``dright``,
the local inverses ``inv_left``/``inv_right``, the chain a_0..a_N
(``chain(N)``) and a_n alone (``point(n)``), ``return_time(x, cap)``, and
``walk(x, N)``, which yields (zeta_n(x), log|zeta_n'(x)|) for n = 1..N,
stepping with its own inverses on an x the caller has checked.  pm and lsv
share ``_Smooth``: its walk takes a root solve per step down to the first
branch k0 that lies deep enough in the parabolic basin, and yields every
deeper branch from the Fatou coordinate of the fixed point (the Abel
function Psi, with Psi(phi_0(x)**-s) = Psi(x**-s) + 1), in one vector
evaluation.  The chain a_n past k0 comes from the same function.

Conventions: the left branch domain is the closed interval [0, a], so the map
value at the branch cut is the left-branch value 1.  The level sets of the
return time are the half-open cells A_n = (a_n, a_{n-1}].
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import ConvergenceError, DomainError, ReturnTimeOverflowError
from .roots import solve_monotone

DEFAULT_RETURN_TIME_CAP = 1_000_000
#: cap on the cell lookups of the pwl branches and their inverse, defined at
#: every x > 0: far past any return time, at the last integer a float holds exactly
_CELL_LIMIT = 2 ** 53
#: terms of the Abel series past its logarithm, and the share of the leading
#: term below which its last term must fall on every branch it serves
ABEL_TERMS = 24
ABEL_CUTOFF = 1e-17
#: Newton steps allowed to one inversion of the Abel function (three suffice)
_ABEL_MAXITER = 50
#: points per block of the vector Abel-function evaluation of a walk
_FATOU_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# piecewise-linear weight sequences
# ---------------------------------------------------------------------------

def _first_below(tail, x, start, cap):
    """The smallest n >= 1 with tail(n) < x, elementwise, for a tail that
    decreases in n; an int for a scalar x.

    Probes the guess ``start`` (clipped to [1, cap]), then start -+ 1, 2,
    4, ... towards the answer until it is bracketed, and bisects the
    bracket: an exact guess costs two tail evaluations.  tail(0) is never
    evaluated.  Raises ``ReturnTimeOverflowError`` if the answer passes ``cap``.
    """
    if cap < 1:
        raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
    shape, x = np.shape(x), np.ravel(np.asarray(x, float))
    n = np.clip(np.ravel(start), 1, cap).astype(np.int64)
    down = tail(n) < x
    # tail(lo) >= x > tail(hi); it gallops towards an end still untested
    # (lo = 0 or hi = cap + 1) and bisects once both are tested
    lo, hi = np.where(down, 0, n), np.where(down, n, cap + 1)
    at, step = np.flatnonzero(hi - lo > 1), 1
    while at.size:
        l, h, o = lo[at], hi[at], n[at]
        probe = np.where(l == 0, np.maximum(o - step, 1), np.where(h > cap, np.minimum(o + step, cap), (l + h) // 2))
        hit = tail(probe) < x[at]
        hi[at], lo[at] = np.where(hit, probe, h), np.where(hit, l, probe)
        at, step = at[hi[at] - lo[at] > 1], min(2 * step, cap)  # a larger step probes 1 or cap
    if np.any(hi > cap):
        raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
    return hi.reshape(shape) if shape else int(hi[0])


class Weights:
    """Interface for the cell lengths p_k of a piecewise-linear map.

    ``mass(k)`` is p_k, ``tail(n)`` is a_n = sum_{j>n} p_j, both vectorized
    over integer arrays.  ``kmax`` is the largest usable cell index (None for
    an infinite sequence, which gives ``_start(x)``, a guess at x's cell).
    """

    kmax: Optional[int] = None

    def cell_index(self, x, cap=DEFAULT_RETURN_TIME_CAP):
        """Smallest n >= 1 with tail(n) < x, i.e. the return time of x."""
        return _first_below(self.tail, x, self._start(np.asarray(x, float)), cap)


@dataclass(frozen=True)
class HarmonicWeights(Weights):
    """p_k = 1/(k(k+1)), the exactly solvable choice with a_n = 1/(n+1)."""

    def mass(self, k):
        k = np.asarray(k, float)
        return 1.0 / (k * (k + 1.0))

    def tail(self, n):
        n = np.asarray(n, float)
        return 1.0 / (n + 1.0)

    def _start(self, x):
        return np.floor(1.0 / x)  # a_n < x <= a_{n-1} <=> n <= 1/x < n+1, up to rounding


@dataclass(frozen=True)
class ZipfWeights(Weights):
    """p_k proportional to k**(-1 - 1/s); tails via the Hurwitz zeta function.

    The normalizing constant makes the masses sum to one, so the tails behave
    like a_n ~ const * n**(-1/s), which is the piecewise-linear realization of
    intermittency exponent s.
    """

    s: float

    def __post_init__(self):
        if not 0 < self.s < np.inf:
            raise DomainError("zipf weights need 0 < s < inf")

    @property
    def exponent(self):
        return 1.0 + 1.0 / self.s

    def _norm(self):
        from scipy.special import zeta
        return float(zeta(self.exponent))

    def mass(self, k):
        k = np.asarray(k, float)
        return k ** (-self.exponent) / self._norm()

    def tail(self, n):
        from scipy.special import zeta
        n = np.asarray(n, float)
        return zeta(self.exponent, n + 1.0) / self._norm()

    def _start(self, x):
        return (self.s / (self._norm() * x)) ** self.s  # a_n ~ s n**(-1/s) / norm


@dataclass(frozen=True)
class ExplicitWeights(Weights):
    """Finite explicit weight list of positive entries; tails are exact
    suffix sums.  The entries need not sum to one (``validate_hypotheses``
    flags such lists)."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        arr = np.asarray(vals, float)
        if not (arr.size and np.all(np.isfinite(arr) & (arr > 0))):
            raise DomainError(f"explicit weights must be a nonempty list of finite positive numbers, got {vals!r}")
        tails = np.concatenate([[arr.sum()], arr.sum() - np.cumsum(arr)])
        tails.setflags(write=False)
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
# map families (vectorized; no domain checks, the public functions validate)
# ---------------------------------------------------------------------------

class _Family:
    """Branches of one family on [0, cut] and (cut, 1]; see the module docstring."""

    weights = None

    def __init__(self, s: float, weights: Optional[Weights]):
        if weights is not None:
            raise DomainError("weights are only meaningful for the pwl family")
        self.s = s

    def point(self, n):
        """a_n, bit for bit as ``chain`` has it."""
        return float(self.chain(n)[n])


def _horner(coefficients, w):
    """sum_k coefficients[k-1] w**k, k = 1..len(coefficients), elementwise;
    the columns of a (K, r) table give r sums at once, stacked on a new
    first axis, each bit for bit the sum of its column alone."""
    table = np.asarray(coefficients, float)
    if np.size(w) == 1:  # the same IEEE steps in Python floats, without the ufunc overhead
        x, sums = float(np.ravel(w)[0]), []
        for column in table.reshape(len(table), -1).T.tolist():
            acc = column[-1]
            for g in column[-2::-1]:
                acc = acc * x + g
            sums.append(acc * x)
        return np.reshape(sums, table.shape[1:] + np.shape(w))
    table = table.reshape(len(table), -1, *(1,) * np.ndim(w))
    acc = np.empty(table.shape[1:2] + np.shape(w))
    acc[...] = table[-1]
    for g in table[-2::-1]:
        acc *= w
        acc += g
    acc *= w
    return acc if np.ndim(coefficients) > 1 else acc[0]


#: :meth:`_Smooth._fatou` of each smooth map met so far, by (family class, s);
#: threads that race on a key compute the same bits, so it needs no lock
_FATOU: dict = {}


class _Smooth(_Family):
    """x + c x**(1+s) on [0, cut], with the Abel function of that branch.

    In u = x**-s the left branch is u -> u (1 + c/u)**-s = u - cs + O(1/u),
    and its Abel function Psi(u) = u/(cs) + beta log u + sum_k gamma_k u**-k
    (the Fatou coordinate of the parabolic point; Milnor, Dynamics in One
    Complex Variable, section 10) turns every left inverse into the unit
    translation Psi -> Psi + 1.  beta = (1+s)/(2s) and the gamma_k follow
    order by order in 1/u; the series is asymptotic, so it serves a branch
    only where its last term is below ``ABEL_CUTOFF`` of the leading one.
    ``head`` is the read-only chain a_0..a_k0, where k0 is the first branch
    the series serves.
    """

    c = 1.0  # left branch x + c x**(1+s)

    def __init__(self, s: float, weights: Optional[Weights]):
        super().__init__(s, weights)
        self._cs = self.c * s
        if (type(self), s) not in _FATOU:
            _FATOU[type(self), s] = self._fatou()
        self.cut, self._beta, self._both, self.fatou_edge, self.head = _FATOU[type(self), s]
        self._gamma, self._kgamma = self._both.T
        self.k0 = len(self.head) - 1

    def _fatou(self) -> tuple:
        """The cut, beta, the (K, 2) table of gamma_k and k gamma_k, the edge
        of the series in x, and the head: one root solve a step from the exact
        a_1 = cut down to a_k0, where the top a_{k0-1} of branch k0 is the
        first chain point at or below the edge."""
        K, c, s, cs = ABEL_TERMS, self.c, self.s, self._cs
        # T[r][j] = binom(a_r, j) c**j for a = -s, s, 2s, ..., (K-1)s
        a = np.concatenate([[-s], s * np.arange(1.0, K)])
        j = np.arange(1.0, K + 3)
        T = np.cumprod((a[:, None] - j + 1.0) * c / j, axis=1).tolist()
        beta = (1.0 + s) / (2.0 * s)
        gamma = [0.0] * (K + 1)  # gamma[k] for k = 1..K
        # Psi(F(u)) - Psi(u) = -1 order by order in w = 1/u: the w**m terms of
        # F(u)/(cs), beta log(F(u)/u) and gamma_k F(u)**-k, with F(u)/u =
        # (1 + cw)**-s, cancel for each m >= 1; m = 1 gives beta, and each
        # m >= 2 is linear in gamma_{m-1}, whose term is (m-1) cs gamma_{m-1} w**m
        for m in range(2, K + 2):
            rest = T[0][m] / cs - s * beta * (-1.0) ** (m + 1) * c**m / m
            rest += sum(gamma[k] * T[k][m - k - 1] for k in range(1, m - 1))
            gamma[m - 1] = -rest / ((m - 1) * cs)
        g = np.array(gamma[1:])
        both = np.stack([g, np.arange(1.0, K + 1) * g], axis=1)
        both.setflags(write=False)
        # the last term falls below ABEL_CUTOFF of u/(cs) for u > u_edge
        log_u_edge = np.log(abs(gamma[K]) * cs / ABEL_CUTOFF) / (K + 1)
        edge = float(np.exp(-log_u_edge / s))
        self.cut = self._branch_cut()  # the left inverse reads it
        head = [1.0, self.cut]
        while head[-2] > edge:
            head.append(float(self.inv_left(np.asarray(head[-1]))))
        head = np.array(head)
        head.setflags(write=False)
        return self.cut, beta, both, edge, head

    def left(self, x):
        return x + self.c * x ** (1.0 + self.s)

    def dleft(self, x):
        return 1.0 + self.c * (1.0 + self.s) * x ** self.s

    def inv_left(self, y):
        return solve_monotone(self.left, self.dleft, 0.0, np.minimum(y, self.cut), y=y)

    def _dpsi(self, w, kseries):
        """Psi'(u) from w = 1/u and the sum of k gamma_k w**k."""
        return 1.0 / self._cs + (self._beta - kseries) * w

    def _psi_step(self, u0, series0, t):
        """d with Psi(u0 + d) = Psi(u0) + t, where series0 is the sum of
        gamma_k u0**-k, for u0, series0 and t broadcast together; flat.

        Psi^-1(Psi(u0) + t) = u0 + d.  Taking the difference of Psi term by
        term, d/(cs) + beta log(1 + d/u0) + the series at u0 + d less that at
        u0, keeps its rounding to that of t, not of Psi(u0).  The start is
        d = cs (t - beta log(1 + cs t / u0)) with one fixed-point pass of that
        difference, within 1e-3 relative; Newton steps follow.  Psi is
        increasing and concave, so past the first step the iterates rise onto
        the root.  On the range of the series Psi'' u / (2 Psi') stays below
        0.1, so the step after one of relative size 1e-8 would be below 1e-17
        relative: a point stops there (after two steps), and depends on no
        other point.
        """
        cs, beta = self._cs, self._beta
        u0, series0, t = (np.ravel(a) for a in np.broadcast_arrays(u0, series0, t))
        d = cs * (t - beta * np.log1p(cs * t / u0))
        d = cs * (t - beta * np.log1p(d / u0) - (_horner(self._gamma, 1.0 / (u0 + d)) - series0))
        at = np.arange(d.size)
        for _ in range(_ABEL_MAXITER):
            d_at, u0_at = d[at], u0[at]
            w = 1.0 / (u0_at + d_at)
            series, kseries = _horner(self._both, w)
            gap = d_at / cs + beta * np.log1p(d_at / u0_at) + (series - series0[at]) - t[at]
            step = gap / self._dpsi(w, kseries)
            d[at] = d_at - step
            at = at[np.abs(step) > 1e-8 * d_at]
            if at.size == 0:
                return d
        raise ConvergenceError(f"Abel function inversion did not settle in {_ABEL_MAXITER} steps")

    def _deep(self, ns) -> np.ndarray:
        """a_n for indices n > k0, each one Abel-function step from a_k0."""
        u0 = self.head[-1:] ** -self.s
        d = self._psi_step(u0, _horner(self._gamma, 1.0 / u0), np.asarray(ns, float) - self.k0)
        return (u0 + d) ** (-1.0 / self.s)

    def chain(self, N):
        if N <= self.k0:
            return self.head[: N + 1]
        return np.concatenate([self.head, self._deep(np.arange(self.k0 + 1, N + 1))])

    def point(self, n):
        return float(self.head[n]) if n <= self.k0 else float(self._deep([n])[0])

    def return_time(self, x, cap):
        # in the head by search; past it the chain's own a_n searched from the
        # gap Psi(x**-s) - Psi(a_k0**-s), which lies in [n - 1 - k0, n - k0)
        # up to rounding
        head, k0, s = self.head, self.k0, self.s
        if x > head[-1]:
            return int(np.searchsorted(-head, -x, side="right"))
        with np.errstate(over="ignore"):
            u = np.float64(x) ** -s  # inf for an x far past any cap
        u0 = head[-1] ** -s
        gap = (u - u0) / self._cs + self._beta * np.log(u / u0)
        gap += _horner(self._gamma, 1.0 / u) - _horner(self._gamma, 1.0 / u0)
        return _first_below(lambda ns: np.array([self.point(n) for n in ns.tolist()]), x, k0 + 1 + gap, cap)

    def walk(self, x, N):
        # branches 1..k0 one root solve a step, with the error linear in n
        y = self.inv_right(x)
        logw = -np.log(self.dright(np.asarray(y, float)))
        yield y, logw
        for _ in range(2, min(N, self.k0) + 1):
            y = self.inv_left(y)
            logw = logw - np.log(self.dleft(np.asarray(y, float)))
            yield y, logw
        if N > self.k0:
            yield from self._fatou_walk(np.shape(x), y, logw, N)

    def _fatou_walk(self, shape, y, logw, N):
        """Branches k0+1..N from branch k0 by the Abel function, in row blocks:

            U_n = Psi^-1(Psi(U_k0) + n - k0),   zeta_n = U_n**(-1/s),
            log|zeta_n'| = log|zeta_k0'| + (1+s) log(zeta_n/zeta_k0)
                           + log(Psi'(U_k0)/Psi'(U_n)),

        with U_n - U_k0 from :meth:`_psi_step`.  One more point from a_k0
        gives a_n in a local column, as :meth:`chain` has it, so a point on
        the chain stays on it: where zeta_k0 is a_{k0-1} (x = 1) or a_k0
        (x = 0), zeta_n is a_{n-1} or a_n itself, and the branch images meet
        a Markov grid's chain nodes exactly.
        """
        s, k0, head = self.s, self.k0, self.head
        y0 = np.ravel(np.asarray(y, float))
        lw0 = np.append(np.ravel(logw), 0.0)
        on_top, on_bottom = y0 == head[k0 - 1], y0 == head[k0]
        u0 = np.append(y0, head[k0]) ** -s
        w0 = 1.0 / u0
        series0, kseries0 = _horner(self._both, w0)
        slope = self._dpsi(w0, kseries0)
        rows = max(1, _FATOU_BLOCK // u0.size)
        above = head[k0]  # a_{n-1} for the first row of a block
        for first in range(k0 + 1, N + 1, rows):
            ns = np.arange(first, min(first + rows, N + 1))
            D = self._psi_step(u0, series0, (ns - k0)[:, None].astype(float)).reshape(len(ns), u0.size)
            U = u0 + D
            Y = U ** (-1.0 / s)
            W = 1.0 / U
            L = lw0 - (1.0 + s) / s * np.log1p(D / u0) + np.log(slope / self._dpsi(W, _horner(self._kgamma, W)))
            a = Y[:, -1]
            Y[:, :-1][:, on_top] = np.append(above, a[:-1])[:, None]
            Y[:, :-1][:, on_bottom] = a[:, None]
            above = a[-1]
            for y_n, lw_n in zip(Y[:, :-1], L[:, :-1]):
                yield (y_n.reshape(shape), lw_n.reshape(shape)) if shape else (float(y_n[0]), lw_n[0])


class _PomeauManneville(_Smooth):
    def _branch_cut(self):
        return float(solve_monotone(self.right, self.dright, 0.0, 1.0))

    def right(self, x):
        return x + x ** (1.0 + self.s) - 1.0

    def dright(self, x):
        return 1.0 + (1.0 + self.s) * np.asarray(x, float) ** self.s

    def inv_right(self, y):
        return solve_monotone(self.right, self.dright, self.cut, 1.0, y=y)


class _Lsv(_Smooth):
    def __init__(self, s: float, weights: Optional[Weights]):
        self.c = 2.0 ** s  # before the Abel series, which depends on it
        super().__init__(s, weights)

    def _branch_cut(self):
        return 0.5

    def right(self, x):
        return 2.0 * x - 1.0

    def dright(self, x):
        return np.full_like(np.asarray(x, float), 2.0)

    def inv_right(self, y):
        return 0.5 * (y + 1.0)


class _Farey(_Family):
    cut = 0.5

    def __init__(self, s: float, weights: Optional[Weights]):
        if s != 1.0:
            raise DomainError(f"the farey map has exponent s = 1, not {s!r}")
        super().__init__(s, weights)

    def left(self, x):
        return x / (1.0 - x)

    def right(self, x):
        return (1.0 - x) / x

    def dleft(self, x):
        return 1.0 / (1.0 - x) ** 2

    def dright(self, x):
        return 1.0 / np.asarray(x, float) ** 2

    def inv_left(self, y):
        return y / (1.0 + y)

    def inv_right(self, y):
        return 1.0 / (1.0 + y)

    def chain(self, N):
        values = [1.0, self.cut]
        for _ in range(N - 1):
            values.append(values[-1] / (1.0 + values[-1]))  # inv_left in Python floats, bit for bit
        return np.array(values)

    def return_time(self, x, cap):
        # a_n is 1/(n + 1) to rounding, so the chain two cells past 1/x holds tau(x)
        if not 1.0 / x <= cap + 2:
            raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
        return int(np.searchsorted(-self.chain(min(int(1.0 / x) + 2, cap + 1)), -x, side="right"))

    def walk(self, x, N):
        for n in range(1, N + 1):
            yield 1.0 / (n + x), -2.0 * np.log(n + x)


class _Pwl(_Family):
    def __init__(self, s: float, weights: Optional[Weights]):
        super().__init__(s, None)
        harmonic_off = isinstance(weights, HarmonicWeights) and not abs(s - 1.0) < 1e-12
        if harmonic_off or isinstance(weights, ZipfWeights) and weights.s != s:
            raise DomainError(f"pwl weights {weights!r} have tails of another exponent than s = {s!r}")
        self.weights = w = weights if weights is not None else default_pwl_weights(s)
        self.cut = float(w.tail(1))

    def _cellwise(self, x, fill: float, formula):
        """formula(k, x) on the points x > 0 of cell k, fill at 0."""
        x_in = np.asarray(x, float)
        x1 = np.atleast_1d(x_in)
        out = np.full_like(x1, fill)
        pos = x1 > 0.0
        if np.any(pos):
            k = self.weights.cell_index(x1[pos], cap=_CELL_LIMIT)
            out[pos] = formula(k, x1[pos])
        return out.reshape(x_in.shape)

    def _slope(self, k, top):
        return np.asarray(self.weights.mass(top), float) / np.asarray(self.weights.mass(k), float)

    def _affine(self, k, x, j, top):
        """Cell k onto cell j, with slope p_top / p_k."""
        tail = self.weights.tail
        return np.asarray(tail(j), float) + (x - np.asarray(tail(k), float)) * self._slope(k, top)

    def left(self, x):
        return self._cellwise(x, 0.0, lambda k, x: self._affine(k, x, k - 1, np.maximum(k - 1, 1)))

    def dleft(self, x):
        return self._cellwise(x, 1.0, lambda k, x: self._slope(k, np.maximum(k - 1, 1)))

    def inv_left(self, y):
        return self._cellwise(y, 0.0, lambda k, y: self._affine(k, y, k + 1, k + 1))

    def right(self, x):
        return (x - self.cut) / self.weights.mass(1)

    def dright(self, x):
        return np.full_like(np.asarray(x, float), 1.0 / self.weights.mass(1))

    def inv_right(self, y):
        return self.cut + y * self.weights.mass(1)

    def chain(self, N):
        return np.concatenate([[1.0], self.weights.tail(np.arange(1, N + 1))])

    def return_time(self, x, cap):
        return int(self.weights.cell_index(x, cap=cap))

    def walk(self, x, N):
        w = self.weights
        for n in range(1, N + 1):
            p_n = float(np.asarray(w.mass(n), float))
            yield float(w.tail(n)) + p_n * x, np.full_like(x, np.log(p_n))


_FAMILY_TYPES = {"pm": _PomeauManneville, "lsv": _Lsv, "farey": _Farey, "pwl": _Pwl}
FAMILIES = tuple(_FAMILY_TYPES)


# ---------------------------------------------------------------------------
# map specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapSpec:
    """Immutable description of one parabolic map.

    ``branches`` is its family object, which holds no reference back, is
    never changed after construction and whose arrays are read-only.  All
    evaluation helpers accept scalars or numpy arrays and are pure, so a
    MapSpec may be shared across threads; a pickle or a copy rebuilds
    ``branches`` from the fields.
    """

    family: str
    s: float = 1.0
    weights: Optional[Weights] = None
    branches: _Family = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0 < self.s < np.inf:
            raise DomainError("intermittency exponent s must be positive and finite")
        branches = _FAMILY_TYPES[self.family](self.s, self.weights)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "weights", branches.weights)

    def __reduce__(self):
        return MapSpec, (self.family, self.s, self.weights)

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
        return MapSpec("pwl", s, weights)

    # -- basic geometry ------------------------------------------------------

    @property
    def branch_cut(self) -> float:
        """Right endpoint a of the left branch domain [0, a]."""
        return self.branches.cut


def left_inverse(m: MapSpec, y):
    """phi_0(y): the left-branch local inverse, mapping [0, 1] into [0, a],
    with |F(phi_0(y)) - y| <= 1e-13."""
    y_a = np.asarray(y, float)
    _check_unit_interval(y_a)
    out = m.branches.inv_left(y_a)
    return out if np.asarray(y).ndim else float(out)


def right_inverse(m: MapSpec, y):
    """phi_1(y): the right-branch local inverse, mapping [0, 1] into [a, 1],
    with |F(phi_1(y)) - y| <= 1e-13."""
    y_a = np.asarray(y, float)
    _check_unit_interval(y_a)
    out = m.branches.inv_right(y_a)
    return out if np.asarray(y).ndim else float(out)


def _check_unit_interval(x):
    # min and max propagate NaN, and NaN fails both comparisons
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise DomainError("argument outside [0, 1] or not a number")


# ---------------------------------------------------------------------------
# public map operations
# ---------------------------------------------------------------------------

def _by_branch(m: MapSpec, x_a, left_formula, right_formula) -> np.ndarray:
    """The left formula on the points x <= a, the right one elsewhere.

    Each formula sees only points of its own branch (the right one sees the
    left points as 1.0), so no filler value reaches a slow pow path.  The
    left points are gathered and scattered by index: with a random mask that
    is several times faster than boolean indexing.
    """
    x1 = x_a.ravel()
    at = np.flatnonzero(x1 <= m.branch_cut)
    rx = x1.copy()
    rx[at] = 1.0
    out = np.asarray(right_formula(rx), float)
    out[at] = left_formula(x1[at])
    return out.reshape(x_a.shape)


def eval_map(m: MapSpec, x):
    """F(x) for x in [0, 1]; the branch cut takes the left-branch value 1."""
    x_a = np.asarray(x, float)
    _check_unit_interval(x_a)
    out = _by_branch(m, x_a, m.branches.left, m.branches.right)
    np.clip(out, 0.0, 1.0, out=out)
    return out if np.asarray(x).ndim else float(out)


def eval_derivative(m: MapSpec, x):
    """|F'(x)|.  Raises DomainError at the branch cut for the smooth families."""
    x_a = np.asarray(x, float)
    _check_unit_interval(x_a)
    if m.family != "pwl" and np.any(x_a == m.branch_cut):
        raise DomainError("derivative undefined at the branch cut")
    out = _by_branch(m, x_a, m.branches.dleft, m.branches.dright)
    return out if np.asarray(x).ndim else float(out)


@dataclass(frozen=True, eq=False)
class PreimageSeq:
    """The decreasing preimage chain a_0 = 1, a_1 = a, a_n = phi_0(a_{n-1})."""

    values: np.ndarray

    def __getitem__(self, i):
        return float(self.values[i])


def _walked_branches(m: MapSpec, N: int) -> int:
    """How many of the branches 1..N a walk takes one step at a time: k0 for
    pm and lsv (the rest come from the Abel function), else all N."""
    return min(N, m.branches.k0) if isinstance(m.branches, _Smooth) else N


def preimage_sequence(m: MapSpec, N: int) -> PreimageSeq:
    """a_0..a_N, read-only and computed on each call: for pm and lsv the
    head a_0..a_k0 of the family, then one vector Abel-function step from
    a_k0, so each a_n depends on its index alone."""
    if N < 1:
        raise DomainError("need N >= 1")
    values = m.branches.chain(N)
    values.setflags(write=False)
    return PreimageSeq(values)


def return_time(m: MapSpec, x: float, cap: int = DEFAULT_RETURN_TIME_CAP) -> int:
    """tau(x): the unique n with a_n < x <= a_{n-1} of the chain, for x in (0, 1].

    Never by orbit iteration: for pm and lsv a guess from the Abel function,
    for infinite pwl weights one from the tails' asymptotics, then a search
    of the chain's own a_n out from that guess, at a cost that does not
    depend on tau.  farey builds its chain a_n = a_{n-1}/(1 + a_{n-1}) out
    to tau + 1 and searches it, at a cost linear in tau: the iterated chain
    is the one every other farey routine reads, and the closed form
    1/(n + 1) differs from it in the last digits.  Raises
    ``ReturnTimeOverflowError`` once tau exceeds ``cap``.
    """
    if not 0.0 < x <= 1.0:
        raise DomainError("return time defined for x in (0, 1]")
    n = m.branches.return_time(x, cap)
    if n > cap:
        raise ReturnTimeOverflowError(f"return time exceeds cap {cap}")
    return n


# ---------------------------------------------------------------------------
# holes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hole:
    """A hole [0, edge] around the indifferent fixed point.

    Markov holes are indexed by an integer N >= 1 (edge a_N); general holes
    carry an explicit epsilon.  Exactly one of the two is set.
    """

    index: Optional[int] = None
    epsilon: Optional[float] = None

    def __post_init__(self):
        if (self.index is None) == (self.epsilon is None):
            raise DomainError("exactly one of index and epsilon must be given")
        if self.index is not None:
            try:
                object.__setattr__(self, "index", operator.index(self.index))
            except TypeError:
                raise DomainError(f"Markov hole index {self.index!r} is not an integer") from None
            if self.index < 1:
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
        return m.branches.point(self.index)


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
    lo_img = float(m.branches.right(np.asarray(a + 1e-12)))
    hi_img = float(m.branches.right(np.asarray(1.0)))
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
    dl = np.diff(m.branches.left(xs_l))
    dr = np.diff(m.branches.right(xs_r))
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
        excess = np.asarray(m.branches.dleft(xs), float) - 1.0
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
