"""Positive-integer random index models with certified tails.

Each index kind is a small frozen class: a quantile window [lo, hi] leaving
out at most the truncation target tau (lower tail within half of it), its
certified outside mass, the pmf over it and a native sampler.  The outside
mass is 0 for det and uniform; for geometric, the window's end (log tau over
log(1 - p), rounded up) and the mass past it are both closed forms.  The
Poisson tails are pmf walks from Loader's saddle-point pmf with a geometric
bound on the rest, all in numpy.  The window is built when first read, so a
model that is only sampled builds none; its certified outside mass certifies
every pmf-weighted sum (tail mass times a bound on the integrand).  A
parameter outside its kind's domain is a configuration error when the model
is made, a window longer than TRUNCATION_CAP terms when it is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

TRUNCATION_TARGET = 1e-12
TRUNCATION_CAP = 10_000_000
SUM_ROUNDOFF = 64 * 2.0**-52  # float round-off of a table's mass summed against 1


class IndexConfigError(ValueError):
    """Unknown index kind, invalid parameters, or a window past the cap."""


@dataclass(frozen=True)
class WeightedExpectation:
    value: float
    truncation_error_bound: float

    def __post_init__(self):
        if self.truncation_error_bound < 0.0:
            raise ValueError("truncation error bound must be nonnegative")


@dataclass(frozen=True)
class RandomIndexModel:
    """A law on {1, 2, ...}; n is the outer parameter reported with results.

    Subclasses supply their parameter's `domain` (its field, its words and
    its test), `sample` and `_window_and_mass`: the window (lo, hi) and the
    certified mass outside it.  The window's unnormalized `_weights` default
    to flat.
    `sample(rng, size)` returns the indices of size
    trials: an int64 array of that length, or one scalar index shared by all
    of them where the law is a point mass (Deterministic), which reads no rng
    and builds no per-trial array.
    """

    kind: ClassVar[str]
    domain: ClassVar[tuple]
    n: int
    target: float = field(default=TRUNCATION_TARGET, kw_only=True)

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise IndexConfigError(f"truncation target must lie in (0, 1): {self.target}")
        param = getattr(self, self.domain[0])
        self.check_domain(param, param)

    def _past_cap(self, needs: str) -> IndexConfigError:
        return IndexConfigError(
            f"{self.kind} index at n={self.n} with trunc-mass {self.target:g} "
            f"needs {needs}, past the cap of {TRUNCATION_CAP}"
        )

    @classmethod
    def check_domain(cls, param, shown) -> None:
        """Refuse a parameter outside the kind's domain, naming it as shown."""
        _, words, admits = cls.domain
        if not admits(param):
            raise IndexConfigError(f"{cls.kind} index parameter must be {words}: {shown!r}")

    @property
    def _budget(self) -> float:
        """tau less a reserve so a float sum of the table still reads within tau."""
        return max(self.target - SUM_ROUNDOFF, 0.5 * self.target)

    def _weights(self) -> np.ndarray:
        return np.ones(len(self.support))

    @cached_property
    def _capped(self) -> tuple:
        """_window_and_mass, refused past TRUNCATION_CAP terms."""
        try:
            (lo, hi), mass = self._window_and_mass()
        except OverflowError as exc:  # a window end past float range (subnormal p)
            raise self._past_cap("a window beyond float range") from exc
        if hi - lo + 1 > TRUNCATION_CAP:
            raise self._past_cap(f"{hi - lo + 1} terms")
        return (lo, hi), mass

    @property
    def window(self) -> tuple:
        return self._capped[0]

    @property
    def truncation_tail_mass(self) -> float:
        return self._capped[1]

    @cached_property
    def support(self) -> np.ndarray:
        lo, hi = self.window
        return np.arange(lo, hi + 1, dtype=np.int64)

    @cached_property
    def probs(self) -> np.ndarray:
        """pmf over the window, scaled to the certified window mass."""
        w = self._weights()
        return w * ((1.0 - self.truncation_tail_mass) / w.sum())

    def expect_values(self, values: np.ndarray, abs_bound: float) -> WeightedExpectation:
        """Weighted sum of precomputed per-index values over the support."""
        if not math.isfinite(abs_bound):
            raise ValueError("abs_bound must be finite")
        values = np.asarray(values, dtype=float)
        if values.shape != self.support.shape:
            raise ValueError("values must align with the model support")
        return WeightedExpectation(
            value=float(np.sum(self.probs * values)),  # pairwise, fixed order
            truncation_error_bound=self.truncation_tail_mass * abs_bound,
        )


@dataclass(frozen=True)
class Deterministic(RandomIndexModel):
    """Point mass at n: recovers every non-random functional exactly."""

    kind = "det"
    domain = ("n", ">= 1", lambda k: k >= 1)

    @classmethod
    def at(cls, n, param, target):
        return cls(n if param is None else int(param), target=target)

    def _window_and_mass(self):
        return (self.n, self.n), 0.0

    def sample(self, rng: np.random.Generator, size):
        return self.n  # one scalar shape for every trial


@dataclass(frozen=True)
class ShiftedPoisson(RandomIndexModel):
    """1 + Poisson(lam), with tails from certified pmf walks (see _poisson_tail)."""

    kind = "poisson"
    domain = ("lam", "positive and finite", lambda lam: 0.0 < lam < math.inf)
    lam: float

    @classmethod
    def at(cls, n, param, target):
        return cls(n, float(n if param is None else param), target=target)

    def _window_and_mass(self):
        """The quantile window of 1 + X, X ~ Poisson(lam), and its certified outside mass.

        A pmf table over [a, z] around the mode m gives both tails by
        cumulative sums; the mass beyond the table ends is walked by
        _poisson_tail.  lo - 1 is the largest x with P(X < x) <= tau / 2 and
        hi - 1 the first x past it with P(X > x) <= tau - P(X < lo - 1), both
        read from these upper bounds by _table_scan, up from a to lo and down
        from z to hi: the bits of one whole-table pass in O(piece) memory, so
        a window past the cap is counted and refused without ever being held.
        """
        lam = self.lam
        m = math.floor(lam)
        # The pmf is at most p(m) e^(-d (d - 1) / (2 (lam + d))) at distance d
        # from m, so 2D + 1 terms hold at most p(m) (3 + sqrt(2 pi V)
        # erf(D / sqrt(2 V))), V = lam + D: below 1 - tau, the window is longer.
        d = TRUNCATION_CAP // 2
        sd = math.sqrt(lam + d)
        reach = math.exp(_log_pmf([float(m)], lam)[0]) * (
            3.0 + math.sqrt(2.0 * math.pi) * sd * math.erf(d / (math.sqrt(2.0) * sd))
        )
        if reach * (1.0 + 1e-9) < 1.0 - self.target:
            raise self._past_cap(f"more than {TRUNCATION_CAP} terms")
        half = 0.5 * self._budget
        nats = math.log(2.0 / self.target) + 2.0
        w = int(math.sqrt(2.0 * lam * nats) + nats)
        while True:
            a, z = m - min(w, m), m + w
            # round-off of the walks and of the sequential cumulative sums
            pad = 1.0 + _WALK_RTOL + (z - a + 1) * 2.0**-53
            t_low = pad * _poisson_tail(lam, a - 1, -1) if a > 0 else 0.0
            t_high = pad * _poisson_tail(lam, z + 1, 1)
            # up from a: x is the first with P(X <= x) > half, low = P(X < x)
            passed, low = _table_scan(lam, m, a, z - a + 1, 1, t_low, half, pad)
            x = a + passed
            if low <= half and x <= z and t_high <= self._budget - low:
                # down from z: hi is the first y >= x with P(X > y) <= budget - low
                passed, high = _table_scan(lam, m, z, z - x, -1, t_high, self._budget - low, pad)
                return (x + 1, z - passed + 1), float(low + high)
            w *= 2

    def _weights(self):
        # log pmf ratios p(k)/p(k-1) = lam/(k-1), summed from lo; unlike
        # xlogy - gammaln - lam this carries no O(lam * eps) cancellation
        lo, hi = self.window
        logw = np.concatenate(([0.0], np.cumsum(np.log(self.lam / np.arange(lo, hi)))))
        return np.exp(logw - logw.max())

    def sample(self, rng: np.random.Generator, size):
        return 1 + rng.poisson(self.lam, size)


@dataclass(frozen=True)
class ShiftedGeometric(RandomIndexModel):
    """Geometric on {1, 2, ...} with success probability p."""

    kind = "geometric"
    domain = ("p", "in (0, 1]", lambda p: 0.0 < p <= 1.0)
    p: float

    @classmethod
    def at(cls, n, param, target):
        return cls(n, 1.0 / n if param is None else float(param), target=target)

    @cached_property
    def _log_q(self) -> float:
        """log(1 - p); -inf at p = 1, the point mass at 1."""
        return math.log1p(-self.p) if self.p < 1.0 else -math.inf

    def sf(self, k) -> float:
        # exp(k log(1 - p)), and 1 at k <= 0 even where p = 1 (scipy's xlog1py)
        return math.exp(k * self._log_q) if k > 0 else 1.0

    def _window_and_mass(self):
        """(1, hi) for the least hi with sf(hi) <= budget, and sf(hi).

        hi is log(budget) / log(1 - p) rounded up, then stepped to that least
        k while k is below 2^52: past it, k - 1 and k are one float, and the
        step would not end.  A subnormal p overflows the ratio.
        """
        budget = self._budget
        hi = max(1, math.ceil(math.log(budget) / self._log_q))
        while hi < 2**52 and self.sf(hi) > budget:
            hi += 1
        while 1 < hi < 2**52 and self.sf(hi - 1) <= budget:
            hi -= 1
        return (1, hi), self.sf(hi)

    def _weights(self):
        if self.p == 1.0:  # the window is {1}, and 0 * log(0) would read nan
            return np.ones(1)
        return np.exp((self.support - 1) * self._log_q)

    def sample(self, rng: np.random.Generator, size):
        """rng.geometric(p, size), the same bits, by one vectorized inversion for p < 1/3.

        numpy searches the cdf from p = 1/3 up (the literal is numpy's), and
        below draws ceil(-E / log1p(-p)) from one standard exponential E,
        with libm's log1p (as math.log1p) and values from 2^63 on clamped to
        INT64_MAX.  Dividing E by -log1p(-p) rounds as -E / log1p(-p) does.
        """
        if self.p >= 0.333333333333333333333333:
            return rng.geometric(self.p, size)
        z = rng.standard_exponential(size)
        z /= -math.log1p(-self.p)
        np.ceil(z, out=z)
        big = z >= 9.223372036854776e18
        z[big] = 0.0
        ks = z.astype(np.int64)
        ks[big] = np.iinfo(np.int64).max
        return ks


@dataclass(frozen=True)
class UniformIndex(RandomIndexModel):
    """Uniform on {1, ..., m}."""

    kind = "uniform"
    domain = ("m", ">= 1", lambda m: m >= 1)
    m: int

    @classmethod
    def at(cls, n, param, target):
        return cls(n, n if param is None else int(param), target=target)

    def _window_and_mass(self):
        return (1, self.m), 0.0

    def sample(self, rng: np.random.Generator, size):
        return rng.integers(1, self.m, size, endpoint=True)


# ---------------------------------------------------------------------------
# Poisson pmf walks
# ---------------------------------------------------------------------------

# stirlerr(n) = log(n!) - (n + 1/2) log(n) + n - log(2 pi) / 2 for n = 0..15
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)

# pmf terms per Loader anchor in a walk, and terms per chunk of a tail walk
_WALK_BLOCK = 1024
_WALK_CHUNK = 1 << 16

# pmf terms per piece of a window table: O(piece) memory whatever the window
_TABLE_PIECE = 1 << 20

# relative round-off of a walked pmf term or tail sum: a block's cumulated
# log ratios are off by at most (_WALK_BLOCK / 2 + 2) * 2^-53 * 745 (~4e-11)
# where the pmf does not underflow, and the tails' pairwise sums add little
_WALK_RTOL = 2.0**-32

# a tail walk stops once the geometric bound on the rest is this small a share
_WALK_CUT = 2.0**-60


def _stirlerr(n):
    """log(n!) - (n + 1/2) log(n) + n - log(2 pi) / 2 for integers n >= 0, elementwise (Loader).

    The table up to 15, and above it the series by Horner's rule with R's
    cut-offs: five terms up to 35, four up to 80, three up to 500 and two
    beyond.  A term a series leaves out starts its inner sum at 0.
    """
    n = np.asarray(n, dtype=float)
    m = np.maximum(n, 16.0)  # the table covers the rest; no division by 0
    with np.errstate(over="ignore"):  # past 1e154, mm is inf and 1 / mm is 0
        mm = m * m
    s = np.where(n <= 35, (1 / 1188) / mm, 0.0)
    s = np.where(n <= 80, (1 / 1680 - s) / mm, 0.0)
    s = np.where(n <= 500, (1 / 1260 - s) / mm, 0.0)
    s = (1 / 12 - (1 / 360 - s) / mm) / m
    return np.where(n <= 15, np.take(_STIRLERR, np.minimum(n, 15).astype(np.int64)), s)


def _bd0(x: float, mu: float) -> float:
    """x log(x / mu) + mu - x, by its series in (x - mu) / (x + mu) near mu (Loader)."""
    if x == mu:  # where 2 x v below may read inf * 0
        return 0.0
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        s = (x - mu) * v
        term = 2.0 * x * v
        v *= v
        for j in range(3, 1000, 2):
            term *= v
            s1 = s + term / j
            if s1 == s:
                break
            s = s1
        return s
    return x * math.log(x / mu) + mu - x


def _log_pmf(xs: list, lam: float) -> list:
    """log P(X = x), X ~ Poisson(lam), for each float x of xs: Loader's form (R's dpois)."""
    return [
        -lam if x == 0 else -s - _bd0(x, lam) - 0.5 * (math.log(2.0 * math.pi) + math.log(x))
        for x, s in zip(xs, _stirlerr(xs).tolist())
    ]


def _walk_log_pmf(lam: float, x0: int, count: int, step: int) -> np.ndarray:
    """log P(X = x0 + step j) for j < count, walking away from the mode.

    Every _WALK_BLOCK terms restart from Loader's value; within a block the
    log pmf ratios are cumulated: log(lam / x) going up (x0 >= 1) and
    log((x + 1) / lam) going down (count <= x0 + 1), each as the log1p of a
    difference over lam, so that no ratio is rounded to a float near 1.
    """
    blocks = -(-count // _WALK_BLOCK)
    x = np.arange(blocks * _WALK_BLOCK, dtype=float)
    x *= step
    x += x0
    if step > 0:
        x -= lam
    else:
        np.maximum(x, 0.0, out=x)  # the last block's padding runs below 0
        x += 1.0 - lam
    x /= lam
    np.log1p(x, out=x)
    if step > 0:
        np.negative(x, out=x)
    ratios = x.reshape(blocks, _WALK_BLOCK)
    ratios[:, 0] = _log_pmf([float(x0 + step * _WALK_BLOCK * b) for b in range(blocks)], lam)
    np.cumsum(ratios, axis=1, out=ratios)
    return x[:count]


def _table_piece(lam: float, m: int, x1: int, x2: int, pad: float) -> np.ndarray:
    """pad * P(X = x) for x1 <= x < x2, as the walks from the mode m read them.

    The walks go down from m and up from m + 1 and restart at every
    _WALK_BLOCK-th term, so a piece whose walks start at their last anchor
    before it reads the same bits wherever the table is cut.
    """
    parts = []
    if x1 <= m:  # steps m - x down from m
        d0, d1 = m + 1 - min(x2, m + 1), m + 1 - x1
        b = d0 - d0 % _WALK_BLOCK
        parts.append(_walk_log_pmf(lam, m - b, d1 - b, -1)[d0 - b:][::-1])
    if x2 > m + 1:  # steps x - m - 1 up from m + 1
        u0, u1 = max(x1, m + 1) - m - 1, x2 - m - 1
        b = u0 - u0 % _WALK_BLOCK
        parts.append(_walk_log_pmf(lam, m + 1 + b, u1 - b, 1)[u0 - b:])
    p = np.concatenate(parts)
    np.exp(p, out=p)
    p *= pad
    return p


def _table_scan(lam, m, start, count, step, base, limit, pad):
    """Walk count table terms from start by step (1 or -1): (terms passed, mass).

    The table (pad * P(X = x), as _table_piece reads it for the mode m) is
    read in pieces of _TABLE_PIECE terms, and its cumulative sum is carried
    in order from piece to piece.  A term passes while base plus the sum
    through it is at most limit; the mass is base plus the sum through the
    last term passed.
    """
    passed, mass, run = 0, base, 0.0
    while passed < count:
        size = min(_TABLE_PIECE, count - passed)
        x1 = start + passed if step > 0 else start - passed + 1 - size
        piece = _table_piece(lam, m, x1, x1 + size, pad)[::step]
        piece[0] += run
        run = np.cumsum(piece, out=piece)[-1]
        piece += base
        i = int(np.searchsorted(piece, limit, side="right"))
        passed += i
        if i:
            mass = piece[i - 1]
        if i < size:
            break
    return passed, mass


def _poisson_tail(lam: float, x: int, step: int) -> float:
    """P(X >= x) for step 1 (x > lam - 1), P(X <= x) for step -1 (x < lam).

    The pmf is walked away from the mode in chunks until the rest is at most
    _WALK_CUT of the sum, bounded geometrically: past the end e the pmf
    ratios stay below r = lam / (e + 1) going up and r = e / lam going down,
    so the rest is at most p(e) r / (1 - r).  That bound is added, so the
    value is at least the exact tail, up to a relative round-off below
    _WALK_RTOL.
    """
    total = 0.0
    # about the steps over which the pmf falls by e^-50 from distance |x - lam|
    count = int(math.sqrt((x - lam) ** 2 + 100.0 * lam) - abs(x - lam)) + 64
    while True:
        count = min(count, _WALK_CHUNK) if step > 0 else min(count, _WALK_CHUNK, x + 1)
        logp = _walk_log_pmf(lam, x, count, step)
        total += float(np.sum(np.exp(logp)))
        end = x + step * (count - 1)
        if step > 0:
            rest = math.exp(logp[-1] + math.log(lam / (end + 1 - lam)))
        else:
            rest = math.exp(logp[-1] + math.log(end / (lam - end))) if end else 0.0
        if rest <= _WALK_CUT * total:
            return total + rest
        x, count = end + step, 2 * count


_KINDS = {cls.kind: cls for cls in (Deterministic, ShiftedPoisson, ShiftedGeometric, UniformIndex)}


def make_index(
    kind: str, n: int, param: float | None = None,
    target: float = TRUNCATION_TARGET,
) -> RandomIndexModel:
    """Instantiate an index kind at outer parameter n.

    Without an explicit param: det -> point mass at n, poisson -> rate n,
    geometric -> success 1/n, uniform -> {1..n}.  An explicit param overrides
    (det:k, poisson:lam, geometric:p, uniform:m).  target is the truncation
    tail-mass budget tau.
    """
    cls = _KINDS.get(kind)
    if cls is None:
        raise IndexConfigError(f"unknown index kind: {kind!r}")
    return cls.at(n, param, target)


def parse_index(spec: str):
    """Parse '<kind>[:<param>]' into (kind, param or None).

    param must be finite, integral for det and uniform, and in its kind's
    domain; a det point lies below 2^63 and a uniform bound at most
    TRUNCATION_CAP.
    """
    kind, sep, raw = spec.strip().partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise IndexConfigError(f"unknown index kind: {kind!r}")
    if not sep:
        return kind, None
    try:
        param = float(raw)
    except ValueError as exc:
        raise IndexConfigError(f"non-numeric index parameter in {spec!r}") from exc
    if not math.isfinite(param):
        raise IndexConfigError(f"index parameter must be finite: {spec!r}")
    if kind in ("det", "uniform") and not param.is_integer():
        raise IndexConfigError(f"{kind} index parameter must be an integer: {spec!r}")
    _KINDS[kind].check_domain(param, spec)
    # past these the run would end in numpy's int64 overflow or a cap message
    # with the parameter's every digit
    if kind == "det" and not param < 2**63:
        raise IndexConfigError(f"det index parameter must be below 2^63: {spec!r}")
    if kind == "uniform" and param > TRUNCATION_CAP:
        raise IndexConfigError(
            f"uniform index parameter must be at most the window cap {TRUNCATION_CAP}: {spec!r}"
        )
    return kind, param


def index_spec_string(kind: str, param: float | None) -> str:
    """Inverse of parse_index: the parameter as its shortest round-trip repr."""
    return kind if param is None else f"{kind}:{param!r}".removesuffix(".0")
