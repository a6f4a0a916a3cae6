"""Positive-integer random index models with closed-form tails.

Each index kind is a small frozen class: closed-form `cdf`/`sf`, a native
sampler, and a quantile window [lo, hi] leaving out at most the truncation
target tau (lower tail within half of it).  The window's table is built on
first use; its closed-form outside mass certifies every pmf-weighted sum
(tail mass times a bound on the integrand).  A window longer than
TRUNCATION_CAP terms is a configuration error.
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
    terms_used: int

    def __post_init__(self):
        if self.truncation_error_bound < 0.0:
            raise ValueError("truncation error bound must be nonnegative")


@dataclass(frozen=True)
class RandomIndexModel:
    """A law on {1, 2, ...}; n is the outer parameter reported with results.

    Subclasses supply `cdf`, `sample` and the cached `window` (lo, hi), which
    rejects invalid parameters; `sf` and the window's unnormalized `_weights`
    have flat defaults.
    """

    kind: ClassVar[str]
    n: int
    target: float = field(default=TRUNCATION_TARGET, kw_only=True)

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise IndexConfigError(f"truncation target must lie in (0, 1): {self.target}")
        try:
            lo, hi = self.window
        except OverflowError as exc:  # the window search galloped past float range
            raise self._past_cap("a window beyond float range") from exc
        if hi - lo + 1 > TRUNCATION_CAP:
            raise self._past_cap(f"{hi - lo + 1} terms")

    def _past_cap(self, needs: str) -> IndexConfigError:
        return IndexConfigError(
            f"{self.kind} index at n={self.n} with trunc-mass {self.target:g} "
            f"needs {needs}, past the cap of {TRUNCATION_CAP}"
        )

    @property
    def _budget(self) -> float:
        """tau less a reserve so a float sum of the table still reads within tau."""
        return max(self.target - SUM_ROUNDOFF, 0.5 * self.target)

    def sf(self, k) -> float:
        return 1.0 - self.cdf(k)

    def _weights(self) -> np.ndarray:
        return np.ones(len(self.support))

    @cached_property
    def support(self) -> np.ndarray:
        lo, hi = self.window
        return np.arange(lo, hi + 1, dtype=np.int64)

    @cached_property
    def truncation_tail_mass(self) -> float:
        lo, hi = self.window
        return float(self.cdf(lo - 1) + self.sf(hi))

    @cached_property
    def probs(self) -> np.ndarray:
        """pmf over the window, scaled to the closed-form window mass."""
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
            terms_used=int(len(self.support)),
        )


@dataclass(frozen=True)
class Deterministic(RandomIndexModel):
    """Point mass at n: recovers every non-random functional exactly."""

    kind = "deterministic"

    @classmethod
    def at(cls, n, param, target):
        return cls(n if param is None else int(param), target=target)

    def cdf(self, k) -> float:
        return 1.0 if k >= self.n else 0.0

    @cached_property
    def window(self):
        if self.n < 1:
            raise IndexConfigError(f"deterministic index must be >= 1: {self.n}")
        return self.n, self.n

    def sample(self, rng: np.random.Generator, size):
        return np.full(size, self.n, dtype=np.int64)


@dataclass(frozen=True)
class ShiftedPoisson(RandomIndexModel):
    """1 + Poisson(lam)."""

    kind = "poisson"
    lam: float

    @classmethod
    def at(cls, n, param, target):
        return cls(n, float(n if param is None else param), target=target)

    # scipy.special is imported on first use, so that commands without a
    # Poisson index load no scipy module.
    def cdf(self, k) -> float:
        from scipy.special import pdtr

        return float(pdtr(k - 1, self.lam)) if k >= 1 else 0.0

    def sf(self, k) -> float:
        from scipy.special import pdtrc

        return float(pdtrc(k - 1, self.lam)) if k >= 1 else 1.0

    @cached_property
    def window(self):
        if not 0.0 < self.lam < math.inf:
            raise IndexConfigError(f"poisson rate must be positive and finite: {self.lam}")
        half = 0.5 * self._budget
        lo = _first_true(lambda k: self.cdf(k) > half, 1)
        need = self._budget - self.cdf(lo - 1)
        hi = _first_true(lambda k: self.sf(k) <= need, lo)
        if hi - lo >= TRUNCATION_CAP:
            # pdtr/pdtrc lose accuracy near k ~ lam at such rates, so the
            # searched ends give no trustworthy count (1.9e84 at lam = 1e100)
            raise self._past_cap(f"more than {TRUNCATION_CAP} terms")
        return lo, hi

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
    p: float

    @classmethod
    def at(cls, n, param, target):
        return cls(n, 1.0 / n if param is None else float(param), target=target)

    @cached_property
    def _log_q(self) -> float:
        """log(1 - p); -inf at p = 1, the point mass at 1."""
        return math.log1p(-self.p) if self.p < 1.0 else -math.inf

    def _log_sf(self, k) -> float:
        # k log(1 - p), and 0 at k <= 0 even where p = 1 (scipy's xlog1py)
        return k * self._log_q if k > 0 else 0.0

    def cdf(self, k) -> float:
        return -math.expm1(self._log_sf(k))

    def sf(self, k) -> float:
        return math.exp(self._log_sf(k))

    @cached_property
    def window(self):
        if not 0.0 < self.p <= 1.0:
            raise IndexConfigError(f"geometric p must be in (0, 1]: {self.p}")
        return 1, _first_true(lambda k: self.sf(k) <= self._budget, 1)

    def _weights(self):
        if self.p == 1.0:  # the window is {1}, and 0 * log(0) would read nan
            return np.ones(1)
        return np.exp((self.support - 1) * self._log_q)

    def sample(self, rng: np.random.Generator, size):
        return rng.geometric(self.p, size)


@dataclass(frozen=True)
class UniformIndex(RandomIndexModel):
    """Uniform on {1, ..., m}."""

    kind = "uniform"
    m: int

    @classmethod
    def at(cls, n, param, target):
        return cls(n, n if param is None else int(param), target=target)

    def cdf(self, k) -> float:
        return min(max(k, 0), self.m) / self.m

    @cached_property
    def window(self):
        if self.m < 1:
            raise IndexConfigError(f"uniform index bound must be >= 1: {self.m}")
        return 1, self.m

    def sample(self, rng: np.random.Generator, size):
        return rng.integers(1, self.m, size, endpoint=True)


def _first_true(pred, k: int) -> int:
    """Smallest integer j >= k with pred(j), for pred false and then true."""
    lo, hi = k - 1, k  # pred(lo) is false or lo is below the range
    while not pred(hi):
        lo, hi = hi, hi + 2 * (hi - lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


_KINDS = {
    "det": Deterministic,
    "deterministic": Deterministic,
    "poisson": ShiftedPoisson,
    "geometric": ShiftedGeometric,
    "uniform": UniformIndex,
}
BUILTIN_INDEX_KINDS = ("det", "poisson", "geometric", "uniform")


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
    cls = _KINDS.get(kind.lower())
    if cls is None:
        raise IndexConfigError(f"unknown index kind: {kind!r}")
    return cls.at(n, param, target)


def parse_index(spec: str):
    """Parse '[index=]<kind>[:<param>]' into (kind, param or None)."""
    spec = spec.strip()
    if spec.startswith("index="):
        spec = spec[len("index="):]
    kind, sep, raw = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _KINDS:
        raise IndexConfigError(f"unknown index kind: {kind!r}")
    if not sep:
        return kind, None
    try:
        return kind, float(raw)
    except ValueError as exc:
        raise IndexConfigError(f"non-numeric index parameter in {spec!r}") from exc


def index_spec_string(kind: str, param: float | None) -> str:
    return kind if param is None else f"{kind}:{param:g}"
