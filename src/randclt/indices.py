"""Positive-integer random index models and pmf-weighted expectations.

Every model enumerates its probability mass over {1, 2, ...} up to the point
where the cumulative mass reaches 1 - 1e-12 (capped at 1e7 terms), so each
weighted expectation is a finite sum together with a certified truncation
error bound (tail mass times a caller-supplied bound on the integrand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

TRUNCATION_TARGET = 1e-12
TRUNCATION_CAP = 10_000_000


class IndexConfigError(ValueError):
    """Unknown index kind or invalid index parameters."""


class IndexTruncationError(RuntimeError):
    """A draw landed beyond the enumerated support (past the truncation cap)."""


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
    """A distribution on {1, 2, ...} with enumerated, certified support.

    support/probs list every index whose cumulative mass is needed to reach
    1 - truncation target; truncation_tail_mass is the (bounded) remainder.
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict, compare=False)
    support: np.ndarray = field(default=None, compare=False)
    probs: np.ndarray = field(default=None, compare=False)
    truncation_tail_mass: float = 0.0

    def __post_init__(self):
        if self.support is None or self.probs is None:
            raise IndexConfigError("index model requires enumerated support")
        if np.any(self.probs < 0.0):
            raise IndexConfigError("pmf values must be nonnegative")
        object.__setattr__(self, "_cum", np.cumsum(self.probs))

    # -- mass function -------------------------------------------------------

    def pmf(self, k):
        """Exact pmf at k (closed form per kind, not the truncated table)."""
        k = np.asarray(k)
        if np.any(k < 1):
            raise ValueError("index k must be >= 1")
        kind = self.kind
        if kind == "deterministic":
            return np.where(k == self.params["value"], 1.0, 0.0)
        if kind == "poisson":
            return _poisson_pmf(k - 1, self.params["lam"])
        if kind == "geometric":
            p = self.params["p"]
            return np.exp(math.log(p) + (k - 1) * math.log1p(-p))
        if kind == "uniform":
            m = self.params["m"]
            return np.where(k <= m, 1.0 / m, 0.0)
        raise IndexConfigError(f"unknown index kind: {kind!r}")

    def prob_at_most(self, K: int) -> float:
        """P(index <= K), closed form; used for divergence diagnostics."""
        kind = self.kind
        if kind == "deterministic":
            return 1.0 if self.params["value"] <= K else 0.0
        if kind == "poisson":
            return float(special.pdtr(K - 1, self.params["lam"]))
        if kind == "geometric":
            return float(-math.expm1(K * math.log1p(-self.params["p"])))
        if kind == "uniform":
            return min(1.0, K / self.params["m"])
        raise IndexConfigError(f"unknown index kind: {kind!r}")

    # -- expectations ---------------------------------------------------------

    def expect_values(self, values: np.ndarray, abs_bound: float) -> WeightedExpectation:
        """Weighted sum of precomputed per-index values over the support."""
        if not math.isfinite(abs_bound):
            raise ValueError("abs_bound must be finite")
        values = np.asarray(values, dtype=float)
        if values.shape != self.support.shape:
            raise ValueError("values must align with the model support")
        return WeightedExpectation(
            value=float(np.dot(self.probs, values)),
            truncation_error_bound=self.truncation_tail_mass * abs_bound,
            terms_used=int(len(self.support)),
        )

    def expect(self, g, abs_bound: float) -> WeightedExpectation:
        """E[g(index)] over the truncated support.

        g may be vectorized over an integer array; a scalar-only callable is
        applied elementwise.  abs_bound must dominate |g| on the truncated
        tail and certifies the truncation error.
        """
        try:
            values = np.asarray(g(self.support), dtype=float)
            if values.shape != self.support.shape:
                raise TypeError
        except (TypeError, ValueError):
            values = np.array([float(g(int(k))) for k in self.support])
        return self.expect_values(values, abs_bound)

    # -- sampling -------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draws from the truncated support (caller-owned stream)."""
        u = rng.random(size)
        idx = np.searchsorted(self._cum, u, side="right")
        if np.any(idx >= len(self.support)):
            raise IndexTruncationError(
                f"draw beyond the enumerated support of {self.kind!r} "
                f"(tail mass {self.truncation_tail_mass:.3g})"
            )
        return self.support[idx]


def _poisson_pmf(k, lam):
    """Poisson(lam) pmf at integer k >= 0, exp of the log-space form."""
    return np.exp(special.xlogy(k, lam) - special.gammaln(k + 1) - lam)


def _enumerated(kind, n, params, pmf_fn, target=TRUNCATION_TARGET):
    """Enumerate pmf values until cumulative mass reaches 1 - target."""
    block = 4096
    chunks = []
    cum = 0.0
    start = 1
    while cum < 1.0 - target and start <= TRUNCATION_CAP:
        ks = np.arange(start, min(start + block, TRUNCATION_CAP + 1))
        p = pmf_fn(ks)
        chunks.append((ks, p))
        cum += float(p.sum())
        start += len(ks)
        block = min(block * 4, 2_000_000)
    support = np.concatenate([c[0] for c in chunks])
    probs = np.concatenate([c[1] for c in chunks])
    # trim the enumeration to the first point where the target is met
    cums = np.cumsum(probs)
    stop = int(np.searchsorted(cums, 1.0 - target)) + 1
    stop = min(stop, len(support))
    support, probs = support[:stop], probs[:stop]
    tail = max(0.0, 1.0 - float(probs.sum()))
    return RandomIndexModel(
        kind=kind, n=n, params=params, support=support, probs=probs, truncation_tail_mass=tail
    )


def deterministic(n: int) -> RandomIndexModel:
    """Point mass at n: recovers every non-random functional exactly."""
    if n < 1:
        raise IndexConfigError(f"deterministic index must be >= 1: {n}")
    return RandomIndexModel(
        kind="deterministic",
        n=n,
        params={"value": n},
        support=np.array([n], dtype=np.int64),
        probs=np.array([1.0]),
        truncation_tail_mass=0.0,
    )


def shifted_poisson(
    lam: float, n: int | None = None, target: float = TRUNCATION_TARGET
) -> RandomIndexModel:
    """1 + Poisson(lam); lam defaults to the outer n."""
    if lam <= 0:
        raise IndexConfigError(f"poisson rate must be positive: {lam}")
    n = int(lam) if n is None else n
    return _enumerated(
        "poisson", n, {"lam": float(lam)},
        lambda ks: _poisson_pmf(ks - 1, lam), target=target,
    )


def shifted_geometric(
    p: float, n: int | None = None, target: float = TRUNCATION_TARGET
) -> RandomIndexModel:
    """Geometric on {1, 2, ...} with success probability p; p = 1/n by default."""
    if not (0.0 < p <= 1.0):
        raise IndexConfigError(f"geometric p must be in (0, 1]: {p}")
    n = max(1, round(1.0 / p)) if n is None else n
    logq = math.log1p(-p) if p < 1.0 else -math.inf

    def pmf_fn(ks):
        if p == 1.0:
            return np.where(ks == 1, 1.0, 0.0)
        return np.exp(math.log(p) + (ks - 1) * logq)

    return _enumerated("geometric", n, {"p": float(p)}, pmf_fn, target=target)


def uniform_index(m: int, n: int | None = None) -> RandomIndexModel:
    """Uniform on {1, ..., m}."""
    if m < 1:
        raise IndexConfigError(f"uniform index bound must be >= 1: {m}")
    n = m if n is None else n
    return RandomIndexModel(
        kind="uniform",
        n=n,
        params={"m": int(m)},
        support=np.arange(1, m + 1, dtype=np.int64),
        probs=np.full(m, 1.0 / m),
        truncation_tail_mass=0.0,
    )


BUILTIN_INDEX_KINDS = ("det", "poisson", "geometric", "uniform")


def make_index(
    kind: str, n: int, param: float | None = None,
    target: float = TRUNCATION_TARGET,
) -> RandomIndexModel:
    """Instantiate an index kind at outer parameter n.

    Without an explicit param: det -> point mass at n, poisson -> rate n,
    geometric -> success 1/n, uniform -> {1..n}.  An explicit param overrides
    (det:k, poisson:lam, geometric:p, uniform:m).  target is the truncation
    tail-mass budget for the enumerated kinds.
    """
    kind = kind.lower()
    if kind in ("det", "deterministic"):
        return deterministic(int(param) if param is not None else n)
    if kind == "poisson":
        return shifted_poisson(param if param is not None else float(n), n=n, target=target)
    if kind == "geometric":
        return shifted_geometric(param if param is not None else 1.0 / n, n=n, target=target)
    if kind == "uniform":
        return uniform_index(int(param) if param is not None else n, n=n)
    raise IndexConfigError(f"unknown index kind: {kind!r}")


def parse_index(spec: str):
    """Parse '[index=]<kind>[:<param>]' into (kind, param or None)."""
    spec = spec.strip()
    if spec.startswith("index="):
        spec = spec[len("index="):]
    kind, sep, raw = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in ("det", "deterministic", "poisson", "geometric", "uniform"):
        raise IndexConfigError(f"unknown index kind: {kind!r}")
    if not sep:
        return kind, None
    try:
        return kind, float(raw)
    except ValueError as exc:
        raise IndexConfigError(f"non-numeric index parameter in {spec!r}") from exc


def index_spec_string(kind: str, param: float | None) -> str:
    return kind if param is None else f"{kind}:{param:g}"
