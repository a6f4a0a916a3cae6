"""Monte Carlo simulation of normalized random sums and distance estimation.

Streams are Philox counter-based generators keyed by (seed, purpose), so every
run is a pure function of its configuration and seed.  A simulation uses two:
the index stream, and one summand stream disjoint from it.  Families whose
k-fold sums have an exact closed law (binomial, gamma, normal) draw one value
per trial from the summand stream; every other family draws its summands from
the same stream in matrices grouped by the realized k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .families import SummandFamily
from .gaussian import norm_cdf
from .indices import RandomIndexModel, make_index

_MASK64 = (1 << 64) - 1
_TAG_INDEX = _MASK64
_TAG_BATCH = _MASK64 - 1
DEFAULT_GAMMA = 0.999


def _stream(seed: int, tag: int) -> Generator:
    if not 0 <= seed <= _MASK64:  # masking would give two seeds one stream
        raise ValueError(f"seed must lie in [0, 2^64): {seed}")
    return Generator(Philox(key=np.array([seed, tag], dtype=np.uint64)))


@dataclass(frozen=True)
class EmpiricalSample:
    """Seeded draws of S_index / B_index, sorted ascending."""

    values: np.ndarray = field(compare=False)
    trials: int
    seed: int
    index_histogram: dict = field(compare=False)

    def __post_init__(self):
        if len(self.values) != self.trials:
            raise ValueError("sample length must equal the trial count")
        if sum(self.index_histogram.values()) != self.trials:
            raise ValueError("index histogram must account for every trial")

    def mean(self) -> float:
        return float(np.mean(self.values))

    def variance(self) -> float:
        return float(np.var(self.values))


@dataclass(frozen=True)
class KolmogorovEstimate:
    d_hat: float
    dkw_band: float
    trials: int
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not (0.0 <= self.d_hat <= 1.0):
            raise ValueError(f"d_hat must lie in [0, 1]: {self.d_hat}")


def simulate(
    family: SummandFamily,
    index_model: RandomIndexModel,
    trials: int,
    seed: int,
) -> EmpiricalSample:
    """Draw `trials` normalized random sums.

    Per trial: an index k from the dedicated index stream, then the k summands
    normalized by the realized cumulative deviation B_k.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1: {trials}")
    ks = index_model.sample(_stream(seed, _TAG_INDEX), trials)
    values = family.batch_normalized_sums(_stream(seed, _TAG_BATCH), ks)
    uniq, counts = np.unique(ks, return_counts=True)
    histogram = {int(k): int(c) for k, c in zip(uniq, counts)}
    return EmpiricalSample(
        values=np.sort(np.asarray(values, dtype=float)),
        trials=trials,
        seed=seed,
        index_histogram=histogram,
    )


def kolmogorov_distance(
    sample: EmpiricalSample, gamma: float = DEFAULT_GAMMA
) -> KolmogorovEstimate:
    """Sup distance between the sample's empirical CDF and the standard normal.

    The band is the two-sided DKW radius sqrt(ln(2/(1-gamma)) / (2 m)) at
    confidence gamma.
    """
    m = sample.trials
    ref = norm_cdf(sample.values)
    i = np.arange(1, m + 1, dtype=float)
    d_hat = float(max(np.max(i / m - ref), np.max(ref - (i - 1.0) / m)))
    band = math.sqrt(math.log(2.0 / (1.0 - gamma)) / (2.0 * m))
    return KolmogorovEstimate(d_hat=max(0.0, d_hat), dkw_band=band, trials=m, gamma=gamma)


@dataclass(frozen=True)
class CfIdentityResult:
    """Deviation of the index-mixed normal characteristic function from e^(-t^2/2)."""

    t_grid: tuple
    deviations: tuple
    max_deviation: float
    truncation_tail_mass: float


def cf_identity_check(
    family: SummandFamily, index_model: RandomIndexModel, t_grid
) -> CfIdentityResult:
    """Verify that mixing exp(-t^2/(2 B_k^2) * B_k^2) over the index is Gaussian.

    The per-index factor is evaluated through the realized B_k^2 so the
    identity's cancellation is exercised numerically; the deviation can only
    be the truncation tail mass times e^(-t^2/2), at most the tail mass.
    Only the sigma profile is read: the identity is about the matched normal
    sequence N(0, sigma_j^2), whatever the family's summand law.
    """
    prof = family.profile
    logb2 = prof.log_b_squared(index_model.support.astype(float))
    b2 = np.exp(np.minimum(logb2, 700.0))
    finite = np.isfinite(b2) & (b2 < 1e300)
    devs = []
    for t in t_grid:
        ratio = np.where(finite, (t * t / (2.0 * b2)) * b2, 0.5 * t * t)
        terms = np.exp(-ratio)
        mixed = float(np.dot(index_model.probs, terms))
        devs.append(abs(mixed - math.exp(-0.5 * t * t)))
    return CfIdentityResult(
        t_grid=tuple(float(t) for t in t_grid),
        deviations=tuple(devs),
        max_deviation=float(max(devs)),
        truncation_tail_mass=index_model.truncation_tail_mass,
    )


def clt_sweep(
    family: SummandFamily,
    index_spec,
    n_grid,
    trials: int,
    seed: int,
):
    """One simulate + distance estimate per n.

    index_spec is an index kind name, a callable n -> model, or a fixed model
    reused for every n.
    """
    if not len(n_grid):
        raise ValueError("n_grid must be nonempty")
    factory = _index_factory(index_spec)
    points = []
    for n in n_grid:
        model = factory(int(n))
        sample = simulate(family, model, trials, seed)
        points.append((int(n), kolmogorov_distance(sample)))
    return points


def _index_factory(index_spec):
    if isinstance(index_spec, RandomIndexModel):
        return lambda n: index_spec
    if callable(index_spec):
        return index_spec
    if isinstance(index_spec, str):
        return lambda n: make_index(index_spec, n)
    raise TypeError(f"cannot interpret index spec {index_spec!r}")
