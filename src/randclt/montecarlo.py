"""Monte Carlo simulation of normalized random sums and distance estimation.

Streams are Philox counter-based generators keyed by (seed, purpose), so every
run is a pure function of its configuration and seed.  A simulation cuts its
trials into blocks of _BLOCK_TRIALS and gives each block two streams: an index
stream and a summand stream disjoint from it, both started at the block's
number in the counter's top word (block 0 is the counter's default start, and
blocks lie 2^192 counter steps apart).  A normal law's S_k / B_k is N(0, 1)
for every k, so its blocks draw one standard normal per trial and no index.
Families whose k-fold sums have an exact closed law (binomial, gamma) draw one
value per trial from the summand stream; a Rademacher sum of k <= 64 terms
reads the top k bits of one raw 64-bit word.  Every other family draws its
summands from the same stream in matrices grouped by the realized k.  Blocks
run on a thread pool when there are several, and map_blocks hands each
block's sums to a per-block reduction: simulate copies them into disjoint
slices of one output array, and rates.smooth_metric keeps only their moments.
Neither depends on the number of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .families import SummandFamily
from .gaussian import norm_cdf
from .indices import RandomIndexModel

_MASK64 = (1 << 64) - 1
_TAG_INDEX = _MASK64
_TAG_BATCH = _MASK64 - 1
DEFAULT_GAMMA = 0.999

# trials per stream block.  A run of up to this many trials is one block on
# the calling thread and keeps the single-stream layout; 2^16 split the README's
# 1e5-trial simulate across two threads, whose malloc arenas raised its peak
# RSS by ~5% for no gain in time.
_BLOCK_TRIALS = 1 << 17


def _stream(seed: int, tag: int, block: int = 0) -> Generator:
    if not 0 <= seed <= _MASK64:  # masking would give two seeds one stream
        raise ValueError(f"seed must lie in [0, 2^64): {seed}")
    return Generator(Philox(
        key=np.array([seed, tag], dtype=np.uint64),
        counter=np.array([0, 0, 0, block], dtype=np.uint64),
    ))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class EmpiricalSample:
    """Seeded draws of S_index / B_index, in draw order."""

    values: np.ndarray = field(compare=False)
    trials: int

    def __post_init__(self):
        if len(self.values) != self.trials:
            raise ValueError("sample length must equal the trial count")


@dataclass(frozen=True)
class KolmogorovEstimate:
    d_hat: float
    dkw_band: float
    trials: int
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not (0.0 <= self.d_hat <= 1.0):
            raise ValueError(f"d_hat must lie in [0, 1]: {self.d_hat}")


def map_blocks(trials: int, seed: int, per_block: Callable) -> list:
    """per_block(lo, count, index_rng, rng) for each block of trials, in block order.

    Block b holds the count trials from lo = b * _BLOCK_TRIALS on; index_rng
    and rng are its index stream and its summand stream.  per_block draws
    what it needs from them, and runs on the block's worker.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1: {trials}")

    def run(block):
        lo = block * _BLOCK_TRIALS
        return per_block(
            lo, min(_BLOCK_TRIALS, trials - lo),
            _stream(seed, _TAG_INDEX, block), _stream(seed, _TAG_BATCH, block),
        )

    blocks = -(-trials // _BLOCK_TRIALS)
    workers = min(blocks, _usable_cpus())
    if workers == 1:  # one block, or one usable CPU: no thread to start
        return [run(block) for block in range(blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(blocks)))  # re-raises a block's error


def draw_sums(
    family: SummandFamily,
    index_model: RandomIndexModel,
    count: int,
    index_rng: Generator,
    rng: Generator,
) -> np.ndarray:
    """count normalized random sums S_k / B_k, in trial order.

    Per trial: an index k from index_rng, then the k summands from rng,
    normalized by the realized cumulative deviation B_k.  An index-free
    family draws one standard normal per trial and no index.
    """
    if family.index_free:
        return rng.standard_normal(count)
    return family.batch_normalized_sums(rng, index_model.sample(index_rng, count))


def simulate(
    family: SummandFamily,
    index_model: RandomIndexModel,
    trials: int,
    seed: int,
) -> EmpiricalSample:
    """Draw `trials` normalized random sums S_k / B_k, in trial order."""
    values = np.empty(max(trials, 0))  # map_blocks refuses trials < 1

    def store(lo, count, index_rng, rng):
        values[lo:lo + count] = draw_sums(family, index_model, count, index_rng, rng)

    map_blocks(trials, seed, store)
    return EmpiricalSample(values=values, trials=trials)


def kolmogorov_distance(
    sample: EmpiricalSample, gamma: float = DEFAULT_GAMMA
) -> KolmogorovEstimate:
    """Sup distance between the sample's empirical CDF and the standard normal.

    The band is the two-sided DKW radius sqrt(ln(2/(1-gamma)) / (2 m)) at
    confidence gamma.  Within a run of equal values the deviation peaks at
    its first and last rank, so Phi is evaluated once per distinct value:
    sums of discrete summands repeat values (rademacher at geometric n = 10
    draws 792 distinct values in 1e5 trials).
    """
    m = sample.trials
    x = np.sort(sample.values)
    first = np.empty(m, dtype=bool)  # x[i] starts a run of equal values
    first[0] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], m)
    ref = norm_cdf(x[starts])
    d_hat = float(max(np.max(ends / m - ref), np.max(ref - starts / m)))
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
        mixed = index_model.expect_values(terms, abs_bound=1.0).value
        devs.append(abs(mixed - math.exp(-0.5 * t * t)))
    return CfIdentityResult(
        t_grid=tuple(float(t) for t in t_grid),
        deviations=tuple(devs),
        max_deviation=float(np.max(devs)),  # NaN-propagating, unlike max()
        truncation_tail_mass=index_model.truncation_tail_mass,
    )
