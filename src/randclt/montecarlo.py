"""Monte Carlo simulation of normalized random sums and distance estimation.

Streams are PCG64DXSM generators keyed by (seed, purpose) through a
SeedSequence's spawn key, so every run is a pure function of its
configuration and seed.  A simulation cuts its trials into blocks of
_BLOCK_TRIALS and gives each block two streams: an index stream and a
summand stream under a different key, both advanced by the block's number
times 2^96 words (block 0 is the stream's start, and blocks are disjoint
windows of one keyed stream).  draw_block is the one per-block draw of the
simulate, audit and rates commands, and sweep is their one walk over a grid
of (n, index model) pairs.  A normal law's S_k / B_k is N(0, 1) for every k,
so its blocks draw one standard normal per trial and no index, the same
draws at every n: sweep draws them at the first n and reuses them for the
rest of the grid.  A det index draws nothing either: its sample is one
scalar k, which reaches the sampler as one scalar shape.  A Rademacher sum
on a constant profile takes only k + 1 values, so the trials of each k that
repeats more often than that are drawn as one lattice histogram.  Families
whose k-fold sums have an exact closed law (binomial, gamma) draw their
other trials one value each from the summand stream; every other family
groups its trials by weight vector sigma_j / B_k and draws their summands
from the same stream in shared draws of at most 2^16 entries, one matrix
of rows per group cut out of each.  Blocks run on a thread
pool when there are several, and map_blocks hands each block's draws to a
per-block reduction: simulate copies them into disjoint slices of one output
array, and rates.smooth_metric keeps only their moments.  Neither depends on
the number of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .families import RademacherLaw, SummandFamily, half_binomial_pmf
from .gaussian import norm_pdf_cdf_sf
from .indices import RandomIndexModel

_MASK64 = (1 << 64) - 1
_TAG_INDEX = _MASK64
_TAG_BATCH = _MASK64 - 1
DKW_GAMMA = 0.999  # confidence of kolmogorov_distance's DKW band

# trials per stream block.  A run of up to this many trials is one block on
# the calling thread and keeps the single-stream layout; 2^16 split the README's
# 1e5-trial simulate across two threads, whose malloc arenas raised its peak
# RSS by ~5% for no gain in time.
_BLOCK_TRIALS = 1 << 17
# block b starts at word b << _BLOCK_SHIFT of its keyed stream; map_blocks
# keeps b below 2^32, so every start lies within the generator's 2^128 period
_BLOCK_SHIFT = 96
MAX_TRIALS = _BLOCK_TRIALS << 32


def _stream(seed: int, tag: int, block: int = 0) -> Generator:
    """Block `block` of the stream keyed by (seed, tag).

    The key is the spawn key of a SeedSequence: the list form [seed, tag]
    would concatenate 32-bit words, and [2^32 + 1, 1] and [1, 2^32 + 1] would
    share a stream.
    """
    if not 0 <= seed <= _MASK64:  # the range that --seed accepts
        raise ValueError(f"seed must lie in [0, 2^64): {seed}")
    bits = PCG64DXSM(SeedSequence(seed, spawn_key=(tag,)))
    return Generator(bits.advance(block << _BLOCK_SHIFT))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class EmpiricalSample:
    """Seeded draws of S_index / B_index.

    Block by block: the lattice values by ascending k, each repeated by its
    count, then the per-trial draws (draw_block).  The order carries no
    meaning; only the multiset of values does.
    """

    values: np.ndarray = field(compare=False)
    trials: int

    def __post_init__(self):
        if len(self.values) != self.trials:
            raise ValueError("sample length must equal the trial count")


@dataclass(frozen=True)
class KolmogorovEstimate:
    d_hat: float
    dkw_band: float

    def __post_init__(self):
        if not (0.0 <= self.d_hat <= 1.0):
            raise ValueError(f"d_hat must lie in [0, 1]: {self.d_hat}")


def map_blocks(trials: int, seed: int, per_block: Callable) -> list:
    """per_block(lo, count, index_rng, rng) for each block of trials, in block order.

    Block b holds the count trials from lo = b * _BLOCK_TRIALS on; index_rng
    and rng are its index stream and its summand stream.  per_block draws
    what it needs from them, and runs on the block's worker.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2^49]: {trials}")

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


_NO_VALUES, _NO_COUNTS = np.empty(0), np.empty(0, dtype=np.int64)


def _lattice_pvals(ks, pmf_rows):
    """The Binomial(k, 1/2) pmf rows of the ascending ks, right-aligned in one rectangle.

    numpy's multinomial takes one rectangle of rows and gives a row's last
    cell whatever its earlier binomials leave.  Each row therefore ends in
    the last column, and runs from the tails inward to a mode: position j
    holds h = j / 2 for even j and h = k - (j - 1) / 2 for odd j, both of
    pmf Binomial(k, 1/2)(j // 2).  Every conditional probability the draw
    uses is then a share of a mass still well above round-off.  The cells
    left of a row are 0, which numpy's multinomial skips without a draw.
    Each pmf value is built once, for h <= k / 2, and repeated into its two
    positions (one: an even k's middle cell).  pmf_rows keeps each k's row
    for the later blocks of the same call.
    """
    new = np.array([k for k in ks.tolist() if k not in pmf_rows], dtype=np.int64)
    if len(new):
        halves = new // 2 + 1
        ends = np.cumsum(halves)
        h = np.arange(ends[-1]) - np.repeat(ends - halves, halves)
        twice = np.full(ends[-1], 2)
        twice[ends - 1] = 1 + new % 2
        pmf = np.repeat(half_binomial_pmf(np.repeat(new, halves), h), twice)
        pmf_rows.update(zip(new.tolist(), np.split(pmf, np.cumsum(new + 1)[:-1])))
    width = int(ks[-1]) + 1
    pvals = np.zeros((len(ks), width))
    for row, k in zip(pvals, ks.tolist()):
        row[width - k - 1:] = pmf_rows[k]
    return pvals


def _lattice_split(ks, count):
    """The ascending lattice ks of one block, their trial counts, and the other trials' ks.

    A k is on the lattice when its trials outnumber its k + 1 cells; the ks
    are admitted by increasing k while their rectangle holds at most count
    cells.  A det index's one k (a scalar) is on the lattice with all count
    trials or off it with none, and builds no per-trial array.
    """
    if np.ndim(ks) == 0:
        if count > ks + 1:
            return np.array([ks]), np.array([count]), _NO_COUNTS
        return _NO_COUNTS, _NO_COUNTS, ks
    # no k >= count has more trials than cells: bin them together
    bins = ks if ks.max() < count else np.minimum(ks, count)
    trials_at = np.bincount(bins)
    lattice = np.flatnonzero(trials_at > np.arange(1, len(trials_at) + 1))
    lattice = lattice[np.arange(1, len(lattice) + 1) * (lattice + 1) <= count]
    if not len(lattice):
        return lattice, lattice, ks
    off = np.ones(len(trials_at), dtype=bool)
    off[lattice] = False
    return lattice, trials_at[lattice], ks[off[bins]]


def draw_block(
    family: SummandFamily,
    index_model: RandomIndexModel,
    count: int,
    index_rng: Generator,
    rng: Generator,
    pmf_rows: dict,
) -> tuple:
    """One block of count normalized random sums S_k / B_k as (values, counts, sums).

    Each trial's index k comes from index_rng and its summands from rng,
    normalized by the realized cumulative deviation B_k.  An index-free
    family draws one standard normal per trial and no index; every other
    family takes its ks from index_model.sample, which a det index answers
    with its n, one scalar k for every trial.  On a constant profile
    a Rademacher S_k takes only the k + 1 values 2h - k, so c_k i.i.d. draws
    of it matter only through their histogram, Multinomial(c_k,
    Binomial(k, 1/2)).  Every k whose c_k exceeds its k + 1 cells draws its
    histogram in one multinomial over the block's rows (_lattice_split,
    _lattice_pvals), and comes back as its occupied values with their
    counts, by ascending k; the rectangle of rows holds at most count
    cells, so the histogram draw takes O(block) memory, and so does building
    the rows.  The other trials, and every other family, come back as one
    draw per trial in sums.  pmf_rows caches the pmf rows across the blocks
    of one call.
    """
    if family.index_free:
        return _NO_VALUES, _NO_COUNTS, rng.standard_normal(count)
    ks = index_model.sample(index_rng, count)
    if not (isinstance(family.law, RademacherLaw) and family.profile.is_constant):
        return _NO_VALUES, _NO_COUNTS, family.batch_normalized_sums(rng, ks, count)
    lattice, trials, ks = _lattice_split(ks, count)
    values, counts = _NO_VALUES, _NO_COUNTS
    if len(lattice):
        pvals = _lattice_pvals(lattice, pmf_rows)
        hist = rng.multinomial(trials, pvals)
        row, col = np.nonzero(hist)
        k = lattice[row]
        j = col - (pvals.shape[1] - 1 - k)  # position within the row
        heads = np.where(j % 2 == 0, j // 2, k - j // 2)
        values, counts = (2 * heads - k) / np.sqrt(k), hist[row, col]
    return values, counts, family.batch_normalized_sums(rng, ks, count - int(np.sum(trials)))


def simulate(
    family: SummandFamily,
    index_model: RandomIndexModel,
    trials: int,
    seed: int,
) -> EmpiricalSample:
    """Draw `trials` normalized random sums S_k / B_k, block by block (draw_block)."""
    values = np.empty(max(trials, 0))  # map_blocks refuses trials < 1
    pmf_rows = {}

    def store(lo, count, index_rng, rng):
        cells, counts, sums = draw_block(family, index_model, count, index_rng, rng, pmf_rows)
        mid = lo + count - len(sums)
        values[lo:mid] = np.repeat(cells, counts)
        values[mid:lo + count] = sums

    map_blocks(trials, seed, store)
    return EmpiricalSample(values=values, trials=trials)


def sweep(family: SummandFamily, grid: Iterable, draw: Callable) -> Iterator:
    """(n, model, draw(model)) for each (n, model) of grid, in grid order.

    An index-free family's draws do not depend on the model, so it draws
    only at the first n and hands that draw to every later n; every model
    is still built, with its refusals.  The grid is read lazily, so a model
    lives no longer than its n.
    """
    drawn = None
    for i, (n, model) in enumerate(grid):
        if i == 0 or not family.index_free:
            drawn = draw(model)
        yield n, model, drawn


def kolmogorov_distance(sample: EmpiricalSample) -> KolmogorovEstimate:
    """Sup distance between the sample's empirical CDF and the standard normal.

    The band is the two-sided DKW radius sqrt(ln(2/(1-gamma)) / (2 m)) at
    confidence gamma = DKW_GAMMA.  Within a run of equal values the
    deviation peaks at its first and last rank, so Phi is evaluated once per
    distinct value: sums of discrete summands repeat values (rademacher at
    geometric n = 10 draws 792 distinct values in 1e5 trials).  Phi is the
    fused kernel's: against ECDF steps of 1/m, its absolute round-off
    (within 2^-52) is all that reaches d_hat.
    """
    m = sample.trials
    x = np.sort(sample.values)
    first = np.empty(m, dtype=bool)  # x[i] starts a run of equal values
    first[0] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], m)
    ref = norm_pdf_cdf_sf(x[starts])[1]
    d_hat = float(max(np.max(ends / m - ref), np.max(ref - starts / m)))
    band = math.sqrt(math.log(2.0 / (1.0 - DKW_GAMMA)) / (2.0 * m))
    return KolmogorovEstimate(d_hat=max(0.0, d_hat), dkw_band=band)


def cf_identity_check(
    family: SummandFamily, index_model: RandomIndexModel, t_grid
) -> np.ndarray:
    """Verify that mixing exp(-t^2/(2 B_k^2) * B_k^2) over the index is Gaussian.

    Returns |mixed - e^(-t^2/2)| at each t of t_grid, in its order, as a
    float64 array; the maximum and the verdict against cli.CF_TOLERANCE are
    the caller's.  The per-index factor is evaluated through the realized
    B_k^2 so the identity's cancellation is exercised numerically.  In exact
    arithmetic the deviation is the truncation tail mass times e^(-t^2/2),
    but the float sum of the window's terms adds its own round-off, so the
    deviation can exceed the tail mass: a Poisson index at n = 1e6 reads 9.85656e-13
    at t = 0 against a tail mass of 9.85580e-13.  That still passes the
    1e-12 gate (cli.CF_TOLERANCE) with ~1.4e-14 to spare.
    Only the sigma profile is read: the identity is about the matched normal
    sequence N(0, sigma_j^2), whatever the family's summand law.  B_k^2 >= 1
    (sigma_1 = 1 for every family); one past 1e300 (an exploding profile) is
    not formed: its factor is exp(-t^2/2) directly.  Where t^2 / (2 B_k^2)
    overflows, t^2 / 2 is past ~1.8e8 and both the factor and e^(-t^2/2)
    are 0.
    """
    prof = family.profile
    logb2 = prof.log_b_squared(index_model.support.astype(float))
    b2 = np.exp(np.minimum(logb2, 700.0))
    scaled = b2 < 1e300
    devs = []
    for t in t_grid:
        with np.errstate(over="ignore"):
            ratio = np.where(scaled, (t * t / (2.0 * b2)) * b2, 0.5 * t * t)
        terms = np.exp(-ratio)
        mixed = index_model.expect_values(terms, abs_bound=1.0).value
        devs.append(abs(mixed - math.exp(-0.5 * t * t)))
    return np.array(devs, dtype=float)
