"""Smooth-function metric and convergence-rate audits.

The metric |E f(S/B) - E f(Z)| is estimated by Monte Carlo against the exact
E f(Z) each test function carries; rate audits compare it per n with the
index-averaged bound shape of one of two modes, E[B^-(1+alpha)] (large-O) or
E[B^-1] (small-o), in one rate audit.  The large-O multiplicative constant is
fitted on the first half of the grid from the points above the Monte Carlo
noise floor (4 standard errors), never asserted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conditions import ImplicationAudit
from .families import RademacherLaw, SummandFamily, half_binomial_pmf
from .indices import Deterministic, RandomIndexModel
from .montecarlo import draw_sums, map_blocks


@dataclass(frozen=True)
class TestFunction:
    """A bounded C^1 test function with verified norms.

    normal_mean is the exact E f(Z) for Z ~ N(0, 1).  lipschitz, when
    present, is (alpha, K) with the modulus of the derivative satisfying
    omega(f'; h) <= K * h^alpha.
    """

    id: str
    evaluate: Callable
    derivative: Callable
    sup_norm: float
    derivative_sup_norm: float
    normal_mean: float
    lipschitz: Optional[tuple] = None


_BUMP_AMP = math.sqrt(math.e / 2.0)  # makes sup|f'| exactly 1
_CLAMP_LIP = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0  # max|f''| of x/(1+x^2)


def _sin(x):
    return np.sin(x)


def _cos(x):
    return np.cos(x)


def _clamp(x):
    # x / (1 + x^2) with one temporary; x itself is never written
    x = np.asarray(x, dtype=float)
    d = np.multiply(x, x, out=np.empty_like(x))
    d += 1.0
    return np.divide(x, d, out=d)


def _clamp_prime(x):
    x = np.asarray(x, dtype=float)
    return (1.0 - x * x) / (1.0 + x * x) ** 2


def _bump(x):
    # _BUMP_AMP * exp(-x * x) with one temporary; x itself is never written
    x = np.asarray(x, dtype=float)
    d = np.negative(x, out=np.empty_like(x))
    d *= x
    np.exp(d, out=d)
    d *= _BUMP_AMP
    return d


def _bump_prime(x):
    x = np.asarray(x, dtype=float)
    return -2.0 * _BUMP_AMP * x * np.exp(-x * x)


BUILTIN_TEST_FUNCTIONS = {
    "sin": TestFunction(
        id="sin", evaluate=_sin, derivative=_cos,
        sup_norm=1.0, derivative_sup_norm=1.0, normal_mean=0.0,
        lipschitz=(1.0, 1.0),
    ),
    "clamp": TestFunction(
        id="clamp", evaluate=_clamp, derivative=_clamp_prime,
        sup_norm=0.5, derivative_sup_norm=1.0, normal_mean=0.0,
        lipschitz=(1.0, _CLAMP_LIP),
    ),
    "bump": TestFunction(
        id="bump", evaluate=_bump, derivative=_bump_prime,
        sup_norm=_BUMP_AMP, derivative_sup_norm=1.0,
        normal_mean=_BUMP_AMP / math.sqrt(3.0),  # E exp(-Z^2) = 1/sqrt(3)
        lipschitz=(1.0, 2.0 * _BUMP_AMP),
    ),
}


def make_test_function(fn_id: str) -> TestFunction:
    try:
        return BUILTIN_TEST_FUNCTIONS[fn_id]
    except KeyError:
        raise ValueError(
            f"unknown test function {fn_id!r}; built-ins: "
            f"{sorted(BUILTIN_TEST_FUNCTIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# Smooth-function metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMetric:
    metric: float
    mc_stderr: float


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
    pmf_rows keeps each k's row for the later blocks of the same call.
    """
    new = np.array([k for k in ks.tolist() if k not in pmf_rows], dtype=np.int64)
    if len(new):
        widths = new + 1
        ends = np.cumsum(widths)
        pos = np.arange(ends[-1]) - np.repeat(ends - widths, widths)
        pmf = half_binomial_pmf(np.repeat(new, widths), pos // 2)
        pmf_rows.update(zip(new.tolist(), np.split(pmf, ends[:-1])))
    width = int(ks[-1]) + 1
    pvals = np.zeros((len(ks), width))
    for row, k in zip(pvals, ks.tolist()):
        row[width - k - 1:] = pmf_rows[k]
    return pvals


def _lattice_split(ks, count):
    """The ascending lattice ks of one block, their trial counts, and the other trials' ks.

    A k is on the lattice when its trials outnumber its k + 1 cells; the ks
    are admitted by increasing k while their rectangle holds at most count
    cells.
    """
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


def _lattice_draws(family, index_model, count, index_rng, rng, pmf_rows):
    """One block of S_k / B_k as (lattice values, their counts, per-trial draws).

    On a constant profile a Rademacher S_k takes only the k + 1 values
    2h - k, so c_k i.i.d. draws of it matter only through their histogram,
    which is Multinomial(c_k, Binomial(k, 1/2)).  Every k whose c_k exceeds
    its k + 1 cells draws its histogram in one multinomial over the block's
    rows (_lattice_split, _lattice_pvals); the other trials, and every other
    family, draw per trial as draw_sums does.  The rectangle of rows holds
    at most count cells, so the histogram draw takes O(block) memory, and so
    does building the rows.  A det index has one k, so its split is all or
    nothing and takes no per-trial array: one row of all count trials, or
    draw_sums' scalar shape.
    """
    det = isinstance(index_model, Deterministic)
    lattice_family = isinstance(family.law, RademacherLaw) and family.profile.is_constant
    if not lattice_family or (det and count <= index_model.n + 1):
        return _NO_VALUES, _NO_COUNTS, draw_sums(family, index_model, count, index_rng, rng)
    if det:
        lattice, trials, rest = np.array([index_model.n]), np.array([count]), _NO_COUNTS
    else:
        lattice, trials, rest = _lattice_split(index_model.sample(index_rng, count), count)
    values, counts = _NO_VALUES, _NO_COUNTS
    if len(lattice):
        pvals = _lattice_pvals(lattice, pmf_rows)
        hist = rng.multinomial(trials, pvals)
        row, col = np.nonzero(hist)
        k = lattice[row]
        j = col - (pvals.shape[1] - 1 - k)  # position within the row
        heads = np.where(j % 2 == 0, j // 2, k - j // 2)
        values, counts = (2 * heads - k) / np.sqrt(k), hist[row, col]
    return values, counts, family.batch_normalized_sums(rng, rest)


def _merged(a, b):
    """(count, mean, M2) of two parts by the pairwise update of Chan, Golub & LeVeque (1983)."""
    count, mean, m2 = a
    n_b, mean_b, m2_b = b
    total = count + n_b
    delta = mean_b - mean
    return (
        total,
        mean + delta * n_b / total,
        m2 + (m2_b + delta * delta * count * n_b / total),
    )


def smooth_metric(
    family: SummandFamily,
    index_model: RandomIndexModel,
    f: TestFunction,
    trials: int,
    seed: int,
) -> SmoothMetric:
    """|MC average of f over normalized random sums - E f(Z)| with its stderr.

    Each block reduces its f values to (count, mean, sum of squared
    deviations) on its worker, and the blocks merge in block order by the
    pairwise update of Chan, Golub & LeVeque (1983); no trial-length array
    is held.  A Rademacher family on a constant profile draws the trials
    whose k repeats more often than S_k has values as one lattice histogram
    per block (_lattice_draws), evaluates f once per occupied value, and
    weighs it by its count; its other trials, and every other family, draw
    and evaluate f per trial, as simulate draws them.  A block holds its
    sums and f's values and centres and squares the latter in place, so it
    allocates no other trial-length array.  An index-free family's metric
    does not depend on index_model (rate_audit draws it once for all n).
    The stderr is the population standard deviation / sqrt(trials).
    """
    pmf_rows = {}

    def moments(lo, count, index_rng, rng):
        values, counts, sums = _lattice_draws(
            family, index_model, count, index_rng, rng, pmf_rows
        )
        part = None
        if len(sums):
            fv = f.evaluate(sums)  # centred and squared in place
            mean = float(np.mean(fv))
            fv -= mean
            part = len(fv), mean, float(np.sum(np.square(fv, out=fv)))  # no BLAS
        if len(values):
            fv = f.evaluate(values)
            n = int(np.sum(counts))
            mean = float(np.sum(counts * fv) / n)
            fv -= mean
            cells = n, mean, float(np.sum(counts * np.square(fv, out=fv)))
            part = cells if part is None else _merged(cells, part)
        return part

    count, mean, m2 = functools.reduce(
        _merged, map_blocks(trials, seed, moments), (0, 0.0, 0.0)
    )
    return SmoothMetric(
        metric=abs(mean - f.normal_mean),
        mc_stderr=math.sqrt(m2 / count) / math.sqrt(count),
    )


# ---------------------------------------------------------------------------
# Rate curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatePoint:
    n: int
    metric: float
    mc_stderr: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.metric / self.bound if self.bound > 0 else math.inf

    @property
    def flagged(self) -> bool:
        return self.metric > self.bound + 4.0 * self.mc_stderr


@dataclass(frozen=True)
class RateCurve:
    points: tuple

    @property
    def all_within_bound(self) -> bool:
        return not any(p.flagged for p in self.points)

    @property
    def bound_order(self) -> float:
        """Least-squares slope of log bound against log n over the positive bounds."""
        ns = np.array([p.n for p in self.points], dtype=float)
        ys = np.array([p.bound for p in self.points])
        keep = ys > 0.0
        if keep.sum() < 2:
            return math.nan
        return float(np.polyfit(np.log(ns[keep]), np.log(ys[keep]), 1)[0])

    def ratios_decreasing(self, z: float = 4.0) -> bool:
        """Strict decrease of the ratio column beyond z propagated stderrs."""
        for a, b in zip(self.points[:-1], self.points[1:]):
            noise = math.hypot(a.mc_stderr / a.bound, b.mc_stderr / b.bound)
            if not a.ratio - b.ratio > z * noise:
                return False
        return True

    def statistically_zero(self, z: float = 4.0) -> bool:
        return all(p.metric <= z * p.mc_stderr for p in self.points)


# Smallest shape held to full precision: the terms that underflow lose at most
# 2^-1022 in all (their probabilities sum to at most 1), one ulp of 2^-970.
_MIN_SHAPE = 2.0**-970


def _mean_inv_b_power(family, model, power):
    """E[B_index^-power] with certified truncation.

    Refused below _MIN_SHAPE: the float64 terms underflow there (an
    exploding profile at large n), and a 0.0 bound would make every metric
    above the noise floor read as a violation.
    """
    logb2 = family.profile.log_b_squared(model.support.astype(float))
    vals = np.exp(-0.5 * power * logb2)
    abs_bound = math.exp(-0.5 * power * float(family.profile.log_b_squared(1)))
    est = model.expect_values(vals, abs_bound=abs_bound)
    if not est.value >= _MIN_SHAPE:
        raise ValueError(
            f"E[B^-{power:g}] at n={model.n} is {est.value!r}, below 2^-970: "
            "the bound shape underflows float64"
        )
    return est


def _fitted_constant(metrics, shapes):
    """Least-squares constant from the first half of the grid above the noise
    floor; 1 where no point qualifies or the fit is not positive."""
    y = np.array([m.metric for m in metrics])
    b = np.array(shapes)
    keep = y > 4.0 * np.array([m.mc_stderr for m in metrics])
    keep[max(1, (len(y) + 1) // 2):] = False
    if not keep.any():
        return 1.0
    y, b = y[keep], b[keep]
    return max(float(np.dot(y, b) / np.dot(b, b)), 0.0) or 1.0


def rate_audit(
    family: SummandFamily,
    index_at: Callable[[int], RandomIndexModel],
    f: TestFunction,
    n_grid,
    trials: int,
    seed: int,
    mode: str,
) -> RateCurve:
    """Compare the metric per n with the index-averaged bound shape of mode.

    large-o: constant * E[B^-(1+alpha)] for a test function whose derivative
    has modulus omega(f'; h) <= K h^alpha.  The constant is fitted on the
    first half of the grid from the points above the noise floor, so the
    bound column still carries the theoretical shape when there are none.
    small-o: E[B^-1] itself (constant 1), so the ratio column is
    metric / E[B^-1], which is o(1) under the randomized Rotar condition;
    restricted to derivative sup norm at least 1, the normalization the
    o(E[B^-1]) argument hinges on.

    An index-free family's sums are N(0, 1) draws that no n changes, so its
    metric is drawn once, at the first n, and reused for every n; each n
    still builds its own index model and bound shape, with their refusals.
    """
    if mode == "large-o":
        if f.lipschitz is None:
            raise ValueError("large-O audit requires a Lipschitz test function")
        power = 1.0 + f.lipschitz[0]
    elif mode == "small-o":
        if f.derivative_sup_norm < 1.0 - 1e-12:
            raise ValueError(
                "small-o audit requires derivative sup norm >= 1 "
                f"(got {f.derivative_sup_norm})"
            )
        power = 1.0
    else:
        raise ValueError(f"unknown rate mode {mode!r}; modes: large-o, small-o")
    ns = [int(n) for n in n_grid]
    metrics, shapes, metric = [], [], None
    for n in ns:
        model = index_at(n)
        if metric is None or not family.index_free:
            metric = smooth_metric(family, model, f, trials, seed)
        metrics.append(metric)
        shapes.append(_mean_inv_b_power(family, model, power).value)
    constant = _fitted_constant(metrics, shapes) if mode == "large-o" else 1.0
    return RateCurve(points=tuple(
        RatePoint(n=n, metric=m.metric, mc_stderr=m.mc_stderr, bound=constant * s)
        for n, m, s in zip(ns, metrics, shapes)
    ))


def empirical_rotar_constant(audit: ImplicationAudit, d_hat: float) -> float:
    """Ratio estimate of the unspecified constant linking the comparison
    functional to the CLT distance plus the maximal variance share.

    The randomized Rotar and Feller values are the left-hand sides of the
    audit's checks (e) and (d); d_hat is the Kolmogorov distance of one
    simulation at the audit's index model.  Purely informational: reported
    by the audit, never asserted.
    """
    lhs = {c.name: c.lhs for c in audit.checks}
    denom = d_hat + lhs["random_feller_le_eps2_plus_random_lindeberg"]
    rotar = lhs["random_rotar_le_random_lindeberg_plus_normal_tail"]
    return rotar / denom if denom > 0 else math.inf
