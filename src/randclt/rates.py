"""Smooth-function metric and convergence-rate audits.

The metric |E f(S/B) - E f(Z)| is estimated by Monte Carlo against the exact
E f(Z) each test function carries; rate_audit compares it per n with the
index-averaged bound shape of one of two modes, E[B^-(1+alpha)] (large-O) or
E[B^-1] (small-o), over a grid of (n, index model) pairs walked by
montecarlo.sweep, and returns one RatePoint per n.  The large-O
multiplicative constant is fitted on the first half of the grid from the
points above the Monte Carlo noise floor (4 standard errors), never asserted.
Neither mode's order holds where the first Edgeworth term, on a constant
profile (kappa_3 / 6) E f'''(Z) / sqrt(k), is nonzero (a skewed law and an f
that is not even): the metric then falls like E[B^-1] itself (rate_audit
quotes the measured ratios).  The audit gives no verdict: the 4-stderr
verdicts (flagged points, bound order, decreasing ratios, statistical zero)
and each test function's derivative, against which its norms are verified,
are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .families import SummandFamily
from .indices import RandomIndexModel
from .montecarlo import draw_block, map_blocks, sweep


@dataclass(frozen=True)
class TestFunction:
    """A bounded C^1 test function with the norms the audits read.

    sup_norm is sup|f| and derivative_sup_norm sup|f'|.  normal_mean is the
    exact E f(Z) for Z ~ N(0, 1).  lipschitz, when present, is (alpha, K)
    with the modulus of the derivative satisfying omega(f'; h) <= K * h^alpha.
    The tests verify every norm against f' (tests/oracles.py).
    """

    id: str
    evaluate: Callable
    sup_norm: float
    derivative_sup_norm: float
    normal_mean: float
    lipschitz: Optional[tuple] = None


_BUMP_AMP = math.sqrt(math.e / 2.0)  # makes sup|f'| exactly 1
_CLAMP_LIP = (3.0 + 2.0 * math.sqrt(2.0)) / 4.0  # max|f''| of x/(1+x^2)


def _clamp(x):
    # x / (1 + x^2) with one temporary; x itself is never written
    x = np.asarray(x, dtype=float)
    d = np.multiply(x, x, out=np.empty_like(x))
    d += 1.0
    return np.divide(x, d, out=d)


def _bump(x):
    # _BUMP_AMP * exp(-x * x) with one temporary; x itself is never written
    x = np.asarray(x, dtype=float)
    d = np.negative(x, out=np.empty_like(x))
    d *= x
    np.exp(d, out=d)
    d *= _BUMP_AMP
    return d


BUILTIN_TEST_FUNCTIONS = {
    "sin": TestFunction(
        id="sin", evaluate=np.sin,
        sup_norm=1.0, derivative_sup_norm=1.0, normal_mean=0.0,
        lipschitz=(1.0, 1.0),
    ),
    "clamp": TestFunction(
        id="clamp", evaluate=_clamp,
        sup_norm=0.5, derivative_sup_norm=1.0, normal_mean=0.0,
        lipschitz=(1.0, _CLAMP_LIP),
    ),
    "bump": TestFunction(
        id="bump", evaluate=_bump,
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
    is held.  Each block is simulate's draw_block: f is evaluated once per
    occupied lattice value and weighed by its count, and once per trial of
    the per-trial draws, whose f values are centred and squared in place,
    so a block allocates no other trial-length array.  An index-free family's metric
    does not depend on index_model (rate_audit's sweep draws it once for all
    n).  The stderr is the population standard deviation / sqrt(trials).
    """
    pmf_rows = {}

    def moments(lo, count, index_rng, rng):
        values, counts, sums = draw_block(family, index_model, count, index_rng, rng, pmf_rows)
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
# Rate audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatePoint:
    """One row of the rate audit: the metric at n, its stderr and the bound."""

    n: int
    metric: float
    mc_stderr: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.metric / self.bound if self.bound > 0 else math.inf


# Smallest shape held to full precision: the terms that underflow lose at most
# 2^-1022 in all (their probabilities sum to at most 1), one ulp of 2^-970.
_MIN_SHAPE = 2.0**-970
# log of the largest term bound held: 2^1023, half of float64's largest, so a
# window term an ulp above B_1^-power in its log cannot overflow either.
_MAX_LOG_SHAPE = 1023 * math.log(2.0)


def _mean_inv_b_power(family, model, power):
    """E[B_index^-power] with certified truncation.

    Refused below _MIN_SHAPE: the float64 terms underflow there (an
    exploding profile at large n), and a 0.0 bound would make every metric
    above the noise floor read as a violation.  Refused where B_1^-power,
    the bound on every term (B_k grows with k), is above 2^1023: the terms
    overflow float64 there (a tiny sigma).
    """
    log_top = -0.5 * power * float(family.profile.log_b_squared(1))
    if log_top > _MAX_LOG_SHAPE:
        raise ValueError(
            f"E[B^-{power:g}] at n={model.n} is past the float64 range: its term "
            f"bound B_1^-{power:g} is e^{log_top:.6g}, above 2^1023"
        )
    logb2 = family.profile.log_b_squared(model.support.astype(float))
    vals = np.exp(-0.5 * power * logb2)
    est = model.expect_values(vals, abs_bound=math.exp(log_top))
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
    grid: Iterable,
    f: TestFunction,
    trials: int,
    seed: int,
    mode: str,
) -> tuple:
    """A RatePoint per (n, model) of grid: the metric and mode's index-averaged bound shape.

    large-o: constant * E[B^-(1+alpha)] for a test function whose derivative
    has modulus omega(f'; h) <= K h^alpha.  The constant is fitted on the
    first half of the grid from the points above the noise floor, so the
    bound column still carries the theoretical shape when there are none.
    small-o: E[B^-1] itself (constant 1), so the ratio column is
    metric / E[B^-1]; restricted to derivative sup norm at least 1, the
    normalization the o(E[B^-1]) argument hinges on.

    Under the randomized Rotar condition that ratio is o(1) only where the
    first Edgeworth term (kappa_3 / 6) E f'''(Z) / sqrt(k) vanishes: a
    symmetric law (kappa_3 = 0), or an even f such as bump.  On expcentered
    (kappa_3 = 2) it stays near (1/3) |E f'''(Z)|: measured 0.178, 0.194
    and 0.187 for sin at geometric n = 10, 100 and 1000, and 0.120 to 0.125
    for clamp at det n = 4 to 4096; and the large-O ratio doubles per 4x n
    (clamp: 0.94, 1.87, 3.68, 7.1 and 13.1 at det n = 4 to 1024).

    The grid is walked by montecarlo.sweep: each n takes its metric, then
    its bound shape, so a refusal stops the audit at the first n that makes
    one.  An index-free family's metric is drawn at the first n only and
    reused for every n; each n still has its own index model and bound
    shape, with their refusals.
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
    ns, metrics, shapes = [], [], []
    for n, model, metric in sweep(
        family, grid, lambda model: smooth_metric(family, model, f, trials, seed)
    ):
        ns.append(n)
        metrics.append(metric)
        shapes.append(_mean_inv_b_power(family, model, power).value)
    constant = _fitted_constant(metrics, shapes) if mode == "large-o" else 1.0
    return tuple(
        RatePoint(n=n, metric=m.metric, mc_stderr=m.mc_stderr, bound=constant * s)
        for n, m, s in zip(ns, metrics, shapes)
    )
