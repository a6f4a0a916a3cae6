"""Smooth-function metric and convergence-rate audits.

The metric |E f(S/B) - E f(Z)| is estimated by Monte Carlo against the exact
E f(Z) each test function carries; rate audits compare it per n with the
index-averaged bound shapes E[B^-(1+alpha)] (large-O) and E[B^-1] (small-o).
The large-O multiplicative constant is fitted on the first half of the grid
from the points above the Monte Carlo noise floor (4 standard errors), never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conditions import random_feller, random_rotar
from .families import SummandFamily
from .indices import RandomIndexModel
from .montecarlo import kolmogorov_distance, map_blocks, simulate


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
    x = np.asarray(x, dtype=float)
    return x / (1.0 + x * x)


def _clamp_prime(x):
    x = np.asarray(x, dtype=float)
    return (1.0 - x * x) / (1.0 + x * x) ** 2


def _bump(x):
    x = np.asarray(x, dtype=float)
    return _BUMP_AMP * np.exp(-x * x)


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
    is held.  The stderr is the population standard deviation / sqrt(trials).
    """
    def moments(lo, sums):
        fv = f.evaluate(sums)
        mean = float(np.mean(fv))
        d = fv - mean
        return len(d), mean, float(np.sum(np.square(d, out=d)))  # no BLAS

    count, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in map_blocks(family, index_model, trials, seed, moments):
        total = count + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
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
    flagged: bool


@dataclass(frozen=True)
class RateCurve:
    points: tuple
    bound_order: float

    @property
    def all_within_bound(self) -> bool:
        return not any(p.flagged for p in self.points)


# Smallest shape held to full precision: the terms that underflow lose at most
# 2^-1022 in all (their probabilities sum to at most 1), one ulp of 2^-970.
_MIN_SHAPE = 2.0**-970


def _loglog_order(ns, ys):
    """Least-squares slope of log ys against log ns over the positive ys."""
    ns = np.asarray(ns, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > 0.0
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(ns[keep]), np.log(ys[keep]), 1)[0])


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


def large_o_audit(
    family: SummandFamily,
    index_at: Callable[[int], RandomIndexModel],
    f: TestFunction,
    n_grid,
    trials: int,
    seed: int,
) -> RateCurve:
    """Compare the metric per n against the fitted O(E[B^-(1+alpha)]) shape.

    The multiplicative constant is least-squares fitted on the first half of
    the grid using only points above the noise floor; with no such points it
    defaults to 1 so the bound column still carries the theoretical shape.
    """
    if f.lipschitz is None:
        raise ValueError("large-O audit requires a Lipschitz test function")
    alpha, _ = f.lipschitz
    ns = [int(n) for n in n_grid]
    metrics, stderrs, shapes = [], [], []
    for n in ns:
        model = index_at(n)
        sm = smooth_metric(family, model, f, trials, seed)
        metrics.append(sm.metric)
        stderrs.append(sm.mc_stderr)
        shapes.append(_mean_inv_b_power(family, model, 1.0 + alpha).value)
    metrics = np.array(metrics)
    stderrs = np.array(stderrs)
    shapes = np.array(shapes)
    eligible = metrics > 4.0 * stderrs
    half = max(1, (len(ns) + 1) // 2)
    fit_mask = eligible.copy()
    fit_mask[half:] = False
    if fit_mask.any():
        b = shapes[fit_mask]
        constant = float(np.dot(metrics[fit_mask], b) / np.dot(b, b))
        constant = max(constant, 0.0) or 1.0
    else:
        constant = 1.0
    bounds = constant * shapes
    flags = metrics > bounds + 4.0 * stderrs
    points = tuple(
        RatePoint(
            n=ns[i], metric=float(metrics[i]), mc_stderr=float(stderrs[i]),
            bound=float(bounds[i]), flagged=bool(flags[i]),
        )
        for i in range(len(ns))
    )
    return RateCurve(points=points, bound_order=_loglog_order(ns, bounds))


@dataclass(frozen=True)
class SmallOPoint:
    n: int
    metric: float
    mc_stderr: float
    inv_b_expectation: float
    ratio: float
    ratio_stderr: float


@dataclass(frozen=True)
class SmallOCurve:
    points: tuple

    def ratios_decreasing(self, z: float = 4.0) -> bool:
        """Strict decrease of the ratio column beyond z propagated stderrs."""
        for a, b in zip(self.points[:-1], self.points[1:]):
            gap = a.ratio - b.ratio
            noise = math.hypot(a.ratio_stderr, b.ratio_stderr)
            if not gap > z * noise:
                return False
        return True

    def statistically_zero(self, z: float = 4.0) -> bool:
        return all(p.metric <= z * p.mc_stderr for p in self.points)


def small_o_audit(
    family: SummandFamily,
    index_at: Callable[[int], RandomIndexModel],
    f: TestFunction,
    n_grid,
    trials: int,
    seed: int,
) -> SmallOCurve:
    """Track r(n) = metric / E[B^-1], o(1) under the randomized Rotar condition.

    Restricted to test functions with derivative sup norm at least 1 (the
    normalization the o(E[B^-1]) argument hinges on).
    """
    if f.derivative_sup_norm < 1.0 - 1e-12:
        raise ValueError(
            "small-o audit requires derivative sup norm >= 1 "
            f"(got {f.derivative_sup_norm})"
        )
    points = []
    for n in n_grid:
        model = index_at(int(n))
        sm = smooth_metric(family, model, f, trials, seed)
        inv_b = _mean_inv_b_power(family, model, 1.0).value
        points.append(
            SmallOPoint(
                n=int(n), metric=sm.metric, mc_stderr=sm.mc_stderr,
                inv_b_expectation=inv_b,
                ratio=sm.metric / inv_b,
                ratio_stderr=sm.mc_stderr / inv_b,
            )
        )
    return SmallOCurve(points=tuple(points))


def empirical_rotar_constant(
    family: SummandFamily,
    index_model: RandomIndexModel,
    epsilon: float,
    trials: int,
    seed: int,
) -> float:
    """Ratio estimate of the unspecified constant linking the comparison
    functional to the CLT distance plus the maximal variance share.

    Purely informational: reported by the audit, never asserted.
    """
    rr = random_rotar(family, index_model, epsilon)
    rf = random_feller(family, index_model)
    d = kolmogorov_distance(simulate(family, index_model, trials, seed))
    denom = d.d_hat + rf.value
    return rr.value / denom if denom > 0 else math.inf
