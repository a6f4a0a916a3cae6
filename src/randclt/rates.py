"""Smooth-function metric, modulus of continuity, and convergence-rate audits.

The metric |E f(S/B) - E f(Z)| is estimated by Monte Carlo against the exact
E f(Z) each test function carries; rate audits compare it per n with the
index-averaged bound shapes E[B^-(1+alpha)] (large-O) and E[B^-1] (small-o).
Points whose metric is below the Monte Carlo noise floor (4 standard errors)
are excluded from order fitting, and unknown multiplicative constants are
fitted on the first half of the grid, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conditions import random_rotar
from .families import SummandFamily
from .gaussian import SQRT_2_OVER_PI
from .indices import RandomIndexModel
from .montecarlo import _index_factory, simulate


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
# Modulus of continuity
# ---------------------------------------------------------------------------


def modulus_of_continuity(
    f: Callable, eps: float, halfwidth: float = 8.0, refine_rounds: int = 4
) -> float:
    """sup over |x - y| < eps of |f(x) - f(y)| on [-halfwidth, halfwidth].

    Grid search over offsets h < eps and base points x, refined around the
    maximizing pair; the reported value is a certified lower bound that is
    accurate to ~1e-9 for smooth f.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    h_top = eps * (1.0 - 1e-12)
    hs = np.linspace(h_top / 8.0, h_top, 16)
    lo, hi = -halfwidth, halfwidth
    best = (0.0, 0.0, h_top)  # (value, x, h)
    xs = np.linspace(lo, hi, 4096)
    for h in hs:
        grid = xs[xs + h <= hi]
        vals = np.abs(np.asarray(f(grid + h)) - np.asarray(f(grid)))
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), float(grid[i]), float(h))
    span_x = (hi - lo) / 4096.0
    span_h = hs[1] - hs[0]
    for _ in range(refine_rounds):
        _, x0, h0 = best
        xs_l = np.clip(np.linspace(x0 - span_x, x0 + span_x, 33), lo, hi)
        hs_l = np.clip(np.linspace(h0 - span_h, h0 + span_h, 17), 1e-300, h_top)
        for h in hs_l:
            grid = xs_l[xs_l + h <= hi]
            if not len(grid):
                continue
            vals = np.abs(np.asarray(f(grid + h)) - np.asarray(f(grid)))
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), float(grid[i]), float(h))
        span_x /= 12.0
        span_h /= 6.0
    return best[0]


# ---------------------------------------------------------------------------
# Smooth-function metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMetric:
    metric: float
    mc_stderr: float
    mc_mean: float
    normal_expectation: float
    sample_mean: float
    sample_variance: float


def smooth_metric(
    family: SummandFamily,
    index_model: RandomIndexModel,
    f: TestFunction,
    trials: int,
    seed: int,
) -> SmoothMetric:
    """|MC average of f over normalized random sums - E f(Z)| with its stderr."""
    sample = simulate(family, index_model, trials, seed)
    fv = np.asarray(f.evaluate(sample.values), dtype=float)
    mc_mean = float(np.mean(fv))
    stderr = float(np.std(fv) / math.sqrt(trials))
    exact = f.normal_mean
    return SmoothMetric(
        metric=abs(mc_mean - exact),
        mc_stderr=stderr,
        mc_mean=mc_mean,
        normal_expectation=exact,
        sample_mean=sample.mean(),
        sample_variance=sample.variance(),
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
    bound_shape: float
    m1_prefix: float
    flagged: bool


@dataclass(frozen=True)
class RateCurve:
    points: tuple
    fitted_order: float
    fit_residual: float
    bound_order: float
    constant: float

    @property
    def all_within_bound(self) -> bool:
        return not any(p.flagged for p in self.points)


def _loglog_order(ns, ys):
    ns = np.asarray(ns, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > 0.0
    if keep.sum() < 2:
        return math.nan, math.nan
    coeffs, res = np.polyfit(np.log(ns[keep]), np.log(ys[keep]), 1, full=True)[:2]
    residual = math.sqrt(res[0] / keep.sum()) if len(res) else 0.0
    return float(coeffs[0]), residual


def _m_prefixes(family, n):
    prof = family.profile
    sum_sigma = math.exp(float(prof.log_sum_sigma_pow(n, 1.0)))
    with np.errstate(over="ignore"):
        sum_var = float(np.exp(np.minimum(prof.log_b_squared(n), 710.0)))
    m_abs = family.law.abs_moment(1.0) + SQRT_2_OVER_PI
    return m_abs * sum_sigma + 2.0 * sum_var, m_abs * sum_sigma


def _bound_shape(family, model, power):
    """E[B_index^-power] with certified truncation."""
    logb2 = family.profile.log_b_squared(model.support.astype(float))
    vals = np.exp(-0.5 * power * logb2)
    abs_bound = math.exp(-0.5 * power * float(family.profile.log_b_squared(1)))
    return model.expect_values(vals, abs_bound=abs_bound)


def large_o_audit(
    family: SummandFamily,
    index_spec,
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
    factory = _index_factory(index_spec)
    ns = [int(n) for n in n_grid]
    metrics, stderrs, shapes, m1s = [], [], [], []
    for n in ns:
        model = factory(n)
        sm = smooth_metric(family, model, f, trials, seed)
        metrics.append(sm.metric)
        stderrs.append(sm.mc_stderr)
        shapes.append(_bound_shape(family, model, 1.0 + alpha).value)
        m1s.append(_m_prefixes(family, n)[0])
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
    fitted_order, residual = _loglog_order(
        np.array(ns)[eligible], metrics[eligible]
    )
    bound_order, _ = _loglog_order(ns, bounds)
    points = tuple(
        RatePoint(
            n=ns[i], metric=float(metrics[i]), mc_stderr=float(stderrs[i]),
            bound=float(bounds[i]), bound_shape=float(shapes[i]),
            m1_prefix=float(m1s[i]), flagged=bool(flags[i]),
        )
        for i in range(len(ns))
    )
    return RateCurve(
        points=points, fitted_order=fitted_order, fit_residual=residual,
        bound_order=bound_order, constant=constant,
    )


@dataclass(frozen=True)
class SmallOPoint:
    n: int
    metric: float
    mc_stderr: float
    inv_b_expectation: float
    ratio: float
    ratio_stderr: float
    majorants: dict
    m2_prefix: float


@dataclass(frozen=True)
class SmallOCurve:
    points: tuple
    epsilon_grid: tuple

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
    index_spec,
    f: TestFunction,
    n_grid,
    epsilon_grid,
    trials: int,
    seed: int,
) -> SmallOCurve:
    """Track r(n) = metric / E[B^-1] against the majorants eps + random rotar.

    Restricted to test functions with derivative sup norm at least 1 (the
    normalization the o(E[B^-1]) argument hinges on).
    """
    if f.derivative_sup_norm < 1.0 - 1e-12:
        raise ValueError(
            "small-o audit requires derivative sup norm >= 1 "
            f"(got {f.derivative_sup_norm})"
        )
    factory = _index_factory(index_spec)
    points = []
    for n in n_grid:
        n = int(n)
        model = factory(n)
        sm = smooth_metric(family, model, f, trials, seed)
        inv_b = _bound_shape(family, model, 1.0).value
        majorants = {
            float(eps): float(eps) + random_rotar(family, model, float(eps)).value
            for eps in epsilon_grid
        }
        points.append(
            SmallOPoint(
                n=n, metric=sm.metric, mc_stderr=sm.mc_stderr,
                inv_b_expectation=inv_b,
                ratio=sm.metric / inv_b,
                ratio_stderr=sm.mc_stderr / inv_b,
                majorants=majorants,
                m2_prefix=_m_prefixes(family, n)[1],
            )
        )
    return SmallOCurve(points=tuple(points), epsilon_grid=tuple(float(e) for e in epsilon_grid))


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
    from .conditions import random_feller
    from .montecarlo import kolmogorov_distance

    rr = random_rotar(family, index_model, epsilon)
    rf = random_feller(family, index_model)
    d = kolmogorov_distance(simulate(family, index_model, trials, seed))
    denom = d.d_hat + rf.value
    return rr.value / denom if denom > 0 else math.inf
