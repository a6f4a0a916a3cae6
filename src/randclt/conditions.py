"""Classical and randomized CLT condition functionals and their audits.

All five classical functionals (Lyapunov, Lindeberg, Feller, asymptotic
infinitesimality, and the absolute-difference comparison against the matched
normal sequence) are evaluated in closed form through the scale structure of
the built-in families, with log-space cumulative variances so that exploding
profiles stay finite far beyond float64 overflow.  The randomized versions
average the same per-index kernels against a truncated index distribution and
carry certified truncation error bounds.

Normalization note: the absolute-difference functional is normalized by the
cumulative variance B_n^2 (series form), not by B_n.  Under this scaling the
functional is dominated by the Lindeberg value plus a pure normal tail term,
which is the inequality the audit checks; a B_n^1 scaling would break both
that domination and the monotone decay the randomized diagnostics rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .families import SummandFamily
from .gaussian import normal_tail_second_moment
from .indices import RandomIndexModel

# relative slop granted to closed-form kernel evaluations (roundoff scale)
_KERNEL_RTOL = 1e-12

# beyond this many e-folds the remaining geometric weights cannot move a sum
_LOG_WEIGHT_CUT = 45.0


class Condition(str, Enum):
    LYAPUNOV = "lyapunov"
    LINDEBERG = "lindeberg"
    FELLER = "feller"
    INFINITESIMALITY = "infinitesimality"
    ROTAR = "rotar"
    RANDOM_LINDEBERG = "random_lindeberg"
    RANDOM_FELLER = "random_feller"
    RANDOM_ROTAR = "random_rotar"


@dataclass(frozen=True)
class ConditionReport:
    condition: Condition
    n: int
    epsilon: float | None
    delta: float | None
    value: float
    error_bound: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"condition value must be nonnegative: {self.value}")


def _report(cond, n, value, err, epsilon=None, delta=None) -> ConditionReport:
    return ConditionReport(
        condition=cond, n=int(n), epsilon=epsilon, delta=delta,
        value=float(value), error_bound=float(err),
    )


# ---------------------------------------------------------------------------
# Per-index kernels, vectorized over k
# ---------------------------------------------------------------------------


def _scale_mixture_values(unit_fn, profile, ks, eps):
    """sum_j (sigma_j^2 / B_k^2) * unit_fn(eps * B_k / sigma_j), per k.

    unit_fn maps a normalized threshold to a functional of the standardized
    law (tail second moment, absolute-difference tail, ...).  For constant
    profiles the sum collapses to unit_fn(eps * sqrt(k)).  For geometric
    profiles only the dominant ~45/log(ratio) indices carry float64 weight
    and the value saturates in k once the subdominant mass is below one ulp.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if profile.is_constant:
        vals = np.asarray(unit_fn(eps * np.sqrt(ks.astype(float))), dtype=float)
        return np.maximum(vals, 0.0)

    def value_at(k: int) -> float:
        logb2 = float(profile.log_b_squared(k))
        j = np.arange(1, k + 1, dtype=float)
        logw = profile.log_variance_at(j) - logb2
        keep = logw > -_LOG_WEIGHT_CUT
        w = np.exp(logw[keep])
        t = eps * np.exp(-0.5 * logw[keep])
        return max(0.0, float(np.dot(w, np.asarray(unit_fn(t), dtype=float))))

    k_sat = int(math.ceil(_LOG_WEIGHT_CUT / abs(math.log(profile.ratio)))) + 2
    out = np.empty(ks.shape, dtype=float)
    small = ks <= k_sat
    for k in np.unique(ks[small]):
        out[ks == k] = value_at(int(k))
    if np.any(~small):
        out[~small] = value_at(k_sat)
    return out


def lindeberg_values(family: SummandFamily, ks, eps: float) -> np.ndarray:
    """Lindeberg functional (normalized truncated second moments) per index."""
    return _scale_mixture_values(family.law.tail_second_moment, family.profile, ks, eps)


def rotar_values(family: SummandFamily, ks, eps: float) -> np.ndarray:
    """Variance-normalized absolute-difference tail functional per index."""
    return _scale_mixture_values(family.law.rotar_unit_tail, family.profile, ks, eps)


def feller_values(family: SummandFamily, ks) -> np.ndarray:
    """max_j sigma_j^2 / B_k^2 per index, exact closed forms."""
    return 1.0 / family.profile.b2_over_max_var(ks)


def max_threshold_ratio(family: SummandFamily, ks, eps: float) -> np.ndarray:
    """eps * B_k / sigma*(k) with sigma* the largest sigma_j, j <= k."""
    return eps * np.sqrt(family.profile.b2_over_max_var(ks))


# ---------------------------------------------------------------------------
# Classical (non-random) conditions
# ---------------------------------------------------------------------------


def lyapunov(family: SummandFamily, n: int, delta: float) -> ConditionReport:
    """B_n^-(2+delta) * sum_j E|X_j|^(2+delta)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1]: {delta}")
    moment = family.law.abs_moment(2.0 + delta)  # raises for nonexistent moments
    prof = family.profile
    logv = float(prof.log_sum_sigma_pow(n, 2.0 + delta))
    logb2 = float(prof.log_b_squared(n))
    value = math.exp(logv - (1.0 + 0.5 * delta) * logb2) * moment
    return _report(Condition.LYAPUNOV, n, value, _KERNEL_RTOL * (1.0 + value), delta=delta)


def lindeberg(family: SummandFamily, n: int, epsilon: float) -> ConditionReport:
    """B_n^-2 * sum_j E[X_j^2; |X_j| > eps B_n]; always in [0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    value = float(lindeberg_values(family, np.array([n]), epsilon)[0])
    return _report(
        Condition.LINDEBERG, n, value, _KERNEL_RTOL * (1.0 + value), epsilon=epsilon
    )


def feller(family: SummandFamily, n: int) -> ConditionReport:
    """max_{j<=n} sigma_j^2 / B_n^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = float(feller_values(family, np.array([n]))[0])
    return _report(Condition.FELLER, n, value, _KERNEL_RTOL * (1.0 + value))


def infinitesimality(family: SummandFamily, n: int, epsilon: float) -> ConditionReport:
    """P(max_{j<=n} |X_j| > eps B_n), strict inequality at atoms.

    Computed from independence as one minus the product of the central
    probabilities P(|X_j| <= eps B_n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    prof = family.profile
    logb2 = float(prof.log_b_squared(n))
    j = np.arange(1, n + 1, dtype=float)
    t = epsilon * np.exp(0.5 * (logb2 - prof.log_variance_at(j)))
    probs = np.asarray(family.law.central_prob(t), dtype=float)
    if np.any(probs <= 0.0):
        value = 1.0
    else:
        value = max(0.0, -math.expm1(float(np.sum(np.log(probs)))))
    return _report(
        Condition.INFINITESIMALITY, n, value, _KERNEL_RTOL * (1.0 + value),
        epsilon=epsilon,
    )


def rotar(family: SummandFamily, n: int, epsilon: float) -> ConditionReport:
    """B_n^-2 * sum_j integral_{|x|>eps B_n} |x| |F_j - Phi_j| dx.

    Phi_j is the normal law with the family's variance sigma_j^2.  Exactly
    zero for all-normal families (F_j coincides with Phi_j).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    value = float(rotar_values(family, np.array([n]), epsilon)[0])
    return _report(
        Condition.ROTAR, n, value, _KERNEL_RTOL * (1.0 + value), epsilon=epsilon
    )


# ---------------------------------------------------------------------------
# Randomized conditions
# ---------------------------------------------------------------------------


def random_lindeberg(
    family: SummandFamily, index_model: RandomIndexModel, epsilon: float
) -> ConditionReport:
    """Index-averaged Lindeberg functional; the integrand is bounded by 1."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    values = lindeberg_values(family, index_model.support, epsilon)
    est = index_model.expect_values(values, abs_bound=1.0)
    err = est.truncation_error_bound + _KERNEL_RTOL * (1.0 + est.value)
    return _report(
        Condition.RANDOM_LINDEBERG, index_model.n, est.value, err, epsilon=epsilon
    )


def random_feller(
    family: SummandFamily, index_model: RandomIndexModel
) -> ConditionReport:
    """Index-averaged Feller functional; the integrand is bounded by 1."""
    values = feller_values(family, index_model.support)
    est = index_model.expect_values(values, abs_bound=1.0)
    err = est.truncation_error_bound + _KERNEL_RTOL * (1.0 + est.value)
    return _report(Condition.RANDOM_FELLER, index_model.n, est.value, err)


def random_rotar(
    family: SummandFamily, index_model: RandomIndexModel, epsilon: float
) -> ConditionReport:
    """Index-averaged comparison functional.

    The integrand is dominated by the Lindeberg value (at most 1) plus the
    full normal second moment (1), so 2 certifies the truncation.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    values = rotar_values(family, index_model.support, epsilon)
    est = index_model.expect_values(values, abs_bound=2.0)
    err = est.truncation_error_bound + _KERNEL_RTOL * (1.0 + est.value)
    return _report(
        Condition.RANDOM_ROTAR, index_model.n, est.value, err, epsilon=epsilon
    )


# ---------------------------------------------------------------------------
# Implication audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    slack: float
    error_bound: float
    passed: bool


@dataclass(frozen=True)
class ImplicationAudit:
    family_kind: str
    index_kind: str
    n: int
    epsilon: float
    delta: float
    checks: tuple[InequalityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name, lhs, rhs, err) -> InequalityCheck:
    slack = rhs - lhs
    return InequalityCheck(
        name=name, lhs=float(lhs), rhs=float(rhs), slack=float(slack),
        error_bound=float(err), passed=bool(slack >= -err),
    )


def implication_audit(
    family: SummandFamily,
    index_model: RandomIndexModel,
    n: int,
    epsilon: float,
    delta: float,
) -> ImplicationAudit:
    """Check the domination inequalities linking the condition functionals.

    (a) lindeberg <= eps^-delta * lyapunov        (Markov-type domination)
    (b) feller <= eps^2 + lindeberg
    (c) rotar <= lindeberg + normal tail beyond eps B_n / sigma*
    (d) index-averaged version of (b)
    (e) index-averaged version of (c)

    Failures are reported, never raised; a check passes when its slack is no
    smaller than the negated combined error bound.
    """
    lyap = lyapunov(family, n, delta)
    lind = lindeberg(family, n, epsilon)
    fel = feller(family, n)
    rot = rotar(family, n, epsilon)
    s_n = float(max_threshold_ratio(family, np.array([n]), epsilon)[0])
    normal_tail = float(normal_tail_second_moment(s_n))

    checks = [
        _check(
            "lindeberg_le_scaled_lyapunov",
            lind.value,
            epsilon ** (-delta) * lyap.value,
            lind.error_bound + epsilon ** (-delta) * lyap.error_bound,
        ),
        _check(
            "feller_le_eps2_plus_lindeberg",
            fel.value,
            epsilon**2 + lind.value,
            fel.error_bound + lind.error_bound,
        ),
        _check(
            "rotar_le_lindeberg_plus_normal_tail",
            rot.value,
            lind.value + normal_tail,
            rot.error_bound + lind.error_bound + _KERNEL_RTOL,
        ),
    ]

    r_lind = random_lindeberg(family, index_model, epsilon)
    r_fel = random_feller(family, index_model)
    r_rot = random_rotar(family, index_model, epsilon)
    tail_vals = normal_tail_second_moment(
        max_threshold_ratio(family, index_model.support, epsilon)
    )
    r_tail = index_model.expect_values(np.asarray(tail_vals), abs_bound=1.0)
    checks.append(
        _check(
            "random_feller_le_eps2_plus_random_lindeberg",
            r_fel.value,
            epsilon**2 + r_lind.value,
            r_fel.error_bound + r_lind.error_bound,
        )
    )
    checks.append(
        _check(
            "random_rotar_le_random_lindeberg_plus_normal_tail",
            r_rot.value,
            r_lind.value + r_tail.value,
            r_rot.error_bound
            + r_lind.error_bound
            + r_tail.truncation_error_bound
            + _KERNEL_RTOL,
        )
    )
    return ImplicationAudit(
        family_kind=family.kind,
        index_kind=index_model.kind,
        n=n,
        epsilon=epsilon,
        delta=delta,
        checks=tuple(checks),
    )
