"""Test-only views of the built-in families that production code never reads.

The package evaluates every functional through the standardized law and the
log-space profile accessors; these helpers rebuild sigma_j, F_j and the
continuous laws' densities from the family parameters, so the quadrature
oracles share no code with the closed forms they check.  The geometric-profile
kernel is checked against its former direct per-k sum and, at the atoms of
the two-point law, against exact rational arithmetic; infinitesimality
against its former sum over all n thresholds, the summand weights against
their former construction from all k steps, and the Poisson tails against
mpmath's incomplete gamma function.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from randclt.conditions import _decide_atom_ties

SQRT3 = math.sqrt(3.0)

_DENSITIES = {
    "uniform": lambda z: np.where(np.abs(z) <= SQRT3, 1.0 / (2.0 * SQRT3), 0.0),
    "normal": lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
    "expcentered": lambda z: np.where(z >= -1.0, np.exp(-(z + 1.0)), 0.0),
}


def sigma(fam, j):
    """sigma_j of the family's profile, j >= 1."""
    prof = fam.profile
    if prof.is_constant:
        return prof.sigma
    return prof.ratio ** (0.5 * (j - 1))


def variance(fam, j):
    return sigma(fam, j) ** 2


def cdf(fam, j, x):
    """F_j(x) = P(sigma_j Z < x)."""
    return fam.law.cdf(np.asarray(x, dtype=float) / sigma(fam, j))


def density(law, z):
    """Density of a continuous standardized law."""
    return _DENSITIES[law.name](np.asarray(z, dtype=float))


def direct_terms(profile, k, eps):
    """Shares sigma_j^2 / B_k^2 above e^-45 and their thresholds eps B_k / sigma_j.

    The per-k direct sum over j = 1..k that the geometric kernel replaced:
    log shares from log sigma_j^2 - log B_k^2, O(k) work for each k.
    """
    j = np.arange(1, k + 1, dtype=float)
    logw = (j - 1.0) * math.log(profile.ratio) - float(profile.log_b_squared(k))
    logw = logw[logw > -45.0]
    return np.exp(logw), eps * np.exp(-0.5 * logw)


def direct_scale_mixture(unit_fn, profile, ks, eps):
    """sum_j (sigma_j^2 / B_k^2) unit_fn(eps B_k / sigma_j) per k, up to k_sat."""
    k_sat = int(math.ceil(45.0 / abs(math.log(profile.ratio)))) + 2
    out = []
    for k in ks:
        w, t = direct_terms(profile, min(int(k), k_sat), eps)
        out.append(max(0.0, float(np.dot(w, np.asarray(unit_fn(t), dtype=float)))))
    return np.array(out)


def _exact_two_point(ratio, k, eps):
    """Variances sigma_j^2 = ratio^(j-1), j <= k, and eps^2 B_k^2, as fractions."""
    r = Fraction(ratio)
    variances = [r ** (j - 1) for j in range(1, k + 1)]
    return variances, Fraction(eps) ** 2 * sum(variances)


def exact_lindeberg(ratio, k, eps):
    """Lindeberg functional of the geometric profile in exact rational arithmetic.

    sum of sigma_j^2 over sigma_j^2 > eps^2 B_k^2, over B_k^2: the summands'
    values +-sigma_j exceed eps B_k in absolute value only strictly.  Ratio 1
    is the constant profile.
    """
    variances, bar = _exact_two_point(ratio, k, eps)
    return sum(v for v in variances if v > bar) / sum(variances)


def exact_infinitesimality(ratio, k, eps):
    """P(max_{j<=k} |X_j| > eps B_k) for +-sigma_j summands: exactly 1 or 0."""
    variances, bar = _exact_two_point(ratio, k, eps)
    return int(max(variances) > bar)


def exact_side_direct(k, i, eps, ratio, atom):
    """Sign of eps B_k / sigma_j - atom for sigma_j i steps below the top.

    Direct integer form: with r = a/b, eps = c/d, atom = e/f and p = j - 1,
    c^2 f^2 |a^k - b^k| against e^2 d^2 a^p |a - b| b^(k-1-p).
    """
    a, b = ratio.as_integer_ratio()
    c, d = eps.as_integer_ratio()
    e, f = atom.as_integer_ratio()
    p = k - 1 - i if a > b else i
    lhs = c * c * f * f * abs(a**k - b**k)
    rhs = e * e * d * d * a**p * abs(a - b) * b ** (k - 1 - p)
    return (lhs > rhs) - (lhs < rhs)


def full_weights(profile, k):
    """sigma_j / B_k above e^-42 for a geometric profile, from all k steps.

    The former O(k) construction: every step below the largest sigma_j in
    the order of j, the logs relative to it, and the small weights dropped
    after all k are built.
    """
    q = -abs(math.log(profile.ratio))
    steps = np.arange(k - 1, -1, -1) if profile.ratio > 1.0 else np.arange(k)
    logw = 0.5 * (q * steps - math.log(profile.b2_over_max_var(k)))
    return np.exp(logw[logw > -42.0])


def full_array_infinitesimality(fam, n, eps):
    """P(max_{j<=n} |X_j| > eps B_n) from all n central probabilities.

    The former O(n) evaluation: every threshold eps B_n / sigma_j in one
    array, ties at atoms decided exactly, log-probabilities summed in the
    order of j.
    """
    prof = fam.profile
    ratio = 1.0 if prof.is_constant else prof.ratio
    t = np.arange(n, dtype=float)
    t *= abs(math.log(ratio))
    t += np.log(prof.b2_over_max_var(n))
    t *= 0.5
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
        t *= eps
    _decide_atom_ties(t, fam.law, ratio, eps, lambda near: (n, near))
    if ratio > 1.0:
        t = t[::-1]
    probs = np.asarray(fam.law.central_prob(t), dtype=float)
    if np.any(probs <= 0.0):
        return 1.0
    return max(0.0, -math.expm1(float(np.sum(np.log(probs)))))


def poisson_outside_mass(lam, lo, hi):
    """P(1 + X < lo) + P(1 + X > hi) for X ~ Poisson(lam), at 50 digits.

    P(X <= k) is the regularized upper incomplete gamma Q(k + 1, lam).
    """
    with mpmath.workdps(50):
        below = mpmath.gammainc(lo - 1, lam, mpmath.inf, regularized=True) if lo > 1 else 0
        above = 1 - mpmath.gammainc(hi, lam, mpmath.inf, regularized=True)
        return below + above


def binomial_chisquare_pvalue(observed, k):
    """Chi-square p-value of a histogram over h = 0..k against Binomial(k, 1/2).

    The sparse tails (expected count below 5) are pooled into their
    neighbouring cells.
    """
    from scipy.stats import binom, chisquare

    expected = np.sum(observed) * binom.pmf(np.arange(k + 1), k, 0.5)
    keep = expected >= 5.0
    lo, hi = np.flatnonzero(keep)[[0, -1]]
    obs = np.asarray(observed[lo:hi + 1], dtype=float)
    exp = expected[lo:hi + 1].copy()
    obs[0] += observed[:lo].sum()
    exp[0] += expected[:lo].sum()
    obs[-1] += observed[hi + 1:].sum()
    exp[-1] += expected[hi + 1:].sum()
    return chisquare(obs, exp).pvalue
