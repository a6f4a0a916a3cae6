"""Test-only views of the built-in families that production code never reads.

The package evaluates every functional through the standardized law and the
log-space profile accessors; these helpers rebuild sigma_j, F_j and the
continuous laws' densities from the family parameters, so the quadrature
oracles share no code with the closed forms they check.  The geometric-profile
kernel is checked against its former direct per-k sum and, at the atoms of
the two-point law, against exact rational arithmetic, and bit for bit
against its former binary-search passes; infinitesimality against its
former sum over all n thresholds, the summand weights against
their former construction from all k steps, the grouped summand draws
against their former one group per k, the Poisson tails against mpmath's
incomplete gamma function, the geometric window's closed form against
its former galloping search, and the continuous laws' tails and
infinitesimality on a constant profile against 50-digit mpmath.
Rademacher sums have an exact Kolmogorov distance from binomial
coefficients, and sin on a constant profile an exact
smooth metric from the summand law's characteristic function, against which
the Monte Carlo metric of each per-block draw path is checked.

The laws' CDFs and supports, the test functions' derivatives and the rate
audit's 4-stderr verdicts are read by the tests alone, so they live here.
The normal law's CDF is scipy's ndtr, not the package's Phi, which it checks.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import ndtr

from randclt.conditions import _CUT_LOG2, _MAX_PASS_ENTRIES, _decide_atom_ties
from randclt.families import (
    _MAX_DRAW_ENTRIES,
    CenteredExponentialLaw,
    NormalLaw,
    RademacherLaw,
    UniformLaw,
)
from randclt.rates import _BUMP_AMP

SQRT3 = math.sqrt(3.0)


def _rademacher_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(z <= -1.0, 0.0, np.where(z <= 1.0, 0.5, 1.0))


def _uniform_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.clip((z + SQRT3) / (2.0 * SQRT3), 0.0, 1.0)


def _expcentered_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(z >= -1.0, -np.expm1(-(z + 1.0)), 0.0)


_CDFS = {
    RademacherLaw: _rademacher_cdf,
    UniformLaw: _uniform_cdf,
    NormalLaw: ndtr,
    CenteredExponentialLaw: _expcentered_cdf,
}
_SUPPORTS = {
    RademacherLaw: (-1.0, 1.0),
    UniformLaw: (-SQRT3, SQRT3),
    CenteredExponentialLaw: (-1.0, math.inf),
}


def law_cdf(law, z):
    """P(Z < z) of a standardized law, left-continuous at atoms."""
    return _CDFS[type(law)](z)


def law_support(law):
    """(lo, hi) outside of which the standardized law carries no mass."""
    return _SUPPORTS.get(type(law), (-math.inf, math.inf))


_DENSITIES = {
    UniformLaw: lambda z: np.where(np.abs(z) <= SQRT3, 1.0 / (2.0 * SQRT3), 0.0),
    NormalLaw: lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
    CenteredExponentialLaw: lambda z: np.where(z >= -1.0, np.exp(-(z + 1.0)), 0.0),
}


def sigma(fam, j):
    """sigma_j of the family's profile, j >= 1."""
    prof = fam.profile
    if prof.is_constant:
        return 1.0
    return prof.ratio ** (0.5 * (j - 1))


def variance(fam, j):
    return sigma(fam, j) ** 2


def cdf(fam, j, x):
    """F_j(x) = P(sigma_j Z < x)."""
    return law_cdf(fam.law, np.asarray(x, dtype=float) / sigma(fam, j))


def density(law, z):
    """Density of a continuous standardized law."""
    return _DENSITIES[type(law)](np.asarray(z, dtype=float))


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


def exact_tail(kind, t):
    """P(|Z| > t) of a continuous law at an mpmath t >= 0, at mpmath's precision."""
    if kind == "normal":
        return mpmath.erfc(t / mpmath.sqrt(2))
    if kind == "uniform":
        return max(mpmath.mpf(0), 1 - t / mpmath.sqrt(3))
    # expcentered, Z = E - 1 with E ~ Exp(1): P(E > 1 + t) + P(E < 1 - t)
    return mpmath.exp(-(1 + t)) + (-mpmath.expm1(t - 1) if t < 1 else 0)


def exact_constant_infinitesimality(kind, n, eps):
    """1 - (1 - p)^n at p = P(|Z| > eps sqrt(n)), eps sqrt(n) exact, in 50 digits."""
    with mpmath.workdps(50):
        p = exact_tail(kind, mpmath.mpf(eps) * mpmath.sqrt(n))
        return -mpmath.expm1(n * mpmath.log1p(-p))


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
    after all k are built, with S_k from one scalar math.expm1 ratio.
    """
    q = -abs(math.log(profile.ratio))
    steps = np.arange(k - 1, -1, -1) if profile.ratio > 1.0 else np.arange(k)
    logw = 0.5 * (q * steps - math.log(math.expm1(k * q) / math.expm1(q)))
    return np.exp(logw[logw > -42.0])


def weights_at(profile, k):
    """profile.weights at one index k, through k's weight key."""
    [key] = profile.weight_keys(np.array([k]))
    return profile.weights(key)


def per_k_normalized_sums(family, rng, ks):
    """Draws of S_k / B_k that draw and weigh one summand matrix group per k.

    The former matrix path of SummandFamily.batch_normalized_sums: trials
    sorted stably by k, each distinct k's weights built, and its rows drawn
    in matrices of at most _MAX_DRAW_ENTRIES entries.
    """
    out = np.empty(len(ks))
    order = np.argsort(ks, kind="stable")
    uniq, starts = np.unique(ks[order], return_index=True)
    ends = np.append(starts[1:], len(ks))
    for k, lo, hi in zip(uniq, starts, ends):
        w = weights_at(family.profile, int(k))
        rows = max(1, _MAX_DRAW_ENTRIES // len(w))
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            m = family.law.sample(rng, size=(b - a, len(w)))
            out[order[a:b]] = np.einsum("ij,j->i", m, w)
    return out


def full_array_infinitesimality(fam, n, eps):
    """P(max_{j<=n} |X_j| > eps B_n) from all n tail probabilities.

    The former O(n) evaluation: every threshold eps B_n / sigma_j in one
    array, ties at atoms decided exactly, the log1p(-p) of the tails p
    summed in the order of j.
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
    if prof.is_constant:  # n equal thresholds: decide a tie on the first and copy it
        _decide_atom_ties(t[:1], fam.law, ratio, eps, lambda near: (n, near))
        t[1:] = t[0]
    else:
        _decide_atom_ties(t, fam.law, ratio, eps, lambda near: (n, near))
    if ratio > 1.0:
        t = t[::-1]
    tails = np.asarray(fam.law.tail_prob(t), dtype=float)
    if np.any(tails >= 1.0):
        return 1.0
    return max(0.0, -math.expm1(float(np.sum(np.log1p(-tails)))))


def searchsorted_geometric_sum(law, profile, ks, eps, term, rest, log_weight_cut=math.inf):
    """conditions._geometric_sum as it found each pass's rows by binary search.

    The former walk: the same thresholds, bisection and passes of
    _MAX_PASS_ENTRIES flat entries, but every entry's row is
    searchsorted(ends, flat) over all row ends.  Without the refusal.
    """
    q = profile.log_step
    log_s = np.log(profile.b2_over_max_var(ks))

    def at(rows, steps):
        logw = q * steps - log_s[rows]
        with np.errstate(over="ignore"):
            t = eps * np.exp(-0.5 * logw)
        _decide_atom_ties(
            t, law, profile.ratio, eps, lambda near: (ks[rows[near]], steps[near])
        )
        return ks[rows], steps, np.exp(logw), t

    lo = np.zeros(len(ks), dtype=np.int64)
    first = term(*at(np.arange(len(ks)), lo)[2:])
    target = np.ldexp(first, -_CUT_LOG2)
    live = np.minimum(ks, np.ceil((log_weight_cut - log_s) / -q)).astype(np.int64)
    hi = np.where(first > 0.0, live, 0)
    while True:
        act = np.flatnonzero(hi - lo > 1)
        if not act.size:
            break
        mid = (lo[act] + hi[act]) // 2
        drop = rest(*at(act, mid)) <= target[act]
        hi[act[drop]] = mid[drop]
        lo[act[~drop]] = mid[~drop]
    ends = np.cumsum(hi)
    starts = ends - hi
    total = int(ends[-1])
    out = np.zeros(len(ks))
    for a in range(0, total, _MAX_PASS_ENTRIES):
        flat = np.arange(a, min(a + _MAX_PASS_ENTRIES, total))
        rows = np.searchsorted(ends, flat, side="right")
        kept = term(*at(rows, flat - starts[rows])[2:])
        out += np.bincount(rows, weights=kept, minlength=len(ks))
    return out


def poisson_outside_mass(lam, lo, hi):
    """P(1 + X < lo) + P(1 + X > hi) for X ~ Poisson(lam), at 50 digits.

    P(X <= k) is the regularized upper incomplete gamma Q(k + 1, lam).
    """
    with mpmath.workdps(50):
        below = mpmath.gammainc(lo - 1, lam, mpmath.inf, regularized=True) if lo > 1 else 0
        above = 1 - mpmath.gammainc(hi, lam, mpmath.inf, regularized=True)
        return below + above


def first_true(pred, k: int) -> int:
    """Smallest integer j >= k with pred(j), for pred false and then true: a galloping search."""
    lo, hi = k - 1, k  # pred(lo) is false or lo is below the range
    while not pred(hi):
        lo, hi = hi, hi + 2 * (hi - lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def searched_geometric_window(model):
    """A geometric model's window and outside mass as its former galloping search found them."""
    hi = first_true(lambda k: model.sf(k) <= model._budget, 1)
    return (1, hi), model.sf(hi)


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


def rademacher_kolmogorov(index_pmf):
    """sup_x |P(S_nu / B_nu < x) - Phi(x)| for i.i.d. Rademacher summands.

    index_pmf is a list of (k, P(nu = k)) pairs.  Each k puts mass
    P(nu = k) comb(k, h) / 2^k on the value (2h - k) / sqrt(k), computed as
    the sampler computes it, so equal floats of several k are one atom.
    Between atoms the CDF is flat and Phi rises, so the supremum is taken
    at the atoms, just below and at each.
    """
    values, masses = [], []
    for k, pk in index_pmf:
        values.append((2 * np.arange(k + 1) - k) / np.sqrt(k))
        masses.append([pk * (math.comb(k, h) / 2**k) for h in range(k + 1)])
    atoms, where = np.unique(np.concatenate(values), return_inverse=True)
    mass = np.bincount(where, weights=np.concatenate(masses))
    at = np.cumsum(mass)  # P(S <= atom)
    below = at - mass  # P(S < atom)
    phi = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in atoms.tolist()])
    return float(max(np.max(at - phi), np.max(phi - below)))


def exact_sin_metric(family, model):
    """E sin(S_nu / B_nu) on a constant profile, as a WeightedExpectation.

    Sum over the index window of p_k Im phi_Z(1/sqrt(k))^k, the sigma of the
    profile cancelling; its truncation_error_bound is the window's outside
    mass, since |sin| <= 1.  The Rademacher, uniform and normal laws are
    symmetric, so phi_Z is real and every term is exactly 0.  The centred
    exponential's phi_Z(v) = e^(-iv) / (1 - iv) gives, with v = 1/sqrt(k),
    Im exp(k (-iv - log1p(-iv))) = (1 + v^2)^(-k/2) sin(k (atan(v) - v)).
    E sin(Z) = 0, so this is the signed smooth metric of sin.
    """
    if not family.profile.is_constant:
        raise ValueError("exact_sin_metric needs a constant profile")
    k = model.support.astype(float)
    terms = np.zeros(len(k))
    if isinstance(family.law, CenteredExponentialLaw):
        v = 1.0 / np.sqrt(k)
        terms = np.exp(-0.5 * k * np.log1p(v * v)) * np.sin(k * (np.arctan(v) - v))
    return model.expect_values(terms, abs_bound=1.0)


def _clamp_prime(x):
    x = np.asarray(x, dtype=float)
    return (1.0 - x * x) / (1.0 + x * x) ** 2


def _bump_prime(x):
    x = np.asarray(x, dtype=float)
    return -2.0 * _BUMP_AMP * x * np.exp(-x * x)


_DERIVATIVES = {"sin": np.cos, "clamp": _clamp_prime, "bump": _bump_prime}


def derivative(tf):
    """f' of a built-in test function, against which its norms are verified."""
    return _DERIVATIVES[tf.id]


def flagged(p):
    """The rate point's metric lies above its bound by more than 4 stderrs."""
    return p.metric > p.bound + 4.0 * p.mc_stderr


def all_within_bound(points):
    return not any(flagged(p) for p in points)


def bound_order(points):
    """Least-squares slope of log bound against log n over the positive bounds."""
    ns = np.array([p.n for p in points], dtype=float)
    ys = np.array([p.bound for p in points])
    keep = ys > 0.0
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log(ns[keep]), np.log(ys[keep]), 1)[0])


def ratios_decreasing(points, z=4.0):
    """Strict decrease of the ratio column beyond z propagated stderrs."""
    for a, b in zip(points[:-1], points[1:]):
        noise = math.hypot(a.mc_stderr / a.bound, b.mc_stderr / b.bound)
        if not a.ratio - b.ratio > z * noise:
            return False
    return True


def statistically_zero(points, z=4.0):
    return all(p.metric <= z * p.mc_stderr for p in points)
