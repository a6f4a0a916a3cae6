"""Summand distribution families: standardized laws times sigma profiles.

Every built-in family is a scale family: the j-th summand is sigma_j * Z for a
fixed zero-mean, unit-variance standardized law Z and a deterministic standard
deviation profile sigma_j.  This covers the i.i.d. families (constant profile)
and the heterogeneous exploding-variance families (geometric profile), keeps
all moment and tail functionals exact, and makes the cumulative variance
closed-form even where the float64 value would overflow (log-space accessors).
The matched normal sequence of Rotar's condition, N(0, sigma_j^2), is read
from the same profile.

CDFs follow the strict-inequality convention F(x) = P(X < x); tail functionals
such as E[X^2; |X| > t] exclude atoms located exactly at the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gaussian import (
    norm_cdf,
    norm_central_prob,
    norm_pdf_cdf_sf,
    normal_abs_moment,
    normal_tail_second_moment,
    piecewise,
    upper_x_sf_integral,
)
from .indices import _STIRLERR

_SQRT3 = math.sqrt(3.0)
_LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
# series terms of _two_kl_half: 0.49^48 / (48 * 95) is below 2^-60
_KL_TERMS = 48
# Summand matrix size per draw in batch_normalized_sums; bounds its memory.
_MAX_DRAW_ENTRIES = 1 << 16
# Summands one trial may draw (the length of its weights), past which a
# simulation is refused: 10^8 of them take ~0.8 GB and their weights as much.
_MAX_TRIAL_DRAWS = 10**8
# Bits in one raw draw of a bit generator: the largest k whose Rademacher sum
# is read from a single word.
_WORD_BITS = 64


class FamilyConfigError(ValueError):
    """Unknown family kind or invalid family parameters."""


# ---------------------------------------------------------------------------
# Standardized laws (zero mean, unit variance)
# ---------------------------------------------------------------------------


class Law:
    """Interface for a standardized (zero-mean, unit-variance) summand law."""

    name: str = ""
    is_discrete: bool = False
    # (lo, hi) outside of which the law carries no mass; +-inf when unbounded
    support: tuple[float, float] = (-math.inf, math.inf)
    # (points, masses) for discrete laws, None otherwise
    atoms: Optional[tuple[np.ndarray, np.ndarray]] = None

    def cdf(self, z):
        """P(Z < z), left-continuous at atoms."""
        raise NotImplementedError

    def abs_moment(self, order: float) -> float:
        """E|Z|^order, closed form."""
        raise NotImplementedError

    def tail_second_moment(self, t):
        """E[Z^2; |Z| > t] for t >= 0 (strict inequality at atoms)."""
        raise NotImplementedError

    def central_prob(self, t):
        """P(|Z| <= t); the complement P(|Z| > t) uses strict inequality."""
        raise NotImplementedError

    def rotar_unit_tail(self, t):
        """integral_{|z|>t} |z| * |F(z) - Phi(z)| dz, closed form."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def batch_sums(self, rng: np.random.Generator, ks, size: Optional[int] = None):
        """Vectorized draws of S_k, one per trial, or None.

        ks is an array of counts, one per trial, or one count shared by all
        `size` trials (a det index), which numpy draws with a scalar shape:
        the same values as the array, with no per-trial shape to read.
        Only laws whose k-fold sum has an exactly samplable distribution
        provide this; it is the Monte Carlo fast path.
        """
        return None


def _gauss_antideriv(z, pdf, cdf):
    """integral_{-inf}^{z} u * Phi(u) du from phi(z) and Phi(z)."""
    return 0.5 * z * z * cdf - 0.5 * (cdf - z * pdf)


def _x_phi_minus_half(z):
    """Antiderivative of z * (Phi(z) - 1/2)."""
    pdf, cdf, _ = norm_pdf_cdf_sf(z)
    return 0.5 * z * z * (cdf - 0.5) - 0.5 * (cdf - z * pdf)


class RademacherLaw(Law):
    """P(Z = +1) = P(Z = -1) = 1/2."""

    name = "rademacher"
    is_discrete = True
    support = (-1.0, 1.0)
    _x_phi_at_atom = float(_x_phi_minus_half(1.0))
    _upper_at_atom = float(upper_x_sf_integral(1.0))

    def __init__(self):
        self.atoms = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z <= -1.0, 0.0, np.where(z <= 1.0, 0.5, 1.0))

    def abs_moment(self, order):
        return 1.0

    def tail_second_moment(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, 1.0, 0.0)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 1.0, 1.0, 0.0)

    def rotar_unit_tail(self, t):
        # |F - Phi| equals Phi(z) - 1/2 on 0 < z <= 1 and 1 - Phi(z) beyond;
        # both halves contribute equally by symmetry.
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return 2.0 * piecewise(t, (1.0,), (self._inside, upper_x_sf_integral))

    def _inside(self, t):
        # t < 1: the band (t, 1) and the whole tail past the atom
        return (self._x_phi_at_atom - _x_phi_minus_half(t)) + self._upper_at_atom

    def sample(self, rng, size=None):
        return rng.integers(0, 2, size=size) * 2.0 - 1.0

    def batch_sums(self, rng, ks, size=None):
        # S_k = 2 H - k, H ~ Binomial(k, 1/2).  For k <= 64, H counts the set
        # bits among the top k of one raw word; those words are drawn first,
        # in trial order, then the binomials of the larger k.  A count over
        # several words is slower than the binomial sampler.
        ks = np.asarray(ks, dtype=np.int64)
        size = len(ks) if size is None else size
        small = ks <= _WORD_BITS
        # a block on one side of 64 skips the masked copies (~2x at k = 16)
        if small.all():
            heads = _top_bit_counts(rng, ks, size).astype(np.int64)
        elif not small.any():
            heads = rng.binomial(ks, 0.5, size)
        else:
            heads = np.empty(len(ks), dtype=np.int64)
            heads[small] = _top_bit_counts(rng, ks[small], int(small.sum()))
            big = ~small
            heads[big] = rng.binomial(ks[big], 0.5)
        heads *= 2
        heads -= ks
        return heads


def _top_bit_counts(rng, ks, size):
    """Set bits among the top k bits of one raw 64-bit word per trial, k <= 64."""
    words = rng.bit_generator.random_raw(size)
    words >>= (_WORD_BITS - ks).view(np.uint64)
    return np.bitwise_count(words)


def half_binomial_pmf(k, h):
    """P(H = h) for H ~ Binomial(k, 1/2), elementwise over integers 0 <= h <= k.

    Loader's saddle-point form, as R's dbinom: log p is stirlerr(k) -
    stirlerr(h) - stirlerr(k - h) - k KL(h/k || 1/2) - log(2 pi h (k - h)
    / k) / 2, whose terms do not cancel.  Against exact integer ratios, p
    is within 4e-13 relative wherever that is a normal float (the worst
    seen over every cell of k < 400 and rows up to k = 2^17); the end
    cells h = 0 and h = k are 2^-k exactly.  No log of 0 is taken.
    """
    k = np.asarray(k, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    p = np.ldexp(1.0, -k)
    inner = (h > 0) & (h < k)
    n, x = k[inner].astype(float), h[inner].astype(float)
    log_p = _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
    log_p -= 0.5 * (_LN_2PI + np.log(x) + np.log1p(-x / n))
    log_p -= 0.5 * n * _two_kl_half(x, n)  # the one large term, rounded once
    p[inner] = np.exp(log_p)
    return p


def _stirlerr(n):
    """log(n!) - (n + 1/2) log(n) + n - log(2 pi) / 2 for integer n >= 1 (Loader).

    The table below 16, and the five-term series above it, where its error
    is below 1e-17.
    """
    table = n <= 15
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n
    series[table] = np.take(_STIRLERR, n[table].astype(np.int64))
    return series


def _two_kl_half(x, n):
    """2 KL(x/n || 1/2) = (1 + d) log(1 + d) + (1 - d) log(1 - d), d = (2x - n) / n.

    For |d| <= 0.7 by its series, the sum of u^m / (m (2m - 1)) with
    u = d^2, whose terms are positive and fall by u each: _KL_TERMS of
    them, by Horner's rule from the smallest, leave out less than 2^-60 of
    the sum.  Beyond, the two logs cancel by at most 2.3x.  Loader's bd0
    form, x log(x / mu) + mu - x, loses ~1e-12 of the pmf near |d| = 0.2
    at k = 3e4.
    """
    a, b = 2.0 * x / n, 2.0 * (n - x) / n
    out = a * np.log(a) + b * np.log(b)
    near = np.abs(2.0 * x - n) <= 0.7 * n
    u = np.square(2.0 * x[near] - n[near]) / np.square(n[near])  # one rounding
    s = np.full_like(u, 1.0 / (_KL_TERMS * (2 * _KL_TERMS - 1)))
    for m in range(_KL_TERMS - 1, 0, -1):
        s *= u
        s += 1.0 / (m * (2 * m - 1))
    out[near] = s * u
    return out


def _uniform_antideriv(z):
    """integral of z * (F(z) - Phi(z)) dz on [0, sqrt(3)]."""
    z = np.asarray(z, dtype=float)
    pdf, cdf, _ = norm_pdf_cdf_sf(z)
    poly = 0.25 * z * z + z**3 / (6.0 * _SQRT3)
    return poly - _gauss_antideriv(z, pdf, cdf)


class UniformLaw(Law):
    """Uniform on [-sqrt(3), sqrt(3)] (unit variance)."""

    name = "uniform"
    support = (-_SQRT3, _SQRT3)
    # The z in (0, sqrt(3)) where F - Phi changes sign: the float that brentq
    # returns over Cephes' ndtr (the tests check it and its bracket).
    sign_root = 1.5011307831938003
    _h_root = float(_uniform_antideriv(sign_root))
    _h_edge = float(_uniform_antideriv(_SQRT3))
    _upper_edge = float(upper_x_sf_integral(_SQRT3))

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.clip((z + _SQRT3) / (2.0 * _SQRT3), 0.0, 1.0)

    def abs_moment(self, order):
        return 3.0 ** (0.5 * order) / (order + 1.0)

    def tail_second_moment(self, t):
        t = np.asarray(t, dtype=float)
        t = np.clip(t, 0.0, _SQRT3)
        return 1.0 - t**3 / (3.0 * _SQRT3)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip(t / _SQRT3, 0.0, 1.0)

    def rotar_unit_tail(self, t):
        # F - Phi is negative on (0, z*), positive on (z*, sqrt(3)), and equals
        # 1 - Phi beyond the support edge; symmetric in z -> -z.
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return 2.0 * piecewise(
            t, (self.sign_root, _SQRT3),
            (self._below_root, self._inside, upper_x_sf_integral),
        )

    def _below_root(self, t):
        neg = -(self._h_root - _uniform_antideriv(t))
        return (neg + (self._h_edge - self._h_root)) + self._upper_edge

    def _inside(self, t):
        return (self._h_edge - _uniform_antideriv(t)) + self._upper_edge

    def sample(self, rng, size=None):
        return rng.uniform(-_SQRT3, _SQRT3, size=size)


class NormalLaw(Law):
    """Standard normal: F_j is its own matched normal law Phi_j."""

    name = "normal"

    def cdf(self, z):
        return norm_cdf(z)

    def abs_moment(self, order):
        return normal_abs_moment(order)

    def tail_second_moment(self, t):
        return normal_tail_second_moment(t)

    def central_prob(self, t):
        return norm_central_prob(t)

    def rotar_unit_tail(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def sample(self, rng, size=None):
        return rng.standard_normal(size)


def _exp_antideriv(z, pdf, cdf):
    """integral of z * (F(z) - Phi(z)) dz for z >= -1, given phi(z) and Phi(z)."""
    expo = 0.5 * z * z + (z + 1.0) * np.exp(-(z + 1.0))
    return expo - _gauss_antideriv(z, pdf, cdf)


def _exp_antideriv_at(z):
    return float(_exp_antideriv(z, *norm_pdf_cdf_sf(z)[:2]))


def _exp_far_tail(t):
    """The expcentered unit tail for t >= r2: integral_t^inf z e^{-(z+1)} dz.

    Past t = 800 the value underflows to 0; the clamp keeps inf * 0 out.
    """
    u = np.minimum(t, 800.0) + 1.0
    return u * np.exp(-u)


class CenteredExponentialLaw(Law):
    """Exp(1) shifted by -1: support [-1, inf), zero mean, unit variance."""

    name = "expcentered"
    support = (-1.0, math.inf)
    # The roots r1 in (-1, 0) and r2 in (1, 3) of F - Phi: the floats that
    # brentq returns over Cephes' ndtr (the tests check them and their brackets).
    sign_roots = (-0.7384974064988994, 1.2532517722799263)
    _g_edge = _exp_antideriv_at(-1.0)
    _g_root_lo = _exp_antideriv_at(sign_roots[0])
    _g_root_hi = _exp_antideriv_at(sign_roots[1])
    _upper_at_edge = float(upper_x_sf_integral(1.0))
    _right_neg_at_root = float(_exp_far_tail(sign_roots[1]) - upper_x_sf_integral(sign_roots[1]))

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z >= -1.0, -np.expm1(-(z + 1.0)), 0.0)

    def abs_moment(self, order):
        # integral_0^1 u^order e^(u-1) du (the part below 0) via the
        # exponential series, plus Gamma(order + 1) / e for the part above
        lower = 0.0
        fact = 1.0
        for m in range(0, 40):
            if m > 0:
                fact *= m
            lower += 1.0 / (fact * (order + m + 1.0))
        return lower / math.e + math.gamma(order + 1.0) / math.e

    def tail_second_moment(self, t):
        t = np.asarray(t, dtype=float)
        right = np.exp(-(t + 1.0)) * (t * t + 2.0 * t + 2.0)
        tl = np.minimum(t, 1.0)
        left = 1.0 - np.exp(tl - 1.0) * (tl * tl - 2.0 * tl + 2.0)
        return right + np.where(t < 1.0, left, 0.0)

    def central_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.maximum(0.0, 1.0 - t)) - np.exp(-(1.0 + t))

    def rotar_unit_tail(self, t):
        # Left side, z < -t: F = 0 below -1, so |z||F - Phi| = -z Phi(z) there,
        # whose whole tail is integral_{max(t,1)}^{inf} u Phi(-u) du; on
        # (-1, 0), h = F - Phi is < 0 below r1 and > 0 above.  Right side,
        # z > t: h > 0 on (0, r2) and |h| = e^{-(z+1)} - Phi_c(z) beyond, so
        # past r2 the Gaussian parts of the two sides cancel.
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return piecewise(
            t, (1.0, self.sign_roots[1]), (self._inside, self._past_edge, _exp_far_tail)
        )

    def _inside(self, t):
        # t < 1: the left side reaches into (-1, -t), the right into (t, r2)
        pdf, cdf, sf = norm_pdf_cdf_sf(t)
        g_left = _exp_antideriv(-t, pdf, sf)
        left_mid = np.where(
            t < -self.sign_roots[0],
            self._g_root_lo - self._g_edge + (-(g_left - self._g_root_lo)),
            g_left - self._g_edge,
        )
        right_pos = self._g_root_hi - _exp_antideriv(t, pdf, cdf)
        return ((self._upper_at_edge + left_mid) + right_pos) + self._right_neg_at_root

    def _past_edge(self, t):
        # 1 <= t < r2: the left side lies below the support edge
        pdf, cdf, _ = norm_pdf_cdf_sf(t)
        right_pos = self._g_root_hi - _exp_antideriv(t, pdf, cdf)
        return (upper_x_sf_integral(t) + right_pos) + self._right_neg_at_root

    def sample(self, rng, size=None):
        return rng.standard_exponential(size) - 1.0

    def batch_sums(self, rng, ks, size=None):
        return rng.standard_gamma(ks, size) - ks


# ---------------------------------------------------------------------------
# Standard deviation profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantProfile:
    """sigma_j = sigma for every j (i.i.d. scaling)."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf):
            raise FamilyConfigError(f"sigma must be positive and finite: {self.sigma}")

    @property
    def is_constant(self) -> bool:
        return True

    def log_b_squared(self, n):
        return np.log(np.asarray(n, dtype=float)) + 2.0 * math.log(self.sigma)

    def log_sum_sigma_pow(self, n, power):
        return np.log(np.asarray(n, dtype=float)) + power * math.log(self.sigma)

    def b2_over_max_var(self, k):
        """B_k^2 / max_{j<=k} sigma_j^2 = k."""
        return np.asarray(k, dtype=float)

    def weights(self, k: int) -> np.ndarray:
        """sigma_j / B_k for j = 1..k."""
        return np.full(_checked_draws(k), 1.0 / math.sqrt(k))


def _checked_draws(count: int) -> int:
    """count, the summands of one trial, unless past _MAX_TRIAL_DRAWS."""
    if count > _MAX_TRIAL_DRAWS:
        raise ValueError(
            f"a trial needs {count} summand draws, past the cap of {_MAX_TRIAL_DRAWS}"
        )
    return count


def _log1mexp(a):
    """log(1 - e^-a) for a > 0, accurate on both sides of a = ln 2.

    log1p(-e^-a) cancels as a -> 0 (ratio near 1), log(-expm1(-a)) as a grows;
    the split is Maechler's "Accurately computing log(1 - exp(-|a|))" (2012).
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(a < _LN2, np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))


@dataclass(frozen=True)
class GeometricProfile:
    """sigma_j^2 = ratio^(j-1); ratio > 1 gives exploding variances."""

    ratio: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.ratio < math.inf) or self.ratio == 1.0:
            raise FamilyConfigError(
                f"variance ratio must be positive, finite and != 1: {self.ratio}"
            )

    @property
    def is_constant(self) -> bool:
        return False

    @property
    def log_step(self) -> float:
        """q = -|log ratio|: log sigma_j^2 one step below sigma_j'^2, the larger."""
        return -abs(math.log(self.ratio))

    def log_b_squared(self, n):
        return self.log_sum_sigma_pow(n, 2.0)

    def log_sum_sigma_pow(self, n, power):
        # log of sum_{j<=n} q^(j-1) with q = ratio^(power/2)
        n = np.asarray(n, dtype=float)
        logq = 0.5 * power * math.log(self.ratio)
        if logq > 0:
            # (q^n - 1)/(q - 1) = q^(n-1) * (1 - q^-n) / (1 - 1/q)
            return n * logq + _log1mexp(n * logq) - logq - _log1mexp(logq)
        return _log1mexp(-n * logq) - _log1mexp(-logq)

    def b2_over_max_var(self, k):
        """B_k^2 / max_{j<=k} sigma_j^2 = expm1(k q) / expm1(q), q = -|log ratio|.

        The largest sigma_j is sigma_k when ratio > 1 and sigma_1 otherwise;
        either way the share is a sum of e^(q i), i = 0..k-1, whose expm1
        form has no cancellation near ratio 1 (the (r - r^(1-k)) / (r - 1)
        form loses ~1e-16 / (k |r - 1|) of relative precision).  Elementwise
        math.expm1, not np.expm1: numpy's SIMD loops round differently from
        libm on some hosts, and the summand weights must keep their bits.
        """
        q = self.log_step
        if np.ndim(k) == 0:  # one call per realized k from weights
            return math.expm1(k * q) / math.expm1(q)
        x = np.asarray(k, dtype=float) * q
        num = np.full_like(x, -1.0)  # expm1 is exactly -1.0 below -40
        live = x > -40.0
        num[live] = [math.expm1(v) for v in x[live].tolist()]
        return num / math.expm1(q)

    def weights(self, k: int) -> np.ndarray:
        """sigma_j / B_k, in the order of j, for the j <= k whose weight exceeds e^-42.

        Smaller weights (~5e-19) cannot move a float64 sum.  The weight i
        steps below the largest sigma_j is exp((q i - log S_k) / 2) with S_k
        from b2_over_max_var: subtracting log B_k from log sigma_j would cost
        up to ~1e-9 of the unit sum of squares near ratio 1, and ~1e-12 once
        k is in the thousands.  Only the steps up to (84 - log S_k) / |q| + 1,
        at most ceil(84 / |q|) + 1 of them, are built.
        """
        q = self.log_step
        log_s = math.log(self.b2_over_max_var(k))
        steps = np.arange(_checked_draws(min(k, math.ceil((84.0 - log_s) / -q) + 1)))
        if self.ratio > 1.0:  # the largest sigma_j is j = k
            steps = steps[::-1]
        logw = 0.5 * (q * steps - log_s)
        return np.exp(logw[logw > -42.0])


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummandFamily:
    """An indexed sequence of independent zero-mean summands sigma_j * Z."""

    kind: str
    law: Law
    profile: object
    params: dict = field(default_factory=dict)

    @property
    def index_free(self) -> bool:
        """S_k / B_k is N(0, 1) for every k, under either profile.

        True of the normal law: a weighted sum of independent normals is
        normal with variance B_k^2.  Its draws need no index.
        """
        return isinstance(self.law, NormalLaw)

    def batch_normalized_sums(self, rng: np.random.Generator, ks: np.ndarray) -> np.ndarray:
        """Draws of S_k / B_k for an array of realized indices, all from rng.

        An index-free family draws one standard normal per trial.  Laws with
        an exactly samplable k-fold sum (binomial, gamma) draw one value per
        trial on a constant profile, with a scalar shape when every trial has
        the same k.  Every other family groups the trials by
        k and multiplies (rows x k) summand matrices, at most
        _MAX_DRAW_ENTRIES entries each (one row when k is larger), by the
        weights sigma_j / B_k.  einsum without optimize reduces each row in a
        fixed order, where a BLAS product's bits vary with its thread count.
        """
        if self.index_free:
            return rng.standard_normal(len(ks))
        if self.profile.is_constant:
            shape = ks
            if len(ks) and (ks == ks[0]).all():  # a det index: one scalar shape
                shape = ks[0]
            sums = self.law.batch_sums(rng, shape, len(ks))
            if sums is not None:
                return sums / np.sqrt(shape)
        out = np.empty(len(ks))
        order = np.argsort(ks, kind="stable")
        uniq, starts = np.unique(ks[order], return_index=True)
        ends = np.append(starts[1:], len(ks))
        for k, lo, hi in zip(uniq, starts, ends):
            w = self.profile.weights(int(k))
            rows = max(1, _MAX_DRAW_ENTRIES // len(w))
            for a in range(lo, hi, rows):
                b = min(a + rows, hi)
                m = self.law.sample(rng, size=(b - a, len(w)))
                out[order[a:b]] = np.einsum("ij,j->i", m, w)
        return out


# ---------------------------------------------------------------------------
# Factory and CLI grammar
# ---------------------------------------------------------------------------

_LAWS = {
    "rademacher": RademacherLaw,
    "uniform": UniformLaw,
    "normal": NormalLaw,
    "expcentered": CenteredExponentialLaw,
}


def make_family(kind: str, **params) -> SummandFamily:
    """Construct a built-in family.

    Kinds: rademacher | uniform | normal[, sigma=s] | expcentered
           | geomnormal[, ratio=r]   (normal summands, sigma_j^2 = r^(j-1))
           | twopoint[, growth=r]    (two-point +-sigma_j, sigma_j^2 = r^(j-1))
    """
    kind = kind.lower()
    if kind in ("rademacher", "uniform", "expcentered"):
        _reject_extra(kind, params, ())
        return SummandFamily(kind=kind, law=_LAWS[kind](), profile=ConstantProfile())
    if kind == "normal":
        _reject_extra(kind, params, ("sigma",))
        sigma = float(params.get("sigma", 1.0))
        return SummandFamily(
            kind=kind, law=NormalLaw(), profile=ConstantProfile(sigma=sigma),
            params={"sigma": sigma},
        )
    if kind == "geomnormal":
        _reject_extra(kind, params, ("ratio",))
        ratio = float(params.get("ratio", 2.0))
        return SummandFamily(
            kind=kind, law=NormalLaw(), profile=GeometricProfile(ratio=ratio),
            params={"ratio": ratio},
        )
    if kind == "twopoint":
        _reject_extra(kind, params, ("growth",))
        growth = float(params.get("growth", 2.0))
        return SummandFamily(
            kind=kind, law=RademacherLaw(), profile=GeometricProfile(ratio=growth),
            params={"growth": growth},
        )
    raise FamilyConfigError(f"unknown family kind: {kind!r}")


def _reject_extra(kind, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise FamilyConfigError(f"family {kind!r} got unknown parameters: {sorted(extra)}")


def parse_family(spec: str) -> SummandFamily:
    """Parse the flag grammar '[family=]<kind>[,<key>=<value>...]'."""
    spec = spec.strip()
    if spec.startswith("family="):
        spec = spec[len("family="):]
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise FamilyConfigError("empty family spec")
    kind = parts[0]
    params = {}
    for item in parts[1:]:
        if "=" not in item:
            raise FamilyConfigError(f"malformed family parameter {item!r} in {spec!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError as exc:
            raise FamilyConfigError(f"non-numeric family parameter {item!r}") from exc
    return make_family(kind, **params)


def family_spec_string(family: SummandFamily) -> str:
    """Inverse of parse_family, written into the JSON outputs.

    Each parameter is its shortest round-trip repr, with a trailing '.0'
    dropped, so parse_family reads back the same floats.
    """
    if not family.params:
        return family.kind
    items = ",".join(
        f"{k}={v!r}".removesuffix(".0") for k, v in sorted(family.params.items())
    )
    return f"{family.kind},{items}"


BUILTIN_FAMILY_KINDS = (
    "rademacher",
    "uniform",
    "normal",
    "geomnormal",
    "twopoint",
    "expcentered",
)
