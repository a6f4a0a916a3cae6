"""Distribution family contracts: moments, CDFs, cumulative variance, sampling."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.integrate import quad

from oracles import cdf, density, sigma, variance
from randclt.conditions import feller_values, lyapunov, max_threshold_ratio
from randclt.families import (
    BUILTIN_FAMILY_KINDS,
    FamilyConfigError,
    GeometricProfile,
    make_family,
    parse_family,
)

SQRT3 = math.sqrt(3.0)


def all_families():
    return [make_family(kind) for kind in BUILTIN_FAMILY_KINDS]


def _law_moment_oracle(law, power):
    """Independent moment oracle: atom sum or direct quadrature of |z|^p."""
    if law.is_discrete:
        pts, masses = law.atoms
        return float(np.sum(masses * np.abs(pts) ** power))
    lo, hi = law.support
    lo = max(lo, -60.0)
    hi = min(hi, 60.0)
    val, _ = quad(lambda z: abs(z) ** power * float(density(law, z)), lo, hi, limit=300)
    return val


class TestCdf:
    def test_rademacher_symmetry_point(self):
        fam = make_family("rademacher")
        assert cdf(fam, 1, 0.0) == 0.5

    def test_rademacher_full_mass(self):
        fam = make_family("rademacher")
        assert cdf(fam, 1, 1.5) == 1.0
        assert cdf(fam, 3, -1.5) == 0.0

    def test_normal_sigma2_median(self):
        fam = make_family("normal", sigma=2.0)
        assert cdf(fam, 7, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FamilyConfigError):
            make_family("cauchy")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FamilyConfigError):
            make_family("rademacher", scale=2.0)

    def test_nondecreasing_on_grid(self):
        xs = np.linspace(-4, 4, 401)
        for fam in all_families():
            vals = cdf(fam, 2, xs)
            assert np.all(np.diff(vals) >= -1e-15), fam.kind
            assert np.all((vals >= 0) & (vals <= 1)), fam.kind


class TestMoments:
    def test_rademacher_third(self):
        assert make_family("rademacher").law.abs_moment(3.0) == 1.0

    def test_normal_first_absolute(self):
        # oracle: high-resolution quadrature of integral |x| phi(x) dx
        oracle = 2.0 * quad(
            lambda z: z * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), 0, 40
        )[0]
        assert oracle == pytest.approx(0.7978845608028654, rel=1e-12)
        assert make_family("normal").law.abs_moment(1.0) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_uniform_second_is_variance(self):
        assert make_family("uniform").law.abs_moment(2.0) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_every_law_matches_quadrature_oracle(self):
        for fam in all_families():
            for power in (1.0, 1.5, 2.0, 3.0):
                oracle = _law_moment_oracle(fam.law, power)
                assert fam.law.abs_moment(power) == pytest.approx(
                    oracle, rel=1e-7
                ), (fam.kind, power)

    def test_scale_families_scale_moments(self):
        # Lyapunov reads E|X_j|^3 = sigma_j^3 E|Z|^3: sigma_j = 1, sqrt(2), 2
        # and B_3^2 = 7 give (1 + 2 sqrt(2) + 8) / 7^1.5
        value = lyapunov(make_family("twopoint", growth=2.0), 3, 1.0).value
        assert value == pytest.approx((9.0 + 2.0 * math.sqrt(2.0)) / 7.0**1.5, rel=1e-13)

    def test_mean_and_variance_integrate_correctly(self):
        # every built-in law has mean 0 and unit variance to 1e-9
        for fam in all_families():
            for j in (1, 7, 50):
                law = fam.law
                if law.is_discrete:
                    pts, masses = law.atoms
                    mean = float(np.sum(masses * pts))
                    second = float(np.sum(masses * pts**2))
                else:
                    lo = max(law.support[0], -60.0)
                    hi = min(law.support[1], 60.0)
                    mean = quad(lambda z: z * float(density(law, z)), lo, hi, limit=300)[0]
                    second = quad(
                        lambda z: z * z * float(density(law, z)), lo, hi, limit=300
                    )[0]
                var_j = variance(fam, j)
                assert abs(mean) * var_j < 1e-9, fam.kind
                assert second == pytest.approx(1.0, abs=1e-9), fam.kind


class TestPartialVariance:
    def test_iid_root(self):
        prof = make_family("rademacher").profile
        assert float(prof.log_b_squared(25)) == pytest.approx(math.log(25.0), rel=1e-15)

    def test_geometric_closed_form(self):
        prof = make_family("geomnormal").profile
        assert float(prof.log_b_squared(10)) == pytest.approx(
            math.log(1023.0), rel=1e-15
        )

    def test_single_term(self):
        fam = make_family("twopoint", growth=2.0)
        assert float(fam.profile.log_b_squared(1)) == pytest.approx(
            float(fam.profile.log_variance_at(1)), abs=1e-15
        )

    def test_strictly_increasing(self):
        for fam in all_families():
            logb2 = [float(fam.profile.log_b_squared(n)) for n in range(1, 60)]
            assert all(x < y for x, y in zip(logb2, logb2[1:])), fam.kind

    def test_log_matches_value_at_moderate_n(self):
        # against the log of the termwise float sum of the variances
        for fam in all_families():
            direct = math.log(sum(variance(fam, j) for j in range(1, 38)))
            assert float(fam.profile.log_b_squared(37)) == pytest.approx(
                direct, rel=1e-12
            ), fam.kind

    def test_log_survives_overflow(self):
        # B_n^2 = 2^5000 - 1 overflows float64; its log does not
        prof = make_family("geomnormal").profile
        assert float(prof.log_b_squared(5000)) == pytest.approx(
            5000 * math.log(2.0), rel=1e-12
        )


def _log_sum_sigma_pow_oracle(ratio, n, power):
    """log sum_{j<=n} sigma_j^power for sigma_j^2 = ratio^(j-1), at 50 digits."""
    with mpmath.workdps(50):
        q = mpmath.mpf(ratio) ** (mpmath.mpf(power) / 2)
        return float(mpmath.log((q**n - 1) / (q - 1)))


class TestGeometricLogSums:
    @given(
        ratio=st.one_of(st.floats(1.0 - 1e-3, 1.0 + 1e-3), st.floats(0.5, 4.0))
        .filter(lambda r: r != 1.0),
        n=st.integers(1, 2000),
        power=st.sampled_from([1.0, 2.0, 3.0]),
    )
    def test_log_sum_sigma_pow_matches_high_precision(self, ratio, n, power):
        got = float(GeometricProfile(ratio=ratio).log_sum_sigma_pow(n, power))
        exact = _log_sum_sigma_pow_oracle(ratio, n, power)
        # absolute below 1, relative above: at ratio 4, n = 2000 the log is
        # ~4e3, where the float64 spacing alone is ~9e-13
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


def _variance_share_oracle(ratio, k):
    """B_k^2 / max_{j<=k} sigma_j^2 for sigma_j^2 = ratio^(j-1), at 50 digits."""
    with mpmath.workdps(50):
        r = mpmath.mpf(ratio)
        b2 = (r**k - 1) / (r - 1)
        return b2 / max(mpmath.mpf(1), r ** (k - 1))


# ratio within 1e-3 of 1, its distance drawn on a log scale so that the
# cancelling region next to 1 is reached, or ratio anywhere in [0.5, 4]
_NEAR_ONE = st.builds(
    lambda e, sign: 1.0 + sign * 10.0**e,
    st.floats(-15.0, -3.0),
    st.sampled_from([-1, 1]),
)


class TestGeometricVarianceShare:
    @given(
        ratio=st.one_of(_NEAR_ONE, st.floats(0.5, 4.0)).filter(lambda r: r != 1.0),
        k=st.integers(1, 5000),
        eps=st.floats(0.01, 2.0),
    )
    @example(ratio=1.0 + 1e-6, k=2, eps=0.5)
    def test_feller_and_threshold_match_high_precision(self, ratio, k, eps):
        fam = make_family("twopoint", growth=ratio)
        share = _variance_share_oracle(ratio, k)
        with mpmath.workdps(50):
            feller_exact = float(1 / share)
            threshold_exact = float(mpmath.mpf(eps) * mpmath.sqrt(share))
        got_feller = float(feller_values(fam, np.array([k]))[0])
        got_threshold = float(max_threshold_ratio(fam, np.array([k]), eps)[0])
        assert abs(got_feller - feller_exact) <= 1e-13 * feller_exact
        assert abs(got_threshold - threshold_exact) <= 1e-13 * threshold_exact

    def test_constant_profile_share_is_k(self):
        prof = make_family("uniform").profile
        assert list(prof.b2_over_max_var(np.array([1, 7, 10**6]))) == [1.0, 7.0, 1e6]


class TestSummandWeights:
    @given(
        ratio=st.floats(0.5, 4.0).filter(lambda r: r != 1.0),
        k=st.integers(1, 5000),
    )
    def test_kept_weights_have_unit_sum_of_squares(self, ratio, k):
        w = GeometricProfile(ratio=ratio).weights(k)
        assert abs(float(np.sum(w * w)) - 1.0) <= 1e-12


class TestSampling:
    def test_rademacher_support(self):
        fam = make_family("rademacher")
        rng = Generator(Philox(key=[1, 2]))
        draws = set(sigma(fam, 1) * fam.law.sample(rng, size=64))
        assert draws <= {-1.0, 1.0}

    def test_identical_seeds_identical_draws(self):
        fam = make_family("expcentered")
        a = [sigma(fam, j) * fam.law.sample(Generator(Philox(key=[9, j])))
             for j in range(1, 6)]
        b = [sigma(fam, j) * fam.law.sample(Generator(Philox(key=[9, j])))
             for j in range(1, 6)]
        assert a == b

    def test_normal_mean_band(self):
        # CLT band: mean of 1e6 draws within 4 sigma / 1e3
        fam = make_family("normal", sigma=2.0)
        rng = Generator(Philox(key=[4, 4]))
        draws = 2.0 * fam.law.sample(rng, size=1_000_000)
        assert abs(float(np.mean(draws))) < 4.0 * 2.0 / 1e3

    def test_empirical_cdf_within_dkw(self):
        # two-sided DKW at confidence 0.999 for 1e5 draws per family
        m = 100_000
        band = math.sqrt(math.log(2.0 / 0.001) / (2.0 * m))
        for i, fam in enumerate(all_families()):
            rng = Generator(Philox(key=[11, i]))
            draws = np.sort(fam.law.sample(rng, size=m))
            if fam.law.is_discrete:
                pts, masses = fam.law.atoms
                cum = np.concatenate([[0.0], np.cumsum(masses)])
                for a, lo, hi in zip(pts, cum[:-1], cum[1:]):
                    below = np.searchsorted(draws, a, side="left") / m
                    at_or_below = np.searchsorted(draws, a, side="right") / m
                    assert abs(below - lo) < band, fam.kind
                    assert abs(at_or_below - hi) < band, fam.kind
            else:
                ref = np.asarray(fam.law.cdf(draws), dtype=float)
                i_hi = np.arange(1, m + 1) / m
                i_lo = np.arange(0, m) / m
                d = max(np.max(i_hi - ref), np.max(ref - i_lo))
                assert d < band, fam.kind


class TestParsing:
    def test_grammar_round_trip(self):
        fam = parse_family("twopoint,growth=3")
        assert fam.kind == "twopoint"
        assert fam.profile.ratio == 3.0

    def test_malformed_parameter(self):
        with pytest.raises(FamilyConfigError):
            parse_family("normal,sigma")

    def test_non_numeric_parameter(self):
        with pytest.raises(FamilyConfigError):
            parse_family("normal,sigma=big")
