"""Distribution family contracts: moments, CDFs, cumulative variance, sampling."""

import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.integrate import quad

from oracles import (
    binomial_chisquare_pvalue,
    cdf,
    density,
    exact_tail,
    full_weights,
    law_cdf,
    law_support,
    per_k_normalized_sums,
    sigma,
    variance,
    weights_at,
)
from randclt.conditions import feller_values, lyapunov, max_threshold_ratio
from randclt.families import (
    BUILTIN_FAMILY_KINDS,
    CenteredExponentialLaw,
    ConstantProfile,
    FamilyConfigError,
    GeometricProfile,
    NormalLaw,
    RademacherLaw,
    UniformLaw,
    _MAX_DRAW_ENTRIES,
    family_spec_string,
    half_binomial_pmf,
    make_family,
    parse_family,
)
from randclt.indices import make_index
from randclt.montecarlo import _stream, draw_block

SQRT3 = math.sqrt(3.0)


def all_families():
    return [make_family(kind) for kind in BUILTIN_FAMILY_KINDS]


def _law_moment_oracle(law, power):
    """Independent moment oracle: atom sum or direct quadrature of |z|^p."""
    if law.atoms is not None:
        pts, masses = law.atoms
        return float(np.sum(masses * np.abs(pts) ** power))
    lo, hi = law_support(law)
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

    def test_normal_sigma64_median(self):
        fam = parse_family("geomnormal,ratio=4")  # sigma_7 = 4^3
        assert cdf(fam, 7, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FamilyConfigError):
            make_family("cauchy")

    def test_unknown_parameter_rejected(self):
        for kind, params in (("rademacher", {"scale": 2.0}), ("normal", {"sigma": 2.0})):
            with pytest.raises(FamilyConfigError):
                make_family(kind, **params)

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
                if law.atoms is not None:
                    pts, masses = law.atoms
                    mean = float(np.sum(masses * pts))
                    second = float(np.sum(masses * pts**2))
                else:
                    lo = max(law_support(law)[0], -60.0)
                    hi = min(law_support(law)[1], 60.0)
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
        assert float(fam.profile.log_b_squared(1)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(BUILTIN_FAMILY_KINDS), log_ratio=st.floats(-690.0, 690.0))
    @example(kind="twopoint", log_ratio=-690.0)
    @example(kind="geomnormal", log_ratio=690.0)
    @example(kind="twopoint", log_ratio=math.log1p(2.0**-52))
    def test_first_variance_is_one(self, kind, log_ratio):
        # sigma_1 = 1 for every family, at any ratio of a geometric profile:
        # each rates bound-shape term is at most B_1^-power = 1, and no B_k^2
        # that cf_identity_check forms lies below 1
        ratio = math.exp(log_ratio)
        assume(ratio != 1.0)
        fam = make_family(kind, **dict.fromkeys(make_family(kind).params, ratio))
        assert float(fam.profile.b2_over_max_var(1)) == 1.0
        assert abs(float(fam.profile.log_b_squared(1))) <= 2.0**-45

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
        w = weights_at(GeometricProfile(ratio=ratio), k)
        assert abs(float(np.sum(w * w)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("ratio", [1 - 1e-9, 1 + 1e-9, 0.5, 0.99, 1.01, 2.0, 4.0])
    def test_kept_steps_match_all_steps_bit_for_bit(self, ratio):
        # contiguous and in the order of j: a reversed view changes the bits
        # of the summand reductions
        prof = GeometricProfile(ratio=ratio)
        for k in range(1, 5001):
            w = weights_at(prof, k)
            assert w.flags.c_contiguous
            assert w.tobytes() == full_weights(prof, k).tobytes(), k

    @given(
        ratio=st.floats(0.9, 1.1).filter(lambda r: r != 1.0),
        k=st.integers(1, 50_000),
    )
    def test_kept_steps_match_all_steps_near_one(self, ratio, k):
        # ratios near 1 keep thousands of steps: past k ~ 84 / |log r| the
        # kept steps are fewer than k
        prof = GeometricProfile(ratio=ratio)
        assert weights_at(prof, k).tobytes() == full_weights(prof, k).tobytes()

    def test_huge_k_builds_only_kept_steps(self):
        # all 10^9 steps took 7.45 GiB for ~8k weights; numpy reports its
        # buffers to tracemalloc
        prof = GeometricProfile(ratio=1.01)
        tracemalloc.start()
        try:
            w = weights_at(prof, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) <= math.ceil(84 / abs(prof.log_step)) + 1
        assert abs(float(np.sum(w * w)) - 1.0) <= 1e-12
        assert peak < 2**20

    @pytest.mark.parametrize("profile, k, count", [
        (ConstantProfile(), 10**8 + 1, 10**8 + 1),
        (ConstantProfile(), 10**9, 10**9),
        (GeometricProfile(ratio=1 + 1e-12), 10**9, 10**9),
    ])
    def test_summand_draw_cap(self, profile, k, count):
        with pytest.raises(ValueError, match=rf"a trial needs {count} summand draws"):
            weights_at(profile, k)


LAWS = {
    "rademacher": RademacherLaw(),
    "uniform": UniformLaw(),
    "normal": NormalLaw(),
    "expcentered": CenteredExponentialLaw(),
}


class TestTailProb:
    """P(|Z| > t) of each law: the complement of the central probability."""

    @pytest.mark.parametrize("kind", sorted(LAWS))
    @settings(max_examples=40, deadline=None)
    @given(ts=st.lists(
        st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e308),
                  st.sampled_from([1.0, math.nextafter(1.0, 0.0), SQRT3, math.inf])),
        min_size=2,
    ))
    def test_a_probability_that_does_not_increase(self, kind, ts):
        p = LAWS[kind].tail_prob(np.sort(ts))
        assert ((p >= 0.0) & (p <= 1.0)).all(), p
        assert (np.diff(p) <= 0.0).all(), p

    def test_rademacher_is_strict_at_its_atom(self):
        law = LAWS["rademacher"]
        assert law.tail_prob(math.nextafter(1.0, 0.0)) == 1.0
        assert law.tail_prob(1.0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 37.5))
    @example(t=0.0)
    @example(t=37.5)
    @example(t=math.sqrt(2.0))  # z = 1, the P/Q branch's edge
    @example(t=8.0 * math.sqrt(2.0))  # z = 8, the R/S branch's edge
    def test_normal_within_relative_round_off_of_erfc(self, t):
        # 2 Phi(-t) from the fused kernel, whose shared exponential grows the
        # error by t^2 / 2 ulp; 4.53 + t^2 / 2 was the largest over 8,000 t
        got = float(LAWS["normal"].tail_prob(t))
        with mpmath.workdps(50):
            exact = exact_tail("normal", mpmath.mpf(t))
            assert abs(got - exact) <= (8.0 + 0.5 * t * t) * 2.0**-52 * exact, t

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 700.0))
    @example(t=1.0)
    @example(t=math.nextafter(1.0, 0.0))
    @example(t=1e-300)
    def test_expcentered_within_1e_14_of_its_closed_form(self, t):
        got = float(LAWS["expcentered"].tail_prob(t))
        with mpmath.workdps(50):
            exact = exact_tail("expcentered", mpmath.mpf(t))
            assert abs(got - exact) <= 1e-14 * exact, t

    @pytest.mark.parametrize("kind", sorted(LAWS))
    def test_extreme_inputs_raise_no_warning(self, kind):
        values = np.array([0.0, 1e-300, 1e308, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = LAWS[kind].tail_prob(values)
            for v in values:
                LAWS[kind].tail_prob(v)
        assert np.isfinite(out).all()


class TestSignRoots:
    """The sign roots of F - Phi are law constants, not solved at run time."""

    def test_brentq_over_cephes_returns_each_constant(self):
        from scipy.optimize import brentq
        from scipy.special import ndtr

        uniform, expo = UniformLaw(), CenteredExponentialLaw()

        def diff(law):
            return lambda z: float(law_cdf(law, z)) - ndtr(z)

        assert brentq(diff(uniform), 1e-8, SQRT3 - 1e-12, xtol=1e-15) == uniform.sign_root
        r1, r2 = expo.sign_roots
        assert brentq(diff(expo), -1.0 + 1e-13, 0.0, xtol=1e-15) == r1
        assert brentq(diff(expo), 1.0, 3.0, xtol=1e-15) == r2

    @pytest.mark.parametrize("law, root, ulps", [
        # brentq's xtol stops 4.8 spacings below the uniform root; the
        # expcentered constants have the root between their float neighbours
        (UniformLaw(), UniformLaw.sign_root, 8),
        (CenteredExponentialLaw(), CenteredExponentialLaw.sign_roots[0], 1),
        (CenteredExponentialLaw(), CenteredExponentialLaw.sign_roots[1], 1),
    ])
    def test_f_minus_phi_changes_sign_next_to_the_constant(self, law, root, ulps):
        lo, hi = root, root
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        with mpmath.workdps(50):
            exact = {
                UniformLaw: lambda z: (z + mpmath.sqrt(3)) / (2 * mpmath.sqrt(3)),
                CenteredExponentialLaw: lambda z: 1 - mpmath.exp(-(z + 1)),
            }[type(law)]
            signs = [mpmath.sign(exact(mpmath.mpf(z)) - mpmath.ncdf(z)) for z in (lo, hi)]
        assert signs[0] * signs[1] == -1


DKW_DRAWS = 100_000


def _assert_within_dkw(law, draws, kind):
    """The draws' ECDF within the two-sided DKW band at confidence 0.999 of law's CDF."""
    m = len(draws)
    band = math.sqrt(math.log(2.0 / 0.001) / (2.0 * m))
    draws = np.sort(draws)
    if law.atoms is not None:
        pts, masses = law.atoms
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        for a, lo, hi in zip(pts, cum[:-1], cum[1:]):
            below = np.searchsorted(draws, a, side="left") / m
            at_or_below = np.searchsorted(draws, a, side="right") / m
            assert abs(below - lo) < band, kind
            assert abs(at_or_below - hi) < band, kind
    else:
        ref = np.asarray(law_cdf(law, draws), dtype=float)
        i_hi = np.arange(1, m + 1) / m
        i_lo = np.arange(0, m) / m
        d = max(np.max(i_hi - ref), np.max(ref - i_lo))
        assert d < band, kind


class TestSampling:
    def test_rademacher_support(self):
        fam = make_family("rademacher")
        rng = Generator(Philox(key=[1, 2]))
        draws = set(sigma(fam, 1) * fam.law.sample(rng, size=64))
        assert draws <= {-1.0, 1.0}

    def test_empirical_cdf_within_dkw(self):
        # the laws drawn summand by summand; normal and expcentered draw
        # their sums instead (test_program_draws_within_dkw)
        for i, fam in enumerate(all_families()):
            if hasattr(fam.law, "sample"):
                draws = fam.law.sample(Generator(Philox(key=[11, i])), size=DKW_DRAWS)
                _assert_within_dkw(fam.law, draws, fam.kind)

    @pytest.mark.parametrize("kind", ["normal", "geomnormal", "expcentered"])
    def test_program_draws_within_dkw(self, kind):
        # S_k / B_k as simulate draws it: an index-free family's standard
        # normals from draw_block, expcentered's gamma sums at det k = 1
        fam = make_family(kind)
        rng = Generator(Philox(key=[12, BUILTIN_FAMILY_KINDS.index(kind)]))
        if fam.index_free:
            values, counts, draws = draw_block(fam, make_index("det", 10), DKW_DRAWS,
                                               None, rng, {})
            assert len(values) == len(counts) == 0
        else:
            draws = fam.batch_normalized_sums(rng, 1, DKW_DRAWS)
        _assert_within_dkw(fam.law, draws, kind)


class TestUniformBits:
    @pytest.mark.parametrize("size", [None, 1, 7, 65_537, (3, 5), (121, 541)])
    def test_matches_numpy_uniform(self, size):
        # random() scaled in place: the two roundings of low + (high - low) U
        got = UniformLaw().sample(_stream(3, 4), size)
        want = _stream(3, 4).uniform(-SQRT3, SQRT3, size)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestRademacherBits:
    """k-fold Rademacher sums are 2 Binomial(k, 1/2) - k, for every k."""

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 65])
    def test_binomial_goodness_of_fit(self, k):
        m = 200_000
        law = make_family("rademacher").law
        sums = law.batch_sums(Generator(Philox(key=[9, k])), np.full(m, k))
        assert np.all((sums + k) % 2 == 0) and np.all(np.abs(sums) <= k)
        observed = np.bincount((sums + k) // 2, minlength=k + 1)
        assert binomial_chisquare_pvalue(observed, k) > 1e-3


class TestSingleShape:
    """A block whose trials share one k draws with a scalar shape, same values."""

    @pytest.mark.parametrize("kind", ["rademacher", "expcentered"])
    @pytest.mark.parametrize("k", [1, 4, 64, 65, 256])
    def test_matches_array_shape(self, kind, k):
        fam = make_family(kind)
        ks = np.full(5_000, k)
        got = fam.batch_normalized_sums(Generator(Philox(key=[3, k])), ks)
        rng = Generator(Philox(key=[3, k]))
        if kind == "expcentered":
            sums = rng.standard_gamma(ks) - ks
        else:
            sums = 2 * rng.binomial(ks, 0.5) - ks
        assert np.array_equal(got, sums / np.sqrt(ks))


class TestWeightGroups:
    """Trials are drawn per run of equal weight vectors, with the bits of one group per k."""

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from([
            "twopoint,growth=0.5", "twopoint,growth=0.99", "twopoint,growth=1.001",
            "twopoint,growth=1.01", "twopoint,growth=1.5", "twopoint", "twopoint,growth=3",
            "uniform",
        ]),
        index=st.sampled_from(["det", "poisson", "geometric", "uniform"]),
        n=st.integers(1, 1500),
        trials=st.integers(0, 3000),
        seed=st.integers(0, 2**32),
    )
    # runs that cross a 2^16-entry matrix: 541 rows of growth 2's 121
    # weights (an odd count of 32-bit halves), 65 of growth 1.01's 1000 at
    # k = 1000, 8 of its 7,979 past saturation
    @example(spec="twopoint", index="geometric", n=1000, trials=5000, seed=1)
    @example(spec="twopoint,growth=1.01", index="det", n=1000, trials=200, seed=2)
    @example(spec="twopoint,growth=1.01", index="det", n=10_000, trials=20, seed=3)
    @example(spec="twopoint,growth=0.5", index="uniform", n=1500, trials=3000, seed=4)
    @example(spec="uniform", index="poisson", n=1000, trials=500, seed=5)
    # one draw spans many weight groups; a weight vector longer than 2^16
    @example(spec="twopoint", index="geometric", n=10, trials=3000, seed=8)
    @example(spec="uniform", index="det", n=70_000, trials=3, seed=9)
    @example(spec="twopoint", index="det", n=10, trials=0, seed=6)
    @example(spec="uniform", index="det", n=10, trials=0, seed=7)
    def test_matches_one_group_per_k(self, spec, index, n, trials, seed):
        fam = parse_family(spec)
        ks = make_index(index, n).sample(Generator(Philox(key=[seed, 1])), trials)
        ks = np.broadcast_to(ks, trials)  # a det index samples one scalar k
        got = fam.batch_normalized_sums(Generator(Philox(key=[seed, 2])), ks)
        want = per_k_normalized_sums(fam, Generator(Philox(key=[seed, 2])), ks)
        assert got.tobytes() == want.tobytes()

    def test_one_sample_call_per_chunk_of_a_weight_vector(self, monkeypatch):
        # the mc-sweep twopoint command at n = 1000: ~2,200 distinct k, ~120
        # distinct weight vectors, whose 569,448 entries pack into 9 draws of
        # at most 2^16, the fewest that hold them; a uniform det n = 70,000
        # draws one row per call
        calls = []

        def counted(sample):
            return lambda law, rng, size=None: calls.append(size) or sample(law, rng, size)

        for law in (RademacherLaw, UniformLaw):
            monkeypatch.setattr(law, "sample", counted(law.sample))
        fam = make_family("twopoint")
        ks = make_index("geometric", 1000).sample(Generator(Philox(key=[1, 1])), 5000)
        keys = fam.profile.weight_keys(ks)
        groups = {key: len(fam.profile.weights(key)) for key in keys}
        distinct = len({fam.profile.weights(key).tobytes() for key in groups})
        chunks, room = 0, 0  # the rows by k, packed while they fit
        for _, key in sorted(zip(ks.tolist(), keys)):
            if groups[key] > room:
                chunks, room = chunks + 1, _MAX_DRAW_ENTRIES
            room -= groups[key]
        fam.batch_normalized_sums(Generator(Philox(key=[1, 2])), ks)
        assert len(np.unique(ks)) >= 2000
        # k = 122 keeps 122 steps, whose last weight falls below e^-42: the
        # 121 weights of k = 121 under a second key
        assert distinct <= len(groups) <= distinct + 1 <= 130
        assert len(calls) == chunks == 9
        assert max(calls) <= _MAX_DRAW_ENTRIES
        assert sum(calls) == sum(groups[key] for key in keys) == 569_448
        calls.clear()
        make_family("uniform").batch_normalized_sums(Generator(Philox(key=[1, 3])), 70_000, 3)
        assert calls == [70_000] * 3

    @pytest.mark.parametrize("a, b, width", [(1, 1, 1), (3, 4, 123), (7, 2, 8445), (5, 5, 1)])
    def test_philox_carries_the_unused_half_word(self, a, b, width):
        # the premise of the grouped draws, on the generator that simulations
        # draw from (Philox's, when this test was named, carried it too): two
        # integers(0, 2) matrices give the values of their union even when the
        # first takes an odd number of 32-bit halves, and uniform carries nothing
        assert a * width % 2 == 1
        for draw in (lambda g, r: g.integers(0, 2, (r, width)),
                     lambda g, r: g.uniform(-SQRT3, SQRT3, (r, width)),
                     lambda g, r: UniformLaw().sample(g, (r, width))):
            rng = _stream(11, 12)
            split = np.concatenate([draw(rng, a), draw(rng, b)])
            whole = draw(_stream(11, 12), a + b)
            assert split.tobytes() == whole.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHalfBinomialPmf:
    """Binomial(k, 1/2) pmf cells against exact integer ratios."""

    @settings(max_examples=40, deadline=None)  # math.comb at k = 2^17 takes ~10 ms
    @given(
        k=st.integers(1, 2**17),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        near=st.lists(st.integers(-400, 400), max_size=6),
    )
    @example(k=1, fracs=[0.0, 1.0], near=[])
    @example(k=2**17, fracs=[0.0, 0.5, 1.0], near=[-400, -1, 1, 400])
    def test_matches_comb_over_power_of_two(self, k, fracs, near):
        h = sorted({round(f * k) for f in fracs} | {min(max(k // 2 + d, 0), k) for d in near})
        got = half_binomial_pmf(np.full(len(h), k), np.array(h))
        for hi, p in zip(h, got.tolist()):
            exact = math.comb(k, hi) / 2**k  # correctly rounded
            if hi in (0, k):
                assert p == math.ldexp(1.0, -k)
            elif exact >= sys.float_info.min:  # a normal float
                assert abs(p - exact) <= 1e-12 * exact, (k, hi)
            else:
                assert p <= 2.0 * sys.float_info.min

    @pytest.mark.parametrize("k", [1, 2, 3, 64, 65, 1000, 5000])
    def test_rows_sum_to_one(self, k):
        assert math.fsum(half_binomial_pmf(np.full(k + 1, k), np.arange(k + 1))) == (
            pytest.approx(1.0, abs=1e-12)
        )


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

    @given(
        key=st.sampled_from(["geomnormal,ratio", "twopoint,growth"]),
        value=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(key="twopoint,growth", value=1.000001)
    def test_spec_string_round_trips(self, key, value):
        kind, name = key.split(",")
        assume(value != 1.0)  # a geometric profile needs ratio != 1
        fam = make_family(kind, **{name: value})
        back = parse_family(family_spec_string(fam))
        assert (back.kind, back.params) == (fam.kind, fam.params)

    def test_default_spec_strings_keep_their_bytes(self):
        specs = [family_spec_string(make_family(k)) for k in BUILTIN_FAMILY_KINDS]
        assert specs == ["rademacher", "uniform", "normal", "geomnormal,ratio=2",
                         "twopoint,growth=2", "expcentered"]
