"""Random index models: closed-form tails, certified windows, sampling."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats

from randclt.indices import (
    TRUNCATION_CAP,
    Deterministic,
    IndexConfigError,
    ShiftedGeometric,
    ShiftedPoisson,
    UniformIndex,
    make_index,
    parse_index,
)

SUM_ROUNDOFF = 64 * 2.0**-52


def _oracle_outside(model, lo, hi):
    """Mass outside [lo, hi] from scipy.stats (or the point mass itself)."""
    if isinstance(model, Deterministic):
        return 0.0 if lo <= model.n <= hi else 1.0
    law = {
        ShiftedPoisson: lambda: stats.poisson(model.lam, loc=1),
        ShiftedGeometric: lambda: stats.geom(model.p),
        UniformIndex: lambda: stats.randint(1, model.m + 1),
    }[type(model)]()
    with np.errstate(divide="ignore"):  # geom at p = 1 takes log1p(-1)
        return float(law.cdf(lo - 1) + law.sf(hi))


def _poisson_pmf_mp(lam, k):
    """P(1 + Poisson(lam) = k) at 40 digits."""
    with mpmath.workdps(40):
        x = k - 1
        return mpmath.exp(x * mpmath.log(lam) - lam - mpmath.loggamma(x + 1))


class TestPmf:
    def test_deterministic_point_mass(self):
        model = Deterministic(7)
        assert model.cdf(7) == 1.0
        assert model.cdf(6) == 0.0
        assert model.sf(7) == 0.0

    def test_shifted_poisson_at_origin(self):
        # oracle: Poisson(2) pmf at 0 is e^-2
        model = ShiftedPoisson(2, lam=2.0)
        assert model.cdf(1) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert model.cdf(1) == pytest.approx(0.1353352832366127, rel=1e-12)
        assert model.support[0] == 1
        assert model.probs[0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_geometric_pmf(self):
        model = ShiftedGeometric(5, p=0.2)
        assert model.cdf(1) == pytest.approx(0.2, rel=1e-14)
        assert model.cdf(3) - model.cdf(2) == pytest.approx(0.2 * 0.8**2, rel=1e-13)
        assert model.probs[2] == pytest.approx(0.2 * 0.8**2, rel=1e-13)

    def test_enumerated_mass_reaches_target(self):
        for model in (
            make_index("poisson", 50),
            make_index("geometric", 75),
            make_index("uniform", 40),
            Deterministic(12),
        ):
            assert float(model.probs.sum()) >= 1.0 - 1e-12
            assert model.truncation_tail_mass <= 1e-12

    def test_bad_parameters(self):
        with pytest.raises(IndexConfigError):
            ShiftedGeometric(1, p=1.5)
        with pytest.raises(IndexConfigError):
            ShiftedPoisson(1, lam=math.inf)
        with pytest.raises(IndexConfigError):
            UniformIndex(1, m=0)
        with pytest.raises(IndexConfigError):
            make_index("zeta", 10)


class TestWindow:
    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_poisson_tail_covers_closed_form_mass(self, n):
        # 1 - sum(pmf) loses this tail to round-off: it reads 3.0e-13 and
        # 6.1e-13 where the mass outside the table is 1.4e-11 and 5.8e-11
        model = make_index("poisson", n)
        lo, hi = model.window
        assert model.truncation_tail_mass >= _oracle_outside(model, lo, hi)
        assert model.truncation_tail_mass <= 1e-12

    @pytest.mark.parametrize("lam", [1e4, 1e6])
    def test_poisson_probs_match_high_precision(self, lam):
        model = make_index("poisson", int(lam))
        lo, hi = model.window
        for k in np.unique(np.linspace(lo, hi, 41).astype(int)):
            exact = _poisson_pmf_mp(lam, int(k))
            got = model.probs[k - lo]
            assert abs(float((got - exact) / exact)) <= 1e-12, k

    def test_cap_is_a_loud_configuration_error(self):
        with pytest.raises(IndexConfigError) as info:
            make_index("geometric", 1_000_000)
        msg = str(info.value)
        for part in ("geometric", "n=1000000", "1e-12", str(TRUNCATION_CAP)):
            assert part in msg
        assert int(re.search(r"needs (\d+) terms", msg).group(1)) > 2.7e7

    @pytest.mark.parametrize("lam", [1e100, 1e300])
    def test_poisson_cap_names_no_uncertified_count(self, lam):
        # the window is ~14 sqrt(lam) terms, but pdtr/pdtrc read near k ~ lam
        # put its searched ends 1.9e84 apart at lam = 1e100
        with pytest.raises(IndexConfigError) as info:
            ShiftedPoisson(5, lam=lam)
        msg = str(info.value)
        assert f"needs more than {TRUNCATION_CAP} terms, past the cap" in msg
        assert re.search(r"needs \d+ terms", msg) is None

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["det", "poisson", "geometric", "uniform"]),
        n=st.integers(1, 1_000_000),
        log10_tau=st.floats(-15.0, -3.0),
    )
    def test_window_certifies_its_tail(self, kind, n, log10_tau):
        tau = 10.0**log10_tau
        try:
            model = make_index(kind, n, target=tau)
        except IndexConfigError as exc:
            assert "past the cap" in str(exc)
            return
        lo, hi = model.window
        tail = model.truncation_tail_mass
        # q^k = exp(k log q) carries k ulps of log q, up to |log tau| ~ 35
        # ulps of the result, in scipy's evaluation as in ours
        assert tail >= _oracle_outside(model, lo, hi) * (1.0 - SUM_ROUNDOFF)
        assert tail <= tau
        assert abs(1.0 - float(model.probs.sum()) - tail) <= SUM_ROUNDOFF


class TestExpectations:
    def test_deterministic_reduction_is_exact(self):
        model = Deterministic(9)
        est = model.expect_values(np.sqrt(model.support), abs_bound=100.0)
        assert est.value == 3.0
        assert est.truncation_error_bound == 0.0
        assert est.terms_used == 1

    def test_normalization(self):
        for model in (make_index("poisson", 12), ShiftedGeometric(20, p=0.05),
                      make_index("uniform", 30)):
            est = model.expect_values(np.ones(len(model.support)), 1.0)
            assert est.value == pytest.approx(1.0, abs=2e-12)

    def test_shifted_poisson_mean(self):
        # oracle: E(1 + Poisson(lam)) = 1 + lam
        model = ShiftedPoisson(3, lam=3.0)
        est = model.expect_values(model.support.astype(float), abs_bound=1e4)
        assert est.value == pytest.approx(4.0, abs=1e-8)

    def test_infinite_bound_rejected(self):
        model = make_index("poisson", 4)
        with pytest.raises(ValueError):
            model.expect_values(model.support.astype(float), abs_bound=math.inf)


class TestSampling:
    def test_deterministic_always_n(self):
        model = Deterministic(12)
        rng = Generator(Philox(key=[3, 1]))
        assert set(model.sample(rng, 100).tolist()) == {12}

    def test_uniform_mean_band(self):
        # oracle (n + 1) / 2 with a 4-standard-error band at 1e6 draws
        model = make_index("uniform", 10)
        rng = Generator(Philox(key=[3, 2]))
        draws = model.sample(rng, 1_000_000)
        assert abs(float(np.mean(draws)) - 5.5) < 0.02

    def test_identical_seed_identical_draws(self):
        model = ShiftedGeometric(100, p=0.01)
        a = model.sample(Generator(Philox(key=[5, 5])), 1000)
        b = model.sample(Generator(Philox(key=[5, 5])), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["poisson", "geometric"])
    @pytest.mark.parametrize("n", [10, 1000])
    def test_native_draws_match_inverse_cdf_table(self, kind, n):
        # two-sample KS of the native sampler against inverse-CDF draws over
        # the certified table (the sampler this one replaces)
        model = make_index(kind, n)
        u = Generator(Philox(key=[7, n])).random(20_000)
        idx = np.searchsorted(np.cumsum(model.probs), u, side="right")
        table = model.support[np.minimum(idx, len(model.support) - 1)]
        native = model.sample(Generator(Philox(key=[8, n])), 20_000)
        assert stats.ks_2samp(native, table).pvalue > 1e-3


class TestDivergence:
    def test_prob_of_small_index_decays(self):
        # realization of the divergence-in-probability requirement: the mass
        # below K = 10 decreases strictly along n and is near its closed-form
        # floor at n = 1000 (1e-2 for the uniform and geometric kinds, far
        # smaller for the shifted Poisson)
        for kind in ("poisson", "geometric", "uniform"):
            probs = [make_index(kind, n).cdf(10) for n in (10, 100, 1000)]
            assert probs[0] > probs[1] > probs[2], kind
            assert probs[2] < 1.05e-2, kind
        assert make_index("poisson", 1000).cdf(10) < 1e-3

    def test_prob_matches_enumeration(self):
        for kind in ("poisson", "geometric", "uniform"):
            model = make_index(kind, 50)
            enum = float(model.probs[model.support <= 10].sum())
            assert model.cdf(10) == pytest.approx(enum, abs=1e-12), kind


class TestParsing:
    def test_kind_only(self):
        assert parse_index("geometric") == ("geometric", None)

    def test_kind_with_param(self):
        assert parse_index("det:5") == ("det", 5.0)

    def test_unknown_kind(self):
        with pytest.raises(IndexConfigError):
            parse_index("zipf:2")

    def test_non_numeric_param(self):
        with pytest.raises(IndexConfigError):
            parse_index("poisson:many")

    def test_make_index_defaults(self):
        assert make_index("det", 42).n == 42
        assert make_index("poisson", 6).lam == 6.0
        assert make_index("geometric", 20).p == pytest.approx(0.05)
        assert make_index("uniform", 15).m == 15
