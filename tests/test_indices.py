"""Random index models: certified windows and outside mass, Poisson tails, sampling."""

import ast
import math
import re
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats

from oracles import poisson_outside_mass, searched_geometric_window
import randclt.indices
from randclt.indices import (
    _STIRLERR,
    TRUNCATION_CAP,
    Deterministic,
    IndexConfigError,
    ShiftedGeometric,
    ShiftedPoisson,
    UniformIndex,
    _log_pmf,
    _poisson_tail,
    _stirlerr,
    index_spec_string,
    make_index,
    parse_index,
)
from randclt.montecarlo import _stream

SUM_ROUNDOFF = 64 * 2.0**-52


def _scipy_law(model):
    """scipy.stats' law of a random (non-point-mass) index model, at its own parameter."""
    return {
        ShiftedPoisson: lambda: stats.poisson(model.lam, loc=1),
        ShiftedGeometric: lambda: stats.geom(model.p),
        UniformIndex: lambda: stats.randint(1, model.m + 1),
    }[type(model)]()


def _oracle_outside(model, lo, hi):
    """Mass outside [lo, hi] from scipy.stats (or the point mass itself)."""
    if isinstance(model, Deterministic):
        return 0.0 if lo <= model.n <= hi else 1.0
    law = _scipy_law(model)
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
        assert model.window == (7, 7)
        assert model.probs.tolist() == [1.0]

    def test_shifted_poisson_at_origin(self):
        # oracle: Poisson(2) pmf at 0 is e^-2
        model = ShiftedPoisson(2, lam=2.0)
        assert model.support[0] == 1
        assert model.probs[0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_geometric_pmf(self):
        model = ShiftedGeometric(5, p=0.2)
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
        # each kind's domain is checked when the model is made, on the field it names
        for kind, n, param, words in (
            ("det", 0, None, ">= 1: 0"), ("det", 5, -3, ">= 1: -3"),
            ("uniform", 5, 0, ">= 1: 0"), ("poisson", 5, 0.0, "positive and finite: 0.0"),
            ("poisson", 5, math.nan, "positive and finite: nan"),
            ("geometric", 5, 0.0, "in (0, 1]: 0.0"), ("geometric", 5, 1.5, "in (0, 1]: 1.5"),
        ):
            with pytest.raises(IndexConfigError, match=re.escape(f"must be {words}")):
                make_index(kind, n, param)

    def test_window_past_the_cap_is_refused_on_first_read(self):
        # geometric n = 1e6 needs 2.8e7 window terms: the model is made and
        # samples natively, and only reading its window refuses it
        model = make_index("geometric", 1_000_000)
        ks = model.sample(_stream(1, 0), 1000)
        assert ks.shape == (1000,) and ks.min() >= 1 and 5e5 < ks.mean() < 2e6
        for read in ("window", "truncation_tail_mass", "support", "probs"):
            with pytest.raises(IndexConfigError, match="needs 27645321 terms, past the cap"):
                getattr(model, read)


class TestGeometricEdges:
    """sf takes k log1p(-p) with xlog1py's edge cases (oracle: scipy)."""

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.1, 1e-3, 1e-5])
    @pytest.mark.parametrize("k", [-3, 0, 1, 2, 7, 1000])
    def test_matches_xlog1py(self, p, k):
        from scipy.special import xlog1py

        model = ShiftedGeometric(1, p=p)
        log_sf = xlog1py(max(k, 0), -p)
        if k <= 0 or p == 1.0:  # 0 at k <= 0, -inf at p = 1: both exact
            assert model.sf(k) == math.exp(log_sf)
        else:
            assert model.sf(k) == pytest.approx(math.exp(log_sf), rel=1e-14)

    def test_n_one_is_the_point_mass_at_one(self):
        model = make_index("geometric", 1)
        assert model.window == (1, 1)
        assert model.probs.tolist() == [1.0]
        assert model.truncation_tail_mass == 0.0
        assert (model.sf(0), model.sf(1)) == (1.0, 0.0)


class TestGeometricSampler:
    """The vectorized inversion below p = 1/3 draws rng.geometric's bits."""

    @pytest.mark.parametrize("p", [
        1.0, 0.5, 1 / 3, math.nextafter(1 / 3, 0.0), 0.1, 1e-3, 2.0**-20,
    ])
    @pytest.mark.parametrize("size", [0, 1, 100_003])
    def test_matches_numpy_geometric(self, p, size):
        model = ShiftedGeometric(1, p=p, target=1e-3)  # 2^-20 keeps a window below the cap
        got = model.sample(_stream(5, 6), size)
        want = _stream(5, 6).geometric(p, size)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1e-18, 2e-19, 1e-300])
    def test_clamps_past_int64_as_numpy_does(self, p):
        # no window below the cap exists here: sample reads only p.  A draw
        # reaches 2^63 and reads INT64_MAX where E > 9.2 at 1e-18 (about one
        # in 10^4; this stream has one), E > 1.8 at 2e-19, almost always at 1e-300
        model = SimpleNamespace(p=p)
        got = ShiftedGeometric.sample(model, _stream(5, 7), 10_000)
        want = _stream(5, 7).geometric(p, 10_000)
        assert got.tobytes() == want.tobytes()
        assert np.iinfo(np.int64).max in got.tolist()


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
            make_index("geometric", 1_000_000).window
        msg = str(info.value)
        for part in ("geometric", "n=1000000", "1e-12", str(TRUNCATION_CAP)):
            assert part in msg
        assert int(re.search(r"needs (\d+) terms", msg).group(1)) > 2.7e7

    @pytest.mark.parametrize("lam", [1e100, 1e300])
    def test_poisson_cap_names_no_uncertified_count(self, lam):
        # the window is ~14 sqrt(lam) terms, but pdtr/pdtrc read near k ~ lam
        # put its searched ends 1.9e84 apart at lam = 1e100
        with pytest.raises(IndexConfigError) as info:
            ShiftedPoisson(5, lam=lam).window
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
        model = make_index(kind, n, target=tau)
        try:
            lo, hi = model.window
        except IndexConfigError as exc:
            assert "past the cap" in str(exc)
            return
        tail = model.truncation_tail_mass
        # q^k = exp(k log q) carries k ulps of log q, up to |log tau| ~ 35
        # ulps of the result, in scipy's evaluation as in ours
        assert tail >= _oracle_outside(model, lo, hi) * (1.0 - SUM_ROUNDOFF)
        assert tail <= tau
        assert abs(1.0 - float(model.probs.sum()) - tail) <= SUM_ROUNDOFF

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["det", "geometric", "uniform"]),
        n=st.integers(1, 100_000),
        log10_tau=st.floats(-15.0, -3.0),
    )
    @example(kind="geometric", n=1, log10_tau=-12.0)  # p = 1: the point mass at 1
    @example(kind="geometric", n=3, log10_tau=-12.0)
    def test_outside_mass_bits(self, kind, n, log10_tau):
        # geometric: q^hi = exp(hi log1p(-p)) at the window's end, bit for
        # bit; det and uniform: +0.0, their windows hold the whole law
        model = make_index(kind, n, target=10.0**log10_tau)
        _, hi = model.window
        want = 0.0
        if kind == "geometric" and model.p < 1.0:
            want = math.exp(hi * math.log1p(-model.p))
        assert model.truncation_tail_mass.hex() == want.hex()

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(-14.0, 0.0).map(lambda e: 10.0**e), tau=st.floats(1e-15, 0.999))
    @example(p=1.0, tau=1e-12)  # the point mass at 1
    @example(p=1 / 3, tau=1e-12)
    @example(p=math.nextafter(1 / 3, 0.0), tau=1e-12)
    @example(p=1e-6, tau=1e-12)  # geometric n = 1e6, past the cap
    # the rounded-up ratio reads one below the least k, and one above it
    @example(p=1e-14, tau=1e-10)
    @example(p=1e-14, tau=1e-15)
    def test_closed_form_window_matches_the_search(self, p, tau):
        model = ShiftedGeometric(1, p=p, target=tau)
        (lo, hi), mass = model._window_and_mass()
        assert hi < 2**52  # where each k is an exact float
        (want_lo, want_hi), want_mass = searched_geometric_window(model)
        assert (lo, hi, mass.hex()) == (want_lo, want_hi, want_mass.hex())

    def test_window_past_exact_floats_ends(self):
        # at p = 1e-300, k - 1 and k round to one float: an unguarded step
        # toward the least k would never end; the refusal names the count
        with pytest.raises(IndexConfigError, match=r"needs \d+ terms, past the cap"):
            ShiftedGeometric(1, p=1e-300).window


class TestPoissonTails:
    """Numpy pmf walks against mpmath: Loader's pmf, the tails, the window's mass."""

    def test_stirlerr_table_and_series(self):
        # the table to an ulp; stirlerr enters the log pmf as a summand, so the
        # series (truncated at n = 16 to ~2e-14 relative) needs absolute accuracy
        with mpmath.workdps(50):
            for n in list(range(1, 16)) + [16, 35, 36, 80, 81, 500, 501, 10**6]:
                exact = (mpmath.loggamma(n + 1) - (n + mpmath.mpf(0.5)) * mpmath.log(n)
                         + n - mpmath.log(2 * mpmath.pi) / 2)
                if n <= 15:
                    assert abs(_STIRLERR[n] - exact) <= 2.0**-53 * abs(exact), n
                assert abs(_stirlerr(float(n)) - exact) <= 2.0**-52, n

    @pytest.mark.parametrize("lam", [1e-3, 0.7, 12.5, 1e3, 1e6, 1e11])
    def test_log_pmf_matches_high_precision(self, lam):
        for x in sorted({0, 1, math.floor(lam), math.floor(lam + 9 * math.sqrt(lam)) + 3}):
            with mpmath.workdps(50):
                exact = x * mpmath.log(lam) - lam - mpmath.loggamma(x + 1)
            assert abs(_log_pmf([float(x)], lam)[0] - exact) <= 1e-14 * max(1.0, abs(exact))

    @pytest.mark.parametrize("lam", [0.3, 7.0, 1e4, 1e9])
    def test_poisson_tail_matches_high_precision(self, lam):
        # each tail is walked on its side of the mode: P(X <= k - 1) below
        # lam, P(X >= k) from it
        sd = math.sqrt(lam)
        for k in sorted({1, 2, math.floor(lam), math.floor(lam - 5 * sd),
                         math.ceil(lam + 6 * sd) + 3}):
            if k < 1:
                continue
            with mpmath.workdps(50):  # P(X <= k - 1) = Q(k, lam)
                cdf = mpmath.gammainc(k, lam, mpmath.inf, regularized=True)
            if k - 1 < lam:
                got, want = _poisson_tail(lam, k - 1, -1), cdf
            else:
                got, want = _poisson_tail(lam, k, 1), 1 - cdf
            assert abs(got - want) <= 1e-12 * min(cdf, 1 - cdf) + 1e-16, k

    @settings(max_examples=10, deadline=None)
    @given(log10_lam=st.floats(-3.0, 11.0), log10_tau=st.floats(-15.0, -3.0))
    @example(log10_lam=-3.0, log10_tau=-12.0)
    @example(log10_lam=11.0, log10_tau=-12.0)
    def test_tail_mass_bounds_the_exact_mass(self, log10_lam, log10_tau):
        # no slack: the walks pad their sums by 2^-32 (relative) for round-off,
        # so the reported mass is at least the exact mass outside the window
        # and at most 1e-8 (relative) above it
        lam, tau = 10.0**log10_lam, 10.0**log10_tau
        model = ShiftedPoisson(1, lam=lam, target=tau)
        lo, hi = model.window
        exact = poisson_outside_mass(lam, lo, hi)
        tail = model.truncation_tail_mass
        assert exact <= tail <= exact * (1 + 1e-8)
        assert tail <= tau
        if math.exp(-lam) > tau:  # P(X = 0) alone exceeds tau / 2
            assert lo == 1

    @settings(max_examples=30, deadline=None)
    @given(
        log10_lam=st.floats(-3.0, 7.0), log10_tau=st.floats(-15.0, -1.0),
        piece=st.sampled_from([1, 2, 7, 1023, 1024, 1025, 5000]),
    )
    @example(log10_lam=math.log10(2.5e6), log10_tau=-12.0, piece=1024)
    @example(log10_lam=math.log10(0.5), log10_tau=-12.0, piece=1)
    def test_window_bits_do_not_depend_on_the_piece_size(self, log10_lam, log10_tau, piece):
        # the table is read in pieces, each walked from its last anchor, with
        # its sums carried in order: any piece size gives the whole table's bits
        lam, tau = 10.0**log10_lam, 10.0**log10_tau

        def window_and_mass():
            model = ShiftedPoisson(1, lam=lam, target=tau)
            return model.window, model.truncation_tail_mass.hex()

        whole = window_and_mass()
        with mock.patch.object(randclt.indices, "_TABLE_PIECE", piece):
            assert window_and_mass() == whole

    def test_rate_past_the_reach_bound_refuses_before_any_table(self):
        # 10^7 terms around the mode hold less than 1 - tau at lam = 2e12
        with pytest.raises(IndexConfigError) as info:
            ShiftedPoisson(5, lam=2e12).window
        assert f"needs more than {TRUNCATION_CAP} terms" in str(info.value)


class TestExpectations:
    def test_deterministic_reduction_is_exact(self):
        model = Deterministic(9)
        est = model.expect_values(np.sqrt(model.support), abs_bound=100.0)
        assert est.value == 3.0
        assert est.truncation_error_bound == 0.0

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
        # one scalar k for every trial, drawn without reading the generator
        model = Deterministic(12)
        rng = Generator(Philox(key=[3, 1]))
        k = model.sample(rng, 100)
        assert np.ndim(k) == 0 and k == 12
        assert rng.random() == Generator(Philox(key=[3, 1])).random()

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
        # smaller for the shifted Poisson); scipy's law at each model's own
        # lam, p or m
        for kind in ("poisson", "geometric", "uniform"):
            probs = [_scipy_law(make_index(kind, n)).cdf(10) for n in (10, 100, 1000)]
            assert probs[0] > probs[1] > probs[2], kind
            assert probs[2] < 1.05e-2, kind
        assert _scipy_law(make_index("poisson", 1000)).cdf(10) < 1e-3

    def test_prob_matches_enumeration(self):
        for kind in ("poisson", "geometric", "uniform"):
            model = make_index(kind, 50)
            enum = float(model.probs[model.support <= 10].sum())
            assert _scipy_law(model).cdf(10) == pytest.approx(enum, abs=1e-12), kind


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

    def test_each_kind_and_name_has_one_home(self):
        # a model's kind is the spelling parse_index accepts for it, and the
        # package root re-exports no name: each lives in its module alone
        for kind in randclt.indices._KINDS:
            assert parse_index(kind) == (kind, None)
            assert make_index(kind, 5).kind == kind
        root = ast.parse(Path(randclt.__file__).read_text())
        assert [n for n in ast.walk(root) if isinstance(n, (ast.Import, ast.ImportFrom))] == []

    @given(
        kind=st.sampled_from(["det", "poisson", "geometric", "uniform"]),
        param=st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(kind="geometric", param=0.00012345678)
    @example(kind="det", param=5.0)
    @example(kind="poisson", param=1e6)
    def test_spec_string_round_trips(self, kind, param):
        if kind in ("det", "uniform"):
            param = float(math.floor(param))
        refused = {
            "det": not 1.0 <= param < 2.0**63,
            "uniform": not 1.0 <= param <= TRUNCATION_CAP,
            "poisson": not param > 0.0,
            "geometric": not 0.0 < param <= 1.0,
        }[kind]
        if refused:  # outside the kind's domain, past int64, or past the window cap
            with pytest.raises(IndexConfigError):
                parse_index(index_spec_string(kind, param))
        else:
            assert parse_index(index_spec_string(kind, param)) == (kind, param)

    def test_make_index_defaults(self):
        assert make_index("det", 42).n == 42
        assert make_index("poisson", 6).lam == 6.0
        assert make_index("geometric", 20).p == pytest.approx(0.05)
        assert make_index("uniform", 15).m == 15
