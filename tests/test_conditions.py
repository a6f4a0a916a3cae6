"""Condition functionals: frozen oracles, reductions, monotonicity, audits."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from fractions import Fraction

from oracles import (
    direct_scale_mixture,
    direct_terms,
    exact_infinitesimality,
    full_array_infinitesimality,
    exact_lindeberg,
    exact_side_direct,
    searchsorted_geometric_sum,
)
import randclt.conditions as conditions
from randclt.conditions import (
    _KERNEL_RTOL,
    _LOG_WEIGHT_CUT,
    _exact_side,
    _geometric_sum,
    feller,
    feller_values,
    implication_audit,
    infinitesimality,
    lindeberg,
    lindeberg_values,
    lyapunov,
    random_feller,
    random_lindeberg,
    random_rotar,
    rotar,
    rotar_values,
)
from randclt.families import (
    BUILTIN_FAMILY_KINDS, GeometricProfile, NormalLaw, RademacherLaw, SummandFamily,
    UniformLaw, make_family, parse_family,
)
from randclt.indices import Deterministic, ShiftedGeometric, UniformIndex, make_index


@pytest.fixture(scope="module")
def rademacher():
    return make_family("rademacher")


@pytest.fixture(scope="module")
def geomnormal():
    return make_family("geomnormal")


class TestLyapunov:
    def test_rademacher_quarters(self, rademacher):
        # oracle: n E|X|^3 / (n sigma^2)^(3/2)
        assert lyapunov(rademacher, 4, 1.0).value == pytest.approx(0.5, rel=1e-13)

    def test_rademacher_large_n(self, rademacher):
        assert lyapunov(rademacher, 10_000, 1.0).value == pytest.approx(0.01, rel=1e-12)

    def test_single_term(self, rademacher):
        assert lyapunov(rademacher, 1, 1.0).value == pytest.approx(1.0, rel=1e-14)

    def test_delta_range_enforced(self, rademacher):
        with pytest.raises(ValueError):
            lyapunov(rademacher, 5, 1.5)


class TestLindeberg:
    def test_rademacher_tail_full(self, rademacher):
        # eps B_3 = sqrt(3)/2 < 1: both atoms lie in the tail
        assert lindeberg(rademacher, 3, 0.5).value == 1.0

    def test_rademacher_tail_empty(self, rademacher):
        # eps B_5 ~ 1.118 > 1: the tail carries no mass
        assert lindeberg(rademacher, 5, 0.5).value == 0.0

    def test_normal_single_term(self):
        # oracle: high-resolution quadrature of 2 int_{z>1} z^2 phi(z) dz
        oracle = 2.0 * quad(
            lambda z: z * z * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), 1, 40
        )[0]
        assert oracle == pytest.approx(0.8012519569012009, rel=1e-12)
        fam = make_family("normal")
        assert lindeberg(fam, 1, 1.0).value == pytest.approx(oracle, rel=1e-10)

    def test_bounded_by_one(self):
        for kind in ("rademacher", "uniform", "normal", "geomnormal", "expcentered"):
            fam = make_family(kind)
            for n in (1, 10, 100):
                for eps in (0.05, 0.5, 1.0):
                    v = lindeberg(fam, n, eps).value
                    assert 0.0 <= v <= 1.0 + 1e-12, (kind, n, eps)


class TestFeller:
    def test_iid(self, rademacher):
        assert feller(rademacher, 25).value == pytest.approx(0.04, rel=1e-14)

    def test_geometric_variance(self, geomnormal):
        # oracle: 2^(n-1) / (2^n - 1)
        assert feller(geomnormal, 10).value == pytest.approx(512.0 / 1023.0, rel=1e-13)

    def test_single_term_is_one(self, geomnormal):
        assert feller(geomnormal, 1).value == 1.0

    def test_limit_half(self, geomnormal):
        assert feller(geomnormal, 200).value == pytest.approx(0.5, abs=1e-12)


class TestInfinitesimality:
    def test_rademacher_bounded_support(self, rademacher):
        assert infinitesimality(rademacher, 5, 0.5).value == 0.0

    def test_rademacher_all_exceed(self, rademacher):
        assert infinitesimality(rademacher, 3, 0.5).value == 1.0

    def test_geometric_normal_product_oracle(self, geomnormal):
        # direct termwise product of 2 Phi(eps B_n / sigma_j) - 1
        b = math.sqrt(2.0**10 - 1.0)
        prod = 1.0
        for j in range(1, 11):
            prod *= 2.0 * norm.cdf(b / 2.0 ** ((j - 1) / 2.0)) - 1.0
        expected = 1.0 - prod
        got = infinitesimality(geomnormal, 10, 1.0).value
        assert got == pytest.approx(expected, rel=1e-10)

    def test_atom_exactly_at_threshold_excluded(self, rademacher):
        # eps B_1 = 1: P(|X| > 1) = 0 under the strict convention
        assert infinitesimality(rademacher, 1, 1.0).value == 0.0

    def test_thresholds_past_float_range(self):
        # eps B_5 / sigma_5 = 0.5 * 1e600: past float64, and certainly past the atom;
        # a RuntimeWarning fails the suite
        fam = make_family("twopoint", growth=1e-300)
        assert infinitesimality(fam, 5, 0.5).value == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["rademacher", "uniform", "normal", "expcentered"]),
        n=st.integers(1, 10**6),
        eps=st.one_of(st.floats(1e-3, 3.0), st.sampled_from([-1, 0, 1])),
    )
    def test_constant_profile_closed_form(self, kind, n, eps):
        # the n-th power of one central probability against the former sum of n
        # logs; an integer eps puts the threshold on the Rademacher atom: eps =
        # 1/sqrt(n) (0) and its float neighbours (-1, +1)
        if isinstance(eps, int):
            eps = float(np.nextafter(1.0 / math.sqrt(n), eps * math.inf) if eps else
                        1.0 / math.sqrt(n))
        fam = make_family(kind)
        got = infinitesimality(fam, n, eps).value
        want = full_array_infinitesimality(fam, n, eps)
        assert abs(got - want) <= 8 * np.spacing(want), (got, want)

    @pytest.mark.parametrize("spec", [
        "twopoint,growth=1.01", "geomnormal,ratio=1.01", "geomnormal,ratio=0.99",
        "geomnormal,ratio=1.0001", "geomnormal,ratio=2",
    ])
    @pytest.mark.parametrize("eps", [0.01, 0.5, 2.0])
    def test_geometric_cut_matches_full_sum(self, spec, eps):
        # the terms past the certified cut move the -log sum by at most 2^-60
        fam = parse_family(spec)
        got = infinitesimality(fam, 10**6, eps).value
        want = full_array_infinitesimality(fam, 10**6, eps)
        assert abs(got - want) <= 1e-14 * want, (got, want)

    def test_walk_cap_refuses_huge_n(self):
        # ratio 1 + 1e-9 keeps every one of 10^9 steps: refused with the
        # count, before any central probability past the bisection is taken
        fam = make_family("geomnormal", ratio=1 + 1e-9)
        with pytest.raises(ValueError, match=r"needs 1000000000 kept \(k, i\) terms, past the cap"):
            infinitesimality(fam, 10**9, 1e-4)

    def test_large_n_stays_in_mebibytes(self):
        # an n-length threshold array took 2.3 GiB at n = 1e8; numpy reports
        # its buffers to tracemalloc
        tracemalloc.start()
        try:
            for spec in ("twopoint,growth=1.01", "geomnormal,ratio=1.01",
                         "rademacher", "expcentered"):
                infinitesimality(parse_family(spec), 10**8, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRotar:
    def test_all_normal_exact_zero(self, geomnormal):
        for n in (1, 10, 30, 500):
            assert rotar(geomnormal, n, 0.5).value == 0.0

    def test_rademacher_single_term_closed_form(self, rademacher):
        # frozen piecewise value, cross-checked against scipy quad in
        # test_closed_forms.py
        r = rotar(rademacher, 1, 2.0)
        assert r.value == pytest.approx(0.03973153718183854, rel=1e-11)

    def test_eps_doubling_never_increases(self, rademacher):
        for n in (1, 10, 100):
            for eps in (0.05, 0.1, 0.5):
                lo = rotar(rademacher, n, 2.0 * eps).value
                hi = rotar(rademacher, n, eps).value
                assert lo <= hi + 1e-12


class _CountingRademacher(RademacherLaw):
    """Rademacher law that counts the thresholds its comparison tail is given."""

    def __init__(self):
        super().__init__()
        self.evaluated = 0

    def rotar_unit_tail(self, t):
        self.evaluated += np.size(t)
        return super().rotar_unit_tail(t)


_GROWTH = st.one_of(st.floats(1.0 - 1e-2, 1.0 + 1e-2), st.floats(0.5, 4.0)).filter(
    lambda g: g != 1.0
)


class TestGeometricKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        growth=_GROWTH,
        ks=st.lists(st.integers(1, 5000), min_size=1, max_size=3),
        eps=st.floats(0.01, 2.0),
        kind=st.sampled_from(["twopoint", "geomnormal"]),
        functional=st.sampled_from(["lindeberg", "rotar"]),
    )
    def test_matches_direct_sum(self, growth, ks, eps, kind, functional):
        fam = make_family(kind, **{"growth" if kind == "twopoint" else "ratio": growth})
        if kind == "twopoint":
            # away from the atom at 1, where the direct sum rounds onto either side
            for k in ks:
                t = direct_terms(fam.profile, k, eps)[1]
                assume(np.all(np.abs(t - 1.0) > 1e-9))
        if functional == "lindeberg":
            got, unit = lindeberg_values(fam, ks, eps), fam.law.tail_second_moment
        else:
            got, unit = rotar_values(fam, ks, eps), fam.law.rotar_unit_tail
        ref = direct_scale_mixture(unit, fam.profile, ks, eps)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + ref)), (got, ref)

    @pytest.mark.parametrize("ratio", [2.0, 3.0, 4.0, 0.5])
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_lindeberg_exact_at_atom_ties(self, ratio, eps):
        # ratio 2 ties a summand value with eps B_k for every k (sigma_{k-1}^2 =
        # 2^(k-2) vs (2^k - 1) / 4 at eps 0.5), past float64 resolution from k = 54
        fam = make_family("twopoint", growth=ratio)
        ks = np.arange(1, 121)
        got = lindeberg_values(fam, ks, eps)
        exact = np.array([float(exact_lindeberg(ratio, int(k), eps)) for k in ks])
        assert np.all(np.abs(got - exact) <= 1e-12 * (1.0 + exact)), (got, exact)

    def test_work_is_bounded_near_ratio_one(self):
        # the direct sum passes ~3.8e8 thresholds here
        law = _CountingRademacher()
        fam = SummandFamily("twopoint", law, GeometricProfile(1.001))
        random_rotar(fam, make_index("geometric", 1000), 0.5)
        assert 0 < law.evaluated < 2e7

    def test_memory_is_bounded_near_ratio_one(self):
        # 9.2e6 kept pairs in 141 passes: an array as long as all of them
        # would take ~74 MB; numpy reports its buffers to tracemalloc
        fam = make_family("twopoint", growth=1.001)
        model = make_index("geometric", 1000)
        tracemalloc.start()
        try:
            random_rotar(fam, model, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # ~7 MiB: a few pass-length arrays

    @pytest.mark.parametrize("spec", ["twopoint", "geomnormal", "rademacher"])
    def test_no_index_gives_no_values(self, spec):
        # the geometric walk read its last row end, ends[-1], of no rows
        fam = make_family(spec)
        for values in (lindeberg_values(fam, [], 0.5), rotar_values(fam, [], 0.5)):
            assert values.shape == (0,) and values.dtype == float

    @settings(max_examples=60, deadline=None)
    @given(
        law=st.sampled_from([RademacherLaw(), UniformLaw(), NormalLaw()]),
        ratio=st.sampled_from([0.5, 0.99, 1.01, 2.0, 1.0001]),
        eps=st.one_of(st.sampled_from([0.25, 0.5, 1e-4]), st.floats(1e-4, 2.0)),
        functional=st.sampled_from(["lindeberg", "rotar", "infinitesimality"]),
        ks=st.lists(
            st.one_of(st.integers(1, 3_000), st.integers(1, 200_000)), min_size=1, max_size=4
        ),
    )
    @example(RademacherLaw(), 1.0001, 1e-4, "lindeberg", [150_000, 7, 120_000])
    @example(NormalLaw(), 1.0001, 1e-3, "infinitesimality", [100_000])
    @example(RademacherLaw(), 2.0, 0.5, "rotar", [*range(1, 80)])
    @example(RademacherLaw(), 1.01, 0.05, "rotar", [*range(3000, 4601)])
    @example(RademacherLaw(), 2.0, 0.5, "lindeberg", [*range(1, 201)])
    @example(NormalLaw(), 1.05, 1e-10, "lindeberg", [*range(400, 2400)])
    def test_matches_searchsorted_passes(self, law, ratio, eps, functional, ks):
        # ratio 2 at eps 0.25 or 0.5 ties an atom at every k; at ratio 1.0001
        # the examples' rows run longer than one pass of _MAX_PASS_ENTRIES.
        # Past ~31 / |log ratio| steps rows repeat: ratio 1.01 over k 3000..4600
        # (21 passes) and ratio 1.05 over k 400..2399 (25) have repeated rows
        # whole in a pass and split by one, ratio 2 over k 1..200 146 whole
        # repeats of a row whose atom tie at i = 1 every k decides alike.  At
        # eps 1e-10 no term is cut before e^-45, so rows k ~ 680..860, with
        # equal log S_k, keep k terms each: their kept counts tell them apart
        ks = np.array(ks, dtype=np.int64)
        if functional == "infinitesimality":
            def rest(k, i, w, t):
                central = np.asarray(law.central_prob(t), dtype=float)
                return (k - i) * ((1.0 - central) / central)

            walk = dict(
                term=lambda w, t: -np.log(np.asarray(law.central_prob(t), dtype=float)),
                rest=rest,
            )
        else:
            unit = getattr(law, {"lindeberg": "tail_second_moment",
                                 "rotar": "rotar_unit_tail"}[functional])
            walk = dict(
                term=lambda w, t: w * unit(t), rest=lambda k, i, w, t: unit(t),
                log_weight_cut=_LOG_WEIGHT_CUT,
            )
        profile = GeometricProfile(ratio)
        with np.errstate(divide="ignore", over="ignore"):
            got = _geometric_sum(law, profile, ks, eps, **walk)
            ref = searchsorted_geometric_sum(law, profile, ks, eps, **walk)
        assert got.tobytes() == ref.tobytes(), (got, ref)


class TestRepeatedRows:
    """Rows with equal log S_k and kept count are walked once."""

    def test_unit_tail_evaluations(self):
        # 739,854 thresholds when every row is walked; 1,403 of the 4,525
        # rows copy the sum of an equal row
        law = _CountingRademacher()
        fam = SummandFamily("twopoint", law, GeometricProfile(1.01))
        random_rotar(fam, make_index("geometric", 1000), 0.5)
        assert 0 < law.evaluated <= 530_000

    def test_a_run_whose_ends_decide_a_tie_apart_is_walked_row_by_row(self, monkeypatch):
        # ratio 2 at eps 0.5 puts t_1 = 1 on the atom in every row from
        # k = 54 on, where S_k rounds to 2.  A stand-in side that flips at
        # k = 100, monotone in k as the exact side is, splits the run of
        # equal rows k = 60..200; the term jumps there while the rest, which
        # fixes the kept count, reads w alone
        law = RademacherLaw()
        monkeypatch.setattr(
            conditions, "_exact_side", lambda k, i, eps, ratio, atom: 1 if k >= 100 else -1
        )
        walk = dict(
            term=lambda w, t: w * (1.0 + law.tail_second_moment(t)),
            rest=lambda k, i, w, t: w,
            log_weight_cut=_LOG_WEIGHT_CUT,
        )
        ks = np.arange(1, 201)
        got = _geometric_sum(law, GeometricProfile(2.0), ks, 0.5, **walk)
        ref = searchsorted_geometric_sum(law, GeometricProfile(2.0), ks, 0.5, **walk)
        assert got.tobytes() == ref.tobytes(), (got, ref)
        assert got[ks == 99] != got[ks == 100]


class TestAtomTies:
    """Thresholds that round onto the Rademacher atom are decided exactly."""

    @pytest.mark.parametrize("n", [4, 9, 25, 49])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_constant_profile(self, rademacher, n, step):
        # eps sqrt(n) rounds onto 1 for eps = 1/sqrt(n) and its float neighbours;
        # at n = 9, eps = 0.3333333333333333 < 1/3 and every value is 1
        eps = 1.0 / math.sqrt(n)
        if step:
            eps = float(np.nextafter(eps, step * math.inf))
        reports = (
            (lindeberg(rademacher, n, eps), exact_lindeberg(1.0, n, eps)),
            (random_lindeberg(rademacher, Deterministic(n), eps),
             exact_lindeberg(1.0, n, eps)),
            (infinitesimality(rademacher, n, eps), exact_infinitesimality(1.0, n, eps)),
        )
        for report, exact in reports:
            assert abs(report.value - float(exact)) <= report.error_bound, (report, exact)

    @pytest.mark.parametrize("eps", [0.001, float(np.nextafter(0.001, 0.0))])
    def test_constant_profile_at_large_n(self, rademacher, eps):
        # all 10^6 thresholds round onto the atom; the float 0.001 exceeds 1/1000,
        # so every |X_j| = 1 stays below eps B_n and both values are exactly 0
        exact = int(Fraction(eps) ** 2 * 10**6 < 1)
        assert infinitesimality(rademacher, 10**6, eps).value == exact
        assert lindeberg(rademacher, 10**6, eps).value == exact

    def test_twopoint_largest_term(self):
        # 0.7071067811865476 > 1/sqrt(2): the largest sigma_52 exceeds eps B_52
        fam, eps = make_family("twopoint"), 0.7071067811865476
        inf_ = infinitesimality(fam, 52, eps)
        lind = lindeberg(fam, 52, eps)
        assert exact_infinitesimality(2.0, 52, eps) == 1
        assert abs(inf_.value - 1.0) <= inf_.error_bound
        assert abs(lind.value - float(exact_lindeberg(2.0, 52, eps))) <= lind.error_bound

    @pytest.mark.parametrize("ratio", [2.0, 0.5, 3.0, 1.01])
    @pytest.mark.parametrize("n", [5, 52, 60, 200])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_infinitesimality_geometric(self, ratio, n, step):
        # eps = sqrt(max sigma_j^2 / B_n^2) puts the largest term on the atom
        variances = [Fraction(ratio) ** j for j in range(n)]
        eps = math.sqrt(float(max(variances) / sum(variances)))
        if step:
            eps = float(np.nextafter(eps, step * math.inf))
        fam = make_family("twopoint", growth=ratio)
        assert infinitesimality(fam, n, eps).value == exact_infinitesimality(ratio, n, eps)

    @settings(max_examples=200, deadline=None)
    @given(
        ratio=st.one_of(_GROWTH, st.sampled_from([2.0, 3.0, 0.5, 0.25])),
        k=st.integers(1, 2000),
        data=st.data(),
    )
    def test_exact_side_matches_direct_integers(self, ratio, k, data):
        # eps within a few ulps of the tie of sigma_j i steps below the top
        i = data.draw(st.integers(0, k - 1))
        r = Fraction(ratio)
        p = k - 1 - i if ratio > 1.0 else i
        s = (r**k - 1) / ((r - 1) * r**p)
        eps = math.exp(-0.5 * (math.log(s.numerator) - math.log(s.denominator)))
        assume(0.0 < eps < math.inf)
        ulps = data.draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            eps = float(np.nextafter(eps, math.copysign(math.inf, ulps)))
        assert _exact_side(k, i, eps, ratio, 1.0) == exact_side_direct(k, i, eps, ratio, 1.0)

    def test_kernel_work_cap(self):
        # 3.8e8 kept (k, i) pairs: refused with the count, before any is evaluated
        fam = make_family("twopoint", growth=1.000001)
        with pytest.raises(ValueError, match=r"needs 381777528 kept \(k, i\) terms, past the cap"):
            random_rotar(fam, make_index("geometric", 1000), 0.05)


class TestRandomConditions:
    def test_deterministic_reduction_lindeberg(self, rademacher):
        for n in (1, 10, 100):
            model = Deterministic(n)
            rnd = random_lindeberg(rademacher, model, 0.3)
            assert rnd.value == lindeberg(rademacher, n, 0.3).value
            assert rnd.error_bound == lindeberg(rademacher, n, 0.3).error_bound

    def test_prop_22_iid_decay(self):
        # index-averaged Lindeberg values vanish for i.i.d. summands
        for kind in ("rademacher", "uniform", "normal", "expcentered"):
            fam = make_family(kind)
            for idx_kind in ("poisson", "geometric", "uniform"):
                vals = [
                    random_lindeberg(fam, make_index(idx_kind, n), 0.1).value
                    for n in (10, 100, 1000)
                ]
                assert vals[0] > vals[1] > vals[2], (kind, idx_kind, vals)

    def test_huge_eps_gives_zero(self, rademacher):
        model = UniformIndex(20, m=20)
        assert random_lindeberg(rademacher, model, 50.0).value == 0.0

    def test_random_feller_deterministic(self, rademacher):
        assert random_feller(rademacher, Deterministic(10)).value == pytest.approx(
            0.1, rel=1e-13
        )

    def test_random_feller_uniform_harmonic(self, rademacher):
        # oracle: (1/n) sum_{k<=n} 1/k
        for n in (10, 100):
            h = sum(1.0 / k for k in range(1, n + 1))
            got = random_feller(rademacher, UniformIndex(n, m=n)).value
            assert got == pytest.approx(h / n, rel=1e-12)

    def test_random_feller_bounded_below_for_exploding_variance(self, geomnormal):
        got = random_feller(geomnormal, make_index("poisson", 30)).value
        assert got > 0.49

    def test_random_rotar_all_normal_zero(self, geomnormal):
        got = random_rotar(geomnormal, make_index("geometric", 100), 0.5)
        assert got.value == 0.0

    def test_random_rotar_deterministic_reduction(self, rademacher):
        for n in (1, 10, 100):
            rnd = random_rotar(rademacher, Deterministic(n), 0.7)
            assert rnd.value == rotar(rademacher, n, 0.7).value

    def test_random_rotar_decay(self, rademacher):
        v10 = random_rotar(rademacher, ShiftedGeometric(10, p=0.1), 0.1).value
        v1000 = random_rotar(rademacher, ShiftedGeometric(1000, p=0.001), 0.1).value
        assert v1000 < v10


class TestClassicalValues:
    """The classical functionals pinned to their kernels, apart from the index path."""

    @pytest.mark.parametrize("kind", BUILTIN_FAMILY_KINDS)
    @pytest.mark.parametrize("n", [1, 9, 52, 1000])
    def test_value_and_budget_match_kernel(self, kind, n):
        fam = make_family(kind)
        reps = [(feller(fam, n), feller_values(fam, np.array([n]))[0])]
        for eps in (0.05, 0.3333333333333333, 0.7071067811865476, 1.0):
            reps += [
                (lindeberg(fam, n, eps), lindeberg_values(fam, np.array([n]), eps)[0]),
                (rotar(fam, n, eps), rotar_values(fam, np.array([n]), eps)[0]),
            ]
        for rep, kernel_value in reps:
            assert rep.n == n
            assert rep.value == kernel_value
            assert rep.error_bound == _KERNEL_RTOL * (1 + rep.value)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_raises(self, rademacher, n):
        for call in (
            lambda: lindeberg(rademacher, n, 0.5),
            lambda: feller(rademacher, n),
            lambda: rotar(rademacher, n, 0.5),
        ):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("eps", [0.0, -0.5])
    def test_nonpositive_epsilon_raises(self, rademacher, eps):
        model = Deterministic(4)
        for call in (
            lambda: lindeberg(rademacher, 4, eps),
            lambda: rotar(rademacher, 4, eps),
            lambda: random_lindeberg(rademacher, model, eps),
            lambda: random_rotar(rademacher, model, eps),
        ):
            with pytest.raises(ValueError):
                call()


class TestMonotoneInEpsilon:
    EPS_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)

    @pytest.mark.parametrize("kind", ["rademacher", "uniform", "normal", "geomnormal", "twopoint", "expcentered"])
    def test_lindeberg_rotar_infinitesimality(self, kind):
        fam = make_family(kind)
        for n in (1, 10, 100, 1000):
            for fn in (
                lambda e: lindeberg(fam, n, e).value,
                lambda e: rotar(fam, n, e).value,
                lambda e: infinitesimality(fam, n, e).value,
            ):
                vals = [fn(e) for e in self.EPS_GRID]
                for a, b in zip(vals, vals[1:]):
                    assert b <= a + 1e-10, (kind, n, vals)


class TestNonClassicalSignature:
    def test_geometric_variance_regime(self, geomnormal):
        # exploding-variance normal summands: comparison functional vanishes
        # while the maximal variance share and the exceedance probability stay
        # large, the configuration where the classical conditions all fail
        assert rotar(geomnormal, 30, 0.5).value == 0.0
        assert feller(geomnormal, 30).value > 0.49
        assert infinitesimality(geomnormal, 30, 0.5).value > 0.5


class TestImplicationAudit:
    def test_passes_on_reference_configuration(self, rademacher):
        audit = implication_audit(
            rademacher, make_index("geometric", 10),
            10, 0.5, 1.0,
        )
        assert audit.passed
        names = [c.name for c in audit.checks]
        assert len(names) == 5 and len(set(names)) == 5
        assert names == [
            "lindeberg_le_scaled_lyapunov",
            "feller_le_eps2_plus_lindeberg",
            "rotar_le_lindeberg_plus_normal_tail",
            "random_feller_le_eps2_plus_random_lindeberg",
            "random_rotar_le_random_lindeberg_plus_normal_tail",
        ]

    def test_all_normal_rotar_side_zero(self, geomnormal):
        audit = implication_audit(
            geomnormal, make_index("poisson", 20),
            20, 0.1, 1.0,
        )
        rotar_check = next(
            c for c in audit.checks if c.name == "rotar_le_lindeberg_plus_normal_tail"
        )
        assert rotar_check.lhs == 0.0
        assert audit.passed

    def test_slack_definition(self, rademacher):
        audit = implication_audit(
            rademacher, Deterministic(4), 4, 1.0, 1.0
        )
        for c in audit.checks:
            assert c.slack == pytest.approx(c.rhs - c.lhs, abs=1e-15)
            assert c.passed == (c.slack >= -c.error_bound)

    def test_exact_equality_edge_passes(self, rademacher):
        # n=1, eps=1: the maximal share equals eps^2 + lindeberg exactly
        audit = implication_audit(
            rademacher, Deterministic(1), 1, 1.0, 1.0
        )
        edge = next(c for c in audit.checks if c.name == "feller_le_eps2_plus_lindeberg")
        assert edge.slack == 0.0
        assert edge.passed

    @settings(max_examples=60, deadline=None)
    @given(
        epsilon=st.floats(5e-324, 1.7976931348623157e308),
        kind=st.sampled_from(["rademacher", "uniform", "expcentered"]),
        delta=st.sampled_from([0.01, 0.5, 1.0]),
    )
    @example(epsilon=1e154, kind="expcentered", delta=1.0)  # finite eps^2, t^2 past float64
    @example(epsilon=1e155, kind="rademacher", delta=1.0)
    @example(epsilon=1e-310, kind="rademacher", delta=1.0)
    def test_epsilon_is_refused_or_every_check_is_finite(self, epsilon, kind, delta):
        # eps^2 and eps^-delta overflowed as a bare OverflowError (34,
        # 'Numerical result out of range'), and an infinite bound would be
        # written as Infinity; either is now a refusal that names epsilon
        family = make_family(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                audit = implication_audit(family, make_index("geometric", 5), 5, epsilon, delta)
            except ValueError as exc:
                assert str(exc).startswith(f"epsilon {epsilon!r}: ")
                assert "float64 range" in str(exc)
                # only a bound within a factor e^2 of float64's largest is refused
                log_eps = math.log(epsilon)
                assert max(2.0 * log_eps, -delta * log_eps) > math.log(sys.float_info.max) - 2.0
                return
        for c in audit.checks:
            assert all(map(math.isfinite, (c.lhs, c.rhs, c.slack, c.error_bound))), c
