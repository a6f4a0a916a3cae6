"""The numpy Gaussian layer against 50-digit mpmath, with scipy's Cephes as the yardstick.

Each function's error at a float input, in units of the float spacing at
the exact value, may exceed that of the scipy-based formula it replaces
(scipy.special.ndtr/erf with a numpy density) by at most 4.
upper_x_sf_integral cancels two terms as t grows, so its relative error is
held to that of the scipy formula plus 4 ulp of each term.  The fused
kernel's Phi moves from Cephes by its shared exponent (test_fused_kernel_parts).
"""

import math
import warnings
from bisect import bisect_right

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from randclt import gaussian
from randclt.gaussian import (
    norm_cdf,
    norm_central_prob,
    norm_pdf_cdf_sf,
    normal_abs_moment,
    normal_tail_second_moment,
    piecewise,
    upper_x_sf_integral,
)

ULP = 2.0**-52
SQRT2 = math.sqrt(2.0)


def _pdf(x):
    return np.exp(-0.5 * np.square(x)) / np.sqrt(2.0 * np.pi)


def _edges():
    """Branch edges of Cephes ndtr/erf in x and the underflow edge, with float neighbours."""
    maxlog = 7.09782712893383996843e2
    points = [0.0, 1.0, SQRT2, 8.0 * SQRT2, math.sqrt(maxlog) * SQRT2, 38.5, 38.6, 40.0]
    out = []
    for p in points:
        for q in (p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)):
            out += [q, -q]
    return out


xs = st.one_of(
    st.floats(-40.0, 40.0, allow_nan=False),
    st.builds(lambda v, neg: -v if neg else v, st.floats(36.0, 39.5), st.booleans()),
    st.sampled_from(_edges()),
)

def _x2_antiderivative(z):
    """Phi(z) - z phi(z) from the fused kernel, as the laws' antiderivatives take it."""
    pdf, cdf, _ = norm_pdf_cdf_sf(z)
    return cdf - z * pdf


# name: (function, scipy-based formula it replaces, exact, domain is t >= 0)
FUNCTIONS = {
    "norm_cdf": (norm_cdf, special.ndtr, mp.ncdf, False),
    "norm_sf": (lambda x: norm_cdf(-x), lambda x: special.ndtr(-x), lambda x: mp.ncdf(-x), False),
    "norm_central_prob": (
        norm_central_prob,
        lambda t: special.erf(t / np.sqrt(2.0)),
        lambda t: mp.erf(t / mp.sqrt(2)),
        False,
    ),
    "x2_antiderivative": (
        _x2_antiderivative,
        lambda z: special.ndtr(z) - z * _pdf(z),
        lambda z: mp.ncdf(z) - z * mp.npdf(z),
        False,
    ),
    "normal_tail_second_moment": (
        normal_tail_second_moment,
        lambda t: 2.0 * (t * _pdf(t) + special.ndtr(-t)),
        lambda t: 2 * (t * mp.npdf(t) + mp.ncdf(-t)),
        True,
    ),
}


def _spacing(exact):
    return mp.mpf(float(np.spacing(abs(float(exact)))))


def _within(value, reference, exact, slack):
    """|value - exact| <= |reference - exact| + slack float spacings at exact.

    Compared in exact arithmetic: the port differs from scipy by up to 4
    spacings where numpy's exp and libm's round apart, and a float ratio of
    the errors can read 4.000000000000001 there.
    """
    error = abs(mp.mpf(float(value)) - exact)
    return error <= abs(mp.mpf(float(reference)) - exact) + slack * _spacing(exact)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@settings(max_examples=300, deadline=None)
@given(x=xs)
@example(x=-37.0)
@example(x=37.0)
def test_error_within_scipy_plus_four_ulp(name, x):
    fn, reference, exact_fn, nonnegative = FUNCTIONS[name]
    if nonnegative:
        x = abs(x)
    with mp.workdps(50):
        exact = exact_fn(mp.mpf(x))
        assert _within(fn(x), reference(x), exact, 4), x


@settings(max_examples=300, deadline=None)
@given(x=xs)
@example(x=37.0)
@example(x=36.99999999999999)
def test_upper_x_sf_integral_within_scipy_plus_four_ulp_per_term(x):
    t = abs(x)
    with mp.workdps(50):
        T = mp.mpf(t)
        first, second = T * mp.npdf(T), (1 - T * T) * mp.ncdf(-T)
        exact = (first + second) / 2
        if exact == 0:
            return
        kappa = float((abs(first) + abs(second)) / (2 * abs(exact)))
        ours = float(abs((mp.mpf(float(upper_x_sf_integral(t))) - exact) / exact))
        scipy_form = 0.5 * (t * _pdf(t) + (1.0 - t * t) * special.ndtr(-t))
        theirs = float(abs((mp.mpf(float(scipy_form)) - exact) / exact))
    assert ours <= theirs + 4.0 * ULP * kappa, (t, ours, theirs, kappa)


@settings(max_examples=300, deadline=None)
@given(x=xs)
def test_fused_kernel_parts(x):
    """phi has the bits of exp(-x^2/2) / sqrt(2 pi); Phi(+-x) move from Cephes by its exponent."""
    pdf, cdf, sf = (float(v) for v in norm_pdf_cdf_sf(x))
    assert pdf == float(_pdf(x))
    # the rounding of x*x/2, and its x^2/2 growth through exp, bounds the move
    slack = 4.0 + 0.5 * x * x
    with mp.workdps(50):
        for value, sign in ((cdf, 1), (sf, -1)):
            exact = mp.ncdf(sign * mp.mpf(x))
            assert _within(value, special.ndtr(sign * x), exact, slack), x


EXTREMES = [0.0, -0.0, 1e-300, 1e308, -1e308, np.inf, -np.inf, 1.7976931348623157e308]


@pytest.mark.parametrize(
    "fn",
    [norm_cdf, norm_central_prob, upper_x_sf_integral, normal_tail_second_moment,
     norm_pdf_cdf_sf],
)
def test_extreme_inputs_raise_no_warning(fn):
    values = np.array(EXTREMES + [np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fn(values)
        for v in values:
            fn(v)
    for column in out if isinstance(out, tuple) else (out,):
        assert np.isnan(column[-1])
        assert np.isfinite(column[:-1]).all()


def test_fused_kernel_signs_survive_nan():
    # a nan among negative inputs must not send them down the x >= 0 path
    _, cdf, sf = norm_pdf_cdf_sf(np.array([-1.0, -np.inf, np.nan]))
    np.testing.assert_array_equal(cdf, [norm_cdf(-1.0), 0.0, np.nan])
    np.testing.assert_array_equal(sf, [norm_cdf(1.0), 1.0, np.nan])


def test_last_cut_is_the_least_double_past_maxlog():
    z = gaussian._CUTS[-1]
    assert z * z > gaussian._MAXLOG >= math.nextafter(z, 0.0) ** 2


def test_piecewise_routes_cuts_up_and_nan_last():
    x = np.array([[0.5, 1.0], [np.nan, 2.0]])
    got = piecewise(x, (1.0, 2.0), (lambda t: t * 0.0, lambda t: t * 0.0 + 1.0, lambda t: t * 0.0 + 2.0))
    np.testing.assert_array_equal(got, [[0.0, 1.0], [np.nan, 2.0]])
    # tuple-valued pieces with an extra array, over several blocks
    x = np.linspace(-1.0, 1.0, 3 * gaussian._BLOCK + 5)
    lo, hi = piecewise(x, (0.0,), (lambda t, e: (t, e), lambda t, e: (e, t)), -x)
    np.testing.assert_array_equal(lo, np.where(x < 0.0, x, -x))
    np.testing.assert_array_equal(hi, np.where(x < 0.0, -x, x))


ROUTE_CUTS = (-1.0, 0.5, 2.0)
# the cuts and their float neighbours, then nan and the infinities
ROUTE_POOL = np.array(
    [v for c in ROUTE_CUTS for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))]
    + [np.nan, np.inf, -np.inf]
)
# per block: one pool value throughout, or every pool value shuffled
block_layouts = st.lists(
    st.tuples(st.sampled_from(["fill", "mix"]), st.integers(0, ROUTE_POOL.size - 1),
              st.integers(0, 2**32 - 1)),
    min_size=4, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(0, 3 * gaussian._BLOCK + 1), layout=block_layouts)
@example(size=2 * gaussian._BLOCK + 1,
         layout=[("fill", 3, 0), ("mix", 0, 1), ("fill", 9, 0), ("mix", 0, 2)])
def test_piecewise_matches_per_element_routing(size, layout):
    """Each piece is called once per block it reaches, on that block's entries
    whose bisect_right route (nan last) is its own, in order and with the
    extra array's matching entries; its tuple lands back in place."""
    size_b = gaussian._BLOCK
    x = np.empty(size)
    for start, (kind, value, seed) in zip(range(0, size, size_b), layout):
        n = min(size_b, size - start)
        if kind == "fill":
            x[start:start + n] = ROUTE_POOL[value]
        else:
            x[start:start + n] = np.random.default_rng(seed).permutation(np.resize(ROUTE_POOL, n))
    extra = np.arange(size, dtype=float)
    calls = []

    def piece(k):
        def fn(t, e):
            calls.append((k, t.copy(), e.copy()))
            return np.full_like(t, k), e
        return fn

    got, carried = piecewise(x, ROUTE_CUTS, [piece(k) for k in range(len(ROUTE_CUTS) + 1)], extra)
    routes = np.array([len(ROUTE_CUTS) if v != v else bisect_right(ROUTE_CUTS, v) for v in x.tolist()])
    np.testing.assert_array_equal(got, routes)
    np.testing.assert_array_equal(carried, extra)
    expected = [(0, x, extra)]  # an empty input is one call of the first piece
    if size:
        expected = [
            (k, x[start:start + size_b][sel], extra[start:start + size_b][sel])
            for start in range(0, size, size_b)
            for k in np.unique(routes[start:start + size_b]).tolist()
            for sel in [routes[start:start + size_b] == k]
        ]
    assert [k for k, _, _ in calls] == [k for k, _, _ in expected]
    for (_, t, e), (_, want_t, want_e) in zip(calls, expected):
        np.testing.assert_array_equal(t, want_t)
        np.testing.assert_array_equal(e, want_e)


@pytest.mark.parametrize("x, expected", [
    (np.inf, (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
    (-np.inf, (0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0)),
    (1e308, (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)),
])
def test_limits(x, expected):
    got = (norm_cdf(x), norm_central_prob(x), upper_x_sf_integral(abs(x)),
           normal_tail_second_moment(abs(x)), *norm_pdf_cdf_sf(x))
    assert tuple(float(v) for v in got) == expected


def test_shapes_follow_the_input():
    for x in (0.5, np.array(0.5), np.linspace(-3, 3, 12).reshape(3, 4), np.array([])):
        for fn in (norm_cdf, norm_central_prob, upper_x_sf_integral, normal_tail_second_moment):
            assert np.shape(fn(x)) == np.shape(x)
        assert all(np.shape(p) == np.shape(x) for p in norm_pdf_cdf_sf(x))


def test_long_inputs_match_short_ones():
    # blocks of a long input give the values of the same points one at a time
    x = np.linspace(-39.0, 39.0, 20_001)
    for fn in (norm_cdf, norm_central_prob, upper_x_sf_integral, normal_tail_second_moment):
        whole = fn(x)
        assert np.array_equal(whole, np.concatenate([fn(x[i:i + 7]) for i in range(0, x.size, 7)]))


@given(order=st.floats(2.0, 3.0))
def test_normal_abs_moment(order):
    # Lyapunov's orders 2 + delta.  math.lgamma is good to 8.2 ulp here on a
    # 20001-point grid (scipy's gammaln to 4.0), far inside the 1e-12 budget.
    with mp.workdps(50):
        exact = 2 ** (mp.mpf(order) / 2) * mp.gamma((mp.mpf(order) + 1) / 2) / mp.sqrt(mp.pi)
        assert abs(normal_abs_moment(order) - exact) <= 16 * _spacing(exact)
