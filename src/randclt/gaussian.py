"""Standard-normal helper functions shared across the package, in numpy alone.

Phi is a port of Cephes' ndtr and the erf/erfc it calls (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989), the evaluation
scipy.special.ndtr performs: the same coefficients, the same branches in
z = |x|/sqrt(2) (erf below sqrt(1/2), 1 - erf below 1, exp(-z^2) P/Q below
8, exp(-z^2) R/S beyond, and 0 once z^2 > MAXLOG) and the same order of
operations.  Each branch is evaluated only on the inputs it keeps, by
`piecewise`, which the laws' Rotar kernels share: one loop over blocks of
_BLOCK entries, each routed by its min and max, so a block that one piece
holds goes to that piece in one call.

`norm_pdf_cdf_sf` is the one Phi, read by the closed forms, the normal
law's tail P(|Z| > t) = 2 Phi(-t) and the Kolmogorov distance: phi(x),
Phi(x) and Phi(-x) from one exp(-x^2/2), the one phi is computed from,
which stands in for Cephes' exp(-z*z) in the tails.  Phi there moves from
Cephes at round-off, within 2^-52 in absolute terms.  erf serves only
ndtr's branch below z = 1.  Inputs beyond |x| = 40, where phi and the far
tail are 0.0 in float64, are clamped there, so huge or infinite inputs
raise no floating-point warning.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc is 0 once z^2 exceeds it
_PAST_MAXLOG = 26.64174755704633  # the least double z with z * z > MAXLOG
_X_CLAMP = 40.0  # past 38.6, phi(x) and Phi(-x) are 0.0 in float64
_BLOCK = 1 << 13  # entries per pass of a kernel; bounds its temporaries

# Branch k of Cephes ndtr holds the z in [_CUTS[k-1], _CUTS[k]): erf (as
# 1/2 + erf/2 below sqrt(1/2) and 1 - erf above), P/Q, R/S, and 0 past
# MAXLOG, where nan goes too.
_CUTS = (1.0, 8.0, _PAST_MAXLOG)


def _columns(num, den):
    """Horner columns evaluating num and the monic den together.

    The shorter row is padded with leading zeros, which leave Cephes'
    polevl/p1evl arithmetic unchanged: 0 * z + c is exactly c.
    """
    den = (1.0,) + den
    width = max(len(num), len(den))
    rows = [(0.0,) * (width - len(c)) + c for c in (num, den)]
    return np.array(rows).T[:, :, None]


# Cephes ndtr.c: erfc(z) = exp(-z^2) P(z)/Q(z) on [1, 8), exp(-z^2) R(z)/S(z)
# beyond; erf(z) = z T(z^2)/U(z^2) on |z| <= 1.
_PQ = _columns(
    (
        2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
        4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
        9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
    ),
    (
        1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
        9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
        1.65666309194161350182e3, 5.57535340817727675546e2,
    ),
)
_RS = _columns(
    (
        5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
        6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
    ),
    (
        2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
        1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
    ),
)
_TU = _columns(
    (
        9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
        7.00332514112805075473e3, 5.55923013010394962768e4,
    ),
    (
        3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
        2.26290000613890934246e4, 4.92673942608635921086e4,
    ),
)


def _rational(z, cols, scale):
    """scale * num(z) / den(z) for the stacked Horner columns of num and den."""
    y = cols[0] * z
    y += cols[1]
    for c in cols[2:]:
        y *= z
        y += c
    num = y[0]
    num *= scale
    num /= y[1]
    return num


def _erf_core(x):
    """erf(x) for |x| <= 1."""
    return _rational(x * x, _TU, x)


def _route(x, cuts, pieces, extra):
    """pieces[k] on the entries of one block in [cuts[k-1], cuts[k]); nan goes last.

    The block's min and max pick the pieces it reaches; a piece that holds
    the whole block is called on it directly.
    """
    first = last = 0
    if x.size and cuts:
        lo, hi = x.min(), x.max()
        if lo != lo:  # nan
            first, last = 0, len(cuts)
        else:
            first, last = bisect_right(cuts, lo), bisect_right(cuts, hi)
    if first == last:
        return pieces[first](x, *extra)
    k = np.array(cuts).searchsorted(x, side="right")  # bisect_right per entry; nan last
    out = None
    for piece in range(first, last + 1):
        sel = k == piece
        if not sel.any():
            continue
        part = pieces[piece](x[sel], *[a[sel] for a in extra])
        alone = not isinstance(part, tuple)
        if alone:
            part = (part,)
        if out is None:
            out = tuple(np.empty_like(x) for _ in part)
        for o, p in zip(out, part):
            o[sel] = p
    return out[0] if alone else out


def piecewise(x, cuts, pieces, *extra):
    """pieces[k] on the x in [cuts[k-1], cuts[k]), nan in the last piece.

    Each piece is called as piece(x[sel], *[a[sel] for a in extra]) on only
    the entries it keeps, extra being arrays of x's shape, and returns an
    array or a tuple of arrays; the result takes x's shape.  The input goes
    in blocks of _BLOCK entries, whose temporaries stay small.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    extra = [np.ravel(a) for a in extra]
    blocks = [
        _route(flat[i:i + _BLOCK], cuts, pieces, [a[i:i + _BLOCK] for a in extra])
        for i in range(0, max(flat.size, 1), _BLOCK)  # an empty x is one empty block
    ]
    join = np.concatenate if len(blocks) > 1 else lambda c: c[0]
    if isinstance(blocks[0], tuple):
        return tuple(join(c).reshape(x.shape) for c in zip(*blocks))
    return join(blocks).reshape(x.shape)


def _erf_halves(z, e):
    # split at sqrt(1/2) as Cephes ndtr splits it
    erf = _erf_core(z)
    half_erf = 0.5 * erf
    half_erfc = 0.5 * (1.0 - erf)
    small = z < _SQRT1_2
    return np.where(small, 0.5 - half_erf, half_erfc), np.where(small, 0.5 + half_erf, 1.0 - half_erfc)


def _rational_halves(z, e, *, cols):
    h = _rational(z, cols, e)
    h *= 0.5
    return h, 1.0 - h


def _underflow(z, e):
    h = z * 0.0
    return h, 1.0 - h


_TAIL_PIECES = (
    _erf_halves,
    partial(_rational_halves, cols=_PQ),
    partial(_rational_halves, cols=_RS),
    _underflow,
)


def _tails(z, e):
    """(Phi(-x), Phi(x)) at z = |x| / sqrt(2), each as Cephes ndtr evaluates it.

    e is exp(-z^2) at every z, the exponential of the tail branches; z must
    not exceed _X_CLAMP / sqrt(2).
    """
    return piecewise(z, _CUTS, _TAIL_PIECES, e)


def _clamped(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(np.minimum(x, _X_CLAMP), -_X_CLAMP)


def _pdf_cdf_sf(x):
    e = x * x
    e *= -0.5
    np.exp(e, out=e)
    lower, upper = _tails(np.abs(x) * _SQRT1_2, e)
    e /= _SQRT_2PI
    neg = x < 0.0
    if neg.any():
        return e, np.where(neg, lower, upper), np.where(neg, upper, lower)
    return e, upper, lower


def _upper_x_sf(t):
    pdf, _, sf = _pdf_cdf_sf(t)
    out = t * t
    np.subtract(1.0, out, out=out)
    out *= sf
    out += t * pdf
    out *= 0.5
    return out


def _normal_tail_second_moment(t):
    pdf, _, sf = _pdf_cdf_sf(t)
    out = t * pdf
    out += sf
    out *= 2.0
    return out


def _kernel(fn, x):
    """fn over x clamped to +-_X_CLAMP, in blocks."""
    return piecewise(_clamped(x), (), (fn,))


def norm_pdf_cdf_sf(x):
    """(phi(x), Phi(x), Phi(-x)) from one exp(-x^2/2): the fused kernel.

    phi is exp(-x*x/2) / sqrt(2 pi).  Cephes' tail branches compute exp(-z*z),
    whose argument also carries the rounding of sqrt(1/2)^2; the shared
    exponential has only that of x*x, so Phi moves from Cephes' ndtr there,
    at round-off: its relative error grows by up to 4 + x^2/2 ulp, its
    absolute error stays within 2^-52.
    """
    return _kernel(_pdf_cdf_sf, x)


def upper_x_sf_integral(t):
    """integral_{t}^{inf} z * (1 - Phi(z)) dz, closed form, t >= 0.

    Equals 0.5 * (t*phi(t) + (1 - t^2) * (1 - Phi(t))); the two terms cancel
    as t grows, and so does the exponential they share.
    """
    return _kernel(_upper_x_sf, t)


def normal_tail_second_moment(t):
    """E[Z^2; |Z| > t] for t >= 0, closed form 2*(t*phi(t) + 1 - Phi(t))."""
    return _kernel(_normal_tail_second_moment, t)


def normal_abs_moment(order):
    """E|Z|^order = 2^(order/2) * Gamma((order+1)/2) / sqrt(pi)."""
    order = float(order)
    log_moment = 0.5 * order * math.log(2.0) + math.lgamma(0.5 * (order + 1.0))
    return math.exp(log_moment) / math.sqrt(math.pi)
