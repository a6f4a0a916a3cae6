"""Classical and randomized CLT condition functionals and their audits.

All five classical functionals (Lyapunov, Lindeberg, Feller, asymptotic
infinitesimality, and the absolute-difference comparison against the matched
normal sequence) are evaluated in closed form through the scale structure of
the built-in families, with log-space cumulative variances so that exploding
profiles stay finite far beyond float64 overflow.  Lindeberg, Feller and the
comparison functional have randomized versions, which average the same
per-index kernels against a truncated index distribution and carry certified
truncation error bounds; their classical values are that average at a point
mass, so the two agree bit for bit.

Normalization note: the absolute-difference functional is normalized by the
cumulative variance B_n^2 (series form), not by B_n.  Under this scaling the
functional is dominated by the Lindeberg value plus a pure normal tail term,
which is the inequality the audit checks; a B_n^1 scaling would break both
that domination and the monotone decay the randomized diagnostics rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import SummandFamily
from .gaussian import normal_tail_second_moment
from .indices import Deterministic, RandomIndexModel

# relative slop granted to closed-form kernel evaluations (roundoff scale)
_KERNEL_RTOL = 1e-12

# beyond this many e-folds the remaining geometric weights cannot move a sum
_LOG_WEIGHT_CUT = 45.0

# the geometric step walk cuts terms worth at most 2^-_CUT_LOG2 of its sum
_CUT_LOG2 = 60

# (k, i) entries per flat pass of the geometric step walk; bounds its memory
_MAX_PASS_ENTRIES = 1 << 16

# kept (k, i) terms, counted over every row, repeated or not, past which the
# geometric step walk refuses to run; 10^8 evaluated terms of the comparison
# kernel (one unit tail each) take ~7 s on a 2-core Xeon
_MAX_KERNEL_TERMS = 10**8

# thresholds this close (relative) to an atom are decided exactly; the float
# thresholds are within 2^-45 of exact (|log w| <= 45 and log S_k <= 37)
_ATOM_RTOL = 2.0**-40


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    n: int
    epsilon: float | None
    delta: float | None
    value: float
    error_bound: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"condition value must be nonnegative: {self.value}")


def _report(cond, n, value, err, epsilon=None, delta=None) -> ConditionReport:
    return ConditionReport(
        condition=cond, n=int(n), epsilon=epsilon, delta=delta,
        value=float(value), error_bound=float(err),
    )


# ---------------------------------------------------------------------------
# Per-index kernels, vectorized over k
# ---------------------------------------------------------------------------


def _exact_side(k: int, i: int, eps: float, ratio: float, atom: float) -> int:
    """Sign of eps B_k / sigma_j - atom, exactly, for sigma_j i steps below the top.

    With eps = c/d and atom = e/f the exact ratios of the floats, a constant
    profile (ratio 1) compares (eps B_k / sigma_j)^2 = eps^2 k with atom^2 as
    c^2 f^2 k against e^2 d^2.  For a geometric profile let hi > lo be the
    integers of the ratio in lowest terms and m = k - 1 - i; scaled to
    integers, the sign is that of G hi^m - H lo^m with
    G = c^2 f^2 hi^(i+1) - e^2 d^2 (hi - lo) lo^i and H = c^2 f^2 lo^(i+1).
    G <= 0 decides it; otherwise m log(hi/lo) against log(H/G) does, and the
    m-th powers, which grow with k, are formed only when floats cannot tell.
    """
    a, b = ratio.as_integer_ratio()
    c, d = eps.as_integer_ratio()
    e, f = atom.as_integer_ratio()
    if a == b:
        diff = c * c * f * f * k - e * e * d * d
        return (diff > 0) - (diff < 0)
    hi, lo = max(a, b), min(a, b)
    m = k - 1 - i
    g = c * c * f * f * hi ** (i + 1) - e * e * d * d * (hi - lo) * lo**i
    if g <= 0:
        return -1
    h = c * c * f * f * lo ** (i + 1)
    grow, lh, lg = m * math.log1p((hi - lo) / lo), math.log(h), math.log(g)
    if abs(grow - (lh - lg)) > 1e-9 * (1.0 + grow + lh + lg):
        return 1 if grow > lh - lg else -1
    diff = g * hi**m - h * lo**m
    return (diff > 0) - (diff < 0)


def _decide_atom_ties(t, law, ratio, eps, k_and_step):
    """Move each threshold within round-off of an atom to its exact side of it.

    A tail functional of a discrete law jumps at its atoms, so a threshold
    that rounds onto an atom from below would drop a whole atom's mass.
    k_and_step maps positions in t to their k and step i (arrays or scalars,
    broadcast over the positions), and every near position gets its own
    _exact_side call, for a constant profile (ratio 1) as for a geometric
    one.  The callers pass each k once: a window's ks, or one n.
    """
    if law.atoms is None:
        return
    for atom in sorted(set(np.abs(law.atoms[0]).tolist())):
        gap = t - atom
        near = np.flatnonzero(np.abs(gap, out=gap) <= _ATOM_RTOL * atom)
        del gap
        if not near.size:
            continue
        ks, steps, _ = np.broadcast_arrays(*k_and_step(near), near)
        sides = np.array([
            _exact_side(k, i, eps, ratio, atom)
            for k, i in zip(ks.tolist(), steps.tolist())
        ])
        t[near] = np.nextafter(atom, atom * (1 + sides))


def _runs(rows, first, counts):
    """Each row repeated counts times, with its steps first, first + 1, ..."""
    repeated = np.repeat(rows, counts)
    offsets = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return repeated, np.arange(repeated.size) + offsets


def _geometric_sum(law, profile, ks, eps, term, rest, log_weight_cut=math.inf):
    """sum_i term(w_i, t_i) per k, over the steps i below the largest sigma_j.

    Every geometric-profile sum of the functionals is this walk.  Its
    w_i = e^(q i) / S_k is sigma_j^2 / B_k^2 (q = profile.log_step, S_k =
    B_k^2 / max sigma_j^2) and t_i = eps sqrt(S_k) e^(-q i / 2) the
    threshold eps B_k / sigma_j, put on its exact side of any atom it ties.
    The steps run over i < k with w_i > e^-log_weight_cut.  The terms must
    be nonnegative and fall with i, and rest(k, i, w_i, t_i) must bound the
    terms from i on and fall with i too.  Then a zero i = 0 term makes every
    term zero, and otherwise the terms from the first i whose rest is at
    most 2^-60 of the i = 0 term, itself a lower bound on the sum, are cut:
    that i is found per k by bisection.  The kept (k, i) pairs of every row
    are counted before any is evaluated, refused past _MAX_KERNEL_TERMS, and
    summed in flat passes of _MAX_PASS_ENTRIES over the rows in order: each
    row's run of steps clipped to the pass is repeated out, with no search
    per pair.

    term reads w_i and t_i, never k, so adjacent rows with equal log S_k
    and kept count, as the rows past some 31 / |q| steps are, sum the same
    terms.  A row whole in one pass, after the first such row of its run,
    is skipped and copies that row's sum: bincount adds a whole row's terms
    in the same order in any pass, so the sums keep their bits.  Rows that
    a pass splits are walked as they are.  Only the atom ties read k,
    through _exact_side, whose side is monotone in k at a fixed step: a run
    shares its terms when its least and largest k decide every tie of its
    first row alike, and is walked row by row otherwise.  The cap counts
    the pairs of every row, shared or not.
    """
    q = profile.log_step
    log_s = np.log(profile.b2_over_max_var(ks))

    def at(rows, steps, k=ks):  # w and t, with the atom ties decided at k
        logw = q * steps - log_s[rows]
        with np.errstate(over="ignore"):  # t = inf: the whole law lies within
            t = eps * np.exp(-0.5 * logw)
        _decide_atom_ties(
            t, law, profile.ratio, eps, lambda near: (k[rows[near]], steps[near])
        )
        return np.exp(logw), t

    lo = np.zeros(len(ks), dtype=np.int64)
    first = term(*at(np.arange(len(ks)), lo))
    target = np.ldexp(first, -_CUT_LOG2)
    live = np.minimum(ks, np.ceil((log_weight_cut - log_s) / -q)).astype(np.int64)
    # count of kept terms: the first i >= 1 with rest <= target (live if
    # none), found by bisection with rest(lo) > target or lo = 0
    hi = np.where(first > 0.0, live, 0)
    while True:
        act = np.flatnonzero(hi - lo > 1)
        if not act.size:
            break
        mid = (lo[act] + hi[act]) // 2
        drop = rest(ks[act], mid, *at(act, mid)) <= target[act]
        hi[act[drop]] = mid[drop]
        lo[act[~drop]] = mid[~drop]
    ends = np.cumsum(hi)
    starts = ends - hi
    total = int(hi.sum())
    if total > _MAX_KERNEL_TERMS:
        raise ValueError(
            f"the geometric-profile kernel needs {total} kept (k, i) terms, "
            f"past the cap of {_MAX_KERNEL_TERMS}"
        )
    # source[r]: the row whose sum row r copies, or -1 if r is walked; k_lo
    # and k_hi: the least and largest k of the rows that copy a row
    whole = np.flatnonzero((hi > 0) & (starts // _MAX_PASS_ENTRIES
                                       == (ends - 1) // _MAX_PASS_ENTRIES))
    run = np.cumsum(np.r_[True, (log_s[1:] != log_s[:-1]) | (hi[1:] != hi[:-1])])
    lead = np.diff(run[whole], prepend=0) != 0  # the first whole row of a run
    copies = whole[~lead]
    source = np.full(len(ks), -1)
    source[copies] = whole[lead][np.cumsum(lead) - 1][~lead]
    k_lo, k_hi = ks.copy(), ks.copy()
    np.minimum.at(k_lo, source[copies], ks[copies])
    np.maximum.at(k_hi, source[copies], ks[copies])
    out = np.zeros(len(ks))
    for a in range(0, total, _MAX_PASS_ENTRIES):
        b = min(a + _MAX_PASS_ENTRIES, total)
        # rows r0..r1-1 hold the pass, each its run of steps clipped to [a, b)
        r0 = np.searchsorted(ends, a, side="right")
        r1 = np.searchsorted(ends, b - 1, side="right") + 1
        leads = r0 + np.flatnonzero(k_lo[r0:r1] != k_hi[r0:r1])
        if leads.size and law.atoms is not None:  # runs whose k ends tie apart
            rows, steps = _runs(leads, 0, hi[leads])
            apart = rows[at(rows, steps, k_lo)[1] != at(rows, steps, k_hi)[1]]
            source[np.isin(source, apart)] = -1
        walked = r0 + np.flatnonzero(source[r0:r1] < 0)
        skip = np.maximum(starts[walked], a) - starts[walked]
        counts = np.minimum(ends[walked], b) - starts[walked] - skip
        rows, steps = _runs(walked, skip, counts)
        out += np.bincount(rows, weights=term(*at(rows, steps)), minlength=len(ks))
    copies = np.flatnonzero(source >= 0)
    out[copies] = out[source[copies]]
    return out


def _scale_mixture_values(unit_fn, family, ks, eps):
    """sum_j (sigma_j^2 / B_k^2) * unit_fn(eps * B_k / sigma_j), per k.

    unit_fn maps a normalized threshold to a functional of the standardized
    law (tail second moment, absolute-difference tail, ...).  For constant
    profiles the sum collapses to unit_fn(eps * sqrt(k)).  Geometric profiles
    walk the steps with weights above e^-45, and past k_sat, where every
    further weight is below that, the value saturates.  unit_fn decreases
    and the weights of one k sum to 1, so unit_fn(t_i) bounds the terms from
    i on.
    """
    ks = np.asarray(ks, dtype=np.int64)
    profile = family.profile
    if profile.is_constant:
        with np.errstate(over="ignore"):  # t = inf: the whole law lies within
            t = eps * np.sqrt(ks.astype(float))
        _decide_atom_ties(t, family.law, 1.0, eps, lambda near: (ks[near], 0))
        return np.maximum(np.asarray(unit_fn(t), dtype=float), 0.0)
    k_sat = int(math.ceil(_LOG_WEIGHT_CUT / -profile.log_step)) + 2
    uk, inverse = np.unique(np.minimum(ks, k_sat), return_inverse=True)
    out = _geometric_sum(
        family.law, profile, uk, eps,
        term=lambda w, t: w * unit_fn(t),
        rest=lambda k, i, w, t: unit_fn(t),
        log_weight_cut=_LOG_WEIGHT_CUT,
    )
    return np.maximum(out, 0.0)[inverse]


def lindeberg_values(family: SummandFamily, ks, eps: float) -> np.ndarray:
    """Lindeberg functional (normalized truncated second moments) per index."""
    return _scale_mixture_values(family.law.tail_second_moment, family, ks, eps)


def rotar_values(family: SummandFamily, ks, eps: float) -> np.ndarray:
    """Variance-normalized absolute-difference tail functional per index."""
    return _scale_mixture_values(family.law.rotar_unit_tail, family, ks, eps)


def feller_values(family: SummandFamily, ks) -> np.ndarray:
    """max_j sigma_j^2 / B_k^2 per index, exact closed forms."""
    return 1.0 / family.profile.b2_over_max_var(ks)


def max_threshold_ratio(family: SummandFamily, ks, eps: float) -> np.ndarray:
    """eps * B_k / sigma*(k) with sigma* the largest sigma_j, j <= k."""
    return eps * np.sqrt(family.profile.b2_over_max_var(ks))


# ---------------------------------------------------------------------------
# Classical conditions with no randomized twin
# ---------------------------------------------------------------------------


def lyapunov(family: SummandFamily, n: int, delta: float) -> ConditionReport:
    """B_n^-(2+delta) * sum_j E|X_j|^(2+delta)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1]: {delta}")
    moment = family.law.abs_moment(2.0 + delta)  # raises for nonexistent moments
    prof = family.profile
    logv = float(prof.log_sum_sigma_pow(n, 2.0 + delta))
    logb2 = float(prof.log_b_squared(n))
    value = math.exp(logv - (1.0 + 0.5 * delta) * logb2) * moment
    return _report("lyapunov", n, value, _KERNEL_RTOL * (1.0 + value), delta=delta)


def infinitesimality(family: SummandFamily, n: int, epsilon: float) -> ConditionReport:
    """P(max_{j<=n} |X_j| > eps B_n), strict inequality at atoms.

    Computed from independence as one minus the product of the central
    probabilities P = P(|X_j| <= eps B_n): on a constant profile, the n-th
    power of P(|Z| <= eps sqrt(n)).  On a geometric one the -log P fall with
    the step i, and with p = 1 - P the terms from i on add at most
    (n - i) p / (1 - p) to the -log sum, which bounds the walk's cut.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    prof = family.profile

    def prob(t):
        return np.asarray(family.law.central_prob(t), dtype=float)

    def rest(k, i, w, t):  # (n - i) p / (1 - p), p = 1 - P
        central = prob(t)
        return (k - i) * ((1.0 - central) / central)

    # P = 0: the product is 0; P subnormal: rest is inf, a bound still; and
    # t = inf: the whole law lies within
    with np.errstate(divide="ignore", over="ignore"):
        if prof.is_constant:
            # the float of the geometric profile's t_0 at q = 0
            t = np.exp(0.5 * np.log(np.array([float(n)]))) * epsilon
            _decide_atom_ties(t, family.law, 1.0, epsilon, lambda near: (n, 0))
            log_prod = n * float(np.log(prob(t))[0])
        else:
            log_prod = -float(_geometric_sum(
                family.law, prof, np.array([n]), epsilon,
                term=lambda w, t: -np.log(prob(t)), rest=rest,
            )[0])
    value = max(0.0, -math.expm1(log_prod))
    return _report(
        "infinitesimality", n, value, _KERNEL_RTOL * (1.0 + value),
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# Index-averaged conditions; the classical ones are the point-mass case
# ---------------------------------------------------------------------------


# per-index kernel of each averaged functional, and the bound on it that
# certifies the truncation: Lindeberg and Feller values are shares of 1, and
# the Rotar integrand is dominated by the Lindeberg value plus the full
# normal second moment
_KERNELS = {
    "lindeberg": (lindeberg_values, 1.0),
    "feller": (lambda family, ks, eps: feller_values(family, ks), 1.0),
    "rotar": (rotar_values, 2.0),
}


def _index_average(
    cond: str, family: SummandFamily, index_model: RandomIndexModel,
    epsilon: float | None = None,
) -> ConditionReport:
    """The per-index kernel named by cond, averaged against the index window.

    A classical value is this average on Deterministic(n): its window is
    [n] with probability 1.0 and outside mass 0.0, so the value is the
    kernel's own and the error bound its round-off slack alone.
    """
    kernel, abs_bound = _KERNELS[cond.removeprefix("random_")]
    if epsilon is not None and epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    values = kernel(family, index_model.support, epsilon)
    est = index_model.expect_values(values, abs_bound=abs_bound)
    err = est.truncation_error_bound + _KERNEL_RTOL * (1.0 + est.value)
    return _report(cond, index_model.n, est.value, err, epsilon=epsilon)


def lindeberg(family: SummandFamily, n: int, epsilon: float) -> ConditionReport:
    """B_n^-2 * sum_j E[X_j^2; |X_j| > eps B_n]; always in [0, 1]."""
    return _index_average("lindeberg", family, Deterministic(n), epsilon)


def feller(family: SummandFamily, n: int) -> ConditionReport:
    """max_{j<=n} sigma_j^2 / B_n^2."""
    return _index_average("feller", family, Deterministic(n))


def rotar(family: SummandFamily, n: int, epsilon: float) -> ConditionReport:
    """B_n^-2 * sum_j integral_{|x|>eps B_n} |x| |F_j - Phi_j| dx.

    Phi_j is the normal law with the family's variance sigma_j^2.  Exactly
    zero for all-normal families (F_j coincides with Phi_j).
    """
    return _index_average("rotar", family, Deterministic(n), epsilon)


def random_lindeberg(
    family: SummandFamily, index_model: RandomIndexModel, epsilon: float
) -> ConditionReport:
    """Index-averaged Lindeberg functional."""
    return _index_average("random_lindeberg", family, index_model, epsilon)


def random_feller(
    family: SummandFamily, index_model: RandomIndexModel
) -> ConditionReport:
    """Index-averaged Feller functional."""
    return _index_average("random_feller", family, index_model)


def random_rotar(
    family: SummandFamily, index_model: RandomIndexModel, epsilon: float
) -> ConditionReport:
    """Index-averaged comparison functional."""
    return _index_average("random_rotar", family, index_model, epsilon)


# ---------------------------------------------------------------------------
# Implication audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    slack: float
    error_bound: float
    passed: bool


@dataclass(frozen=True)
class ImplicationAudit:
    checks: tuple[InequalityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name, lhs, rhs, err) -> InequalityCheck:
    slack = rhs - lhs
    return InequalityCheck(
        name=name, lhs=float(lhs), rhs=float(rhs), slack=float(slack),
        error_bound=float(err), passed=bool(slack >= -err),
    )


def implication_audit(
    family: SummandFamily,
    index_model: RandomIndexModel,
    n: int,
    epsilon: float,
    delta: float,
) -> ImplicationAudit:
    """Check the domination inequalities linking the condition functionals.

    (a) lindeberg <= eps^-delta * lyapunov        (Markov-type domination)
    (b) feller <= eps^2 + lindeberg
    (c) rotar <= lindeberg + normal tail beyond eps B_n / sigma*
    (d) index-averaged version of (b)
    (e) index-averaged version of (c)

    (b)/(c) and (d)/(e) are one pair of checks, on Deterministic(n) and on
    index_model.  Failures are reported, never raised; a check passes when
    its slack is no smaller than the negated combined error bound.
    """
    lyap = lyapunov(family, n, delta)
    try:
        scale, eps2 = epsilon ** (-delta), epsilon**2
    except OverflowError:
        scale = eps2 = math.inf
    if not math.isfinite(scale * (lyap.value + lyap.error_bound) + eps2):
        raise ValueError(
            f"epsilon {epsilon!r}: eps^2 or eps^-delta times the Lyapunov value "
            "is past float64 range"
        )
    checks = []
    for pre, model in (("", Deterministic(n)), ("random_", index_model)):
        lind = _index_average(pre + "lindeberg", family, model, epsilon)
        fel = _index_average(pre + "feller", family, model)
        rot = _index_average(pre + "rotar", family, model, epsilon)
        tail = model.expect_values(
            normal_tail_second_moment(max_threshold_ratio(family, model.support, epsilon)),
            abs_bound=1.0,
        )
        if not pre:
            checks.append(_check(
                "lindeberg_le_scaled_lyapunov",
                lind.value,
                scale * lyap.value,
                lind.error_bound + scale * lyap.error_bound,
            ))
        checks += [
            _check(
                f"{pre}feller_le_eps2_plus_{pre}lindeberg",
                fel.value,
                eps2 + lind.value,
                fel.error_bound + lind.error_bound,
            ),
            _check(
                f"{pre}rotar_le_{pre}lindeberg_plus_normal_tail",
                rot.value,
                lind.value + tail.value,
                rot.error_bound
                + lind.error_bound
                + tail.truncation_error_bound
                + _KERNEL_RTOL,
            ),
        ]
    return ImplicationAudit(checks=tuple(checks))


def empirical_rotar_constant(audit: ImplicationAudit, d_hat: float) -> float:
    """Ratio estimate of the unspecified constant linking the comparison
    functional to the CLT distance plus the maximal variance share.

    The randomized Rotar and Feller values are the left-hand sides of the
    audit's checks (e) and (d); d_hat is the Kolmogorov distance of one
    simulation at the audit's index model.  Purely informational: reported
    by the audit, never asserted.
    """
    lhs = {c.name: c.lhs for c in audit.checks}
    denom = d_hat + lhs["random_feller_le_eps2_plus_random_lindeberg"]
    rotar = lhs["random_rotar_le_random_lindeberg_plus_normal_tail"]
    return rotar / denom if denom > 0 else math.inf
