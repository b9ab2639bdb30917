"""Grid-checkable form of the weight-improvement proof apparatus.

The bracket difference of the weight factors as

    w(x) = (x/q)^(p-1) * ( x/q + E(x) + F(x) ),

where g(x) = q * sum_{k>=1} binom(1/q, k+1) x^k collects the higher binomial
terms, E is the odd part extracted from the first-order bracket term, and F
is the remainder over bracket powers n >= 2, evaluated in closed form:

    F(x) = sum_{n>=2} binom(p-1, n) (g(-x)^n - g(x)^n) = h(g(-x)) - h(g(x)),
    h(t) = (1+t)^(p-1) - 1 - (p-1)t.

Every lemma bound feeding the positivity of E + F is implemented here as a
predicate over (p, x) grids, reporting worst margins rather than bare
booleans.  The six x-grid checks are point functions x -> (margin, lhs, rhs)
run by one grid loop.  A check takes at most the exponent and the x-grid;
its series order and k- or p-range are module constants, and the
decomposition derives its reference precision from the two.

Strictness semantics: a strict inequality is certified as "exceeds the
combined truncation-plus-rounding tolerance", never as "compares greater in
floating arithmetic".  Non-strict lemma bounds are allowed the same
tolerance on the other side.

Arithmetic: g, E and F are evaluated in doubles, with the allowances
derived where they are computed.  The decomposition check ties those same
double evaluators, the ones `ef` runs, to the closed-form weight: it reads
the weight at a reference precision derived from p and the grid's smallest
x (:func:`_reference_bits`), rescales it to E + F, and allows the E and F
tails, the rounding of their double sum and the rescaled closed form's own
rounding (:func:`_bracket_slack`), every term relative to the quantity it
bounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from mpmath import mp

from .numerics import (
    PAIR_CACHE_SIZE,
    ExponentPair,
    binom_general_rational,
)
from .series import SeriesValue, _g_argument_series
from .weights import _improved_values, eval_w1_closed, eval_w_classical

DEFAULT_ORDER = 40

# g, E and F are evaluated at DEFAULT_ORDER in doubles.  The coefficient
# floor covers k = 2..DEFAULT_ORDER and the binomial cap k in BINOM_K, so it
# needs p < 40.
_DOUBLE_UNIT = 2.0 ** -53
# The decomposition's reference precision keeps the closed form's rounding
# this many bits below one unit of a double E + F (see _reference_bits).
REFERENCE_GUARD_BITS = 8
PAIRWISE_N_MAX = 15
BINOM_K = range(2, 41)
N1_DIGITS = 30
# A failing report lists this many of its lowest-margin points.
FAILURES_KEPT = 20

# p-grid for the lemma suite: the low-p corner plus quarter points up to 3/2,
# then half-integer steps through 10 (integer and half-integer points are the
# case boundaries of the proof's case analysis).
DEFAULT_P_GRID = tuple(
    [Fraction("1.01"), Fraction("1.1"), Fraction("1.25")]
    + [Fraction(k, 2) for k in range(3, 21)]
)

DEFAULT_X_GRID = tuple(j / 1000 for j in range(1, 501))

# p-grid for the n = 1 special-value check: (1, 20], open at the left.
N1_P_GRID = tuple([Fraction("1.001")] + [1 + Fraction(k, 20) for k in range(1, 381)])


class AgreementError(RuntimeError):
    """Two supposedly-identical internal formulas disagreed beyond tolerance."""


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

def g_series(pair: ExponentPair, order: int) -> tuple:
    """Coefficients a_0..a_order of g(-x) = sum_{k>=1} a_k x^k, exact.

    a_k = q * |binom(1/q, k+1)|; a_0 is a structural zero.  Positivity and
    weak decay of a_1..a_order are asserted, since eval_g's tail bound rests
    on them.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    coeffs = _g_argument_series(pair, -1, order).coeffs
    for k in range(1, order + 1):
        if not coeffs[k] > 0:
            raise AgreementError(f"a_{k} must be positive, got {coeffs[k]}")
        if k >= 2 and coeffs[k] > coeffs[k - 1]:
            raise AgreementError(
                f"a_k must decay weakly: a_{k}={coeffs[k]} > a_{k-1}={coeffs[k-1]}")
    return coeffs


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _a_table(pair: ExponentPair, order: int) -> tuple:
    """The a_k table as doubles."""
    return tuple(float(c) for c in g_series(pair, order))


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _g_table(pair: ExponentPair, order: int, sign: int) -> tuple:
    """g(sign x)'s Horner table as doubles: +-a_order, ..., +-a_1."""
    a = _a_table(pair, order)
    return tuple(a[k] if sign < 0 or k % 2 == 0 else -a[k]
                 for k in range(order, 0, -1))


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _e_binom_table(pair: ExponentPair, order: int) -> tuple:
    """Independent route to E's coefficients: -2p * binom(1/q, k+1), odd k,
    as doubles.

    Each binomial is its own falling-factorial product, not the ratio-step
    sequence behind the a_k table, so the two routes compute the
    coefficients differently.  The table holds 2(p-1) a_k itself, where E
    from the a_k table multiplies by 2(p-1) after the sum.
    """
    out = [0.0] * (order + 1)
    p = pair.p_exact
    inv_q = pair.inv_q_exact
    for k in range(3, order + 1, 2):
        out[k] = float(-2 * p * binom_general_rational(inv_q, k + 1))
    return tuple(out)


class _PairConstants(NamedTuple):
    """What _bracket_slack derives from p alone, formed once per pair, as
    doubles: q, 1/q, p - 2, |p - 1| + 1 and 2p + 68."""
    q: float
    inv_q: float
    p_minus_2: float
    pm1_plus_1: float
    rescale_units: float


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _pair_constants(pair: ExponentPair) -> _PairConstants:
    p = pair.p_exact
    return _PairConstants(float(pair.q_exact), float(pair.inv_q_exact),
                          float(p - 2), float(abs(p - 1) + 1),
                          float(2 * p + 68))


def _up(value: float, units: float = 0) -> float:
    """A double upper bound of the nonnegative quantity that value
    approximates to within `units` units of 2^-53 (to first order).

    value is enlarged by that many units and nudged up one ulp with
    math.nextafter; the ulp covers the rounding of the enlargement, which is
    at most half an ulp.  A bound outside the normal double range would have
    lost the relative accuracy this rests on, so it is an error.
    """
    bound = math.nextafter(value + value * (units * _DOUBLE_UNIT), math.inf)
    if not sys.float_info.min <= bound < math.inf:
        raise ValueError(
            f"allowance {bound!r} lies outside the normal double range")
    return bound


# ---------------------------------------------------------------------------
# Point evaluations with tail bounds
# ---------------------------------------------------------------------------

def _check_x(x) -> float:
    xf = float(x)
    if not 0 < xf <= 0.5:
        raise ValueError(f"x must lie in (0, 1/2], got {x}")
    return xf


def _below_one(g_minus_hi, pair: ExponentPair, x):
    """The upper bound g(-x) + tail, which the bracket-power sums need below 1."""
    if not g_minus_hi < 1:
        raise AgreementError(
            f"g(-x) + tail = {g_minus_hi} is not below 1 at p={pair.p_float()}, "
            f"x={float(x)}")
    return g_minus_hi


def eval_g(pair: ExponentPair, x, sign: int,
           order: int = DEFAULT_ORDER) -> SeriesValue:
    """Truncated g(sign*x) in doubles, with a geometric tail bound.

    The tail bound a_order * x^(order+1)/(1-x) is rigorous here because the
    coefficients decay weakly.  The sum is a Horner loop, allowed 8 units
    per step of (1 + |acc|) x for rounding.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    xf = _check_x(x)
    table = _g_table(pair, order, sign)
    acc = 0
    for c in table:
        acc = acc * xf + c
    value = acc * xf
    tail = abs(table[0]) * xf ** (order + 1) / (1 - xf)
    # Horner partials stay below 1 + |acc|; the final multiply scales
    # everything by x, so the rounding allowance carries the same factor.
    tail += 8 * (order + 1) * _DOUBLE_UNIT * (1 + abs(acc)) * xf
    return SeriesValue(value, tail)


def eval_E(pair: ExponentPair, x, order: int = DEFAULT_ORDER) -> SeriesValue:
    """The odd correction term E(x) = 2(p-1) * sum_{odd k>=3} a_k x^k, in
    doubles.

    Evaluated both from the a_k table and from the directly computed
    binomial coefficients; disagreement beyond tolerance is a hard error.
    The returned value is the a_k form.
    """
    x = _check_x(x)
    a = _a_table(pair, order)
    e_bin = _e_binom_table(pair, order)
    top = order if order % 2 == 1 else order - 1
    unit = _DOUBLE_UNIT
    p = pair.p_float()
    x2 = x * x
    acc = acc_b = 0
    for k in range(top, 2, -2):
        acc = acc * x2 + a[k]
        acc_b = acc_b * x2 + e_bin[k]
    value = 2 * (p - 1) * acc * x ** 3
    tail = 2 * (p - 1) * a[order] * x ** (order + 1) / (1 - x)
    # Everything is scaled by x^3 at the end, so rounding is too.
    tail += (8 * (order + 2) * unit * (1 + abs(acc))
             * max(1, 2 * (p - 1)) * x ** 3)
    value_b = acc_b * x ** 3
    agree_tol = 64 * (order + 2) * unit * (1 + abs(acc) + abs(acc_b)) * x ** 3
    if abs(value - value_b) > agree_tol:
        raise AgreementError(
            f"E formulas disagree at p={pair.p_float()}, x={x}: "
            f"{value} vs {value_b}")
    return SeriesValue(value, tail)


def _h_slope(alpha: float, s: float) -> float:
    """|h'(s)| = |alpha| |expm1(alpha log1p(s)) - s| / (1+s) in doubles,
    the numerator padded by 16 units (derived in :func:`eval_F`)."""
    u = alpha * math.log1p(s)
    n = abs(math.expm1(u) - s)
    n += 16 * _DOUBLE_UNIT * (abs(u) * math.exp(abs(u)) + abs(s) + n)
    return abs(alpha) * n / (1 + s)


def _h_rounding(u: float, at: float, h: float) -> float:
    """The rounding allowance of h(t), 8 units of |u| e^|u| + |alpha t| + |h|,
    from u, alpha t and h as doubles (derived in :func:`eval_F`)."""
    return 8 * _DOUBLE_UNIT * (abs(u) * math.exp(abs(u)) + abs(at) + abs(h))


def _not_positive(pair: ExponentPair, x, gap) -> AgreementError:
    return AgreementError(f"1 + g - tail = {gap} is not positive at "
                          f"p={pair.p_float()}, x={float(x)}")


def eval_F(pair: ExponentPair, x,
           series_order: int = DEFAULT_ORDER) -> SeriesValue:
    """The remainder F(x) = h(g(-x)) - h(g(x)), h(t) = (1+t)^(p-1) - 1 - (p-1)t,
    in doubles.

    h(t) = expm1(alpha log1p(t)) - alpha t, alpha = p - 1 rounded once, does
    not cancel for small t; the only truncation is g's, at series_order.
    Tail bound per h, for the computed g = t with tail tau, in units of
    2^-53 (each operation, log1p and expm1 errs by at most 2 units):

    * inner error: h'(s) = alpha((1+s)^(alpha-1) - 1) is monotone, so
      |h(g) - h(t)| <= max(|h'(lo)|, |h'(hi)|) tau for lo, hi = t -+ tau,
      widened by 2 units of |t| + tau against rounding.  h'(s) is taken as
      alpha (expm1(u) - s)/(1+s), u = alpha log1p(s), padded by 16 units of
      |u| e^|u| + |s| + |expm1(u) - s|;
    * rounding of h(t): u = alpha log1p(t) is off by 5 units of |u|, which
      expm1 amplifies by e^|u|; expm1 adds 2 units of |expm1(u)| <= |h| +
      |alpha t|, alpha t 3 units of itself and the subtraction 1 unit of
      |h|: in all 8 units of |u| e^|u| + |alpha t| + |h|.

    The final subtraction adds 4 units of |F|.  h' diverges at t = -1 when
    p < 2, so 1 + g - tail not positive (either sign) raises AgreementError.
    """
    unit = _DOUBLE_UNIT
    alpha = float(pair.p_exact - 1)
    value = tail = 0.0
    for sign in (-1, +1):
        t, tau = eval_g(pair, x, sign, series_order)
        reach = tau + 2 * unit * (abs(t) + tau)
        lo, hi = t - reach, t + reach
        if not (1 + t - reach > 0 and lo > -1):
            raise _not_positive(pair, x, 1 + t - tau)
        u = alpha * math.log1p(t)
        at = alpha * t
        h = math.expm1(u) - at
        value -= sign * h
        tail += _h_rounding(u, at, h)
        tail += max(_h_slope(alpha, s) for s in (lo, hi)) * tau
    return SeriesValue(value, tail + 4 * unit * abs(value))


# ---------------------------------------------------------------------------
# Grid check reports
# ---------------------------------------------------------------------------

@dataclass
class GridCheckReport:
    """Outcome of one predicate over a (p, x) grid.

    The margin at each point is the checked quantity minus its tolerance
    threshold, so pass == (worst margin > 0) == (no failures).  ``failures``
    keeps the FAILURES_KEPT failing points of lowest margin, in ascending
    order, and ``failure_count`` counts them all; the JSON form carries the
    count only when the check fails.
    """

    description: str
    grid: dict
    worst_margin: float
    passed: bool
    failures: list = field(default_factory=list)
    failure_count: int = 0

    def to_json_dict(self) -> dict:
        payload = {
            "description": self.description,
            "grid": self.grid,
            "worst_margin": self.worst_margin,
            "pass": self.passed,
            "failures": self.failures,
        }
        if not self.passed:
            payload["failure_count"] = self.failure_count
        return payload


def _lowest_failures(failures) -> list:
    return sorted(failures, key=lambda f: f["margin"])[:FAILURES_KEPT]


def _build_report(description, grid, points) -> GridCheckReport:
    """points: a list of (p, x, margin, lhs, rhs)."""
    failures = [{"p": p, "x": x, "margin": margin, "lhs": lhs, "rhs": rhs}
                for p, x, margin, lhs, rhs in points if not margin > 0]
    worst = min([math.inf] + [point[2] for point in points])
    return GridCheckReport(description, grid, worst, not failures,
                           _lowest_failures(failures), len(failures))


def _x_grid_check(description, pair: ExponentPair, x_grid, point,
                  **extra) -> GridCheckReport:
    """The report of point(x) -> (margin, lhs, rhs) over x_grid at one p.

    The grid spec lists p, then the extra keys, then the x-grid's extent.
    """
    pf = pair.p_float()
    xs = [float(x) for x in x_grid]
    points = [(pf, xf, *point(x)) for x, xf in zip(x_grid, xs)]
    return _build_report(description, {
        "p": [pf], **extra,
        "x_min": min(xs), "x_max": max(xs), "points": len(xs)}, points)


def check_g_bounds(pair: ExponentPair, x_grid) -> GridCheckReport:
    """The sign-and-size chain -1 < g(x) < 0 < -g(x) < g(-x) < 1, strictly."""
    def point(x):
        gm, tm = eval_g(pair, x, -1)
        gp, tp = eval_g(pair, x, +1)
        return min([
            (gp + 1 - tp, gp, -1.0),          # g(x) > -1
            (-gp - tp, 0.0, gp),              # g(x) < 0
            (gm + gp - tm - tp, gm, -gp),     # -g(x) < g(-x)
            (1 - gm - tm, 1.0, gm),           # g(-x) < 1
        ], key=lambda c: c[0])
    return _x_grid_check("g-bound chain", pair, x_grid, point)


def check_lemma_gpm(pair: ExponentPair, x_grid) -> GridCheckReport:
    """Even-part bound g(-x) + g(x) <= (p+1)/(9 p^2)."""
    pf = pair.p_float()
    bound = (pf + 1) / (9 * pf * pf)

    def point(x):
        gm, tm = eval_g(pair, x, -1)
        gp, tp = eval_g(pair, x, +1)
        return bound - (gm + gp) - (tm + tp), gm + gp, bound
    return _x_grid_check("even-part bound", pair, x_grid, point)


def check_lemma_ak_lower(pair: ExponentPair) -> GridCheckReport:
    """Coefficient floor a_k >= 1/(p k (k+1)) for 2 <= k <= DEFAULT_ORDER,
    strict for finite k.  Exact rational comparison.
    """
    a = g_series(pair, DEFAULT_ORDER)
    p = pair.p_exact
    bounds = {k: 1 / (p * k * (k + 1)) for k in range(2, DEFAULT_ORDER + 1)}
    pf = pair.p_float()
    points = [(pf, float(k), float(a[k] - bound), float(a[k]), float(bound))
              for k, bound in bounds.items()]
    return _build_report(
        "coefficient floor",
        {"p": [pf], "k_min": 2, "k_max": DEFAULT_ORDER}, points)


def check_lemma_binom_upper(pair: ExponentPair) -> GridCheckReport:
    """|binom(p-1, k)| <= (q-1)/4 for integer k > p in BINOM_K; exact."""
    pf = pair.p_float()
    p = pair.p_exact
    if not p < BINOM_K[-1]:
        raise ValueError(
            f"the binomial-coefficient cap needs p < {BINOM_K[-1]}, got p={pf}")
    bound = 1 / (4 * (p - 1))    # (q-1)/4
    values = {k: abs(binom_general_rational(p - 1, k)) for k in BINOM_K if k > p}
    points = [(pf, float(k), float(bound - value), float(value), float(bound))
              for k, value in values.items()]
    return _build_report("binomial-coefficient cap",
                         {"p": [pf], "k": list(BINOM_K)}, points)


def check_lemma_g_linear(pair: ExponentPair, x_grid) -> GridCheckReport:
    """Linear cap g(-x) <= (q-1)(5q-1)/(6 q^2) * x on (0, 1/2]."""
    qf = pair.q_float()
    slope = (qf - 1) * (5 * qf - 1) / (6 * qf * qf)

    def point(x):
        gm, tm = eval_g(pair, x, -1)
        return slope * float(x) - gm - tm, gm, slope * float(x)
    return _x_grid_check("linear cap", pair, x_grid, point)


def check_pairwise_positivity(pair: ExponentPair, x_grid) -> GridCheckReport:
    """Paired bracket-power terms are nonnegative for p in an odd-to-even window.

    For odd n <= PAIRWISE_N_MAX: binom(p-1,n)(g^n(-x) - g^n(x)) +
    binom(p-1,n+1)(g^(n+1)(-x) - g^(n+1)(x)) >= 0.  Nonnegativity is checked
    up to the evaluation tolerance (the quantity vanishes identically for
    integer p and n > p).  The margin at x is the smallest over n.
    """
    pf = pair.p_float()
    if not _between_odd_and_even(pf):
        raise ValueError(
            f"p={pf} does not lie between an odd and an even integer")

    def point(x):
        gm, tm = eval_g(pair, x, -1)
        gp, tp = eval_g(pair, x, +1)
        gm_hi = _below_one(gm + tm, pair, x)
        tau = tm + tp
        worst = None
        for n in range(1, PAIRWISE_N_MAX + 1, 2):
            b_n = _binom_float(pf - 1, n)
            b_n1 = _binom_float(pf - 1, n + 1)
            value = b_n * (gm ** n - gp ** n) + b_n1 * (gm ** (n + 1) - gp ** (n + 1))
            allow = (abs(b_n) * n * gm_hi ** (n - 1)
                     + abs(b_n1) * (n + 1) * gm_hi ** n) * tau
            allow += 16 * 2.0 ** -53 * (abs(b_n) + abs(b_n1) + 1)
            margin = value + allow
            if worst is None or margin < worst[0]:
                worst = (margin, value, -allow)
        return worst
    return _x_grid_check("paired positivity (qualifying p only)", pair,
                         x_grid, point, n_max=PAIRWISE_N_MAX)


def _binom_float(alpha: float, k: int) -> float:
    acc = 1.0
    for j in range(k):
        acc *= (alpha - j) / (j + 1)
    return acc


def check_EF_positive(pair: ExponentPair, x_grid) -> GridCheckReport:
    """Strict positivity of E(x) + F(x), the heart of the improvement proof.

    The margin is the value minus the combined tolerance of E and F.
    """
    def point(x):
        e = eval_E(pair, x)
        f = eval_F(pair, x)
        value = e.value + f.value
        tol = e.tail_bound + f.tail_bound
        return value - tol, value, tol
    return _x_grid_check("positivity of E + F", pair, x_grid, point)


def _reference_bits(pair: ExponentPair, x_min: float) -> int:
    """The decomposition's reference precision B for a grid whose smallest
    x is x_min: 63 + REFERENCE_GUARD_BITS + log2(p q^2) + 4 log2(1/x_min),
    rounded up.

    The bracket term of :func:`_bracket_slack` is about 128 p (q/x) eps,
    eps = 2^(1-B), and the identity's sides are about a_2 x^3/q, with
    a_2 = (3p - 1)/(8p) >= 1/4.  At B bits the first is
    2^(63-B) p q^2/x^4 units 2^-53 of the second, that is 2^-GUARD units at
    x = x_min, and fewer at every larger x.  A precision that fell short
    would only widen the allowance: the allowance itself is derived point
    by point.
    """
    p, q = pair.p_exact, pair.q_exact
    return 63 + REFERENCE_GUARD_BITS + math.ceil(
        math.log2(float(p * q * q)) - 4 * math.log2(x_min))


def _reference_sides(pair: ExponentPair, xs, precision_bits: int) -> list:
    """(s, r) at each double x of xs, as mpf at precision_bits:
    s = w(x) (q/x)^(p-1) from the closed-form column of
    weights._improved_values, and r = s - x/q, the reference for E + F.
    p and q are rounded once, as the closed form rounds them."""
    with mp.workprec(precision_bits):
        p = pair.p_mpf(precision_bits)
        pm1 = p - 1
        q = p / pm1
        out = []
        for x, w in zip(xs, _improved_values(pair, xs, precision_bits)):
            s = mp.make_mpf(w) * (q / x) ** pm1
            out.append((s, s - x / q))
        return out


def _bracket_slack(pair: ExponentPair, x: float, size: float,
                   precision_bits: int) -> float:
    """The rounding allowance of the reference r = w (q/x)^(p-1) - x/q and
    of its difference from E + F, in doubles, rounded up:

        64 eps (|p-1| + 1) (q/x) (y+^(p-2) + y-^(p-2)) + (2p + 68) eps size,

    eps = 2^(1-bits), where size >= |s| + |r| + |E + F| and
    y+ = (q/x)(1 - (1-x)^(1/q)) = 1 + g(-x), y- = (q/x)((1+x)^(1/q) - 1)
    = 1 + g(x) are the inner brackets v+-, rescaled.

    The closed form errs by 64 eps (|p-1| + 1) (v+^(p-1)/v+ + v-^(p-1)/v-)
    + 64 eps |w|: the bracket powers amplify rounding by (p-1)/v near the
    fractional-power branch.  Times (q/x)^(p-1), the first term is the one
    above, since v^(p-2) (q/x)^(p-1) = (q/x) y^(p-2); its 64 units also
    cover the rounding of p itself, which moves r by a few units of p and
    is far below p (q/x) units (x/q <= 1/2), and the second is 64 eps |s|.
    q/x errs by 2 units, so (q/x)^(p-1) by 2(p-1) + 2 and s by 2p + 1 more
    units of |s|; x/q by 2 units of x/q <= |s| + |r|, and the subtractions
    forming r and r - (E + F) by one unit each of |r| and |r| + |E + F|.
    All are relative: no term survives where the quantities vanish.

    In doubles (x is one exactly), v+ = -expm1((1/q) log1p(-x)) and
    v- = expm1((1/q) log1p(x)) come within 11 units of 2^-53: log1p adds 2,
    1/q and the product 1 each, expm1 amplifies by at most e^z <= 1.5 and
    adds 2.  y = v (q/x) is within 14 units (q, the quotient and the
    product one each), so log y is off by 14 units plus 2 of |log y|, the
    exponent by |p-2| (15 + 4|log y|) units (p - 2 and the product 1 unit of
    it each), and exp adds 2: that is each power's pad.  A final pad of 8
    units covers the rest: the first term's q/x (2 units), conversion of
    |p-1| + 1, sum of powers and two products (6 in all), the second's
    conversion of 2p + 68, size (summed from doubles: 3) and product (5),
    and their sum.
    """
    const = _pair_constants(pair)
    s, e = const.inv_q, const.p_minus_2
    q_x = const.q / x
    powers = 0.0
    for v in (-math.expm1(s * math.log1p(-x)), math.expm1(s * math.log1p(x))):
        log_y = math.log(v * q_x)
        powers += _up(math.exp(e * log_y), abs(e) * (15 + 4 * abs(log_y)) + 2)
    eps = 2.0 ** (1 - precision_bits)
    return _up(64 * eps * const.pm1_plus_1 * q_x * powers
               + const.rescale_units * eps * size, 8)


def check_decomposition_identity(pair: ExponentPair, x_grid) -> GridCheckReport:
    """E + F = r at each x, with E and F from the double evaluators that
    :func:`check_EF_positive` runs and r = w (q/x)^(p-1) - x/q from the
    closed-form weight at :func:`_reference_bits`.

    Since w = (x/q)^(p-1) (x/q + E + F), r is E + F exactly, which is
    (x/q) a(x) for the correction series a of series.expand_correction.
    The tolerance is the tails of E and F, the rounding of their double sum
    (one unit 2^-53 of it) and :func:`_bracket_slack`; each point reports
    E + F and r as its two sides.
    """
    xs = [_check_x(x) for x in x_grid]
    bits = _reference_bits(pair, min(xs))
    rows = iter(zip(xs, _reference_sides(pair, xs, bits)))

    def point(x):
        xf, (s, r) = next(rows)         # point runs once per x, in grid order
        e = eval_E(pair, xf)
        f = eval_F(pair, xf)
        value = e.value + f.value
        with mp.workprec(bits):
            residual = abs(value - r)
            size = abs(float(s)) + abs(float(r)) + abs(value)
            tol = _up(e.tail_bound + f.tail_bound + _DOUBLE_UNIT * abs(value)
                      + _bracket_slack(pair, xf, size, bits), 3)
            return float(tol - residual), value, float(r)
    return _x_grid_check("bracket decomposition", pair, x_grid, point,
                         precision_bits=bits)


def check_n1_case() -> GridCheckReport:
    """Strict improvement at the boundary index: w_p(1) > w_p^H(1) for p in
    N1_P_GRID, beyond 10^-(N1_DIGITS-2)."""
    points = []
    threshold = 10.0 ** (-(N1_DIGITS - 2))
    for p in N1_P_GRID:
        pair = ExponentPair(p)
        w1 = eval_w1_closed(pair, N1_DIGITS)
        wc = eval_w_classical(pair, 1, N1_DIGITS)
        with mp.workprec(w1.precision_bits):
            margin = float(w1.value - wc.value) - threshold
        points.append((float(pair.p_float()), 1.0, margin,
                       float(w1.value), float(wc.value)))
    return _build_report(
        "n = 1 special value: w_p(1) > w_p^H(1) for p on a grid over (1, 20]",
        {"p_min": float(min(N1_P_GRID)), "p_max": float(max(N1_P_GRID)),
         "points": len(N1_P_GRID), "target_digits": N1_DIGITS}, points)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def merge_reports(reports) -> GridCheckReport:
    """Fold per-p reports of one predicate into a single grid report."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    p_values = sorted({p for r in reports for p in r.grid.get("p", [])})
    grid = dict(reports[0].grid)
    grid["p"] = p_values
    failure_count = sum(r.failure_count for r in reports)
    return GridCheckReport(
        description=reports[0].description,
        grid=grid,
        worst_margin=min(r.worst_margin for r in reports),
        passed=not failure_count,
        failures=_lowest_failures(f for r in reports for f in r.failures),
        failure_count=failure_count)


def _between_odd_and_even(p: Fraction | float) -> bool:
    pf = float(p)
    k = math.ceil(pf / 2)
    return 2 * k - 1 <= pf <= 2 * k


class Lemma(NamedTuple):
    """One entry of the lemma suite.

    ``check(pair, x_grid)`` runs the predicate for one exponent; its reports
    carry the lemma's description, and the suite merges them over p.
    ``applies(p)`` is the hypothesis on the exact p, and ``needs`` the error
    raised when a single-lemma run has no p satisfying it.  The n = 1
    special value has no per-p check: it runs once on its own p-grid.
    """

    check: Callable | None
    applies: Callable = lambda p: True
    needs: str = ""


# The checks are looked up by their module-global names at call time, so
# that a wrapper installed on a check (a tracer, a test double) sees every
# suite run.
LEMMAS = {
    "g_bounds": Lemma(lambda pair, xs: check_g_bounds(pair, xs)),
    "gpm": Lemma(lambda pair, xs: check_lemma_gpm(pair, xs)),
    "ak_lower": Lemma(lambda pair, xs: check_lemma_ak_lower(pair)),
    "binom_upper": Lemma(lambda pair, xs: check_lemma_binom_upper(pair),
                         lambda p: p < BINOM_K[-1],
                         "the binomial-coefficient cap needs at least one p "
                         f"below {BINOM_K[-1]}"),
    "g_linear": Lemma(lambda pair, xs: check_lemma_g_linear(pair, xs)),
    "pairwise": Lemma(lambda pair, xs: check_pairwise_positivity(pair, xs),
                      _between_odd_and_even,
                      "pairwise positivity needs at least one p between an "
                      "odd and an even integer"),
    "ef": Lemma(lambda pair, xs: check_EF_positive(pair, xs)),
    "decomposition": Lemma(
        lambda pair, xs: check_decomposition_identity(pair, xs)),
    "n1": Lemma(None),
}


def run_lemma(name: str, pairs, x_grid) -> GridCheckReport:
    """One lemma of :data:`LEMMAS` over the pairs satisfying its hypothesis;
    a ValueError if none does."""
    lemma = LEMMAS[name]
    if lemma.check is None:
        return check_n1_case()
    qualifying = [pair for pair in pairs if lemma.applies(pair.p_exact)]
    if not qualifying:
        raise ValueError(lemma.needs)
    return merge_reports(lemma.check(pair, x_grid) for pair in qualifying)


def run_default_suite(p_grid=DEFAULT_P_GRID, x_grid=DEFAULT_X_GRID) -> dict:
    """Every lemma of :data:`LEMMAS` over the given grids.

    Returns a mapping of lemma name to merged GridCheckReport, as the
    ``lemmas`` subcommand reports it.  A lemma whose hypothesis on p (paired
    positivity: p between an odd and an even integer; the binomial cap:
    p < 40) holds at some p of the grid runs on that subset; a lemma that no
    p satisfies is left out.
    """
    pairs = [ExponentPair(p) for p in p_grid]
    return {name: run_lemma(name, pairs, x_grid)
            for name, lemma in LEMMAS.items()
            if any(lemma.applies(pair.p_exact) for pair in pairs)}
