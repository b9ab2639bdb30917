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
its series order, precision and k- or p-range are module constants.

Strictness semantics: a strict inequality is certified as "exceeds the
combined truncation-plus-rounding tolerance", never as "compares greater in
floating arithmetic".  Non-strict lemma bounds are allowed the same
tolerance on the other side.

Arithmetic: up to 53 bits (the x-grid lemmas) g, E and F are evaluated in
doubles.  Above 53 bits (the decomposition check, at DECOMPOSITION_BITS):

* the series g and E are Horner sums in Python-int fixed point at scale
  2^B, B = bits + FIXED_GUARD_BITS, over the integers floor(a_k 2^B) of the
  exact coefficients (:func:`numerics.horner_fixed`, which states the
  per-step error lemma).  Since x <= 1/2 damps earlier errors, each sum
  errs by at most 3 units of 2^-B (5 if x itself is not a multiple of
  2^-B), and it is converted to mpf once (:func:`eval_g`, :func:`eval_E`);
* the allowances that only scale a tail (F's slope and rounding terms, the
  decomposition's bracket slack) are doubles, each enlarged by a relative
  pad derived where it is computed and rounded toward +infinity with
  math.nextafter (:func:`_up`);
* every value (h, the weight, both sides of the decomposition) and every
  sum of tails is a raw mpmath.libmp value, each operation rounded to
  nearest at the working precision as mpf arithmetic rounds it (log1p and
  expm1 by :func:`numerics.mpf_log1p` and :func:`numerics.mpf_expm1`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_float, from_man_exp, fzero, mpf_abs,
                          mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_pow, mpf_shift,
                          mpf_sub, round_ceiling, round_nearest, to_float)

from .numerics import (
    PAIR_CACHE_SIZE,
    ExponentPair,
    binom_general_rational,
    floor_scaled,
    horner_fixed,
    mpf_expm1,
    mpf_log1p,
    to_mpf,
)
from .series import SeriesValue, _g_argument_series
from .weights import _improved_values, eval_w1_closed, eval_w_classical

DEFAULT_ORDER = 40

# The x-grid checks evaluate g, E and F at DEFAULT_ORDER in doubles, the
# decomposition at DECOMPOSITION_BITS.  The coefficient floor covers
# k = 2..DEFAULT_ORDER and the binomial cap k in BINOM_K, so it needs p < 40.
DECOMPOSITION_BITS = 113
# Above 53 bits, g and E are summed in fixed point with this many bits beyond
# the working precision; allowances that only scale a tail are doubles.
FIXED_GUARD_BITS = 8
_DOUBLE_UNIT = 2.0 ** -53
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


def _table(coeffs, precision_bits: int) -> tuple:
    """Exact coefficients as doubles up to 53 bits, above that as the
    integers floor(c 2^B) of the fixed-point sums."""
    if precision_bits <= 53:
        return tuple(float(c) for c in coeffs)
    scale = precision_bits + FIXED_GUARD_BITS
    return tuple(floor_scaled(c, scale) for c in coeffs)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _a_table(pair: ExponentPair, order: int, precision_bits: int) -> tuple:
    """The a_k table in the arithmetic of precision_bits."""
    return _table(g_series(pair, order), precision_bits)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _g_table(pair: ExponentPair, order: int, bits: int, sign: int) -> tuple:
    """g(sign x)'s Horner table in the arithmetic of bits: +-a_order, ...,
    +-a_1, and above 53 bits a closing 0 for the multiplication by x."""
    a = _a_table(pair, order, bits)
    signed = tuple(a[k] if sign < 0 or k % 2 == 0 else -a[k]
                   for k in range(order, 0, -1))
    return signed if bits <= 53 else signed + (0,)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _e_binom_table(pair: ExponentPair, order: int, precision_bits: int) -> tuple:
    """Independent route to E's coefficients: -2p * binom(1/q, k+1), odd k.

    Each binomial is its own falling-factorial product, not the ratio-step
    sequence behind the a_k table, so the two routes compute the
    coefficients differently.  The table holds 2(p-1) a_k itself, where E
    from the a_k table multiplies by 2(p-1) after the sum.
    """
    out = [0] * (order + 1)
    p = pair.p_exact
    inv_q = pair.inv_q_exact
    for k in range(3, order + 1, 2):
        out[k] = -2 * p * binom_general_rational(inv_q, k + 1)
    return _table(out, precision_bits)


def _fixed(x, precision_bits: int) -> tuple:
    """(B, floor(x 2^B), whether that floor dropped anything) for a double,
    mpf or Fraction x > 0; B = precision_bits + FIXED_GUARD_BITS."""
    scale = precision_bits + FIXED_GUARD_BITS
    if isinstance(x, mpf):
        man, exp = x.man_exp
        num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    else:
        num, den = x.as_integer_ratio()
    value, rest = divmod(num << scale, den)
    return scale, value, rest != 0


def _fixed_result(value: int, units: int, top: int, factor: Fraction, X: int,
                  inexact: bool, order: int, precision_bits: int) -> SeriesValue:
    """A fixed-point sum value 2^-B as an mpf, with its tail bound.

    The tail, in units of 2^-B, is `units` for the sum's roundings, one unit
    2^(1-bits) of the value for its one conversion to precision_bits, and
    the geometric truncation tail factor a_order x^(order+1)/(1-x), rounded
    up with a_order <= (top + 1) 2^-B (top = floor(a_order 2^B)) and
    x <= (X + inexact) 2^-B.  The tail converts to mpf rounding up.
    """
    scale = precision_bits + FIXED_GUARD_BITS
    x_hi = X + inexact
    truncation = -(-factor.numerator * (top + 1) * x_hi ** (order + 1)
                   // (factor.denominator * ((1 << scale) - x_hi)
                       << scale * order))
    tail = truncation + units + (abs(value) >> (precision_bits - 1)) + 1
    return SeriesValue(
        mp.make_mpf(from_man_exp(value, -scale, precision_bits, round_nearest)),
        mp.make_mpf(from_man_exp(tail, -scale, precision_bits, round_ceiling)))


def _up(value: float, units: float = 0) -> float:
    """A double upper bound of the nonnegative quantity that value
    approximates to within `units` units of 2^-53 (to first order).

    value is enlarged by that many units and nudged up one ulp with
    math.nextafter; the ulp covers the rounding of the enlargement, which is
    at most half an ulp.  A bound below the normal double range would have
    lost the relative accuracy this rests on, so it is an error.
    """
    bound = math.nextafter(value + value * (units * _DOUBLE_UNIT), math.inf)
    if not bound >= sys.float_info.min:
        raise ValueError(
            f"allowance {bound!r} lies below the normal double range")
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


def eval_g(pair: ExponentPair, x, sign: int, order: int = DEFAULT_ORDER,
           precision_bits: int = 53) -> SeriesValue:
    """Truncated g(sign*x) with a geometric tail bound.

    The tail bound a_order * x^(order+1)/(1-x) is rigorous here because the
    coefficients decay weakly; a rounding allowance is added to it.

    Up to 53 bits the sum is a Horner loop in doubles, allowed 8 units per
    step of (1 + |acc|) x.  Above 53 bits it is :func:`numerics.horner_fixed`
    at scale 2^B, B = precision_bits + FIXED_GUARD_BITS, over the signed
    A_k = floor(a_k 2^B) and a closing 0 (the final multiplication), in
    X = floor(x 2^B); delta = 1 if that floor dropped anything, else 0.
    |P_k| <= a_1/(1-x) < 1 (a_1 = 1/(2p)) and x <= 1/2 give
    |e_k| < 2(2 + delta), and the closing step leaves less than
    x 2(2 + delta) + delta + 1 <= 3 + 2 delta units of 2^-B.  The sum is
    converted to mpf once, which rounds by one unit 2^(1-bits) of |g|.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    xf = _check_x(x)
    table = _g_table(pair, order, precision_bits, sign)
    top = abs(table[0])                 # a_order in the table's arithmetic
    if precision_bits > 53:
        scale, X, inexact = _fixed(x, precision_bits)
        return _fixed_result(horner_fixed(table, X, scale), 3 + 2 * inexact,
                             top, Fraction(1), X, inexact, order,
                             precision_bits)
    unit = 2.0 ** (-precision_bits)
    acc = 0
    for c in table:
        acc = acc * xf + c
    value = acc * xf
    tail = top * xf ** (order + 1) / (1 - xf)
    # Horner partials stay below 1 + |acc|; the final multiply scales
    # everything by x, so the rounding allowance carries the same factor.
    tail += 8 * (order + 1) * unit * (1 + abs(acc)) * xf
    return SeriesValue(value, tail)


def eval_E(pair: ExponentPair, x, order: int = DEFAULT_ORDER,
           precision_bits: int = 53) -> SeriesValue:
    """The odd correction term E(x) = 2(p-1) * sum_{odd k>=3} a_k x^k.

    Evaluated both from the a_k table and from the directly computed
    binomial coefficients; disagreement beyond tolerance is a hard error.
    The returned value is the a_k form.

    Above 53 bits both sums are :func:`numerics.horner_fixed` over the odd
    k, with X and delta as in :func:`eval_g`, in t = x^2 <= 1/4 as X^2 at
    shift 2B (short of t by less than 2x delta 2^-B <= delta 2^-B);
    |P| < a_3/(1-t) < 2/3 gives |e| < (4/3)(2 + delta).  The sum is
    multiplied by X^3 at shift 3B, a step with a 0 coefficient in x^3 <=
    1/8 (again short by less than delta 2^-B), which leaves less than
    3 + 2 delta units of 2^-B.  The a_k route then multiplies by 2(p-1)
    exactly and floors: 2(p-1)(3 + 2 delta) + 1 units.  The binomial
    route's table holds 2(p-1)a_k, whose largest, 2(p-1)a_3 =
    2p|binom(1/q, 4)|, is below 1/2, so it errs by 3 + 2 delta units; the
    two must agree to within the sum of the two bounds.
    """
    xf = _check_x(x)
    a = _a_table(pair, order, precision_bits)
    e_bin = _e_binom_table(pair, order, precision_bits)
    top = order if order % 2 == 1 else order - 1
    if precision_bits > 53:
        scale, X, inexact = _fixed(x, precision_bits)
        value, value_b = (horner_fixed(c[top:2:-2], X * X, 2 * scale) * X ** 3
                          >> 3 * scale for c in (a, e_bin))
        two_pm1 = 2 * (pair.p_exact - 1)
        value = value * two_pm1.numerator // two_pm1.denominator
        units = 3 + 2 * inexact
        if abs(value - value_b) > (two_pm1 + 1) * units + 1:
            raise AgreementError(
                f"E formulas disagree at p={pair.p_float()}, x={xf}: "
                f"{value} vs {value_b} units of 2^-{scale}")
        return _fixed_result(value, math.ceil(two_pm1 * units) + 1, a[order],
                             two_pm1, X, inexact, order, precision_bits)
    x = xf
    unit = 2.0 ** (-precision_bits)
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
            f"E formulas disagree at p={pair.p_float()}, x={float(x)}: "
            f"{value} vs {value_b}")
    return SeriesValue(value, tail)


def _h_slope(alpha: float, s: float, unit: float) -> float:
    """|h'(s)| = |alpha| |expm1(alpha log1p(s)) - s| / (1+s) in doubles,
    the numerator padded by 16 units (derived in :func:`eval_F`)."""
    u = alpha * math.log1p(s)
    n = abs(math.expm1(u) - s)
    n += 16 * unit * (abs(u) * math.exp(abs(u)) + abs(s) + n)
    return abs(alpha) * n / (1 + s)


def _h_rounding(u: float, at: float, h: float, unit: float) -> float:
    """The rounding allowance of h(t), 8 units of |u| e^|u| + |alpha t| + |h|,
    from u, alpha t and h as doubles (derived in :func:`eval_F`)."""
    return 8 * unit * (abs(u) * math.exp(abs(u)) + abs(at) + abs(h))


def _slope_bound(alpha: float, lo: float, hi: float) -> float:
    """Above 53 bits: max |h'| over the double interval [lo, hi], a padded
    double upper bound (derived in :func:`eval_F`)."""
    return _up(max(_h_slope(alpha, s, _DOUBLE_UNIT) for s in (lo, hi)), 4)


def _rounding_bound(u: float, at: float, h: float, unit: float) -> float:
    """Above 53 bits: h(t)'s rounding allowance, a padded double upper bound
    (derived in :func:`eval_F`)."""
    return _up(_h_rounding(u, at, h, unit), abs(u) + 8)


def _not_positive(pair: ExponentPair, x, gap) -> AgreementError:
    return AgreementError(f"1 + g - tail = {gap} is not positive at "
                          f"p={pair.p_float()}, x={float(x)}")


def eval_F(pair: ExponentPair, x, series_order: int = DEFAULT_ORDER,
           precision_bits: int = 53) -> SeriesValue:
    """The remainder F(x) = h(g(-x)) - h(g(x)), h(t) = (1+t)^(p-1) - 1 - (p-1)t.

    h(t) = expm1(alpha log1p(t)) - alpha t, alpha = p - 1 rounded once, does
    not cancel for small t; the only truncation is g's, at series_order.
    Tail bound per h, for the computed g = t with tail tau, in units of the
    arithmetic, 2^-bits for doubles and 2^(1-bits) above (each operation,
    log1p and expm1 errs by at most 2 units; numerics.mpf_log1p and
    mpf_expm1 state their bound of one):

    * inner error: h'(s) = alpha((1+s)^(alpha-1) - 1) is monotone, so
      |h(g) - h(t)| <= max(|h'(lo)|, |h'(hi)|) tau for lo, hi = t -+ tau,
      widened by 2 units of |t| + tau against rounding.  h'(s) is taken as
      alpha (expm1(u) - s)/(1+s), u = alpha log1p(s), padded by 16 units of
      |u| e^|u| + |s| + |expm1(u) - s|;
    * rounding of h(t): u = alpha log1p(t) is off by 5 units of |u|, which
      expm1 amplifies by e^|u|; expm1 adds 2 units of |expm1(u)| <= |h| +
      |alpha t|, alpha t 3 units of itself and the subtraction 1 unit of
      |h|: in all 8 units of |u| e^|u| + |alpha t| + |h|.  (e^|u| is taken
      in doubles: it only scales an allowance.)

    Above 53 bits h's value, the guard below and the sums of the tail are
    raw mpf values at precision_bits, rounded to nearest operation by
    operation, and both allowances are doubles (units of 2^-53 there), each
    enlarged by its relative pad and rounded up (:func:`_up`):

    * the slope: lo and hi are rounded outward to doubles (float() of an
      mpf is within half an ulp and the mpf endpoint within 2^(1-bits) of
      the exact one, so one nextafter step covers both); this only widens
      the interval, over which |h'| is still largest at an end.  |h'| is
      taken at each double end as in the double path, whose 16-unit pad
      covers alpha = float(p-1) inside u; the quotient |alpha| n/(1+s)
      adds 4 roundings (alpha, 1 + s, the product and the quotient), so a
      4-unit pad.  tau is rounded up and the product nudged up;
    * the rounding of h(t): u, alpha t and h convert to doubles within a
      unit each (alpha t also carries its mpf rounding), e^|u| is off by
      |u| units from u's conversion plus 2 of its own, and the product and
      the two sums add 3: a pad of |u| + 8 units.

    The final subtraction adds 4 units of |F|.  h' diverges at t = -1 when
    p < 2, so 1 + g - tail not positive (either sign) raises AgreementError.
    """
    if precision_bits <= 53:
        unit = 2.0 ** (-precision_bits)
        alpha = float(pair.p_exact - 1)
        value = tail = 0.0
        for sign in (-1, +1):
            t, tau = eval_g(pair, x, sign, series_order, precision_bits)
            reach = tau + 2 * unit * (abs(t) + tau)
            lo, hi = t - reach, t + reach
            if not (1 + t - reach > 0 and lo > -1):
                raise _not_positive(pair, x, 1 + t - tau)
            u = alpha * math.log1p(t)
            at = alpha * t
            h = math.expm1(u) - at
            value -= sign * h
            tail += _h_rounding(u, at, h, unit)
            tail += max(_h_slope(alpha, s, unit) for s in (lo, hi)) * tau
        return SeriesValue(value, tail + 4 * unit * abs(value))
    bits = precision_bits
    add, sub, mul = _raw_ops(bits)
    alpha = _alpha_raw(pair, bits)
    value = tail = fzero
    for sign in (-1, +1):
        t, tau = (v._mpf_ for v in eval_g(pair, x, sign, series_order, bits))
        reach = add(tau, mpf_shift(add(mpf_abs(t), tau), 2 - bits))  # 2 unit
        lo = math.nextafter(_float(sub(t, reach)), -math.inf)
        hi = math.nextafter(_float(add(t, reach)), math.inf)
        one_t = add(t, fone)
        if not (mpf_gt(sub(one_t, reach), fzero) and lo > -1):
            with mp.workprec(bits):
                raise _not_positive(pair, x, mp.make_mpf(sub(one_t, tau)))
        u = mul(alpha, mpf_log1p(t, bits))
        at = mul(alpha, t)
        h = sub(mpf_expm1(u, bits), at)
        value = (add if sign < 0 else sub)(value, h)
        tail = add(tail, from_float(_rounding_bound(
            _float(u), _float(at), _float(h), 2.0 ** (1 - bits))))
        tail = add(tail, from_float(
            _up(_slope_bound(_float(alpha), lo, hi) * _up(_float(tau)))))
    tail = add(tail, mpf_shift(mpf_abs(value), 3 - bits))       # 4 unit |F|
    return SeriesValue(mp.make_mpf(value), mp.make_mpf(tail))


def _raw_ops(bits: int) -> tuple:
    """mpf_add, mpf_sub and mpf_mul on raw values at bits, rounding to
    nearest as mpf arithmetic does."""
    return tuple(lambda a, b, op=op: op(a, b, bits, round_nearest)
                 for op in (mpf_add, mpf_sub, mpf_mul))


def _float(value: tuple) -> float:
    """A raw mpf as the double that float() of its mpf is."""
    return to_float(value, rnd=round_nearest)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _alpha_raw(pair: ExponentPair, precision_bits: int) -> tuple:
    """alpha = p - 1 rounded once to precision_bits, as a raw mpf."""
    with mp.workprec(precision_bits):
        return to_mpf(pair.p_exact - 1)._mpf_


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
    points = [(float(p), float(k), float(a[k] - bound), float(a[k]), float(bound))
              for k, bound in bounds.items()]
    return _build_report(
        "coefficient floor",
        {"p": [pair.p_float()], "k_min": 2, "k_max": DEFAULT_ORDER}, points)


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


def _bracket_slack(pair: ExponentPair, x, lhs, rhs, precision_bits: int) -> float:
    """The decomposition check's rounding allowance, in doubles, rounded up:

        64 eps (|p-1| + 1) (v+^(p-1)/v+ + v-^(p-1)/v-)
            + 64 eps (|lhs| + |rhs| + 1),  eps = 2^(1-bits),

    with v+ = 1 - (1-x)^(1/q) and v- = (1+x)^(1/q) - 1 the inner brackets:
    the bracket powers amplify rounding by (p-1)/v near the fractional-power
    branch.  v+ = -expm1((1/q) log1p(-x)) and v- = expm1((1/q) log1p(x))
    come within 11 units of 2^-53 in doubles:
    x converts within 1 unit, which log1p carries as at most 1.5 units
    (|y|/((1+y) |log1p y|) <= 1.5 on |y| <= 1/2), log1p adds 2, 1/q and the
    product 1 each, expm1 amplifies by at most e^z <= 1.5 and adds 2.
    v^(p-1)/v = exp((p-2) log v): log v is off by 11 units plus 2 of
    |log v|, so the exponent by |p-2| (11 + 4|log v|) units (p - 2 and the
    product 1 unit of it each), and exp adds 2: that is each power's pad.
    The rest, four conversions, two products and three sums, is covered by a
    final pad of 8 units.
    """
    xf = float(x)
    s = float(pair.inv_q_exact)
    e = float(pair.p_exact - 2)
    powers = 0.0
    for v in (-math.expm1(s * math.log1p(-xf)), math.expm1(s * math.log1p(xf))):
        log_v = math.log(v)
        powers += _up(math.exp(e * log_v), abs(e) * (11 + 4 * abs(log_v)) + 2)
    eps64 = 2.0 ** (7 - precision_bits)
    return _up(eps64 * float(abs(pair.p_exact - 1) + 1) * powers
               + eps64 * (abs(float(lhs)) + abs(float(rhs)) + 1), 8)


def check_decomposition_identity(pair: ExponentPair, x_grid) -> GridCheckReport:
    """|w(x) - (x/q)^(p-1) (x/q + E + F)| <= tolerance for the closed-form
    weight, at DECOMPOSITION_BITS.

    The tolerance is (x/q)^(p-1) times the tails of E and F plus the
    rounding allowance of :func:`_bracket_slack`.
    """
    bits = DECOMPOSITION_BITS
    add, sub, mul = _raw_ops(bits)
    with mp.workprec(bits):
        q = pair.q_mpf(bits)._mpf_
        pm1 = (pair.p_mpf(bits) - 1)._mpf_
        xms = [to_mpf(x) for x in x_grid]
    rows = iter(zip(xms, _improved_values(pair, xms, bits)))

    def point(x):
        xm, lhs = next(rows)            # point runs once per x, in grid order
        e = eval_E(pair, xm, DEFAULT_ORDER, bits)
        f = eval_F(pair, xm, DEFAULT_ORDER, bits)
        xq = mpf_div(xm._mpf_, q, bits, round_nearest)
        prefactor = mpf_pow(xq, pm1, bits, round_nearest)
        rhs = mul(prefactor, add(add(xq, e.value._mpf_), f.value._mpf_))
        residual = mpf_abs(sub(lhs, rhs))
        slack = _bracket_slack(pair, xm, _float(lhs), _float(rhs), bits)
        tol = add(mul(prefactor, add(e.tail_bound._mpf_, f.tail_bound._mpf_)),
                  from_float(slack))
        return _float(sub(tol, residual)), _float(residual), _float(tol)
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
