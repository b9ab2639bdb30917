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
booleans.

Strictness semantics: a strict inequality is certified as "exceeds the
combined truncation-plus-rounding tolerance", never as "compares greater in
floating arithmetic".  Non-strict lemma bounds are allowed the same
tolerance on the other side.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from mpmath import mp, mpf

from .numerics import (
    PAIR_CACHE_SIZE,
    ExponentPair,
    binom_general_rational,
    to_mpf,
)
from .series import SeriesValue, _g_argument_series
from .weights import eval_w1_closed, eval_w_classical, eval_w_closed_x

DEFAULT_ORDER = 40

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

@dataclass(frozen=True)
class GSeries:
    """Positive coefficients a_k of g(-x) = sum_{k>=1} a_k x^k.

    a_k = q * |binom(1/q, k+1)|, exact rationals.
    Index 0 is a structural zero (the series has no constant term).
    """

    pair: ExponentPair
    a: tuple
    order: int


def g_series(pair: ExponentPair, order: int) -> GSeries:
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    coeffs = _g_argument_series(pair, -1, order).coeffs
    for k in range(1, order + 1):
        if not coeffs[k] > 0:
            raise AgreementError(f"a_{k} must be positive, got {coeffs[k]}")
        if k >= 2 and coeffs[k] > coeffs[k - 1]:
            raise AgreementError(
                f"a_k must decay weakly: a_{k}={coeffs[k]} > a_{k-1}={coeffs[k-1]}")
    return GSeries(pair=pair, a=coeffs, order=order)


def _arithmetic(precision_bits: int):
    """The arithmetic of one working precision: doubles up to 53 bits, mpf above.

    Returns (context, number, unit): the context to evaluate in, the
    conversion of x, p and coefficients into the arithmetic, and the unit
    roundoff every rounding allowance is a multiple of (2^-bits for doubles,
    2^(1-bits) for mpf).  The double path stays out of mp.workprec, whose
    entry costs as much as a whole double evaluation of g.
    """
    if precision_bits <= 53:
        return nullcontext(), float, 2.0 ** (-precision_bits)
    return mp.workprec(precision_bits), to_mpf, mpf(2) ** (1 - precision_bits)


def _p_value(pair: ExponentPair, precision_bits: int):
    return pair.p_float() if precision_bits <= 53 else pair.p_mpf(precision_bits)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _a_table(pair: ExponentPair, order: int, precision_bits: int) -> tuple:
    """The a_k table in the arithmetic of precision_bits."""
    context, number, _ = _arithmetic(precision_bits)
    with context:
        return tuple(number(c) for c in g_series(pair, order).a)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _e_binom_table(pair: ExponentPair, order: int, precision_bits: int) -> tuple:
    """Independent route to E's coefficients: -2p * binom(1/q, k+1), odd k.

    Each binomial is its own falling-factorial product, not the ratio-step
    sequence behind the a_k table, so the two routes compute the
    coefficients differently.
    """
    out = [0] * (order + 1)
    p = pair.p_exact
    inv_q = pair.inv_q_exact
    for k in range(3, order + 1, 2):
        out[k] = -2 * p * binom_general_rational(inv_q, k + 1)
    context, number, _ = _arithmetic(precision_bits)
    with context:
        return tuple(number(c) for c in out)


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
    coefficients decay weakly; a rounding allowance is folded in.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    _check_x(x)
    a = _a_table(pair, order, precision_bits)
    context, number, unit = _arithmetic(precision_bits)
    with context:
        x = number(x)
        acc = 0
        for k in range(order, 0, -1):
            c = a[k] if (sign < 0 or k % 2 == 0) else -a[k]
            acc = acc * x + c
        value = acc * x
        tail = a[order] * x ** (order + 1) / (1 - x)
        # Horner partials stay below 1 + |acc|; the final multiply scales
        # everything by x, so the rounding allowance carries the same factor.
        tail += 8 * (order + 1) * unit * (1 + abs(acc)) * x
        return SeriesValue(value, tail)


def eval_E(pair: ExponentPair, x, order: int = DEFAULT_ORDER,
           precision_bits: int = 53) -> SeriesValue:
    """The odd correction term E(x) = 2(p-1) * sum_{odd k>=3} a_k x^k.

    Evaluated both from the a_k table and from the directly computed
    binomial coefficients; disagreement beyond tolerance is a hard error.
    The returned value is the a_k form.
    """
    _check_x(x)
    a = _a_table(pair, order, precision_bits)
    e_bin = _e_binom_table(pair, order, precision_bits)
    context, number, unit = _arithmetic(precision_bits)
    with context:
        x = number(x)
        p = _p_value(pair, precision_bits)
        x2 = x * x
        top = order if order % 2 == 1 else order - 1
        acc = 0
        acc_b = 0
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


def eval_F(pair: ExponentPair, x, series_order: int = DEFAULT_ORDER,
           precision_bits: int = 53) -> SeriesValue:
    """The remainder F(x) = h(g(-x)) - h(g(x)), h(t) = (1+t)^(p-1) - 1 - (p-1)t.

    h(t) = expm1(alpha log1p(t)) - alpha t, alpha = p - 1 rounded once, does
    not cancel for small t; the only truncation is g's, at series_order.
    Tail bound per h, for the computed g = t with tail tau, in units of
    _arithmetic (each operation, log1p and expm1 errs by at most 2 units):

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

    The final subtraction adds 4 units of |F|.  h' diverges at t = -1 when
    p < 2, so 1 + g - tail not positive (either sign) raises AgreementError.
    """
    context, number, unit = _arithmetic(precision_bits)
    log1p, expm1 = ((math.log1p, math.expm1) if precision_bits <= 53
                    else (mp.log1p, mp.expm1))
    with context:
        alpha = number(pair.p_exact - 1)
        value = tail = 0
        for sign in (-1, +1):
            t, tau = eval_g(pair, x, sign, series_order, precision_bits)
            reach = tau + 2 * unit * (abs(t) + tau)
            if not 1 + t - reach > 0:
                raise AgreementError(
                    f"1 + g - tail = {1 + t - tau} is not positive at "
                    f"p={pair.p_float()}, x={float(x)}")
            u = alpha * log1p(t)
            h = expm1(u) - alpha * t
            value -= sign * h
            tail += 8 * unit * (abs(u) * math.exp(abs(float(u))) + abs(alpha * t) + abs(h))
            slope = 0
            for s in (t - reach, t + reach):
                u = alpha * log1p(s)
                n = abs(expm1(u) - s)
                n += 16 * unit * (abs(u) * math.exp(abs(float(u))) + abs(s) + n)
                slope = max(slope, abs(alpha) * n / (1 + s))
            tail += slope * tau
        return SeriesValue(value, tail + 4 * unit * abs(value))


# ---------------------------------------------------------------------------
# Grid check reports
# ---------------------------------------------------------------------------

@dataclass
class GridCheckReport:
    """Outcome of one predicate over a (p, x) grid.

    The margin at each point is the checked quantity minus its tolerance
    threshold, so pass == (worst margin > 0) == (no failures).
    """

    description: str
    grid: dict
    worst_margin: float
    passed: bool
    failures: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "grid": self.grid,
            "worst_margin": self.worst_margin,
            "pass": self.passed,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _x_grid_spec(x_grid) -> dict:
    xs = [float(x) for x in x_grid]
    return {"x_min": min(xs), "x_max": max(xs), "points": len(xs)}


def _build_report(description, grid, points) -> GridCheckReport:
    """points: iterable of (margin, p, x, lhs, rhs)."""
    worst = math.inf
    failures = []
    for margin, p, x, lhs, rhs in points:
        if margin < worst:
            worst = margin
        if not margin > 0:
            failures.append({"p": p, "x": x, "lhs": lhs, "rhs": rhs})
    return GridCheckReport(description=description, grid=grid,
                           worst_margin=worst, passed=not failures,
                           failures=failures)


def check_g_bounds(pair: ExponentPair, x_grid=DEFAULT_X_GRID,
                   order: int = DEFAULT_ORDER,
                   precision_bits: int = 53) -> GridCheckReport:
    """The sign-and-size chain -1 < g(x) < 0 < -g(x) < g(-x) < 1, strictly."""
    pf = pair.p_float()
    points = []
    for x in x_grid:
        xf = float(x)
        gm, tm = eval_g(pair, x, -1, order, precision_bits)
        gp, tp = eval_g(pair, x, +1, order, precision_bits)
        candidates = [
            (gp + 1 - tp, gp, -1.0),          # g(x) > -1
            (-gp - tp, 0.0, gp),              # g(x) < 0
            (gm + gp - tm - tp, gm, -gp),     # -g(x) < g(-x)
            (1 - gm - tm, 1.0, gm),           # g(-x) < 1
        ]
        margin, lhs, rhs = min(candidates, key=lambda c: c[0])
        points.append((margin, pf, xf, lhs, rhs))
    return _build_report(
        "g-bound chain: -1 < g(x) < 0 < -g(x) < g(-x) < 1 (strict beyond tolerance)",
        {"p": [pf], **_x_grid_spec(x_grid)}, points)


def check_lemma_gpm(pair: ExponentPair, x_grid=DEFAULT_X_GRID,
                    order: int = DEFAULT_ORDER,
                    precision_bits: int = 53) -> GridCheckReport:
    """Even-part bound g(-x) + g(x) <= (p+1)/(9 p^2)."""
    pf = pair.p_float()
    bound = (pf + 1) / (9 * pf * pf)
    points = []
    for x in x_grid:
        gm, tm = eval_g(pair, x, -1, order, precision_bits)
        gp, tp = eval_g(pair, x, +1, order, precision_bits)
        margin = bound - (gm + gp) - (tm + tp)
        points.append((margin, pf, float(x), gm + gp, bound))
    return _build_report(
        "even-part bound: g(-x) + g(x) <= (p+1)/(9p^2)",
        {"p": [pf], **_x_grid_spec(x_grid)}, points)


def check_lemma_ak_lower(pair: ExponentPair, k_max: int = DEFAULT_ORDER) -> GridCheckReport:
    """Coefficient floor a_k >= 1/(p k (k+1)) for k >= 2, strict for finite k.

    Exact rational comparison.
    """
    points = []
    a = g_series(pair, k_max).a
    p = pair.p_exact
    for k in range(2, k_max + 1):
        bound = 1 / (p * k * (k + 1))
        points.append((float(a[k] - bound), float(p), float(k),
                       float(a[k]), float(bound)))
    return _build_report(
        "coefficient floor: a_k >= 1/(p k (k+1)) for 2 <= k <= k_max (exact)",
        {"p": [pair.p_float()], "k_min": 2, "k_max": k_max}, points)


def check_lemma_binom_upper(pair: ExponentPair, k_range=range(2, 41)) -> GridCheckReport:
    """|binom(p-1, k)| <= (q-1)/4 for integer k > p; exact."""
    points = []
    pf = pair.p_float()
    p = pair.p_exact
    bound = 1 / (4 * (p - 1))    # (q-1)/4
    for k in k_range:
        if not k > p:
            continue
        value = abs(binom_general_rational(p - 1, k))
        points.append((float(bound - value), pf, float(k),
                       float(value), float(bound)))
    if not points:
        raise ValueError(f"k_range contains no k > p for p={pf}")
    return _build_report(
        "binomial-coefficient cap: |binom(p-1, k)| <= (q-1)/4 for k > p (exact)",
        {"p": [pf], "k": [int(k) for k in k_range]}, points)


def check_lemma_g_linear(pair: ExponentPair, x_grid=DEFAULT_X_GRID,
                         order: int = DEFAULT_ORDER,
                         precision_bits: int = 53) -> GridCheckReport:
    """Linear cap g(-x) <= (q-1)(5q-1)/(6 q^2) * x on (0, 1/2]."""
    pf = pair.p_float()
    qf = pair.q_float()
    slope = (qf - 1) * (5 * qf - 1) / (6 * qf * qf)
    points = []
    for x in x_grid:
        xf = float(x)
        gm, tm = eval_g(pair, x, -1, order, precision_bits)
        margin = slope * xf - gm - tm
        points.append((margin, pf, xf, gm, slope * xf))
    return _build_report(
        "linear cap: g(-x) <= (q-1)(5q-1)/(6q^2) x",
        {"p": [pf], **_x_grid_spec(x_grid)}, points)


def check_pairwise_positivity(pair: ExponentPair, x_grid=DEFAULT_X_GRID,
                              n_max: int = 15, order: int = DEFAULT_ORDER,
                              precision_bits: int = 53) -> GridCheckReport:
    """Paired bracket-power terms are nonnegative for p in an odd-to-even window.

    For odd n: binom(p-1,n)(g^n(-x) - g^n(x)) + binom(p-1,n+1)(g^(n+1)(-x)
    - g^(n+1)(x)) >= 0.  Nonnegativity is checked up to the evaluation
    tolerance (the quantity vanishes identically for integer p and n > p).
    """
    pf = pair.p_float()
    if not _between_odd_and_even(pf):
        raise ValueError(
            f"p={pf} does not lie between an odd and an even integer")
    if n_max % 2 == 0:
        raise ValueError(f"n_max must be odd, got {n_max}")
    eps = 2.0 ** (-precision_bits)
    points = []
    for x in x_grid:
        xf = float(x)
        gm, tm = eval_g(pair, x, -1, order, precision_bits)
        gp, tp = eval_g(pair, x, +1, order, precision_bits)
        gm_hi = _below_one(gm + tm, pair, x)
        tau = tm + tp
        worst_here = None
        for n in range(1, n_max + 1, 2):
            b_n = _binom_float(pf - 1, n)
            b_n1 = _binom_float(pf - 1, n + 1)
            value = b_n * (gm ** n - gp ** n) + b_n1 * (gm ** (n + 1) - gp ** (n + 1))
            allow = (abs(b_n) * n * gm_hi ** (n - 1)
                     + abs(b_n1) * (n + 1) * gm_hi ** n) * tau
            allow += 16 * eps * (abs(b_n) + abs(b_n1) + 1)
            margin = value + allow
            if worst_here is None or margin < worst_here[0]:
                worst_here = (margin, pf, xf, value, -allow)
        points.append(worst_here)
    return _build_report(
        "paired positivity: consecutive odd/even bracket-power terms sum >= 0 "
        f"(odd n <= {n_max})",
        {"p": [pf], "n_max": n_max, **_x_grid_spec(x_grid)}, points)


def _binom_float(alpha: float, k: int) -> float:
    acc = 1.0
    for j in range(k):
        acc *= (alpha - j) / (j + 1)
    return acc


def check_EF_positive(pair: ExponentPair, x_grid=DEFAULT_X_GRID,
                      order: int = DEFAULT_ORDER,
                      precision_bits: int = 53) -> GridCheckReport:
    """Strict positivity of E(x) + F(x), the heart of the improvement proof."""
    pf = pair.p_float()
    points = []
    for x in x_grid:
        xf = float(x)
        e = eval_E(pair, x, order, precision_bits)
        f = eval_F(pair, x, order, precision_bits)
        value = e.value + f.value
        tol = e.tail_bound + f.tail_bound
        points.append((value - tol, pf, xf, value, tol))
    return _build_report(
        "positivity of E + F on (0, 1/2] (margin = value - combined tolerance)",
        {"p": [pf], **_x_grid_spec(x_grid)}, points)


def check_decomposition_identity(pair: ExponentPair, x_grid=DEFAULT_X_GRID,
                                 precision_bits: int = 113,
                                 order: int = DEFAULT_ORDER) -> GridCheckReport:
    """Closed-form weight equals (x/q)^(p-1) (x/q + E + F) within tolerance."""
    pf = pair.p_float()
    points = []
    with mp.workprec(precision_bits):
        eps = mpf(2) ** (1 - precision_bits)
        q = pair.q_mpf(precision_bits)
        pm1 = pair.p_mpf(precision_bits) - 1
        s = pair.inv_q_mpf(precision_bits)
        for x in x_grid:
            xm = to_mpf(x)
            lhs = eval_w_closed_x(pair, xm, precision_bits)
            e = eval_E(pair, xm, order, precision_bits)
            f = eval_F(pair, xm, order, precision_bits)
            prefactor = (xm / q) ** pm1
            rhs = prefactor * (xm / q + e.value + f.value)
            residual = abs(lhs - rhs)
            # Rounding allowance: bracket powers amplify by (p-1)/v near the
            # fractional-power branch, v the inner bracket value.
            v_plus = 1 - (1 - xm) ** s
            v_minus = (1 + xm) ** s - 1
            slack = 64 * eps * (abs(pm1) + 1) * (
                v_plus ** pm1 / v_plus + v_minus ** pm1 / v_minus)
            slack += 64 * eps * (abs(lhs) + abs(rhs) + 1)
            tol = prefactor * (e.tail_bound + f.tail_bound) + slack
            points.append((float(tol - residual), pf, float(x),
                           float(residual), float(tol)))
    return _build_report(
        "bracket decomposition: |w(x) - (x/q)^(p-1)(x/q + E + F)| <= tolerance",
        {"p": [pf], "precision_bits": precision_bits, **_x_grid_spec(x_grid)},
        points)


def check_n1_case(p_grid=N1_P_GRID, target_digits: int = 30) -> GridCheckReport:
    """Strict improvement at the boundary index: w_p(1) > w_p^H(1) on (1, 20]."""
    points = []
    threshold = 10.0 ** (-(target_digits - 2))
    for p in p_grid:
        pair = ExponentPair(p)
        w1 = eval_w1_closed(pair, target_digits)
        wc = eval_w_classical(pair, 1, target_digits)
        margin = float((w1 - wc).value) - threshold
        points.append((margin, float(pair.p_float()), 1.0,
                       float(w1.value), float(wc.value)))
    return _build_report(
        "n = 1 special value: w_p(1) > w_p^H(1) for p on a grid over (1, 20]",
        {"p_min": float(min(float(p) for p in p_grid)),
         "p_max": float(max(float(p) for p in p_grid)),
         "points": len(list(p_grid)), "target_digits": target_digits}, points)


def check_fs08_pointwise(a: float, t: float, p: float) -> bool:
    """Pointwise inequality |a-t|^p >= (1-t)^(p-1) (|a|^p - t) for t in [0, 1]."""
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    lhs = abs(a - t) ** p
    rhs = (1 - t) ** (p - 1) * (abs(a) ** p - t) if t < 1 else 0.0
    return lhs >= rhs - 1e-12 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def merge_reports(description: str, reports) -> GridCheckReport:
    """Fold per-p reports of one predicate into a single grid report."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    p_values = sorted({p for r in reports for p in r.grid.get("p", [])})
    grid = dict(reports[0].grid)
    grid["p"] = p_values
    failures = [f for r in reports for f in r.failures]
    return GridCheckReport(
        description=description,
        grid=grid,
        worst_margin=min(r.worst_margin for r in reports),
        passed=not failures,
        failures=failures)


def _between_odd_and_even(p: Fraction | float) -> bool:
    pf = float(p)
    k = math.ceil(pf / 2)
    return 2 * k - 1 <= pf <= 2 * k


class Lemma(NamedTuple):
    """One entry of the lemma suite.

    ``check(pair, x_grid)`` runs the predicate for one exponent and
    ``applies(p)`` is its hypothesis on p; the suite merges the per-p
    reports under ``description``.  A lemma without a per-p check (the n = 1
    special value) runs once on its own p-grid and describes itself.
    """

    description: str | None
    check: Callable | None
    applies: Callable = lambda p: True


# The checks are looked up by their module-global names at call time, so
# that a wrapper installed on a check (a tracer, a test double) sees every
# suite run.
LEMMAS = {
    "g_bounds": Lemma("g-bound chain",
                      lambda pair, xs: check_g_bounds(pair, xs)),
    "gpm": Lemma("even-part bound",
                 lambda pair, xs: check_lemma_gpm(pair, xs)),
    "ak_lower": Lemma("coefficient floor",
                      lambda pair, xs: check_lemma_ak_lower(pair)),
    "binom_upper": Lemma("binomial-coefficient cap",
                         lambda pair, xs: check_lemma_binom_upper(pair)),
    "g_linear": Lemma("linear cap",
                      lambda pair, xs: check_lemma_g_linear(pair, xs)),
    "pairwise": Lemma("paired positivity (qualifying p only)",
                      lambda pair, xs: check_pairwise_positivity(pair, xs),
                      _between_odd_and_even),
    "ef": Lemma("positivity of E + F",
                lambda pair, xs: check_EF_positive(pair, xs)),
    "decomposition": Lemma("bracket decomposition",
                           lambda pair, xs: check_decomposition_identity(pair, xs)),
    "n1": Lemma(None, None),
}


def run_lemma(name: str, pairs, x_grid) -> GridCheckReport:
    """One lemma of :data:`LEMMAS` over the pairs satisfying its hypothesis."""
    lemma = LEMMAS[name]
    if lemma.check is None:
        return check_n1_case()
    qualifying = [pair for pair in pairs if lemma.applies(pair.p_float())]
    if not qualifying:
        raise ValueError(
            "pairwise positivity needs at least one p between an odd "
            "and an even integer")
    return merge_reports(lemma.description,
                         (lemma.check(pair, x_grid) for pair in qualifying))


def run_default_suite(p_grid=DEFAULT_P_GRID, x_grid=DEFAULT_X_GRID) -> dict:
    """Every lemma of :data:`LEMMAS` over the given grids.

    Returns a mapping of lemma name to merged GridCheckReport, as the
    ``lemmas`` subcommand reports it.  The paired positivity check only
    applies where its hypothesis (p between an odd and an even integer)
    holds, so its grid is the qualifying subset.
    """
    pairs = [ExponentPair(p) for p in p_grid]
    return {name: run_lemma(name, pairs, x_grid) for name in LEMMAS}
