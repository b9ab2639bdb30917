"""Truncated formal power series in x (x standing for 1/n) and the exact
expansion of the improved Hardy weight.

Coefficients are exact rationals (Fraction), and nothing here rounds.
There is one route to them: the correction series a(x) of
`expand_correction`, for every rational p, from which the integer-p weight
table of `expand_w_integer_p` is a rescaling.  Exactness is the point: both
reproduce published coefficient tables as rational identities, with zero
tolerance.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .numerics import ExponentPair, binom_rational_sequence

DEFAULT_ORDER = 40


class InvariantViolation(RuntimeError):
    """A structural invariant of the expansion failed.

    This signals an implementation bug, never a data condition: the
    vanishing constant term of the correction and the positivity of the
    integer-p expansion are theorems.
    """


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series sum_{k=0}^{order} coeffs[k] * x^k, exact
    rational coefficients."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a PowerSeries needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[:order + 1])


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to the smaller of the two orders."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs[:n + 1]):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b.coeffs[j]
            if bj != 0:
                out[i + j] += ai * bj
    return PowerSeries(tuple(out))


def series_pow_binomial(h: PowerSeries, alpha, order: int) -> PowerSeries:
    """(1 + h)^alpha = sum_k binom(alpha, k) h^k, for h with zero constant term.

    Computed by Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) in
    O(order^2) ring operations: f = (1+h)^alpha satisfies
    (1+h) f' = alpha h' f, so f_0 = 1 and
    k f_k = sum_{j=1..k} ((alpha+1) j - k) h_j f_{k-j}.
    Exact, on Python ints: with alpha + 1 = a/b, each k f_k is summed over
    a running common denominator (math.gcd) and reduced once.
    """
    if h.coeffs[0] != 0:
        raise ValueError("series_pow_binomial requires a zero constant term")
    h = h.truncate(order)
    if h.order < order:
        raise ValueError(
            f"h must carry coefficients up to the requested order {order}")
    alpha_1 = Fraction(alpha) + 1
    a, b = alpha_1.numerator, alpha_1.denominator
    terms = [(j, hj.numerator, hj.denominator)
             for j, hj in enumerate(map(Fraction, h.coeffs)) if j and hj]
    f = [Fraction(1)]
    for k in range(1, order + 1):
        num, den = 0, 1
        for j, hn, hd in terms:
            if j > k:
                break
            fj = f[k - j]
            tn, td = (a * j - b * k) * hn * fj.numerator, hd * fj.denominator
            g = math.gcd(den, td)
            num, den = num * (td // g) + tn * (den // g), den // g * td
        f.append(Fraction(num, den * b * k))
    return PowerSeries(tuple(f))


class SeriesValue(NamedTuple):
    """A rounded value and a bound on its error, as the proof machinery's
    series evaluators return them."""

    value: object
    tail_bound: object


@dataclass(frozen=True)
class WeightExpansion:
    """Exact expansion of the improved weight for integer p >= 2:
    weight(n) = sum_k c[k] n^(-p-k), with c[k] = 0 for odd k and c[k] > 0
    for even k up to the computed order.
    """

    p: int
    c: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"p": self.p, "leading_power": self.p,
                "coefficients": [str(ck) for ck in self.c]}


def coefficients_csv(coeffs) -> str:
    """A ``k,c_k`` CSV table with one row per coefficient, each written
    exactly as ``str`` writes a Fraction (``"5/64"``, integers as ``"2"``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "c_k"])
    writer.writerows(enumerate(map(str, coeffs)))
    return buf.getvalue()


def expand_w_integer_p(p: int, order: int) -> WeightExpansion:
    """Exact coefficients of the improved-weight expansion for integer p >= 2.

    With x = 1/n the weight is (x/q)^p (1 + a(x)), a the correction series
    of `expand_correction`, so c[k] = c[0] ([k = 0] + a[k]) with
    c[0] = (1/q)^p = ((p-1)/p)^p.  `expand_correction` asserts that a[0]
    vanishes, and its odd a[k] are zero by construction; the paper's
    theorem, that every even c[k] is positive for integer p, is asserted
    here.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    c0 = Fraction(p - 1, p) ** p
    a = expand_correction(ExponentPair(p), order)
    c = [c0] + [c0 * ak for ak in a.coeffs[1:]]
    negatives = nonpositive_even_positions(a)
    if negatives:
        k = negatives[0]
        raise InvariantViolation(
            f"even-offset coefficient c[{k}] must be positive, got {c[k]}")
    return WeightExpansion(p=p, c=c)


def _g_argument_series(pair: ExponentPair, sign: int, order: int) -> PowerSeries:
    """Series of g(sign*x) = q * sum_{k>=1} binom(1/q, k+1) (sign*x)^k."""
    q = pair.q_exact
    binom = binom_rational_sequence(pair.inv_q_exact, order + 1)
    coeffs = [Fraction(0)]
    coeffs += [q * binom[k + 1] * sign**k for k in range(1, order + 1)]
    return PowerSeries(tuple(coeffs))


def expand_correction(pair: ExponentPair, order: int) -> PowerSeries:
    """Series of the relative correction a(x): weight * (q/x)^p - 1.

    With f(x) = (1+g(x))^(p-1), the weight's bracket difference is
    D(x) = f(-x) - f(x) and a(x) = (q/x) D(x) - 1.  The coefficients of
    f(-x) are (-1)^j f_j, so D_j = ((-1)^j - 1) f_j: it is -2 f_j at odd j
    and 0 at even j.  One Miller run for f to order + 1 thus gives
    a_k = -2 q f_(k+1) at even k, and a_k = 0 at odd k, exactly.  The
    constant term a_0 = -2 q (p-1) g_1 - 1 vanishes for every p
    (g_1 = -1/(2p)), which is asserted.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    inner_order = order + 1
    f = series_pow_binomial(_g_argument_series(pair, +1, inner_order),
                            pair.p_exact - 1, inner_order)
    q2 = -2 * pair.q_exact
    out = [Fraction(0) if k % 2 else q2 * f[k + 1] for k in range(order + 1)]
    out[0] -= 1
    if out[0] != 0:
        raise InvariantViolation(
            f"constant term of the correction must vanish, got {out[0]}")
    return PowerSeries(tuple(out))


def correction_c2(pair: ExponentPair) -> Fraction:
    """a_2 = (3p - 1)/(8p), the leading coefficient of the correction
    series, exact.

    By `expand_correction`, a_2 = -2 q f_3 with f = (1+g)^(p-1), and
    f_3 = beta g_3 + beta (beta - 1) g_1 g_2 + binom(beta, 3) g_1^3 for
    beta = p - 1.  With s = 1/q, s - 1 = -1/p, so g_k = q binom(s, k+1)
    gives g_1 = -1/(2p), g_2 = (p+1)/(6p^2) and
    g_3 = -(p+1)(2p+1)/(24p^3).  So
    f_3/beta = g_3 + (p-2) g_1 g_2 + (p-2)(p-3) g_1^3/6
             = -(2(p+1)(2p+1) + 4(p-2)(p+1) + (p-2)(p-3))/(48p^3)
             = -(3p-1)/(16p^2),
    the numerator summing to 9p^2 - 3p, and -2 q f_3 with q = p/(p-1) is
    (3p-1)/(8p).
    """
    p = pair.p_exact
    return (3 * p - 1) / (8 * p)


def correction_positivity_report(pair: ExponentPair, order: int) -> dict:
    """Sign pattern of the even correction coefficients, as data.

    For non-integer p the positivity of these coefficients is an open
    conjecture; this reports, it never asserts.
    """
    series = expand_correction(pair, order)
    even = {k: series[k] for k in range(2, order + 1, 2)}
    negatives = nonpositive_even_positions(series)
    return {
        "p": str(pair.p_exact),
        "order": order,
        "even_coefficients": {k: str(v) for k, v in even.items()},
        "all_even_positive": not negatives,
        "nonpositive_positions": negatives,
    }


def nonpositive_even_positions(series: PowerSeries) -> list:
    """The even positions k >= 2 whose coefficient is not positive, ascending."""
    return [k for k in range(2, series.order + 1, 2) if not series[k] > 0]
