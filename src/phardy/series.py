"""Truncated formal power series in x (x standing for 1/n) and the exact
expansion machinery for the improved Hardy weight.

Coefficients are exact rationals (Fraction); only evaluation at a point
rounds.  Exactness is the point: the integer-p weight expansion and the
correction series reproduce published coefficient tables as rational
identities, with zero tolerance.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpf

from .numerics import (
    ExponentPair,
    binom_general_rational,
    binom_rational_sequence,
    to_mpf,
)

DEFAULT_ORDER = 40


class InvariantViolation(RuntimeError):
    """A structural invariant of the expansion failed.

    This signals an implementation bug, never a data condition: the parity
    cancellation and positivity of the integer-p expansion are theorems.
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

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def scale(self, factor) -> "PowerSeries":
        return PowerSeries(tuple(c * factor for c in self.coeffs))

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries((Fraction(1),) + (Fraction(0),) * order)

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries((Fraction(0),) * (order + 1))


def binomial_series(alpha, sign: int, order: int) -> PowerSeries:
    """Series of (1 + sign*x)^alpha: coeffs[k] = binom(alpha, k) * sign^k."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return PowerSeries(tuple(b * sign**k for k, b in
                             enumerate(binom_rational_sequence(alpha, order))))


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
    Exact.
    """
    if h.coeffs[0] != 0:
        raise ValueError("series_pow_binomial requires a zero constant term")
    h = h.truncate(order)
    if h.order < order:
        raise ValueError(
            f"h must carry coefficients up to the requested order {order}")
    alpha_1 = Fraction(alpha) + 1
    terms = [(j, hj) for j, hj in enumerate(h.coeffs) if j and hj != 0]
    f = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j, hj in terms:
            if j > k:
                break
            acc += (alpha_1 * j - k) * hj * f[k - j]
        f.append(acc / k)
    return PowerSeries(tuple(f))


class SeriesValue(NamedTuple):
    value: object
    tail_bound: object


def series_eval(s: PowerSeries, x, precision_bits: int = 53) -> SeriesValue:
    """Horner evaluation on the convergence window 0 <= x <= 1/2.

    The reported tail bound is the crude geometric majorant
    |c_order| * x^(order+1) / (1 - x) plus a rounding allowance at the
    evaluation precision; it is validated empirically against closed-form
    oracles, not proven.
    """
    xf = float(x)
    if not 0 <= xf <= 0.5:
        raise ValueError(f"x must lie in [0, 1/2], got {x}")
    with mp.workprec(precision_bits):
        xm = to_mpf(x)
        acc = mpf(0)
        c_max = mpf(0)
        for c in reversed(s.coeffs):
            cm = to_mpf(c)
            acc = acc * xm + cm
            c_max = max(c_max, abs(cm))
        if xf == 0 or s.order == 0:
            # A bare constant evaluated at an exact point has no tail.
            tail = mpf(0)
        else:
            last = abs(to_mpf(s.coeffs[-1]))
            tail = last * xm**(s.order + 1) / (1 - xm)
            tail += (8 * (s.order + 2) * mpf(2) ** (1 - precision_bits)
                     * (abs(acc) + c_max))
        return SeriesValue(+acc, +tail)


@dataclass(frozen=True)
class WeightExpansion:
    """Exact expansion of the improved weight for integer p >= 2:
    weight(n) = sum_k c[k] n^(-p-k), with c[k] = 0 for odd k and c[k] > 0
    for even k up to the computed order.
    """

    p: int
    c: list = field(default_factory=list)

    @property
    def leading_power(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def to_series(self) -> PowerSeries:
        """The c-series in x = 1/n (without the x^p prefactor)."""
        return PowerSeries(tuple(self.c))

    def eval_at(self, x, precision_bits: int = 53) -> SeriesValue:
        """Evaluate x^p * (c-series)(x); tail bound scaled the same way."""
        inner = series_eval(self.to_series(), x, precision_bits)
        with mp.workprec(precision_bits):
            xp = to_mpf(x) ** self.p
            return SeriesValue(+(inner.value * xp), +(inner.tail_bound * xp))

    def to_json_dict(self) -> dict:
        return {"p": self.p, "leading_power": self.leading_power,
                "coefficients": [str(ck) for ck in self.c]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        return coefficients_csv(self.c)


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

    Both brackets of the weight are expanded with the integer binomial
    theorem over the exponent p-1, each term a generalized binomial series
    at exponent j*(p-1)/p; the difference's first p coefficients cancel,
    which is asserted rather than assumed, and the x^p division becomes an
    index shift.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    inv_q = Fraction(p - 1, p)
    total = p + order
    w = PowerSeries.zero(total)
    for j in range(p):
        coeff = binom_general_rational(Fraction(p - 1), j)
        plus = binomial_series(j * inv_q, -1, total)    # (1-x)^(j/q)
        minus = binomial_series(j * inv_q, +1, total)   # (1+x)^(j/q)
        sign_plus = (-1) ** j
        sign_minus = (-1) ** (p - 1 - j)
        w = w + plus.scale(coeff * sign_plus) - minus.scale(coeff * sign_minus)

    for k in range(p):
        if w[k] != 0:
            raise InvariantViolation(
                f"coefficient of x^{k} should cancel below x^{p}, got {w[k]}")
    c = [w[p + k] for k in range(order + 1)]
    for k, ck in enumerate(c):
        if k % 2 == 1 and ck != 0:
            raise InvariantViolation(
                f"odd-offset coefficient c[{k}] must vanish, got {ck}")
        if k % 2 == 0 and not ck > 0:
            raise InvariantViolation(
                f"even-offset coefficient c[{k}] must be positive, got {ck}")
    return WeightExpansion(p=p, c=c)


def plus_bracket_series(p: int, order: int) -> PowerSeries:
    """Series of the increasing bracket (1 - (1-x)^((p-1)/p))^(p-1), integer p.

    Witness for absolute monotonicity: all coefficients are positive.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p!r}")
    inv_q = Fraction(p - 1, p)
    out = PowerSeries.zero(order)
    for j in range(p):
        coeff = binom_general_rational(Fraction(p - 1), j) * (-1) ** j
        out = out + binomial_series(j * inv_q, -1, order).scale(coeff)
    return out


def _g_argument_series(pair: ExponentPair, sign: int, order: int) -> PowerSeries:
    """Series of g(sign*x) = q * sum_{k>=1} binom(1/q, k+1) (sign*x)^k."""
    q = pair.q_exact
    binom = binom_rational_sequence(pair.inv_q_exact, order + 1)
    coeffs = [Fraction(0)]
    coeffs += [q * binom[k + 1] * sign**k for k in range(1, order + 1)]
    return PowerSeries(tuple(coeffs))


def expand_correction(pair: ExponentPair, order: int) -> PowerSeries:
    """Series of the relative correction a(x): weight * (q/x)^p - 1.

    Computed from the bracket difference D = (1+g(-x))^(p-1) - (1+g(x))^(p-1)
    via the generalized binomial series; a(x) = (q/x) * D(x) - 1, exact.
    Odd positions vanish.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    inner_order = order + 1
    alpha = pair.p_exact - 1
    g_minus = _g_argument_series(pair, -1, inner_order)
    g_plus = _g_argument_series(pair, +1, inner_order)
    d = series_pow_binomial(g_minus, alpha, inner_order) \
        - series_pow_binomial(g_plus, alpha, inner_order)
    q = pair.q_exact
    out = [q * d[1] - 1] + [q * d[k + 1] for k in range(1, order + 1)]
    if out[0] != 0:
        raise InvariantViolation(
            f"constant term of the correction must vanish, got {out[0]}")
    for k in range(1, order + 1, 2):
        if out[k] != 0:
            raise InvariantViolation(
                f"odd coefficient a[{k}] must vanish, got {out[k]}")
    return PowerSeries(tuple(out))


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
