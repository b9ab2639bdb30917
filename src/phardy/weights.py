"""Closed-form evaluation of the improved and classical discrete Hardy
weights, with cancellation-safe precision management.

The improved weight at index n is

    (1 - (1 - 1/n)^(1/q))^(p-1) - ((1 + 1/n)^(1/q) - 1)^(p-1),

a difference of two nearby quantities; working precision is chosen by
``required_precision`` so the requested decimal digits survive the
cancellation.  The classical weight is ((p-1)/p)^p / n^p.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .numerics import ExponentPair, PrecReal, required_precision


class WeightKind(enum.Enum):
    IMPROVED = "improved"
    CLASSICAL = "classical"


def eval_w_closed_x(pair: ExponentPair, x, precision_bits: int) -> mpf:
    """The weight as a function of x = 1/n, evaluated at fixed precision.

    Valid on (0, 1/2] and at x = 1 (n = 1, where mpmath takes 0^(1/q) as 0);
    raw mpf result at the caller's precision.  Every improved-weight value
    of the package comes from here.
    """
    with mp.workprec(precision_bits):
        xm = mpf(x) if not hasattr(x, "numerator") else \
            mpf(x.numerator) / x.denominator
        p = pair.p_mpf(precision_bits)
        pm1 = p - 1
        s = pm1 / p                      # 1/q, as pair.inv_q_mpf rounds it
        plus = (1 - (1 - xm) ** s) ** pm1
        minus = ((1 + xm) ** s - 1) ** pm1
        return plus - minus


def _w_classical(pair: ExponentPair, n: int, precision_bits: int) -> mpf:
    with mp.workprec(precision_bits):
        p = pair.p_mpf(precision_bits)
        return ((p - 1) / p) ** p / mpf(n) ** p


def eval_w(pair: ExponentPair, n: int, target_digits: int) -> PrecReal:
    """Improved weight at index n, correct to target_digits decimal digits."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    bits = required_precision(pair, n, target_digits)
    return PrecReal(eval_w_closed_x(pair, Fraction(1, n), bits), bits)


def eval_w_classical(pair: ExponentPair, n: int, target_digits: int) -> PrecReal:
    """Classical weight ((p-1)/p)^p * n^(-p) to target_digits digits."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    bits = required_precision(pair, n, target_digits)
    return PrecReal(_w_classical(pair, n, bits), bits)


def eval_w1_closed(pair: ExponentPair, target_digits: int) -> PrecReal:
    """Special value at n = 1: 1 - (2^(1-1/p) - 1)^(p-1)."""
    bits = required_precision(pair, 1, target_digits)
    return PrecReal(eval_w_closed_x(pair, 1, bits), bits)


@dataclass(frozen=True)
class WeightRow:
    n: int
    w_improved: PrecReal
    w_classical: PrecReal
    ratio_minus_one: PrecReal
    verified_positive: bool


@dataclass(frozen=True)
class WeightTable:
    """Improvement table: per n, both weights and their relative excess.

    ratio_minus_one is the relative improvement w/w_classical - 1 (this is
    the correction term of the weight's asymptotics); each row carries a
    flag stating the excess is positive at the table's stated precision.
    """

    pair: ExponentPair
    rows: list
    precision_bits: int
    target_digits: int

    def all_verified_positive(self) -> bool:
        return all(row.verified_positive for row in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "w_improved", "w_classical", "ratio_minus_one"])
        d = self.target_digits
        for row in self.rows:
            writer.writerow([row.n,
                             row.w_improved.to_decimal(d),
                             row.w_classical.to_decimal(d),
                             row.ratio_minus_one.to_decimal(d)])
        return buf.getvalue()

    def to_json(self) -> str:
        d = self.target_digits
        payload = [
            {
                "n": row.n,
                "w_improved": row.w_improved.to_decimal(d),
                "w_classical": row.w_classical.to_decimal(d),
                "ratio_minus_one": row.ratio_minus_one.to_decimal(d),
                "verified_positive": row.verified_positive,
            }
            for row in self.rows
        ]
        return json.dumps(payload)


def compare_weights(pair: ExponentPair, n_min: int, n_max: int,
                    target_digits: int) -> WeightTable:
    """Tabulate both weights on [n_min, n_max] at a shared precision.

    The relative excess is computed as (w - w_classical)/w_classical with a
    single subtraction at full internal precision; the subtraction is the
    cancellation-prone quantity of interest, so it is never assembled from
    rounded intermediates.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    bits = required_precision(pair, n_max, target_digits)
    # Positivity of the excess is certified only above the precision floor.
    with mp.workprec(bits):
        threshold = mpf(10) ** (-(target_digits - 2))
    rows = []
    for n in range(n_min, n_max + 1):
        w_imp = eval_w_closed_x(pair, Fraction(1, n), bits)
        w_cls = _w_classical(pair, n, bits)
        with mp.workprec(bits):
            excess = (w_imp - w_cls) / w_cls
        if not w_imp > 0:
            raise ArithmeticError(
                f"improved weight not positive at n={n}: {w_imp}")
        rows.append(WeightRow(
            n=n,
            w_improved=PrecReal(w_imp, bits),
            w_classical=PrecReal(w_cls, bits),
            ratio_minus_one=PrecReal(excess, bits),
            verified_positive=bool(excess > threshold),
        ))
    return WeightTable(pair=pair, rows=rows, precision_bits=bits,
                       target_digits=target_digits)


def weight_values_float(pair: ExponentPair, kind: WeightKind, n_max: int,
                        target_digits: int = 20):
    """Double-precision weight samples w(1..n_max) for the variational layer.

    High-precision evaluation happens here once; consumers get plain floats.
    """
    table = []
    for n in range(1, n_max + 1):
        if kind is WeightKind.IMPROVED:
            table.append(float(eval_w(pair, n, target_digits)))
        else:
            table.append(float(eval_w_classical(pair, n, target_digits)))
    return table
