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
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from mpmath import mp, mpf

from .numerics import ExponentPair, PrecReal, required_precision


class WeightKind(enum.Enum):
    IMPROVED = "improved"
    CLASSICAL = "classical"


def _improved_values(pair: ExponentPair, xs, precision_bits: int) -> list:
    """The closed form at each x of xs, in one precision context.

    p, p - 1 and 1/q are formed once; each value rounds exactly as a
    one-point evaluation at the same precision does.
    """
    with mp.workprec(precision_bits):
        p = pair.p_mpf(precision_bits)
        pm1 = p - 1
        s = pm1 / p                      # 1/q, as pair.inv_q_mpf rounds it
        out = []
        for x in xs:
            xm = mpf(x) if not hasattr(x, "numerator") else \
                mpf(x.numerator) / x.denominator
            out.append((1 - (1 - xm) ** s) ** pm1 - ((1 + xm) ** s - 1) ** pm1)
        return out


def _classical_values(pair: ExponentPair, ns, precision_bits: int) -> list:
    """((p-1)/p)^p / n^p at each n of ns, the constant formed once."""
    with mp.workprec(precision_bits):
        p = pair.p_mpf(precision_bits)
        c = ((p - 1) / p) ** p
        return [c / mpf(n) ** p for n in ns]


def _values(pair: ExponentPair, kind: WeightKind, ns, precision_bits: int):
    if kind is WeightKind.IMPROVED:
        return _improved_values(pair, [Fraction(1, n) for n in ns],
                                precision_bits)
    return _classical_values(pair, ns, precision_bits)


def _at_own_precision(pair: ExponentPair, kind: WeightKind, ns,
                      target_digits: int) -> list:
    """One PrecReal per n of ns, each at its own ``required_precision``;
    consecutive indices that share a budget are evaluated together."""
    out = []
    for bits, run in groupby(
            ns, key=lambda n: required_precision(pair, n, target_digits)):
        out += [PrecReal(value, bits)
                for value in _values(pair, kind, list(run), bits)]
    return out


def eval_w_closed_x(pair: ExponentPair, x, precision_bits: int) -> mpf:
    """The weight as a function of x = 1/n, evaluated at fixed precision.

    Valid on (0, 1/2] and at x = 1 (n = 1, where mpmath takes 0^(1/q) as 0);
    raw mpf result at the caller's precision.  Every improved-weight value
    of the package comes from the same kernel.
    """
    return _improved_values(pair, (x,), precision_bits)[0]


def eval_w(pair: ExponentPair, n, target_digits: int):
    """Improved weight at index n, correct to target_digits decimal digits.

    Given a range of indices instead, returns one PrecReal per index, each
    at its own ``required_precision``.
    """
    if isinstance(n, range):
        return _at_own_precision(pair, WeightKind.IMPROVED, n, target_digits)
    return _at_own_precision(pair, WeightKind.IMPROVED, (n,), target_digits)[0]


def eval_w_classical(pair: ExponentPair, n, target_digits: int):
    """Classical weight ((p-1)/p)^p * n^(-p) to target_digits digits; a range
    of indices gives a list, as in :func:`eval_w`."""
    if isinstance(n, range):
        return _at_own_precision(pair, WeightKind.CLASSICAL, n, target_digits)
    return _at_own_precision(pair, WeightKind.CLASSICAL, (n,),
                             target_digits)[0]


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

    def _decimal_rows(self) -> list:
        """(n, w_improved, w_classical, ratio_minus_one) per row, the values
        as ``PrecReal.to_decimal`` writes them, all in one precision context."""
        d = self.target_digits
        with mp.workprec(self.precision_bits):
            return [(row.n,
                     mp.nstr(row.w_improved.value, d, strip_zeros=False),
                     mp.nstr(row.w_classical.value, d, strip_zeros=False),
                     mp.nstr(row.ratio_minus_one.value, d, strip_zeros=False))
                    for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "w_improved", "w_classical", "ratio_minus_one"])
        writer.writerows(self._decimal_rows())
        return buf.getvalue()

    def json_rows(self) -> list:
        """The rows as JSON-ready dicts: decimal strings and the flag."""
        return [{"n": n, "w_improved": w, "w_classical": wc,
                 "ratio_minus_one": ratio,
                 "verified_positive": row.verified_positive}
                for (n, w, wc, ratio), row in zip(self._decimal_rows(),
                                                   self.rows)]

    def to_json(self) -> str:
        return json.dumps(self.json_rows())


def compare_weights(pair: ExponentPair, n_min: int, n_max: int,
                    target_digits: int) -> WeightTable:
    """Tabulate both weights on [n_min, n_max] at a shared precision.

    The relative excess is computed as (w - w_classical)/w_classical with a
    single subtraction at full internal precision; the subtraction is the
    cancellation-prone quantity of interest, so it is never assembled from
    rounded intermediates.  The excess is of order n^-2, so the subtraction
    cancels about 2*log2(n) bits, which are added to the weights' budget.
    The whole table is one precision context.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    bits = (required_precision(pair, n_max, target_digits)
            + math.ceil(2 * math.log2(n_max)))
    ns = range(n_min, n_max + 1)
    rows = []
    with mp.workprec(bits):
        # Positivity of the excess is certified only above the precision floor.
        threshold = mpf(10) ** (-(target_digits - 2))
        improved = _values(pair, WeightKind.IMPROVED, ns, bits)
        classical = _values(pair, WeightKind.CLASSICAL, ns, bits)
        for n, w_imp, w_cls in zip(ns, improved, classical):
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

    High-precision evaluation happens here once, each n at its own
    ``required_precision`` as :func:`eval_w` gives it; consumers get plain
    floats.
    """
    return [float(value) for value in
            _at_own_precision(pair, kind, range(1, n_max + 1), target_digits)]
