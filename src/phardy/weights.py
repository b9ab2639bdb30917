"""Evaluation of the improved and classical discrete Hardy weights to a
stated number of decimal digits: the closed form with cancellation-safe
precision, and at large n the exact correction series with a proven tail.

The improved weight at index n is, with x = 1/n and s = 1/q = (p-1)/p,

    w(n) = (1 - (1 - x)^s)^(p-1) - ((1 + x)^s - 1)^(p-1),

a difference of two nearby quantities; working precision is chosen by
``required_precision`` so the requested digits survive the cancellation.
The classical weight is ((p-1)/p)^p / n^p.

The same weight is (x/q)^p (1 + a(x)), where a(x) = sum_{k even} c_k x^k is
the correction series of ``series.expand_correction`` (exact c_k).  Where a
table has enough rows at large n, those rows come from a fixed-point Horner
sum of c_2..c_K instead (:class:`_SeriesKernel`): a(x) is then the
relative excess ``ratio_minus_one`` itself, with no subtraction, and
w = w_classical (1 + a).  The truncation after order K is bounded for every
rational p by a Cauchy majorant (:func:`_series_constants`), and the
series is used only from the index n0 at which that bound is below the
digit contract; the rows below n0, and every table the series cannot
repay, keep the closed form.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

from mpmath import iv, mp, mpf
from mpmath.libmp import to_str

from .numerics import (
    PAIR_CACHE_SIZE,
    ExponentPair,
    PrecReal,
    contract_bits,
    required_precision,
)
from .series import expand_correction


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


# -- The correction series at large n ---------------------------------------

# Radius r of the Cauchy majorant of the c_k (see _series_constants).
SERIES_RADIUS = Fraction(1, 2)
# The series is used at an even order K <= SERIES_MAX_ORDER, and only if its
# proven tail meets the contract from some n0 <= SERIES_MAX_START on.
SERIES_MAX_ORDER = 48
SERIES_MAX_START = 64
# Cost model of that choice, measured on one core at D = 15..60 (K = 18..48):
# expanding the exact c_2..c_K costs about K^2/60 ms, and a table row taken
# from the series rather than the closed form saves 50-90 us, so the
# coefficients repay themselves after 5 K (K = 18) to 11 K (K = 48) rows.
# A table takes the series only if its rows n >= n0 number at least 10 K.
# At p = 2 the closed form is two square roots and a row saves about 18 us,
# so there the count is four times higher.
SERIES_ROWS_PER_ORDER = 10
SERIES_ROWS_FACTOR_P2 = 4


@contextmanager
def _interval_precision(bits: int):
    """``mpmath.iv`` at the given precision inside a with-block (the
    interval context has no ``workprec``)."""
    saved, iv.prec = iv.prec, bits
    try:
        yield
    finally:
        iv.prec = saved


def _iv_exact(value: Fraction):
    return iv.mpf(value.numerator) / value.denominator


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _series_constants(pair: ExponentPair):
    """(C, c_2), exact rationals with |c_k| <= C r^-k for every k, c_2 the
    leading correction coefficient; None if the enclosure of C fails.

    C is the upper end of an enclosure of q^p M(r)/r.  With s = 1/q,
    beta = p - 1 and A(x) = (1 - (1-x)^s)/x = s (1 + u(x)), the weight gives
    1 + a(x) = q^p x^-1 [A(x)^beta - A(-x)^beta].  u has positive
    coefficients (-binom(s, k+1) (-1)^k / s for 0 < s < 1) and u(0) = 0, so
    each coefficient of u(-x)^j is at most that of u(x)^j in modulus; with
    |binom(beta, j)| <= binom(beta+j-1, j) the bracket is majorized
    coefficientwise by 2 s^beta [(1 - u(x))^-beta - 1], whose value at r is
    M(r).  Cauchy's estimate for a series of positive coefficients then
    gives |c_k| <= q^p M(r) r^-(k+1).  It needs u(r) < 1, which holds for
    every p: 1 - (1-r)^s <= -s ln(1-r), and -ln(1-r) < 2r at r = 1/2.
    Enclosed with ``mpmath.iv`` at 64 bits plus the log2(q) bits that the
    subtractions 1 - (1-r)^s and (1-u)^-beta - 1 cancel when p is near 1.
    """
    q = pair.q_exact
    bits = 64 + max(0, q.numerator.bit_length() - q.denominator.bit_length()
                    + 1)
    with _interval_precision(bits):
        r, s, beta = (_iv_exact(SERIES_RADIUS), _iv_exact(pair.inv_q_exact),
                      _iv_exact(pair.p_exact - 1))
        u = (1 - (1 - r) ** s) / (s * r) - 1
        if not u < 1:
            return None
        m = 2 * s ** beta * ((1 - u) ** (-beta) - 1)
        sign, man, exp, _ = (_iv_exact(q) ** _iv_exact(pair.p_exact)
                             * m / r)._mpi_[1]
    if sign or not man:                # negative, zero, or not finite
        return None
    return man * Fraction(2) ** exp, expand_correction(pair, 2)[2]


def _tail_meets_contract(pair: ExponentPair, order: int, n: int,
                         contract: int):
    """At x = 1/n: a proven lower bound on a(x)/x^2 if the series' tail
    after c_order is at most 2^-(contract+2) a(x), else None.

    With t = x/r and (C, c_2) from :func:`_series_constants`, the odd c_k
    being 0, the tail is at most T = C t^(K+2)/(1 - t^2), and
    a(x) >= L = c_2 x^2 - C t^4/(1 - t^2).  T/L grows with x, so a test
    passed at n holds at every larger index.  Exact rational arithmetic.
    """
    bound, c2 = _series_constants(pair)
    x = Fraction(1, n)
    t = x / SERIES_RADIUS
    geometric = bound / (1 - t * t)
    low = c2 * x * x - geometric * t ** 4
    if low > 0 and geometric * t ** (order + 2) <= low / 2 ** (contract + 2):
        return low / (x * x)
    return None


def _least_order(contract: int) -> int:
    """The even order from which :func:`_series_reach` searches.  At
    n <= 64, x/r >= 1/32, so the tail bound falls by at most 5 bits per
    order; it must end 2 + contract bits below L < x^2/2, itself 13 bits
    below 1.  With C >= 1 (C is 1.4 to 2 for p from near 1 to 20) no lower
    order passes; were C smaller, a table would only keep the closed form
    or a higher order than it needs."""
    return max(2, 2 * math.ceil(((contract + 15) / 5 - 2) / 2))


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _series_reach(pair: ExponentPair, contract: int):
    """(K, n0, a_floor): the smallest even order K <= SERIES_MAX_ORDER whose
    tail meets a relative 2^-(contract+2) from some n0 <= SERIES_MAX_START
    on, the least such n0, and a lower bound on a(x)/x^2 for x <= 1/n0.
    None if no such order exists or the majorant is not enclosed."""
    if _series_constants(pair) is None:
        return None
    for order in range(_least_order(contract), SERIES_MAX_ORDER + 1, 2):
        if _tail_meets_contract(pair, order, SERIES_MAX_START, contract):
            break
    else:
        return None
    # The test holds at hi; at lo = 2, where x = r, there is no bound.
    lo, hi = 2, SERIES_MAX_START
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_meets_contract(pair, order, mid, contract):
            hi = mid
        else:
            lo = mid
    return order, hi, _tail_meets_contract(pair, order, hi, contract)


class _SeriesKernel:
    """a(1/n) from floor(c_k 2^S), k = 2, 4, ..., K, for n >= n0 = ``start``,
    to within a relative 2^-(contract+1) before its final rounding.

    Horner in y = 1/n^2 on the Python-int fixed point 2^S: with
    Y = floor(2^S y), D_j = floor(c_2j 2^S) and acc_j = floor(acc_{j+1} Y /
    2^S) + D_j, the error e_j of acc_j against 2^S P_j(y), where
    P_j(y) = sum_{i>=j} c_2i y^(i-j), obeys
    |e_j| <= y |e_{j+1}| + |acc_{j+1}| 2^-S + 2; |acc_{j+1}| 2^-S is at most
    |P_{j+1}(y)| + 1, so |e_1| <= E = 3/(1 - y) + sum_{i>=2} (i-1) |c_2i|
    y^(i-2), at most its value at y0 = 1/n0^2.  Since a(x)/x^2 >= a_floor
    for x <= 1/n0, S = contract + 3 + ceil(log2(E/a_floor)) keeps the
    rounding below 2^-(contract+2) of a(x); the tail is below as much by
    the choice of n0.
    """

    def __init__(self, pair: ExponentPair, contract: int):
        order, self.start, a_floor = _series_reach(pair, contract)
        coeffs = expand_correction(pair, order).coeffs[2::2]
        y0 = Fraction(1, self.start ** 2)
        err = 3 / (1 - y0) + sum(i * abs(c) * y0 ** (i - 1)
                                 for i, c in enumerate(coeffs[1:], 1))
        self.scale = (contract + 3
                      + math.ceil(math.log2(float(err) / float(a_floor))))
        self.fixed = tuple((c.numerator << self.scale) // c.denominator
                           for c in reversed(coeffs))

    def correction(self, n: int) -> mpf:
        """a(1/n) at the working precision, for n >= start."""
        scale = self.scale
        y = (1 << scale) // (n * n)
        acc = 0
        for c in self.fixed:
            acc = (acc * y >> scale) + c
        return mpf((acc, -scale)) / (n * n)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _series_kernel(pair: ExponentPair, contract: int) -> _SeriesKernel:
    return _SeriesKernel(pair, contract)


def _series_for(pair: ExponentPair, n_min: int, n_max: int,
                target_digits: int):
    """The series kernel for the indices [n_min, n_max] at target_digits, or
    None where the rows n >= n0 cannot repay its coefficients (or no order
    reaches the contract): those tables keep the closed form."""
    contract = contract_bits(target_digits)
    least = _least_order(contract)
    if least > SERIES_MAX_ORDER or \
            n_max - n_min + 1 < SERIES_ROWS_PER_ORDER * least:
        return None
    reach = _series_reach(pair, contract)
    if reach is None:
        return None
    order, start, _ = reach
    rows = SERIES_ROWS_PER_ORDER * order
    if pair.p_exact == 2:
        rows *= SERIES_ROWS_FACTOR_P2
    if n_max - max(n_min, start) + 1 < rows:
        return None
    return _series_kernel(pair, contract)


def _closed_form_count(ns, kernel) -> int:
    """How many of the ascending indices ns lie below the kernel's start."""
    return len(ns) if kernel is None else bisect_left(ns, kernel.start)


def _from_series(pair: ExponentPair, kernel, ns, precision_bits: int) -> list:
    """w_classical (1 + a) at each n of ns, a from the kernel."""
    if not ns:
        return []
    classical = _classical_values(pair, ns, precision_bits)
    with mp.workprec(precision_bits):
        return [wc * (1 + kernel.correction(n)) for n, wc in zip(ns, classical)]


def _at_own_precision(pair: ExponentPair, kind: WeightKind, ns,
                      target_digits: int) -> list:
    """One PrecReal per n of ns (ascending), each at its own
    ``required_precision``; consecutive indices that share a budget are
    evaluated together, improved weights from the series kernel where the
    range repays it."""
    kernel = None
    if kind is WeightKind.IMPROVED and len(ns):
        kernel = _series_for(pair, ns[0], ns[-1], target_digits)
    out = []
    for bits, run in groupby(
            ns, key=lambda n: required_precision(pair, n, target_digits)):
        run = list(run)
        if kind is WeightKind.CLASSICAL:
            values = _classical_values(pair, run, bits)
        else:
            near = _closed_form_count(run, kernel)
            values = _improved_values(
                pair, [Fraction(1, n) for n in run[:near]], bits)
            values += _from_series(pair, kernel, run[near:], bits)
        out += [PrecReal(value, bits) for value in values]
    return out


def eval_w_closed_x(pair: ExponentPair, x, precision_bits: int) -> mpf:
    """The weight as a function of x = 1/n, evaluated at fixed precision.

    Valid on (0, 1/2] and at x = 1 (n = 1, where mpmath takes 0^(1/q) as 0);
    raw mpf result at the caller's precision.  Every closed-form value of
    the improved weight in the package comes from the same kernel.
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
        as ``PrecReal.to_decimal`` writes them: ``mp.nstr`` of an mpf is
        ``to_str`` of its raw value, called here directly."""
        d = self.target_digits
        return [(row.n,
                 to_str(row.w_improved.value._mpf_, d, strip_zeros=False),
                 to_str(row.w_classical.value._mpf_, d, strip_zeros=False),
                 to_str(row.ratio_minus_one.value._mpf_, d, strip_zeros=False))
                for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "w_improved", "w_classical", "ratio_minus_one"])
        writer.writerows(self._decimal_rows())
        return buf.getvalue()

    def to_json(self, config: dict | None = None) -> str:
        """The rows as a JSON list of objects (n, the three decimal strings,
        verified_positive), or with ``config`` the report
        {"config": config, "rows": [...]}, laid out exactly as
        ``json.dumps(..., indent=2)`` lays it out, with no final newline.

        The rows are written directly, since ``json.dumps`` with an indent
        falls back to its pure-Python encoder; their values are ints,
        decimal strings that need no escaping, and booleans.
        """
        pad = "  " if config is None else "    "
        rows = ",\n".join(
            f'{pad}{{\n{pad}  "n": {n},\n{pad}  "w_improved": "{w}",\n'
            f'{pad}  "w_classical": "{wc}",\n'
            f'{pad}  "ratio_minus_one": "{ratio}",\n'
            f'{pad}  "verified_positive": '
            f'{"true" if row.verified_positive else "false"}\n{pad}}}'
            for (n, w, wc, ratio), row in zip(self._decimal_rows(), self.rows))
        rows = f"[\n{rows}\n{pad[2:]}]" if self.rows else "[]"
        if config is None:
            return rows
        head = json.dumps({"config": config}, indent=2)[:-2]
        return f'{head},\n  "rows": {rows}\n}}'


def compare_weights(pair: ExponentPair, n_min: int, n_max: int,
                    target_digits: int) -> WeightTable:
    """Tabulate both weights on [n_min, n_max] at a shared precision.

    The relative excess a = w/w_classical - 1 is computed with a single
    subtraction at full internal precision on the closed-form rows; the
    subtraction is the cancellation-prone quantity of interest, so it is
    never assembled from rounded intermediates.  The excess is of order
    n^-2, so the subtraction cancels about 2*log2(n) bits, which are added
    to the weights' budget.  Where the table repays it, the rows from the
    series kernel's start on take a from the correction series instead, and
    w = w_classical (1 + a).  The whole table is one precision context.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    bits = (required_precision(pair, n_max, target_digits)
            + math.ceil(2 * math.log2(n_max)))
    ns = range(n_min, n_max + 1)
    kernel = _series_for(pair, n_min, n_max, target_digits)
    near = _closed_form_count(ns, kernel)
    rows = []
    with mp.workprec(bits):
        # Positivity of the excess is certified only above the precision floor.
        threshold = mpf(10) ** (-(target_digits - 2))
        classical = _classical_values(pair, ns, bits)
        improved = _improved_values(
            pair, [Fraction(1, n) for n in ns[:near]], bits)
        excess = [(w - wc) / wc for w, wc in zip(improved, classical)]
        excess += [kernel.correction(n) for n in ns[near:]]
        improved += [wc * (1 + a)
                     for wc, a in zip(classical[near:], excess[near:])]
        for n, w_imp, w_cls, ratio in zip(ns, improved, classical, excess):
            if not w_imp > 0:
                raise ArithmeticError(
                    f"improved weight not positive at n={n}: {w_imp}")
            rows.append(WeightRow(
                n=n,
                w_improved=PrecReal(w_imp, bits),
                w_classical=PrecReal(w_cls, bits),
                ratio_minus_one=PrecReal(ratio, bits),
                verified_positive=bool(ratio > threshold),
            ))
    return WeightTable(pair=pair, rows=rows, precision_bits=bits,
                       target_digits=target_digits)


def weight_values_float(pair: ExponentPair, kind: WeightKind, n_max: int,
                        target_digits: int = 20, first: int = 1):
    """Double-precision weight samples w(first..n_max) for the variational
    layer.

    High-precision evaluation happens here once, each n at its own
    ``required_precision`` as :func:`eval_w` gives it; consumers get plain
    floats.
    """
    return [float(value) for value in
            _at_own_precision(pair, kind, range(first, n_max + 1),
                              target_digits)]
