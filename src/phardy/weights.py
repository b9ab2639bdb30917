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

The closed form has two routes: four pows per row (:func:`eval_w`, sparse
tables), or the sieve passes, which take the improved weight in its
ground-state form (D_{n-1}^(p-1) - D_n^(p-1)) / u(n)^(p-1), u(m) = m^(1/q),
D_m = u(m+1) - u(m), each flux power serving two rows and the powers of n
from a smallest-prime-factor sieve, each value with a derived error bound.
A dense table (:func:`compare_weights`) takes the passes, at the least
precision at which every cell's bound meets the digit contract.  The
variational layer needs each weight only as the nearest double
(:func:`weight_values_float`): after Ziv's rounding test (A. Ziv, ACM
TOMS 17, 1991), the passes at one fixed precision keep each row whose
bound's ends round to one normal double, and only the others take the
digit-contract route.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby

from mpmath import iv, mp, mpf
from mpmath.libmp import (fone, from_int, from_man_exp, from_rational, fzero,
                          mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_neg, mpf_pow,
                          mpf_pow_int, mpf_sub, round_nearest, to_float,
                          to_rational, to_str)

from .numerics import (
    PAIR_CACHE_SIZE,
    ExponentPair,
    PrecReal,
    contract_bits,
    floor_scaled,
    horner_fixed,
    required_precision,
    to_mpf,
)
from .series import correction_c2, expand_correction


class WeightKind(enum.Enum):
    IMPROVED = "improved"
    CLASSICAL = "classical"


def _improved_values(pair: ExponentPair, xs, precision_bits: int) -> list:
    """The closed form at each x of xs, raw, in one precision context.

    p, p - 1 and 1/q are formed once; each value rounds exactly as a
    one-point evaluation at the same precision does.
    """
    with mp.workprec(precision_bits):
        p = pair.p_mpf(precision_bits)
        pm1 = p - 1
        s = pm1 / p                      # 1/q, as pair.inv_q_mpf rounds it
        out = []
        for x in xs:
            xm = to_mpf(x)
            out.append(((1 - (1 - xm) ** s) ** pm1
                        - ((1 + xm) ** s - 1) ** pm1)._mpf_)
        return out


def _classical_values(pair: ExponentPair, ns, precision_bits: int) -> list:
    """((p-1)/p)^p / n^p at each n of ns, the constant formed once (raw)."""
    with mp.workprec(precision_bits):
        p = pair.p_mpf(precision_bits)
        c = ((p - 1) / p) ** p
        return [(c / mpf(n) ** p)._mpf_ for n in ns]


# -- The correction series at large n ---------------------------------------

# Radius r of the Cauchy majorant of the c_k (see _series_constants).
SERIES_RADIUS = Fraction(1, 2)
# The series is used at an even order K <= SERIES_MAX_ORDER, and only if its
# proven tail meets the contract from some n0 <= SERIES_MAX_START on.
SERIES_MAX_ORDER = 48
SERIES_MAX_START = 64
# Cost model of that choice, measured on a 2-core VM with cold caches (best
# of 5, D = 15..55, K = 18..46): the reach, the exact c_2..c_K and the kernel
# cost 0.8-4.8 ms, and a row from them 4-15 us.  A closed-form row by direct
# pows costs 60-140 us (other integer p 34-63 us, p = 2 19-24 us), so there
# the series breaks even after 0.9-1.4 K rows n >= n0 (p = 2: 2.8 K), and a
# table takes it from K such rows on.  The sieve passes cost 19-43 us a row
# (integer p 9-17 us, p = 2 5-6 us), and a table's budget for them falls
# once its last rows come from the series, so a dense table 1..N breaks even
# after 2.8-4.6 K rows (integer p 5-9 K; p = 2 18 K at D = 15, more than
# 43 K at D = 41): four times more rows for each of these cheaper cases.
SERIES_ROWS_PER_ORDER = 1
SERIES_ROWS_FACTOR_CHEAP = 4


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
    return man * Fraction(2) ** exp, correction_c2(pair)


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

    :func:`numerics.horner_fixed` in y = 1/n^2 as floor(2^S y) (delta = 1):
    with P_j(y) = sum_{i>=j} c_2i y^(i-j), |e_j| < y |e_{j+1}| +
    |P_{j+1}(y)| + 2, so |e_1| < 2/(1 - y) + sum_{i>=2} (i-1) |c_2i|
    y^(i-2) < E = 3/(1 - y) + sum_{i>=2} (i-1) |c_2i| y^(i-2), at most its
    value at y0 = 1/n0^2.  Since a(x)/x^2 >= a_floor for x <= 1/n0,
    S = contract + 3 + ceil(log2(E/a_floor)) keeps the rounding below
    2^-(contract+2) of a(x); the tail is below as much by the choice of n0.
    """

    def __init__(self, pair: ExponentPair, contract: int):
        order, self.start, a_floor = _series_reach(pair, contract)
        coeffs = expand_correction(pair, order).coeffs[2::2]
        y0 = Fraction(1, self.start ** 2)
        err = 3 / (1 - y0) + sum(i * abs(c) * y0 ** (i - 1)
                                 for i, c in enumerate(coeffs[1:], 1))
        self.scale = (contract + 3
                      + math.ceil(math.log2(float(err) / float(a_floor))))
        self.fixed = tuple(floor_scaled(c, self.scale)
                           for c in reversed(coeffs))

    def correction(self, n: int, bits: int):
        """a(1/n) rounded to bits, a raw mpf value, for n >= start."""
        scale = self.scale
        acc = horner_fixed(self.fixed, (1 << scale) // (n * n), scale)
        return mpf_div(from_man_exp(acc, -scale, bits, round_nearest),
                       from_int(n * n), bits, round_nearest)


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _series_kernel(pair: ExponentPair, contract: int) -> _SeriesKernel:
    return _SeriesKernel(pair, contract)


def _series_for(pair: ExponentPair, ns, target_digits: int,
                dense: bool = False):
    """The series kernel for the ascending indices ns at target_digits, or
    None where the rows it would serve cannot repay its coefficients (or no
    order reaches the contract): those tables keep the closed form, from
    the sieve passes if dense, else by direct pows.

    Priced before the majorant or the reach is formed: at the least order
    K the contract admits, where the reach's search starts (and almost
    always ends), over the rows from SERIES_MAX_START on.  A list of
    indices, such as the rows a rounding test leaves, counts its rows, not
    its span; a dense table counts all of 1..n_max, which its passes
    sieve.  The series is taken from SERIES_ROWS_PER_ORDER K such rows on,
    times SERIES_ROWS_FACTOR_CHEAP for each way the closed form is cheaper:
    the sieve passes, an integer p in them (integer flux powers), and
    p = 2 (square roots, one sieve for both powers of n).
    """
    contract = contract_bits(target_digits)
    order = _least_order(contract)
    if order > SERIES_MAX_ORDER:
        return None
    if dense:
        rows = ns[-1] + 1 - SERIES_MAX_START
    else:
        rows = len(ns) - bisect_left(ns, SERIES_MAX_START)
    p = pair.p_exact
    cheap = dense * (1 + (p.denominator == 1)) + (p == 2)
    if rows < (SERIES_ROWS_PER_ORDER * order
               * SERIES_ROWS_FACTOR_CHEAP ** cheap):
        return None
    if _series_reach(pair, contract) is None:
        return None
    return _series_kernel(pair, contract)


def _from_series(kernel, ns, classical, bits: int):
    """Raw (w, a) per n of ns: a(1/n) from the kernel, w = wc (1 + a)."""
    excess = [kernel.correction(n, bits) for n in ns]
    return [mpf_mul(wc, mpf_add(fone, a, bits, round_nearest), bits,
                    round_nearest) for wc, a in zip(classical, excess)], excess


def _columns(pair: ExponentPair, ns, near: int, kernel, bits: int,
             dense: bool):
    """Raw (w, wc, a) per n of the ascending ns at bits: every wc, and w on
    the first near rows, from the sieve passes if dense, else by direct
    pows, a = (w - wc)/wc there; the other rows' a and w from the kernel."""
    if dense:
        classical = [value for value, _ in _classical_pass(pair, ns, bits)]
        improved = [w for w, _ in _improved_pass(pair, ns[:near], bits)
                    ] if near else []
    else:
        classical = _classical_values(pair, ns, bits)
        improved = _improved_values(pair, [Fraction(1, n) for n in ns[:near]],
                                    bits)
    series_w, series_a = _from_series(kernel, ns[near:], classical[near:],
                                      bits)
    excess = [mpf_div(mpf_sub(w, wc, bits, round_nearest), wc, bits,
                      round_nearest) for w, wc in zip(improved, classical)]
    return improved + series_w, classical, excess + series_a


def _at_own_precision(pair: ExponentPair, kind: WeightKind, ns,
                      target_digits: int) -> list:
    """One PrecReal per n of ns (ascending), each at its own
    ``required_precision``; consecutive indices that share a budget are
    evaluated together, improved weights from the series kernel where the
    range repays it."""
    kernel = (_series_for(pair, ns, target_digits)
              if kind is WeightKind.IMPROVED else None)
    out = []
    for bits, run in groupby(
            ns, key=lambda n: required_precision(pair, n, target_digits)):
        run = list(run)
        if kind is WeightKind.CLASSICAL:
            values = _classical_values(pair, run, bits)
        else:
            near = bisect_left(run, kernel.start) if kernel else len(run)
            values = _improved_values(
                pair, [Fraction(1, n) for n in run[:near]], bits)
            if near < len(run):
                values += _from_series(kernel, run[near:], _classical_values(
                    pair, run[near:], bits), bits)[0]
        out += [PrecReal(mp.make_mpf(value), bits) for value in values]
    return out


def eval_w_closed_x(pair: ExponentPair, x, precision_bits: int) -> mpf:
    """The weight as a function of x = 1/n at fixed precision, an mpf by
    the direct route, as every value outside a dense table is.  Valid on
    (0, 1/2] and at x = 1 (n = 1, where mpmath takes 0^(1/q) as 0)."""
    return mp.make_mpf(_improved_values(pair, (x,), precision_bits)[0])


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
class _Rows(Sequence):
    """A table's rows, each a WeightRow built when it is read; len() builds
    none."""

    table: WeightTable

    def __len__(self) -> int:
        return len(self.table.ns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        table, i = self.table, range(len(self))[index]
        return WeightRow(table.ns[i], *(
            PrecReal(mp.make_mpf(column[i]), table.precision_bits)
            for column in table.columns), table.verified_positive[i])


@dataclass(frozen=True)
class WeightTable:
    """Improvement table: per n of ns, both weights and their relative
    excess, as columns (w_improved, w_classical, ratio_minus_one) of raw mpf
    values at precision_bits; ``rows`` gives them as WeightRows.

    ratio_minus_one is the relative improvement w/w_classical - 1 (this is
    the correction term of the weight's asymptotics); verified_positive
    holds a flag per row stating the excess is positive at the table's
    stated precision.
    """

    pair: ExponentPair
    ns: range
    columns: tuple
    verified_positive: list
    precision_bits: int
    target_digits: int

    @property
    def rows(self) -> _Rows:
        return _Rows(self)

    def all_verified_positive(self) -> bool:
        return all(self.verified_positive)

    def _decimal_rows(self):
        """(n, w_improved, w_classical, ratio_minus_one) per row, formed as
        it is read, the values as ``PrecReal.to_decimal`` writes them:
        ``mp.nstr`` of an mpf is ``to_str`` of its raw value, called here
        directly."""
        decimal = partial(to_str, dps=self.target_digits, strip_zeros=False)
        return zip(self.ns, *(map(decimal, column) for column in self.columns))

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
            f'{"true" if positive else "false"}\n{pad}}}'
            for (n, w, wc, ratio), positive in zip(self._decimal_rows(),
                                                   self.verified_positive))
        rows = f"[\n{rows}\n{pad[2:]}]" if self.ns else "[]"
        if config is None:
            return rows
        head = json.dumps({"config": config}, indent=2)[:-2]
        return f'{head},\n  "rows": {rows}\n}}'


def compare_weights(pair: ExponentPair, n_min: int, n_max: int,
                    target_digits: int) -> WeightTable:
    """Tabulate both weights on [n_min, n_max] at a shared precision.

    The relative excess a = w/w_classical - 1 is of order n^-2, so forming
    it as (w - w_classical)/w_classical cancels about 2*log2(n) bits, which
    are added to the weights' budget.  Where the table repays it, the rows
    from the series kernel's start on take a from the correction series,
    with no subtraction, and w = w_classical (1 + a).  A dense table (rows
    at least half of 1..n_max) takes the others from the sieve passes, at
    the least precision from that budget up at which every cell's bound
    meets ``contract_bits`` (`_bits_for`), chosen at a = c_2/n^2 (a n^2
    falls to its limit c_2 = (3p - 1)/(8p), `series.correction_c2`) and
    checked at the computed a.  Sparse tables, such as an edge row at
    n = 10^12, and any with a bound that is not finite, take the direct
    pows of `eval_w`."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    bits = (required_precision(pair, n_max, target_digits)
            + math.ceil(2 * math.log2(n_max)))
    contract = contract_bits(target_digits)
    ns = range(n_min, n_max + 1)
    # Measured cold at n_max = 1000, D = 15-40: the passes, which sieve all
    # of 1..n_max, cost about as much as the direct pows on half the rows.
    dense = 2 * len(ns) >= n_max
    kernel = _series_for(pair, ns, target_digits, dense)
    near = bisect_left(ns, kernel.start) if kernel else len(ns)
    c2 = 3 / 8 - 1 / (8 * pair.p_double())
    checked = dense and _bits_for(pair, ns, near, bits, contract, [
        (n, c2 / n ** 2) for n in ns[near - 1:near]])
    while checked:                  # else: the direct pows, below
        bits = checked
        columns = _columns(pair, ns, near, kernel, bits, dense=True)
        checked = _bits_for(pair, ns, near, bits, contract,
                            [(n, to_float(a)) for n, a in
                             zip(ns[:near], columns[2])])
        if checked == bits:
            break
    else:
        columns = _columns(pair, ns, near, kernel, bits, dense=False)
    # Positivity of the excess is certified only above the precision floor.
    threshold = mpf_pow_int(from_int(10), 2 - target_digits, bits,
                            round_nearest)
    for n, w in zip(ns, columns[0]):
        if not mpf_gt(w, fzero):
            raise ArithmeticError(f"improved weight not positive at n={n}: "
                                  f"{to_str(w, 15)}")
    return WeightTable(pair, ns, columns,
                       [mpf_gt(a, threshold) for a in columns[2]], bits,
                       target_digits)


def _bits_for(pair: ExponentPair, ns: range, near: int, bits: int,
              contract: int, excess: list):
    """The least precision from bits up at which the bound of every cell of
    the dense table over ns (its first near rows closed-form) is at most
    2^-contract, a taken at the (n, a) of excess; None if one is not
    finite.  In units of eta, w and wc within r_w and r_c (`_pass_bounds`):
    a closed-form row's a = (w - wc)/wc is within ((1 + a) r_w + r_c)/a
    + r_c + 4 (subtraction, division, two roundings), above the bounds of
    its w and wc and largest at the last such row; a series row's a within
    the kernel's 2^-(contract+1) relative plus 4 (met from contract + 4
    bits on), its w = wc (1 + a) within r_c + 8 more, held to the other
    half.  u eta <= 2^-contract from contract + 1 + frexp(u)[1] bits on."""
    while True:
        try:
            r_w = _pass_bounds(pair, ns[near - 1], bits)[0]
            r_c = _pass_bounds(pair, ns[-1], bits)[1]
        except OverflowError:               # q beyond the doubles
            return None
        units = [2 * (r_c + 8)] if near < len(ns) else []
        units += [(((1 + a) * r_w(n) + r_c) / a + r_c + 4) * _PAD
                  if a > 0 else math.inf for n, a in excess]
        worst = max(units)
        if not math.isfinite(worst):
            return None
        need = contract + 1 + math.frexp(worst)[1]
        if need <= bits:
            return bits
        bits = need


# -- Float rows by a rounding test -------------------------------------------

# The digit contract of the rows the rounding test leaves undecided.
FLOAT_DIGITS = 20
# Tables of up to this many rows pay its cancellation, so that they share one
# working precision per pair, and with it the powers of n (_sieve_powers).
FLOAT_SHARED_ROWS = 1022
# Lists of those powers kept, most recently used first: a table grown in
# steps reuses its own, and memory stays small.
SHARED_POWER_LISTS = 4
_MIN_NORMAL = 2.0 ** -1022
# Second-order terms and the doubles the bounds are formed in (see
# _improved_pass), while the relative bound is below _MAX_REL.
_PAD = 1 + 2.0 ** -20
_MAX_REL = 2.0 ** -40


def _float_pass_bits(pair: ExponentPair, n_max: int) -> int:
    """64 bits plus the cancellation of the improved form up to n_max (at
    least FLOAT_SHARED_ROWS), log2(p q (n + 2)^2), plus 8 for the
    log2(n)-sized factors of the bound (see _improved_pass)."""
    rows = max(n_max, FLOAT_SHARED_ROWS) + 2
    pq = pair.p_exact * pair.q_exact
    return 72 + math.ceil(math.log2(pq.numerator) - math.log2(pq.denominator)
                          + 2 * math.log2(rows))


def _smallest_prime_factors(top: int) -> list:
    """spf[m] for m = 0..top: the least prime factor of m >= 2, so m itself
    at a prime; spf[0] = 0 and spf[1] = 1."""
    spf = list(range(top + 1))
    for prime in range(2, math.isqrt(top) + 1):
        if spf[prime] == prime:
            for m in range(prime * prime, top + 1, prime):
                if spf[m] == m:
                    spf[m] = prime
    return spf


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _rounded_exponent(exponent: Fraction, bits: int):
    """(e, d): the exponent as a pow takes it, rounded to bits, and the
    relative error of a pow x^e per unit of |ln x| beyond its own 2 eta, in
    units of eta = 2^(1-bits): e's distance from the exact exponent, plus
    2 eta |e| from the logarithm inside the pow (mpmath takes x^e as
    exp(e log x)).  In units of eta, so that no precision underflows it."""
    value = from_rational(exponent.numerator, exponent.denominator, bits,
                          round_nearest)
    num, den = to_rational(value)
    gap = abs(num * exponent.denominator - exponent.numerator * den)
    return value, ((gap << (bits - 1)) / (den * exponent.denominator)
                   + 2 * abs(float(exponent)))


@lru_cache(maxsize=SHARED_POWER_LISTS)
def _shared_powers(exponent, bits: int) -> list:
    """The one list of powers kept for (exponent, bits); `_sieve_powers`
    appends to it and every caller reads it, so it only ever grows."""
    return [fzero, fone]


def _sieve_powers(exponent, top: int, spf, bits: int) -> list:
    """[0, 1, 2^e, ..., top^e] rounded to bits (raw mpf values), e the
    rounded exponent: a pow at each prime, one product per composite
    m = spf(m) (m / spf(m)).  Entry 0 only stands for u(0) = 0.  Tables of
    up to FLOAT_SHARED_ROWS rows share one list per (e, bits), which a
    longer table extends."""
    shared = top <= FLOAT_SHARED_ROWS + 1
    out = _shared_powers(exponent, bits) if shared else [fzero, fone]
    for m in range(len(out), top + 1):
        prime = spf[m]
        out.append(mpf_pow(from_int(m), exponent, bits, round_nearest)
                   if prime == m else
                   mpf_mul(out[prime], out[m // prime], bits, round_nearest))
    return out


def _rounded_double(value, rel: float):
    """The double that every real within rel |value| of the raw mpf value
    rounds to, if it is one normal double and rel < _MAX_REL; else None.

    With value = man 2^exp, E = floor(man rel) + 1 exceeds rel |value| in
    units of 2^exp (rel's pad covers the rounding of man rel).  Python's float(int) rounds correctly and math.ldexp is
    exact on a normal result, so ldexp(float(M), exp) is the double nearest
    M 2^exp.  Rounding is monotone: when man - E and man + E give the same
    normal double, so does every real between them.
    """
    sign, man, exp, _ = value
    if sign or not man or not rel < _MAX_REL:
        return None
    err = int(man * rel) + 1
    low = math.ldexp(float(man - err), exp)
    if low >= _MIN_NORMAL and low == math.ldexp(float(man + err), exp):
        return low
    return None


def _pass_bounds(pair: ExponentPair, n_max: int, bits: int):
    """(rel(n) of `_improved_pass`, rel of `_classical_pass`) for rows
    n <= n_max, in units of eta (see there)."""
    p, s = pair.p_exact, pair.inv_q_exact
    pf, q = float(p), float(pair.q_exact)
    log_top = math.log(n_max + 1)
    sieve_units = 4 * math.log2(n_max + 1) - 2
    d_beta, d_s, d_t, d_p = (_rounded_exponent(e, bits)[1]
                             for e in (p - 1, s, s * (p - 1), p))
    a = 2 * pf * (sieve_units + d_s * log_top)
    b = 4 * pf + 2 * d_beta * (math.log(q) + log_top / pf)
    c = sieve_units + d_t * log_top + 4
    return (lambda n: ((a * (2 * n + 1) + b) * (n + 2) * q + c) * _PAD,
            (4 + pf * q * d_s + d_p * math.log(q) + sieve_units
             + d_p * log_top) * _PAD)


def _improved_pass(pair: ExponentPair, ns: range, bits: int) -> list:
    """(value, rel) per n of ns: the improved weight rounded to bits (a raw
    mpf value), within rel eta |value| of the true weight, eta = 2^(1-bits).

    Ground-state form: with u(m) = m^s, s = 1/q, beta = p - 1 and
    D_m = u(m+1) - u(m),

        w(n) = (D_{n-1}^beta - D_n^beta) / n^(s beta),

    the closed form with n^s multiplied into each bracket.  Each flux power
    F_m = D_m^beta serves the rows n = m and m + 1; u and n^(s beta) come
    from `_sieve_powers`.  Each operation errs by at most 2 eta relative,
    and a pow x^e by 2 eta plus d_e |ln x| (`_rounded_exponent`: d_s, d_b,
    d_t for s, beta, s beta).  To first order, with N = n_max = ns[-1] and
    Omega(k) <= log2(k) prime factors:

    * sieve: u(k) carries Omega(k) pows, Omega(k) - 1 products and
      d_s ln k, so relative R_u = (4 log2(N+1) - 2) eta + d_s ln(N+1) for
      k <= N + 1 (u(0) and u(1) are exact); n^(s beta) likewise R_v with
      d_t;
    * flux: D_m >= s (m+1)^(s-1) = s u(m+1)/(m+1), as x^(s-1) decreases, so
      the subtraction amplifies R_u to 2 R_u (m+1)/s, plus 2 eta of its
      own.  The pow multiplies that by beta (beta/s = p), adds
      d_b |ln D_m| <= d_b Lambda, Lambda = ln q + ln(N+1)/p (since
      s (N+1)^(s-1) <= D_m <= 1), and 2 eta;
    * numerator: pointwise in the integral D_m = int_0^1 s (m+y)^(s-1) dy,
      D_n <= (n/(n+1))^(1-s) D_{n-1}, and (1-s) beta = s, so
      1 - F_n/F_{n-1} >= 1 - (1 + 1/n)^(-s) >= s/(n + 1 + s): both fluxes
      are at most (n+2)/s times their difference, whose relative error is
      then (rho_F(n-1) + rho_F(n)) (n+2) q + 2 eta, with
      rho_F(n-1) + rho_F(n) <= A (2n+1) + B, A = 2 p R_u,
      B = 4 p eta + 2 d_b Lambda;
    * the quotient adds R_v and 2 eta.

    So rel(n) eta = (A (2n+1) + B) (n+2) q + R_v + 4 eta
    (`_pass_bounds`).  The neglected products of these terms, and the
    roundings of the doubles rel is formed in, stay far below the pad of
    2^-20 relative while rel eta < _MAX_REL; no row with a wider bound is
    decided, and no table cell has one (its contract is below 2^-40).
    """
    p, s = pair.p_exact, pair.inv_q_exact
    n_max = ns[-1]
    rel = _pass_bounds(pair, n_max, bits)[0]
    beta, s_rounded, t_rounded = (_rounded_exponent(e, bits)[0]
                                  for e in (p - 1, s, s * (p - 1)))
    spf = _smallest_prime_factors(n_max + 1)
    u = _sieve_powers(s_rounded, n_max + 1, spf, bits)
    v = u if p == 2 else _sieve_powers(t_rounded, n_max, spf, bits)
    out = []

    def flux(m):
        return mpf_pow(mpf_sub(u[m + 1], u[m], bits, round_nearest), beta,
                       bits, round_nearest)

    previous = flux(ns[0] - 1)
    for n in ns:
        following = flux(n)
        numerator = mpf_sub(previous, following, bits, round_nearest)
        out.append((mpf_div(numerator, v[n], bits, round_nearest), rel(n)))
        previous = following
    return out


def _classical_pass(pair: ExponentPair, ns: range, bits: int) -> list:
    """(value, rel) per n of ns, as `_improved_pass` gives them, for the
    classical weight s^p n^-p.

    s^p is one pow of the rounded s: relative error p q d_s + d_p ln q
    + 2 eta to first order, d_s and d_p from `_rounded_exponent` (d_s
    bounds the rounded s's distance).  n^-p comes from `_sieve_powers`
    (R_v as in `_improved_pass`, with d_p), and the product adds 2 eta.  No
    subtraction: one rel for every row (`_pass_bounds`).
    """
    n_max = ns[-1]
    s, p_rounded = (_rounded_exponent(e, bits)[0]
                    for e in (pair.inv_q_exact, pair.p_exact))
    constant = mpf_pow(s, p_rounded, bits, round_nearest)
    powers = _sieve_powers(mpf_neg(p_rounded), n_max,
                           _smallest_prime_factors(n_max), bits)
    rel = _pass_bounds(pair, n_max, bits)[1]
    return [(mpf_mul(constant, powers[n], bits, round_nearest), rel)
            for n in ns]


def weight_values_float(pair: ExponentPair, kind: WeightKind, n_max: int,
                        first: int = 1) -> list:
    """w(first..n_max) as doubles, for the variational layer: each the
    double nearest the weight.

    Two phases.  A cheap pass at one fixed precision (`_float_pass_bits`)
    gives each row a value and an error bound, and keeps the row when every
    real within the bound rounds to the same normal double
    (`_rounded_double`): the improved weight in its ground-state form
    (`_improved_pass`), the classical one as s^p n^-p (`_classical_pass`),
    the powers of n from a smallest-prime-factor sieve so that only primes
    take a pow.  Each other row, such as one beyond the normal range, is
    float() of the weight at its own ``required_precision`` for
    FLOAT_DIGITS digits (`_at_own_precision`, as :func:`eval_w` gives it),
    within about 2^-99 relative.  A p that rounds to 1 in doubles is
    refused (PrecisionInfeasibleError), as everywhere in the double layer.
    """
    pair.p_float()
    ns = range(first, n_max + 1)
    if not ns:
        return []
    fast = _improved_pass if kind is WeightKind.IMPROVED else _classical_pass
    bits = _float_pass_bits(pair, n_max)
    rows = [_rounded_double(value, math.ldexp(rel, 1 - bits))
            for value, rel in fast(pair, ns, bits)]
    undecided = [n for n, row in zip(ns, rows) if row is None]
    if undecided:
        exact = iter(_at_own_precision(pair, kind, undecided, FLOAT_DIGITS))
        rows = [float(next(exact)) if row is None else row for row in rows]
    return rows
