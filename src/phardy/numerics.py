"""Arbitrary-precision scaffolding: exact rationals and generalized binomial
coefficients, precision-tagged reals, fixed-point sums, and the Hölder pair.

Exact rational arithmetic rides on ``fractions.Fraction`` (always stored
reduced, positive denominator); the exponent p is always such a rational,
and is rounded only where a weight or bound is evaluated.  High-precision
real arithmetic rides on mpmath (round-to-nearest), its results tagged with
their precision (:class:`PrecReal`); sums of exact coefficients with a
proven error run in Python-int fixed point (:func:`horner_fixed`), and
log1p and expm1 also on raw libmp values (:func:`mpf_log1p`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (fone, fzero, mpf_add, mpf_exp, mpf_log, mpf_pos,
                          mpf_pow_int, mpf_shift, mpf_sub)
from mpmath.libmp import round_nearest as _RN

# Decimal-digit requests above this are rejected rather than silently
# truncated; the mpfr backend would accept them but desk-scale use never
# needs more, and a typo should fail loudly.
MAX_TARGET_DIGITS = 1_000_000

_LOG2_10 = math.log2(10)

# Entries kept by each cache keyed on an ExponentPair.  A run touches a few
# pairs, orders and precisions, so the bound caps memory in a long-lived
# process without evicting anything a run reuses.
PAIR_CACHE_SIZE = 128


class PrecisionInfeasibleError(ValueError):
    """A precision request the numeric backend will not honor."""


@dataclass(frozen=True)
class PrecReal:
    """An mpf value tagged with its binary precision, the one it was computed
    at and is printed at; arithmetic is the caller's, on ``value`` inside
    ``mp.workprec(precision_bits)``."""

    value: mpf
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits <= 0:
            raise PrecisionInfeasibleError(
                f"precision_bits must be positive, got {self.precision_bits}")

    def __float__(self) -> float:
        return float(self.value)

    def to_decimal(self, digits: int) -> str:
        """Decimal string with exactly ``digits`` significant digits."""
        with mp.workprec(self.precision_bits):
            return mp.nstr(self.value, digits, strip_zeros=False)


def to_mpf(x) -> mpf:
    """x as an mpf at the current working precision; a Fraction is divided
    out once, so it rounds once."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def floor_scaled(c: Fraction, scale: int) -> int:
    """floor(c 2^scale), the fixed-point integer of an exact rational c."""
    return (c.numerator << scale) // c.denominator


def horner_fixed(coeffs, y: int, shift: int) -> int:
    """acc = floor(acc y / 2^shift) + C over coeffs, highest order first,
    from acc = 0: a Horner sum in Python-int fixed point.

    Error lemma (Brent & Zimmermann, *Modern Computer Arithmetic*, 2010,
    section 4): let C_j = floor(c_j 2^B) for exact c_j, let y >= 0 satisfy
    0 <= t - y 2^-shift <= delta 2^-B for a real t >= 0, and let
    P_j = c_j + t P_(j+1) be the exact partial sums.  The error
    e_j = acc_j - 2^B P_j, in units of 2^-B, obeys

        |e_j| < t |e_(j+1)| + delta |P_(j+1)| + 2,

    since acc_(j+1) y 2^-shift - 2^B t P_(j+1) = e_(j+1) y 2^-shift -
    2^B P_(j+1) (t - y 2^-shift), and each floor loses under one unit (the
    coefficient's none when c_j 2^B is an integer, such as 0).  Callers
    supply t, delta, a bound on |P| and their own truncation tail.
    """
    acc = 0
    for c in coeffs:
        acc = (acc * y >> shift) + c
    return acc


def mpf_log1p(t: tuple, prec: int) -> tuple:
    """log(1 + t) for a raw mpf t > -1, rounded bit for bit as mpmath 1.3's
    mp.log1p rounds it at working precision prec: at w = prec + 10 bits,
    t - t^2/2 if |t| < 2^-w by mpmath's magnitude (exponent plus bit
    count), else mpf_log of 1 + t rounded to 2w bits; then rounded to prec.
    If mpf_log is within an ulp, the result is within 2^-prec (1 + 2^-7)
    relative, under one unit 2^(1-prec): rounding 1 + t moves the log by
    under 2^(2-w) relative, as |log(1 + t)| >= |t|/(1 + |t|) and
    |t| >= 2^(-w-1), and the short series errs by |t|^2 relative.
    """
    wp = prec + 10
    if t == fzero:
        return fzero
    if t[2] + t[3] < -wp:
        v = mpf_sub(t, mpf_shift(mpf_pow_int(t, 2, wp, _RN), -1), wp, _RN)
    else:
        v = mpf_log(mpf_add(fone, t, 2 * wp, _RN), wp, _RN)
    return mpf_pos(v, prec, _RN)


def mpf_expm1(u: tuple, prec: int) -> tuple:
    """exp(u) - 1 for a raw mpf u, rounded bit for bit as mpmath 1.3's
    mp.expm1 at working precision prec: at w = prec + 10 bits, u + u^2/2 if
    |u| < 2^-w, else mpmath's sum_accurately loop, which forms exp(u) - 1 at
    w + g + 5 bits from g = 10 and, while the cancellation
    c = max(mag exp(u), 1) - mag(exp(u) - 1) is not below g, adds
    min(w + g + 5, c) to g; then rounded to prec.  If mpf_exp is within an
    ulp, the bound is that of :func:`mpf_log1p`: on exit exp(u) < 2^(g+1)
    |exp(u) - 1|, so exp's ulp is below 2^(-w-3) of the result.
    """
    wp = prec + 10
    if u == fzero:
        return fzero
    if u[2] + u[3] < -wp:
        v = mpf_add(u, mpf_shift(mpf_pow_int(u, 2, wp, _RN), -1), wp, _RN)
    else:
        guard = 10
        while True:
            e = mpf_exp(u, wp + guard + 5, _RN)
            v = mpf_sub(e, fone, wp + guard + 5, _RN)
            cancel = max(e[2] + e[3], 1) - (v[2] + v[3] if v[1] else -math.inf)
            if cancel < guard:
                break
            guard += min(wp + guard + 5, cancel)
    return mpf_pos(v, prec, _RN)


class ExponentPair:
    """The Hölder-conjugate pair (p, q) with 1/p + 1/q = 1, p > 1.

    Everything downstream is parameterized by this pair.  p is stored as an
    exact rational (given as an int, Fraction, str, or float; a float is
    converted exactly, a string may be "a/b" or a finite decimal), so q and
    1/q are exact too.  An mpf p is refused with a TypeError; pass ``str(x)``
    to have its decimal expansion parsed exactly.
    """

    def __init__(self, p):
        p_exact = Fraction(p)
        if not p_exact > 1:
            raise ValueError(f"p must exceed 1, got {p_exact}")
        self.p_exact = p_exact

    # -- exact accessors -------------------------------------------------------

    @property
    def q_exact(self) -> Fraction:
        """q = p/(p-1), exact."""
        return self.p_exact / (self.p_exact - 1)

    @property
    def inv_q_exact(self) -> Fraction:
        """1/q = (p-1)/p, exact."""
        return (self.p_exact - 1) / self.p_exact

    # -- rounded accessors -----------------------------------------------------

    def p_mpf(self, precision_bits: int) -> mpf:
        """p rounded to precision_bits; a p that rounds to 1 is refused, since
        p - 1 and q would then be 0 and infinite."""
        with mp.workprec(precision_bits):
            p = to_mpf(self.p_exact)
        if not p > 1:
            raise PrecisionInfeasibleError(
                f"p = {self.p_exact} rounds to 1 at {precision_bits} bits; "
                f"p - 1 is below the working precision")
        return p

    def q_mpf(self, precision_bits: int) -> mpf:
        with mp.workprec(precision_bits):
            p = self.p_mpf(precision_bits)
            return p / (p - 1)

    def inv_q_mpf(self, precision_bits: int) -> mpf:
        with mp.workprec(precision_bits):
            p = self.p_mpf(precision_bits)
            return (p - 1) / p

    def p_float(self) -> float:
        """p rounded to a double; a p that rounds to 1 is refused, as in
        :meth:`p_mpf`."""
        pf = float(self.p_exact)
        if not pf > 1:
            raise PrecisionInfeasibleError(
                f"p = {self.p_exact} rounds to 1 in double precision")
        return pf

    def q_float(self) -> float:
        pf = self.p_float()
        return pf / (pf - 1.0)

    def __repr__(self):
        return f"ExponentPair({self.p_exact})"

    def __eq__(self, other):
        if not isinstance(other, ExponentPair):
            return NotImplemented
        return self.p_exact == other.p_exact

    def __hash__(self):
        return hash(self.p_exact)

    @staticmethod
    def parse(text: str) -> "ExponentPair":
        """Parse ``"a/b"`` or a decimal string; decimals become exact rationals."""
        return ExponentPair(Fraction(text))


def binom_general_rational(alpha: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient binom(alpha, k), exact.

    Falling-factorial product alpha(alpha-1)...(alpha-k+1)/k! with
    binom(alpha, 0) = 1.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    alpha = Fraction(alpha)
    num = Fraction(1)
    for j in range(k):
        num *= alpha - j
    return num / math.factorial(k)


def binom_rational_sequence(alpha: Fraction, k_max: int) -> list:
    """binom(alpha, k) for k = 0..k_max, exact, by ratio steps.

    binom(alpha, 0) = 1 and binom(alpha, k) = binom(alpha, k-1) * (alpha-k+1)/k,
    one step per coefficient instead of the k-term product of
    :func:`binom_general_rational`.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    alpha = Fraction(alpha)
    out = [Fraction(1)]
    for k in range(1, k_max + 1):
        out.append(out[-1] * (alpha - k + 1) / k)
    return out


def contract_bits(target_decimal_digits: int) -> int:
    """ceil(D*log2(10)) + 32: the bits of a D-digit value plus the guard bits
    that every precision budget of the package carries."""
    return math.ceil(target_decimal_digits * _LOG2_10) + 32


def required_precision(pair: ExponentPair, n: int, target_decimal_digits: int) -> int:
    """Working precision (bits) sufficient for cancellation-safe weight
    evaluation at index n.

    Each bracket, 1 - (1 - 1/n)^(1/q) and (1 + 1/n)^(1/q) - 1, is formed by
    a subtraction that loses about log2(n) bits; their (p-1)-th powers differ
    by a relative (p-1)/(p n), which loses log2(n) more, plus log2(1/(p-1))
    when p < 2.  Forming p - 1 from the rounded p loses those log2(1/(p-1))
    bits as well (the classical weight is ((p-1)/p)^p n^-p).  So the budget
    is the decimal target plus max(p, 2)*log2(n), plus ceil(log2(1/(p-1)))
    when p < 2, plus 32 guard bits.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 1 <= target_decimal_digits <= MAX_TARGET_DIGITS:
        raise PrecisionInfeasibleError(
            f"target_decimal_digits must be in [1, {MAX_TARGET_DIGITS}], "
            f"got {target_decimal_digits}")
    p = pair.p_exact
    cancel_bits = math.ceil(float(max(p, 2)) * math.log2(n)) if n > 1 else 0
    if p < 2:
        # log2 of the integers, since 1/(p-1) may exceed the double range.
        pm1 = p - 1
        cancel_bits += math.ceil(math.log2(pm1.denominator)
                                 - math.log2(pm1.numerator))
    return contract_bits(target_decimal_digits) + cancel_bits
