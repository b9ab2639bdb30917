"""Arbitrary-precision scaffolding: exact rationals and generalized binomial
coefficients, precision-tagged reals, fixed-point sums, and the Hölder pair.

Exact rational arithmetic rides on ``fractions.Fraction`` (always stored
reduced, positive denominator); the exponent p is always such a rational,
and is rounded only where a weight or bound is evaluated.  High-precision
real arithmetic rides on mpmath (round-to-nearest), its results tagged with
their precision (:class:`PrecReal`); sums of exact coefficients with a
proven error run in Python-int fixed point (:func:`horner_fixed`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# Decimal-digit requests above this are rejected rather than silently
# truncated; the mpfr backend would accept them but desk-scale use never
# needs more, and a typo should fail loudly.
MAX_TARGET_DIGITS = 1_000_000

_LOG2_10 = math.log2(10)

# The largest working precision a weight budget may ask for, in bits: above
# the 3,321,961 bits of MAX_TARGET_DIGITS at n = 1, with room for the
# log2(1/(p-1)) bits of a p near 1.  A larger budget, such as p log2(n) bits
# at a p far beyond desk scale, is refused rather than handed to mpmath,
# which would fail deep inside with an OverflowError.
MAX_PRECISION_BITS = 1 << 22

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

    def p_double(self) -> float:
        """p rounded to a double, which may be 1; a p beyond the double range
        is refused (PrecisionInfeasibleError), not left to overflow."""
        try:
            return float(self.p_exact)
        except OverflowError:
            raise PrecisionInfeasibleError(
                f"p is beyond the double range: it exceeds "
                f"{sys.float_info.max:.6g}") from None

    def p_float(self) -> float:
        """p rounded to a double, as :meth:`p_double`; a p that rounds to 1 is
        refused too, as in :meth:`p_mpf`."""
        pf = self.p_double()
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
    when p < 2, plus 32 guard bits.  A budget above MAX_PRECISION_BITS is
    refused (PrecisionInfeasibleError).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 1 <= target_decimal_digits <= MAX_TARGET_DIGITS:
        raise PrecisionInfeasibleError(
            f"target_decimal_digits must be in [1, {MAX_TARGET_DIGITS}], "
            f"got {target_decimal_digits}")
    p = pair.p_exact
    top = max(p, 2)
    if n == 1:
        cancel_bits = 0
    elif top > MAX_PRECISION_BITS:
        # top log2(n) >= top: over the ceiling, and no double of p is formed.
        cancel_bits = math.ceil(top)
    else:
        cancel_bits = math.ceil(float(top) * math.log2(n))
    if p < 2:
        # log2 of the integers, since 1/(p-1) may exceed the double range.
        pm1 = p - 1
        cancel_bits += math.ceil(math.log2(pm1.denominator)
                                 - math.log2(pm1.numerator))
    bits = contract_bits(target_decimal_digits) + cancel_bits
    if bits > MAX_PRECISION_BITS:
        raise PrecisionInfeasibleError(
            f"{target_decimal_digits} digits at n = {n} would need more than "
            f"{MAX_PRECISION_BITS} bits of working precision")
    return bits
