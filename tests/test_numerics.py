"""Exact rationals, precision-tagged reals, generalized binomials, and the
fixed-point Horner sum."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from phardy.numerics import (
    ExponentPair,
    PrecReal,
    PrecisionInfeasibleError,
    binom_general_rational,
    binom_rational_sequence,
    floor_scaled,
    horner_fixed,
    required_precision,
)

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=64)


class TestBinomRational:
    def test_k_zero_is_one(self):
        for alpha in (Fraction(1, 2), Fraction(0), Fraction(-7, 3), Fraction(5)):
            assert binom_general_rational(alpha, 0) == 1

    def test_half_choose_two(self):
        # (1/2)(-1/2)/2! forced by the product formula
        assert binom_general_rational(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_half_choose_four(self):
        # hand evaluation: (1/2)(-1/2)(-3/2)(-5/2)/24 = -(15/16)/24
        assert binom_general_rational(Fraction(1, 2), 4) == Fraction(-5, 128)

    def test_two_thirds_choose_three(self):
        # (2/3)(-1/3)(-4/3)/6 = 4/81
        assert binom_general_rational(Fraction(2, 3), 3) == Fraction(4, 81)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binom_general_rational(Fraction(1, 2), -1)

    @given(alpha=small_rationals, k=st.integers(min_value=0, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_falling_factorial_identity(self, alpha, k):
        product = Fraction(1)
        for j in range(k):
            product *= alpha - j
        assert binom_general_rational(alpha, k) * math.factorial(k) == product

    @given(alpha=small_rationals, k=st.integers(min_value=1, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_pascal_recurrence(self, alpha, k):
        assert binom_general_rational(alpha, k) == (
            binom_general_rational(alpha - 1, k)
            + binom_general_rational(alpha - 1, k - 1))


class TestBinomRationalSequence:
    @pytest.mark.parametrize("alpha", [
        Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3), Fraction(-7, 3),
        Fraction(5), Fraction(0), Fraction(2, 3), Fraction(101, 100)])
    def test_matches_falling_factorial_product(self, alpha):
        assert binom_rational_sequence(alpha, 40) == [
            binom_general_rational(alpha, k) for k in range(41)]

    def test_k_max_zero(self):
        assert binom_rational_sequence(Fraction(7, 3), 0) == [1]

    def test_negative_k_max_rejected(self):
        with pytest.raises(ValueError):
            binom_rational_sequence(Fraction(1, 2), -1)


class TestConjugateCoefficients:
    """Size and sign structure of binom(1/q, k) that the g-series rests on."""

    @pytest.mark.parametrize("p", [Fraction(3, 2), 2, 3, Fraction(7, 2), 10])
    def test_first_coefficient_normalized(self, p):
        q = ExponentPair(p).q_exact
        assert q * abs(binom_general_rational(1 / q, 1)) == 1

    @pytest.mark.parametrize("p", [Fraction(3, 2), 2, 3, Fraction(7, 2), 10])
    def test_higher_coefficients_below_one(self, p):
        q = ExponentPair(p).q_exact
        for k in range(2, 21):
            assert q * abs(binom_general_rational(1 / q, k)) < 1

    @pytest.mark.parametrize("p", [Fraction(11, 10), 2, Fraction(7, 2), 10])
    def test_sign_alternation(self, p):
        inv_q = ExponentPair(p).inv_q_exact
        for k in range(1, 21):
            value = binom_general_rational(inv_q, k + 1)
            if k % 2 == 1:
                assert value < 0
            else:
                assert value > 0


class TestRequiredPrecision:
    def test_formula_instantiations(self):
        assert required_precision(ExponentPair(2), 1, 30) == 132
        assert required_precision(ExponentPair(2), 1000, 30) == 152
        assert required_precision(ExponentPair(4), 10 ** 6, 50) == 279
        # p < 2: 2*log2(n) for the brackets, log2(1/(p-1)) for p - 1.
        assert required_precision(ExponentPair("1.001"), 1, 30) == 142
        assert required_precision(ExponentPair("1.001"), 1000, 30) == 162

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            required_precision(ExponentPair(2), 0, 30)
        with pytest.raises(PrecisionInfeasibleError):
            required_precision(ExponentPair(2), 1, 10 ** 7)


class TestPrecReal:
    def test_precision_must_be_positive(self):
        with pytest.raises(PrecisionInfeasibleError):
            PrecReal(mpf(1), 0)

    def test_decimal_output_and_float(self):
        with mp.workprec(160):
            half = mpf(1) / 3 + mpf(1) / 6
        x = PrecReal(half, 160)
        assert x.to_decimal(30).startswith("0.5000000000")
        assert float(x) == 0.5

    def test_digit_count_carried(self):
        with mp.workprec(200):
            x = PrecReal(mpf(2) / 3, 200)
        digits = x.to_decimal(25).replace("0.", "")
        assert len(digits) == 25


class TestHornerFixed:
    """The fixed-point Horner sum against the exact Fraction sum, within
    the error lemma of :func:`numerics.horner_fixed`."""

    @given(coeffs=st.lists(st.fractions(min_value=-1, max_value=1,
                                        max_denominator=10 ** 6),
                           min_size=1, max_size=12),
           t=st.fractions(min_value=0, max_value=Fraction(3, 4),
                          max_denominator=10 ** 9),
           scale=st.integers(min_value=4, max_value=80),
           wide=st.booleans(), delta=st.sampled_from([0, 1]),
           closing_zero=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_error_within_the_lemma(self, coeffs, t, scale, wide, delta,
                                    closing_zero):
        # The real t is held as y = floor(t 2^shift), shift = scale or
        # 2 scale, as the series kernel and g (shift = B) and E (shift = 2B)
        # hold theirs; with delta = 0, t is first made a multiple of
        # 2^-shift.
        shift = 2 * scale if wide else scale
        if delta == 0:
            t = Fraction(math.floor(t * 2 ** shift), 2 ** shift)
        y = math.floor(t * 2 ** shift)
        assert 0 <= t - Fraction(y, 2 ** shift) <= Fraction(delta, 2 ** scale)
        coeffs = coeffs + [Fraction(0)] * closing_zero
        table = [floor_scaled(c, scale) for c in coeffs]
        assert table == [math.floor(c * 2 ** scale) for c in coeffs]
        exact = bound = Fraction(0)
        for j, c in enumerate(coeffs):
            floors = 1 if (c * 2 ** scale).denominator == 1 else 2
            bound = t * bound + delta * abs(exact) + floors
            exact = c + t * exact
            acc = horner_fixed(table[:j + 1], y, shift)
            assert abs(acc - exact * 2 ** scale) < bound


class TestLog1pExpm1:
    """math.log1p and math.expm1, which the double F path, its slope bound
    and the decomposition's bracket slack call, against mpmath at 212 bits:
    within the 2 units of 2^-53 relative that their error analyses take."""

    @given(st.floats(min_value=-0.5, max_value=0.5, allow_subnormal=False),
           st.floats(min_value=-40, max_value=40, allow_subnormal=False))
    @settings(max_examples=300, deadline=None)
    def test_within_the_stated_bound(self, t, u):
        # The 212-bit references err by under 2^-209 relative.
        with mp.workprec(212):
            rel = mpf(2) ** -52 + mpf(2) ** -200
            for got, reference in ((math.log1p(t), mp.log1p(mpf(t))),
                                   (math.expm1(u), mp.expm1(mpf(u)))):
                assert abs(got - reference) <= rel * abs(reference)


def _short_series_argument(prec, mantissa, shift):
    """A double of at most 53 bits below 2^-(prec+5) in magnitude: there
    t^2/2 is under half an ulp of t, so log1p(t) and expm1(t) round to t."""
    return math.ldexp(mantissa, -prec - 58 - shift)


class TestLog1pExpm1BitForBit:
    """At arguments about 2^-P, P >= 53, math.log1p and math.expm1 round as
    mpmath's 4P-bit values rounded to a double do, bit for bit: to t."""

    @staticmethod
    def assert_as_mpmath(t, prec):
        with mp.workprec(4 * prec):
            assert math.log1p(t) == float(mp.log1p(mpf(t))) == t
            assert math.expm1(t) == float(mp.expm1(mpf(t))) == t

    @pytest.mark.parametrize("prec", [53, 64, 113, 200, 400])
    def test_edge_arguments(self, prec):
        cases = [
            0.0,
            # powers of 2, where the ulp below t is half the one above
            math.ldexp(1, -prec - 5), math.ldexp(-1, -prec - 5),
            math.ldexp(1, -prec - 13), math.ldexp(-1, -prec - 400),
            # full 53-bit mantissas just under 2^-(P+5), and small odd ones
            _short_series_argument(prec, (1 << 53) - 1, 0),
            -_short_series_argument(prec, (1 << 53) - 1, 0),
            _short_series_argument(prec, (1 << 52) + 1, 0),
            math.ldexp(3, -prec - 13), math.ldexp(-5, -prec - 14),
            math.ldexp(-7, -prec - 8),
        ]
        for t in cases:
            self.assert_as_mpmath(t, prec)
        with mp.workprec(4 * prec):
            # Not t itself at 4P bits: only the rounding makes it t.
            t = math.ldexp(1, -prec - 5)
            assert mp.log1p(mpf(t)) < t < mp.expm1(mpf(t))

    @given(st.integers(min_value=53, max_value=400),
           st.integers(min_value=1, max_value=(1 << 53) - 1),
           st.integers(min_value=0, max_value=400), st.sampled_from([-1, 1]))
    @settings(max_examples=300, deadline=None)
    def test_random_arguments(self, prec, mantissa, shift, sign):
        self.assert_as_mpmath(
            sign * _short_series_argument(prec, mantissa, shift), prec)


class TestExponentPair:
    def test_rejects_p_at_or_below_one(self):
        for bad in (1, Fraction(1), 0.5, "1"):
            with pytest.raises(ValueError):
                ExponentPair(bad)

    @given(p=st.fractions(min_value=Fraction(11, 10), max_value=50,
                          max_denominator=97))
    @settings(max_examples=100, deadline=None)
    def test_conjugacy_exact(self, p):
        pair = ExponentPair(p)
        assert 1 / pair.p_exact + 1 / pair.q_exact == 1
        assert pair.inv_q_exact == 1 - 1 / pair.p_exact

    def test_parse_forms(self):
        assert ExponentPair.parse("3/2").p_exact == Fraction(3, 2)
        assert ExponentPair.parse("2.5").p_exact == Fraction(5, 2)
        assert ExponentPair.parse("2").p_exact == 2

    def test_irrational_path(self):
        # p is always exact; an mpf must be passed as a string to be parsed.
        with mp.workprec(113):
            root = mp.sqrt(5)
        with pytest.raises(TypeError):
            ExponentPair(root)
        assert ExponentPair(str(root)).p_exact == Fraction(str(root))

    def test_p_rounding_to_one_is_refused(self):
        # p - 1 = 10^-30 ~ 2^-99.7: lost at 64 bits, kept at 128.
        pair = ExponentPair("1.000000000000000000000000000001")
        for rounded in (pair.p_mpf, pair.q_mpf, pair.inv_q_mpf):
            with pytest.raises(PrecisionInfeasibleError):
                rounded(64)
        for rounded in (pair.p_float, pair.q_float):
            with pytest.raises(PrecisionInfeasibleError, match=str(pair.p_exact)):
                rounded()
        with mp.workprec(128):
            assert pair.p_mpf(128) - 1 > 0

    def test_serialization_helpers(self):
        # p is read with Fraction and written with str, both exact.
        assert str(ExponentPair.parse("69/64").p_exact) == "69/64"
        assert str(ExponentPair.parse(" 2 ").p_exact) == "2"
        assert ExponentPair.parse("1.25").p_exact == Fraction(5, 4)
