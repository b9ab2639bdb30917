"""Power-series plumbing and the exact weight expansions."""

import json
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from phardy.numerics import ExponentPair, binom_general_rational
from phardy.series import (
    InvariantViolation,
    PowerSeries,
    binomial_series,
    correction_positivity_report,
    expand_correction,
    expand_w_integer_p,
    nonpositive_even_positions,
    plus_bracket_series,
    series_eval,
    series_mul,
    series_pow_binomial,
)

F = Fraction


class TestBinomialSeries:
    def test_one_plus_x(self):
        s = binomial_series(1, +1, 3)
        assert s.coeffs == (F(1), F(1), F(0), F(0))

    def test_sqrt_one_minus_x(self):
        s = binomial_series(F(1, 2), -1, 2)
        assert s.coeffs == (F(1), F(-1, 2), F(-1, 8))

    def test_alpha_zero(self):
        s = binomial_series(0, -1, 4)
        assert s.coeffs == (F(1), F(0), F(0), F(0), F(0))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            binomial_series(1, 2, 3)


class TestSeriesMul:
    def test_difference_of_squares(self):
        a = PowerSeries((F(1), F(1), F(0)))
        b = PowerSeries((F(1), F(-1), F(0)))
        assert series_mul(a, b).coeffs == (F(1), F(0), F(-1))

    def test_multiplicative_identity(self):
        s = binomial_series(F(1, 3), +1, 6)
        one = PowerSeries.one(6)
        assert series_mul(s, one).coeffs == s.coeffs

    def test_sqrt_squares_back(self):
        # binomial-series oracle: (1+x)^(1/2) * (1+x)^(1/2) == 1 + x
        root = binomial_series(F(1, 2), +1, 8)
        product = series_mul(root, root)
        assert product.coeffs == binomial_series(1, +1, 8).coeffs

    def test_order_is_minimum(self):
        a = binomial_series(F(1, 2), +1, 8)
        b = binomial_series(F(1, 2), +1, 3)
        assert series_mul(a, b).order == 3


class TestSeriesPowBinomial:
    def test_zero_argument(self):
        h = PowerSeries.zero(5)
        s = series_pow_binomial(h, F(7, 3), 5)
        assert s.coeffs == PowerSeries.one(5).coeffs

    def test_integer_power_case(self):
        h = PowerSeries((F(0), F(1), F(0)))
        s = series_pow_binomial(h, 2, 2)
        assert s.coeffs == (F(1), F(2), F(1))

    def test_square_root_of_one_plus_x(self):
        h = PowerSeries((F(0), F(1), F(0)))
        s = series_pow_binomial(h, F(1, 2), 2)
        assert s.coeffs == (F(1), F(1, 2), F(-1, 8))

    def test_constant_term_must_vanish(self):
        h = PowerSeries((F(1), F(1)))
        with pytest.raises(ValueError):
            series_pow_binomial(h, F(1, 2), 1)

    def test_consistency_with_binomial_series(self):
        h = PowerSeries(tuple([F(0), F(1)] + [F(0)] * 9))
        s = series_pow_binomial(h, F(2, 3), 10)
        assert s.coeffs == binomial_series(F(2, 3), +1, 10).coeffs


def _binomial_sum(h: PowerSeries, alpha, order: int) -> PowerSeries:
    """Reference: sum_k binom(alpha, k) h^k with one Cauchy product per k."""
    result = PowerSeries.one(order)
    h_pow = PowerSeries.one(order)
    for k in range(1, order + 1):
        h_pow = series_mul(h_pow, h)
        result = result + h_pow.scale(binom_general_rational(alpha, k))
    return result


def _random_h(seed: int, order: int) -> PowerSeries:
    # Zero constant term; about a third of the other coefficients are zero.
    rng = random.Random(seed)
    coeffs = [F(0)] + [F(rng.randint(-9, 9), rng.randint(1, 12))
                       if rng.random() > 1 / 3 else F(0)
                       for _ in range(order)]
    return PowerSeries(tuple(coeffs))


MILLER_ALPHAS = [F(7, 3), F(-1, 2), F(2), F(5, 4)]
MILLER_CASES = list(enumerate([1, 2, 5, 9, 14, 20]))    # (seed, order)


class TestMillerRecurrence:
    """series_pow_binomial against the sum of binomial-weighted powers."""

    @pytest.mark.parametrize("alpha", MILLER_ALPHAS)
    @pytest.mark.parametrize("seed, order", MILLER_CASES)
    def test_exact_ring_matches_binomial_sum(self, alpha, seed, order):
        h = _random_h(seed, order)
        assert (series_pow_binomial(h, alpha, order).coeffs
                == _binomial_sum(h, alpha, order).coeffs)


class TestWeightExpansion:
    def test_published_table_p2(self):
        e = expand_w_integer_p(2, 6)
        assert e.c == [F(1, 4), 0, F(5, 64), 0, F(21, 512), 0, F(429, 16384)]
        assert e.leading_power == 2

    def test_published_table_p3(self):
        e = expand_w_integer_p(3, 4)
        assert e.c == [F(8, 27), 0, F(8, 81), 0, F(112, 2187)]

    def test_published_table_p4(self):
        e = expand_w_integer_p(4, 4)
        assert e.c == [F(81, 256), 0, F(891, 8192), 0, F(58653, 1048576)]

    @pytest.mark.parametrize("p", [2, 5, 9, 12])
    def test_parity_and_positivity(self, p):
        e = expand_w_integer_p(p, 20)
        for k, ck in enumerate(e.c):
            if k % 2 == 1:
                assert ck == 0
            else:
                assert ck > 0

    @pytest.mark.parametrize("p", range(2, 13))
    def test_leading_coefficient_is_classical_constant(self, p):
        e = expand_w_integer_p(p, 0)
        assert e.c[0] == F(p - 1, p) ** p

    def test_rejects_non_integer_p(self):
        with pytest.raises(ValueError):
            expand_w_integer_p(F(5, 2), 4)

    def test_json_format(self):
        payload = json.loads(expand_w_integer_p(3, 4).to_json())
        assert payload == {"p": 3, "leading_power": 3,
                           "coefficients": ["8/27", "0", "8/81", "0", "112/2187"]}

    def test_csv_format(self):
        text = expand_w_integer_p(2, 2).to_csv()
        assert text == "k,c_k\n0,1/4\n1,0\n2,5/64\n"


class TestAbsoluteMonotonicityWitness:
    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_increasing_bracket_coefficients_positive(self, p):
        s = plus_bracket_series(p, 40)
        # The bracket starts at x^(p-1); below that the coefficients are
        # structural zeros, beyond it they must all be strictly positive.
        for k in range(p - 1):
            assert s[k] == 0
        for k in range(p - 1, 41):
            assert s[k] > 0


class TestCorrectionSeries:
    @pytest.mark.parametrize("p", [F(2), F(3), F(4), F(5), F(7, 2)])
    def test_second_and_fourth_coefficients(self, p):
        series = expand_correction(ExponentPair(p), 4)
        assert series[1] == 0 and series[3] == 0
        assert series[2] == (3 * p - 1) / (8 * p)
        assert series[4] == (215 * p ** 3 - 38 * p ** 2 - 31 * p + 6) / (1152 * p ** 3)

    def test_spot_values(self):
        assert expand_correction(ExponentPair(2), 2)[2] == F(5, 16)
        assert expand_correction(ExponentPair(3), 4)[4] == F(14, 81)
        assert expand_correction(ExponentPair(4), 2)[2] == F(11, 32)

    def test_cross_check_against_weight_expansion(self):
        # c_2/c_0 of the weight expansion equals the correction's x^2 term
        for p in (2, 3, 4):
            e = expand_w_integer_p(p, 4)
            series = expand_correction(ExponentPair(p), 4)
            assert series[2] == e.c[2] / e.c[0]
            assert series[4] == e.c[4] / e.c[0]

    def test_nonpositive_even_positions(self):
        s = PowerSeries((F(0), F(-3), F(-1), F(0), F(2), F(5), F(0)))
        assert nonpositive_even_positions(s) == [2, 6]
        assert nonpositive_even_positions(s.truncate(5)) == [2]

    def test_positivity_report_is_data_only(self):
        report = correction_positivity_report(ExponentPair(F(3, 2)), 10)
        assert set(report) >= {"p", "order", "even_coefficients",
                               "all_even_positive", "nonpositive_positions"}


class TestSeriesEval:
    def test_constant_series(self):
        value, tail = series_eval(PowerSeries((F(3, 7),)), 0.25)
        assert float(value) == pytest.approx(3 / 7, abs=1e-15)
        assert float(tail) < 1e-15

    def test_at_zero_returns_constant_term(self):
        value, tail = series_eval(binomial_series(F(1, 2), +1, 5), 0)
        assert value == 1
        assert tail == 0

    def test_domain_check(self):
        s = PowerSeries((F(1), F(1)))
        with pytest.raises(ValueError):
            series_eval(s, 0.75)
        with pytest.raises(ValueError):
            series_eval(s, -0.1)

    def test_weight_series_tail_covers_oracle_gap(self):
        # Oracle: the n = 2 weight in closed form at 50 digits.
        with mp.workprec(200):
            oracle = 2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)
            e = expand_w_integer_p(2, 6)
            value, tail = e.eval_at(F(1, 2), precision_bits=80)
            # Exact finite sum: (1/4) sum c_k 2^-k = 285741/4194304.
            assert abs(value - mpf(285741) / 4194304) < 1e-20
            assert abs(value - oracle) <= tail

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 100])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_cross_module_agreement(self, p, n):
        from phardy.weights import eval_w
        e = expand_w_integer_p(p, 12)
        value, tail = e.eval_at(F(1, n), precision_bits=80)
        w = eval_w(ExponentPair(p), n, 30)
        with mp.workprec(200):
            assert abs(value - w.value) <= tail


class TestExpansionInvariantGuards:
    def test_violation_type_exists(self):
        # The parity/positivity guard is a hard error, not a report.
        assert issubclass(InvariantViolation, RuntimeError)
