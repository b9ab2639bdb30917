"""Power-series plumbing and the exact weight expansions."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from phardy.numerics import (
    ExponentPair,
    binom_general_rational,
    binom_rational_sequence,
)
from phardy.series import (
    InvariantViolation,
    PowerSeries,
    coefficients_csv,
    correction_positivity_report,
    expand_correction,
    expand_w_integer_p,
    nonpositive_even_positions,
    series_mul,
    series_pow_binomial,
)
from phardy.weights import eval_w

F = Fraction

# (1+x)^(1/2) to order 8
SQRT_1PX = (F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128), F(7, 256),
            F(-21, 1024), F(33, 2048), F(-429, 32768))


class TestSeriesMul:
    def test_difference_of_squares(self):
        a = PowerSeries((F(1), F(1), F(0)))
        b = PowerSeries((F(1), F(-1), F(0)))
        assert series_mul(a, b).coeffs == (F(1), F(0), F(-1))

    def test_multiplicative_identity(self):
        s = PowerSeries((F(1), F(1, 3), F(-1, 9), F(5, 81), F(0), F(-7, 2),
                         F(3)))
        one = PowerSeries((F(1),) + (F(0),) * 6)
        assert series_mul(s, one).coeffs == s.coeffs

    def test_sqrt_squares_back(self):
        # (1+x)^(1/2) * (1+x)^(1/2) == 1 + x
        root = PowerSeries(SQRT_1PX)
        product = series_mul(root, root)
        assert product.coeffs == (F(1), F(1)) + (F(0),) * 7

    def test_order_is_minimum(self):
        a = PowerSeries(SQRT_1PX)
        b = PowerSeries(SQRT_1PX[:4])
        assert series_mul(a, b).order == 3


class TestSeriesPowBinomial:
    def test_zero_argument(self):
        h = PowerSeries((F(0),) * 6)
        s = series_pow_binomial(h, F(7, 3), 5)
        assert s.coeffs == (F(1),) + (F(0),) * 5

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
        assert s.coeffs == tuple(binom_rational_sequence(F(2, 3), 10))


def _binomial_sum(h: PowerSeries, alpha, order: int) -> tuple:
    """Reference: sum_k binom(alpha, k) h^k with one Cauchy product per k."""
    result = (F(1),) + (F(0),) * order
    h_pow = PowerSeries(result)
    for k in range(1, order + 1):
        h_pow = series_mul(h_pow, h)
        b = binom_general_rational(alpha, k)
        result = tuple(r + b * c for r, c in zip(result, h_pow.coeffs))
    return result


def _binomial_theorem_table(p: int, order: int) -> list:
    """Reference for the integer-p weight table c[0..order].

    With x = 1/n and s = (p-1)/p the weight is
    (1 - (1-x)^s)^(p-1) - ((1+x)^s - 1)^(p-1); expanding both brackets by
    the binomial theorem over p - 1 makes it
    sum_j binom(p-1, j) ((-1)^j (1-x)^(j s) - (-1)^(p-1-j) (1+x)^(j s)).
    Its coefficients below x^p cancel, and c[k] is that of x^(p+k).
    """
    total = p + order
    w = [F(0)] * (total + 1)
    for j in range(p):
        binom = binom_rational_sequence(F(j * (p - 1), p), total)
        for k, b in enumerate(binom):
            w[k] += math.comb(p - 1, j) * b * (
                (-1) ** (j + k) - (-1) ** (p - 1 - j))
    assert w[:p] == [0] * p
    return w[p:]


def _partial_sum(expansion, n: int) -> Fraction:
    """x^p sum_k c[k] x^k at x = 1/n, exact."""
    x = F(1, n)
    return x ** expansion.p * sum(ck * x ** k
                                  for k, ck in enumerate(expansion.c))


def _tail_majorant(expansion, n: int) -> Fraction:
    """x^p |c[K]| x^(K+1) / (1 - x) at x = 1/n, K the truncation order: the
    geometric majorant of the neglected tail."""
    x = F(1, n)
    order = len(expansion.c) - 1
    return (x ** expansion.p * abs(expansion.c[-1]) * x ** (order + 1)
            / (1 - x))


def _to_mpf(value: Fraction) -> mpf:
    return mpf(value.numerator) / value.denominator


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
                == _binomial_sum(h, alpha, order))

    @pytest.mark.parametrize("alpha, seed, order", [
        (3, 7, 12),             # an integer alpha: a polynomial in h
        (-2, 8, 12),            # a negative integer alpha
        (F(-5, 3), 9, 12),      # a negative fractional alpha
        (F(7, 3), 10, 60),
    ], ids=str)
    def test_more_exponents_and_a_long_order(self, alpha, seed, order):
        h = _random_h(seed, order)
        f = series_pow_binomial(h, alpha, order)
        assert f.coeffs == _binomial_sum(h, alpha, order)
        assert all(type(c) is Fraction for c in f.coeffs)

    def test_binomial_series_of_one_plus_x(self):
        # (1 + x)^alpha has the coefficients binom(alpha, k) themselves.
        h = PowerSeries((F(0), F(1)) + (F(0),) * 59)
        for alpha in (F(-7, 2), F(1, 3), -4, 5):
            assert (list(series_pow_binomial(h, alpha, 60).coeffs)
                    == binom_rational_sequence(F(alpha), 60))


class TestWeightExpansion:
    def test_published_table_p2(self):
        e = expand_w_integer_p(2, 6)
        assert e.c == [F(1, 4), 0, F(5, 64), 0, F(21, 512), 0, F(429, 16384)]
        assert e.to_json_dict()["leading_power"] == 2

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

    def test_matches_binomial_theorem_reference(self):
        for p in range(2, 13):
            assert expand_w_integer_p(p, 40).c == _binomial_theorem_table(p, 40), p

    def test_json_format(self):
        payload = expand_w_integer_p(3, 4).to_json_dict()
        assert payload == {"p": 3, "leading_power": 3,
                           "coefficients": ["8/27", "0", "8/81", "0", "112/2187"]}

    def test_csv_format(self):
        text = coefficients_csv(expand_w_integer_p(2, 2).c)
        assert text == "k,c_k\n0,1/4\n1,0\n2,5/64\n"


# SHA-256 of the newline-joined coefficient strings of
# expand_correction(ExponentPair("7/3"), 80), from the Fraction-arithmetic
# recurrence that the integer-pair one replaced.
CORRECTION_7_3_ORDER_80 = (
    "86ffafed7de746c8f2e4126e6be33f10a36c9c6129baea0638496304de98b76f")


class TestCorrectionSeries:
    def test_order_80_at_7_3_is_pinned(self):
        series = expand_correction(ExponentPair("7/3"), 80)
        text = "\n".join(map(str, series.coeffs))
        assert hashlib.sha256(text.encode()).hexdigest() == CORRECTION_7_3_ORDER_80

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

    def test_nonpositive_even_positions(self):
        s = PowerSeries((F(0), F(-3), F(-1), F(0), F(2), F(5), F(0)))
        assert nonpositive_even_positions(s) == [2, 6]
        assert nonpositive_even_positions(s.truncate(5)) == [2]

    def test_positivity_report_is_data_only(self):
        report = correction_positivity_report(ExponentPair(F(3, 2)), 10)
        assert set(report) >= {"p", "order", "even_coefficients",
                               "all_even_positive", "nonpositive_positions"}


class TestSeriesEval:
    """Exact partial sums of the weight expansion against the closed form."""

    def test_weight_series_tail_covers_oracle_gap(self):
        # Oracle: the n = 2 weight in closed form at 200 bits.
        e = expand_w_integer_p(2, 6)
        value = _partial_sum(e, 2)
        # Exact finite sum: (1/4) sum c_k 2^-k = 285741/4194304.
        assert value == F(285741, 4194304)
        with mp.workprec(200):
            oracle = 2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)
            assert abs(_to_mpf(value) - oracle) <= _to_mpf(_tail_majorant(e, 2))

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 100])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_cross_module_agreement(self, p, n):
        e = expand_w_integer_p(p, 12)
        w = eval_w(ExponentPair(p), n, 30)
        with mp.workprec(200):
            assert (abs(_to_mpf(_partial_sum(e, n)) - w.value)
                    <= _to_mpf(_tail_majorant(e, n)))


class TestExpansionInvariantGuards:
    def test_violation_type_exists(self):
        # The parity/positivity guard is a hard error, not a report.
        assert issubclass(InvariantViolation, RuntimeError)

    def test_nonpositive_even_coefficient_is_refused(self, monkeypatch):
        import phardy.series as series
        monkeypatch.setattr(series, "expand_correction", lambda pair, order:
                            PowerSeries((F(0), F(0), F(-1, 3))))
        with pytest.raises(InvariantViolation, match=r"c\[2\]"):
            expand_w_integer_p(3, 2)
