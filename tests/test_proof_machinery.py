"""Lemma bounds, the bracket decomposition, and their grid reports."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from phardy import proof_machinery as pm
from phardy.numerics import ExponentPair, floor_scaled, horner_fixed, to_mpf
from phardy.series import SeriesValue
from phardy.weights import eval_w_closed_x

F = Fraction

SMALL_X = tuple(j / 50 for j in range(1, 26))   # 0.02 .. 0.5
P_SAMPLE = [F("1.01"), F(3, 2), F(2), F(5, 2), F(7, 2), F(10)]


def g_closed_form(pair, x, sign, bits=200):
    """Oracle: g(sign x) = (q/x) * (bracket base) - 1 from the closed form."""
    with mp.workprec(bits):
        xm = to_mpf(x)
        q = pair.q_mpf(bits)
        s = pair.inv_q_mpf(bits)
        if sign < 0:
            return (q / xm) * (1 - (1 - xm) ** s) - 1
        return (q / xm) * ((1 + xm) ** s - 1) - 1


def g_sum(pair, x, sign, order=200, bits=200):
    """Reference: g(sign x) summed in mpf over g_series to the given order,
    with the geometric tail bound a_order x^(order+1)/(1-x)."""
    a = pm.g_series(pair, order)
    with mp.workprec(bits):
        xm = to_mpf(x)
        y = -sign * xm
        value = sum(to_mpf(c) * y ** k for k, c in enumerate(a) if k)
        return value, to_mpf(a[order]) * xm ** (order + 1) / (1 - xm)


def e_sum(pair, x, order=200, bits=200):
    """Reference: E(x) = 2(p-1) sum_{odd k>=3} a_k x^k in mpf over g_series,
    with its geometric tail bound."""
    a = pm.g_series(pair, order)
    with mp.workprec(bits):
        xm = to_mpf(x)
        two_pm1 = 2 * to_mpf(pair.p_exact - 1)
        value = two_pm1 * sum(to_mpf(a[k]) * xm ** k
                              for k in range(3, order + 1, 2))
        return value, two_pm1 * to_mpf(a[order]) * xm ** (order + 1) / (1 - xm)


def x_at(x, bits):
    """x's decimal as an mpf at bits: the double x itself at 53 bits, and
    above that a value the double evaluators round to that double."""
    with mp.workprec(bits):
        return mpf(repr(x))


def f_closed_form(pair, x, bits=400):
    """Oracle: F = h(g(-x)) - h(g(x)), h(t) = (1+t)^(p-1) - 1 - (p-1)t."""
    with mp.workprec(bits):
        alpha = pair.p_mpf(bits) - 1

        def h(t):
            return (1 + t) ** alpha - 1 - alpha * t

        return (h(g_closed_form(pair, x, -1, bits))
                - h(g_closed_form(pair, x, +1, bits)))


class TestGSeries:
    def test_p2_coefficients(self):
        a = pm.g_series(ExponentPair(2), 4)
        assert a[1] == F(1, 4)
        assert a[2] == F(1, 8)
        assert a[3] == F(5, 64)

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_first_coefficient_formula(self, p):
        assert pm.g_series(ExponentPair(p), 2)[1] == 1 / (2 * F(p))

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_ratio_identity_exact(self, p):
        # a_{k+1}/a_k = (q(k+1) - 1)/(q(k+2)), an exact rational identity
        pair = ExponentPair(p)
        a = pm.g_series(pair, 30)
        q = pair.q_exact
        for k in range(1, 30):
            assert a[k + 1] / a[k] == (q * (k + 1) - 1) / (q * (k + 2))

    def test_coefficients_positive_and_decaying(self):
        a = pm.g_series(ExponentPair(F("1.01")), 40)
        for k in range(1, 40):
            assert a[k] > 0
            assert a[k + 1] <= a[k]


class TestEvalG:
    @pytest.mark.parametrize("p", P_SAMPLE)
    @pytest.mark.parametrize("x", [0.01, 0.25, 0.5])
    def test_against_closed_form_oracle(self, p, x):
        pair = ExponentPair(p)
        for sign in (-1, +1):
            value, tail = pm.eval_g(pair, x, sign)
            oracle = g_closed_form(pair, x, sign)
            assert abs(value - float(oracle)) <= tail

    def test_signs_on_grid(self):
        pair = ExponentPair(F(5, 2))
        for x in SMALL_X:
            gm, _ = pm.eval_g(pair, x, -1)
            gp, _ = pm.eval_g(pair, x, +1)
            assert gm > 0 > gp

    def test_small_x_slope(self):
        # g(-x)/x -> a_1 = 1/4 for p = 2
        value, _ = pm.eval_g(ExponentPair(2), 1e-8, -1)
        assert value / 1e-8 == pytest.approx(0.25, rel=1e-7)

    def test_domain_errors(self):
        pair = ExponentPair(2)
        with pytest.raises(ValueError):
            pm.eval_g(pair, 0.75, -1)
        with pytest.raises(ValueError):
            pm.eval_g(pair, 0.0, -1)
        with pytest.raises(ValueError):
            pm.eval_g(pair, 0.25, 2)

    def test_high_precision_path_agrees(self):
        # Against g_series summed in mpf to order 200 at 200 bits.
        pair = ExponentPair(F(7, 2))
        lo, lo_tail = pm.eval_g(pair, 0.3, -1)
        hi, hi_tail = g_sum(pair, 0.3, -1)
        with mp.workprec(200):
            assert abs(lo - hi) <= lo_tail + hi_tail


class TestEvalE:
    def test_leading_term_p2(self):
        # E_2(x)/x^3 -> 2(p-1)a_3 = 5/32
        value, _ = pm.eval_E(ExponentPair(2), 1e-4)
        assert value / 1e-12 == pytest.approx(5 / 32, rel=1e-6)

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_positive_on_grid(self, p):
        pair = ExponentPair(p)
        for x in SMALL_X:
            value, tail = pm.eval_E(pair, x)
            assert value > tail >= 0

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_leading_term_general(self, p):
        pair = ExponentPair(p)
        a3 = float(pm.g_series(pair, 3)[3])
        value, _ = pm.eval_E(pair, 1e-4)
        assert value / 1e-12 == pytest.approx(2 * (float(p) - 1) * a3, rel=1e-6)

    # x comes as an mpf at `bits`, under mpmath's working precision of
    # `bits`: the cross-check runs in doubles whatever the caller's context.
    @pytest.mark.parametrize("bits", [53, 113])
    def test_cross_check_runs_at_every_precision(self, monkeypatch, bits):
        honest = pm._e_binom_table

        def corrupted(pair, order):
            table = list(honest(pair, order))
            table[3] *= 1 + 1e-6
            return tuple(table)

        monkeypatch.setattr(pm, "_e_binom_table", corrupted)
        with mp.workprec(bits), pytest.raises(pm.AgreementError):
            pm.eval_E(ExponentPair(F(5, 2)), x_at(0.3, bits))


class TestEvalF:
    def test_identically_zero_for_p2(self):
        # binom(1, n) = 0 for n >= 2, so F vanishes
        pair = ExponentPair(2)
        for x in (0.1, 0.3, 0.5):
            value, tail = pm.eval_F(pair, x)
            assert abs(value) <= tail
            assert abs(value) < 1e-15

    def test_against_decomposition_residual_oracle(self):
        # 50-digit closed-form oracle: F = w(x)/(x/q)^(p-1) - x/q - E, with
        # E summed in mpf over g_series to order 60.
        bits = 200
        pair = ExponentPair(3)
        x = 0.25
        e_hi, e_tail = e_sum(pair, x, order=60, bits=bits)
        with mp.workprec(bits):
            xm = mpf(x)
            q = pair.q_mpf(bits)
            s = pair.inv_q_mpf(bits)
            w = (1 - (1 - xm) ** s) ** 2 - ((1 + xm) ** s - 1) ** 2
            oracle = w / (xm / q) ** 2 - xm / q - e_hi
        value, tail = pm.eval_F(pair, x)
        assert abs(value - float(oracle)) <= tail + float(e_tail)

    # In these tests x comes as an mpf at `bits` (x_at), and eval_F runs
    # under mpmath's working precision of `bits`: F is taken at the double
    # nearest x whatever the caller's precision.
    @pytest.mark.parametrize("bits", [53, 113])
    @pytest.mark.parametrize("x", [0.001, 0.05, 0.25, 0.5])
    @pytest.mark.parametrize("p", [F("1.01"), F("1.1"), F(3, 2), F(2), F(3),
                                   F(7, 2), F(10)])
    def test_within_tail_of_closed_form_reference(self, p, x, bits):
        pair = ExponentPair(p)
        with mp.workprec(bits):
            value, tail = pm.eval_F(pair, x_at(x, bits))
        with mp.workprec(400):
            # At mpmath's default 53 bits this subtraction would round to
            # about 1e-18 and hide every error below that.
            error = abs(mpf(value) - f_closed_form(pair, x))
        assert error <= tail

    @pytest.mark.parametrize("bits", [53, 113])
    @pytest.mark.parametrize("x, tau", [(0.3, 0.02), (0.5, 0.2)])
    @pytest.mark.parametrize("shift_minus, shift_plus",
                             [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_inner_error_propagates(self, monkeypatch, shift_minus, shift_plus,
                                    x, tau, bits):
        # Wide g tails: F from g values 0.9 tau off the truth must still
        # enclose the true F.  At tau = 0.2 the curvature of h matters: |h'|
        # taken at the computed g alone would not cover the error.
        pair = ExponentPair(F("1.1"))
        shifts = {-1: shift_minus, +1: shift_plus}

        def shifted_g(pair, x, sign, order):
            g = g_closed_form(pair, x, sign, 400) + shifts[sign] * 0.9 * tau
            return SeriesValue(float(g), tau)

        monkeypatch.setattr(pm, "eval_g", shifted_g)
        x = x_at(x, bits)
        with mp.workprec(bits):
            value, tail = pm.eval_F(pair, x)
        with mp.workprec(400):
            error = abs(mpf(value) - f_closed_form(pair, x))
        assert error <= tail

    @pytest.mark.parametrize("p", [3, 4, 5, 8])
    def test_nonnegative_for_integer_p(self, p):
        pair = ExponentPair(p)
        for x in SMALL_X:
            value, tail = pm.eval_F(pair, x)
            assert value >= -tail

    def test_nonnegative_in_odd_even_window(self):
        pair = ExponentPair(F(7, 2))
        for x in SMALL_X:
            value, tail = pm.eval_F(pair, x)
            assert value >= -tail

    def test_g_minus_bound_at_one_is_an_error(self, monkeypatch):
        # The bracket-power sums need g(-x) + tail < 1; no silent clamp.
        monkeypatch.setattr(pm, "eval_g",
                            lambda *args, **kwargs: SeriesValue(0.99, 0.02))
        with pytest.raises(pm.AgreementError):
            pm.check_pairwise_positivity(ExponentPair(F(7, 2)), [0.3])

    @pytest.mark.parametrize("bits", [53, 113])
    def test_g_bound_at_minus_one_is_an_error(self, monkeypatch, bits):
        # h'(t) diverges at t = -1 for p < 2, so F needs 1 + g - tail > 0.
        monkeypatch.setattr(pm, "eval_g", lambda *args, **kwargs: SeriesValue(
            -0.99, 0.02))
        with mp.workprec(bits), pytest.raises(pm.AgreementError,
                                              match="is not positive"):
            pm.eval_F(ExponentPair(F(3, 2)), x_at(0.3, bits))


# Reference precisions of the decomposition check, a point of (0, 1/2] that
# is a power of 2, a double, an exact rational and the end, and exponents.
FIXED_BITS = [64, 113, 200]
FIXED_X = [2.0 ** -10, 0.001, F(1, 3), 0.5]
FIXED_P = [F("1.01"), F("1.1"), F(3, 2), F(2), F(7, 2), F(10)]


def exact(value) -> Fraction:
    """An mpf or a double as the exact rational it stores."""
    if not isinstance(value, mpf):
        return Fraction(value)
    man, exp = value.man_exp
    magnitude = Fraction(man) * Fraction(2) ** exp
    return -magnitude if value < 0 else magnitude


def horner_exact(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestExactSums:
    """The double evaluators' tails cover their error against the exact
    truncated sums, and against the closed form."""

    @pytest.mark.parametrize("x", FIXED_X, ids=str)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_within_tail_of_exact_sums(self, p, x):
        pair = ExponentPair(p)
        a = pm.g_series(pair, pm.DEFAULT_ORDER)
        xq = Fraction(float(x))
        for sign in (-1, +1):
            value, tail = pm.eval_g(pair, x, sign)
            truth = horner_exact(a, -sign * xq)    # a_k are g(-x)'s
            assert abs(exact(value) - truth) <= exact(tail)
            oracle = g_closed_form(pair, float(x), sign, 400)
            with mp.workprec(400):
                assert abs(value - oracle) <= tail
        odd = [c if k % 2 == 1 and k >= 3 else 0 for k, c in enumerate(a)]
        value, tail = pm.eval_E(pair, x)
        truth = 2 * (p - 1) * horner_exact(odd, xq)
        assert abs(exact(value) - truth) <= exact(tail)


# numerics.horner_fixed's scale is the precision plus these guard bits.
FIXED_GUARD = 8


def fixed_sum(coeffs, x, bits):
    """numerics.horner_fixed over exact coeffs, highest order first, at
    B = bits + FIXED_GUARD and y = floor(x 2^B), for an exact x >= 0:
    (acc, truth, bound) in units of 2^-B, truth the exact sum and bound
    the error lemma's, with t = x and delta = 1 unless x 2^B is an
    integer."""
    scale = bits + FIXED_GUARD
    t = Fraction(x)
    y = math.floor(t * 2 ** scale)
    delta = 0 if y == t * 2 ** scale else 1
    acc = horner_fixed([floor_scaled(c, scale) for c in coeffs], y, scale)
    partial = bound = Fraction(0)
    for c in coeffs:
        floors = 1 if (c * 2 ** scale).denominator == 1 else 2
        bound = t * bound + delta * abs(partial) + floors
        partial = c + t * partial
    return acc, partial * 2 ** scale, bound


def fixed_tables(pair, order):
    """The Horner tables, highest order first, of g(-x), g(x) and E(x):
    g's with a closing 0 for the multiplication by x, E's zero at even k."""
    a = pm.g_series(pair, order)
    two_pm1 = 2 * (pair.p_exact - 1)
    g_tables = [[(-sign) ** k * a[k] for k in range(order, 0, -1)] + [0]
                for sign in (-1, +1)]
    e_table = [two_pm1 * a[k] if k % 2 == 1 and k >= 3 else 0
               for k in range(order, -1, -1)]
    return g_tables + [e_table]


class TestFixedPoint:
    """numerics.horner_fixed, the weight kernel's fixed-point sum, on the
    proof's own g and E tables at the decomposition's reference
    precisions: its error lemma covers the true error against the exact
    truncated sums, and with eval_g's truncation tail, the closed form."""

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("x", FIXED_X, ids=str)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_within_tail_of_exact_sums(self, p, x, bits):
        pair = ExponentPair(p)
        order = pm.DEFAULT_ORDER
        unit = Fraction(1, 2 ** (bits + FIXED_GUARD))
        a = pm.g_series(pair, order)
        truncation = a[order] * Fraction(x) ** (order + 1) / (1 - Fraction(x))
        tables = fixed_tables(pair, order)
        for sign, table in ((-1, tables[0]), (+1, tables[1]), (0, tables[2])):
            acc, truth, bound = fixed_sum(table, x, bits)
            assert abs(acc - truth) < bound
            if sign:
                oracle = g_closed_form(pair, x, sign, 400)
                with mp.workprec(400):
                    assert (abs(to_mpf(acc * unit) - oracle)
                            <= to_mpf(bound * unit + truncation))

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_tail_is_a_few_units(self, p, bits):
        # At x = 2^-10 the truncation tail is far below 2^-bits, so what is
        # left is rounding: well under one unit of 2^-bits.
        pair = ExponentPair(p)
        order = pm.DEFAULT_ORDER
        x = Fraction(1, 2 ** 10)
        a = pm.g_series(pair, order)
        assert a[order] * x ** (order + 1) / (1 - x) < Fraction(1, 2 ** bits)
        for table in fixed_tables(pair, order):
            acc, truth, bound = fixed_sum(table, x, bits)
            assert abs(acc - truth) < bound < 2 ** FIXED_GUARD

    def test_tables_are_floors_of_the_exact_coefficients(self):
        pair = ExponentPair(F(7, 2))
        scale = 113 + FIXED_GUARD
        a = pm.g_series(pair, 12)
        assert [floor_scaled(c, scale) for c in a] == [
            math.floor(c * 2 ** scale) for c in a]
        # The double tables eval_g sums: each a_k rounded once, and g(x)'s
        # Horner table highest order first, with odd orders negated.
        table = pm._a_table(pair, 12)
        assert table == tuple(float(c) for c in a)
        assert pm._g_table(pair, 12, +1) == tuple(
            (-1) ** k * table[k] for k in range(12, 0, -1))
        assert pm._g_table(pair, 12, -1) == tuple(
            table[k] for k in range(12, 0, -1))


class TestPairConstants:
    """The per-pair constants are the values _bracket_slack would form from
    p at each point."""

    @pytest.mark.parametrize("p", [Fraction("1.001"), Fraction(3, 2),
                                   Fraction(7, 3), Fraction(10)], ids=str)
    def test_same_values_and_decisions(self, p):
        pair = ExponentPair(p)
        const = pm._pair_constants(pair)
        assert const == (float(pair.q_exact), float(pair.inv_q_exact),
                         float(p - 2), float(abs(p - 1) + 1),
                         float(2 * p + 68))
        assert pm._pair_constants(ExponentPair(p)) is const


def reference_r(pair, x, bits=400):
    """r = w (q/x)^(p-1) - x/q from the closed form at the exact p, at bits."""
    with mp.workprec(bits):
        xm = to_mpf(x)
        s = to_mpf(pair.inv_q_exact)
        pm1 = to_mpf(pair.p_exact - 1)
        q = to_mpf(pair.q_exact)
        w = (1 - (1 - xm) ** s) ** pm1 - ((1 + xm) ** s - 1) ** pm1
        return w * (q / xm) ** pm1 - xm / q


class TestDoubleAllowances:
    """The allowances are doubles; each must be at least the quantity it
    bounds, evaluated at a higher precision."""

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("x", FIXED_X, ids=str)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_slope_and_h_rounding(self, p, x, bits):
        # At the ends eval_F takes it at, |h'| as a double bounds the exact
        # alpha |(1+s)^(alpha-1) - 1|; at the computed g = t, h's rounding
        # allowance bounds the error of h(t) formed in doubles.  The
        # references are formed at `bits` without cancellation, and
        # allowed 2^(8-bits) of what the allowances scale.
        pair = ExponentPair(p)
        alpha = float(p - 1)
        for sign in (-1, +1):
            t, tau = pm.eval_g(pair, x, sign)
            reach = tau + 2 * 2.0 ** -53 * (abs(t) + tau)
            for s in (t - reach, t + reach):
                slope = pm._h_slope(alpha, s)
                with mp.workprec(bits):
                    a = to_mpf(p - 1)
                    exact_slope = abs(a * mp.expm1((a - 1) * mp.log1p(s)))
                    assert slope >= exact_slope * (1 + mpf(2) ** (8 - bits))
            u = alpha * math.log1p(t)
            at = alpha * t
            h = math.expm1(u) - at
            with mp.workprec(bits):
                exact_h = mp.expm1(alpha * mp.log1p(t)) - mpf(alpha) * t
                reference_error = mpf(2) ** (8 - bits) * (
                    abs(u) * mp.exp(abs(u)) + abs(at) + abs(h))
                assert (abs(h - exact_h) + reference_error
                        <= pm._h_rounding(u, at, h))

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("x", FIXED_X, ids=str)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_bracket_slack(self, p, x, bits):
        pair = ExponentPair(p)
        xf = float(x)
        (s, r), = pm._reference_sides(pair, [xf], bits)
        size = abs(float(s)) + 2 * abs(float(r))
        slack = pm._bracket_slack(pair, xf, size, bits)
        with mp.workprec(400):
            xm = mpf(xf)
            inv_q = to_mpf(pair.inv_q_exact)
            q_x = to_mpf(pair.q_exact) / xm
            pm2 = to_mpf(p - 2)
            eps = mpf(2) ** (1 - bits)
            y_plus = q_x * (1 - (1 - xm) ** inv_q)
            y_minus = q_x * ((1 + xm) ** inv_q - 1)
            exact_slack = 64 * eps * to_mpf(abs(p - 1) + 1) * q_x * (
                y_plus ** pm2 + y_minus ** pm2)
            exact_slack += to_mpf(2 * p + 68) * eps * size
            assert slack >= exact_slack


# 25 points of (0, 1/2]: doubles, exact rationals and the ends.
X_SAMPLE = ([0.001, 0.5, F(1, 3), F(1, 7), 2.0 ** -10]
            + [j / 40 for j in range(1, 20)] + [F(49, 100)])


class TestRawPaths:
    """The decomposition reads its closed-form column as raw libmp values
    (weights._improved_values, one precision context for the whole grid);
    each point must give what the one-point weight on mpf objects gives."""

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("p", [F("1.01"), F(3, 2), F(7, 3), F(10)], ids=str)
    def test_f_as_on_mpf_objects(self, p, bits):
        # s = w (q/x)^(p-1) and r = s - x/q, the reference for E + F, from
        # weights.eval_w_closed_x, with p and q = p/(p-1) rounded once.
        pair = ExponentPair(p)
        xs = [float(x) for x in X_SAMPLE]
        for x, got in zip(xs, pm._reference_sides(pair, xs, bits)):
            with mp.workprec(bits):
                xm = mpf(x)
                p_mpf = pair.p_mpf(bits)
                q = p_mpf / (p_mpf - 1)
                s = eval_w_closed_x(pair, xm, bits) * (q / xm) ** (p_mpf - 1)
                assert got == (s, s - xm / q)

    @pytest.mark.parametrize("p", [F("1.01"), F(3, 2), F(10)], ids=str)
    def test_decomposition_points_as_one_point_compositions(self, monkeypatch,
                                                            p):
        seen = []
        honest = pm._x_grid_check

        def recording(description, pair, x_grid, point, **extra):
            def recorded(x):
                seen.append((x, point(x)))
                return seen[-1][1]
            return honest(description, pair, x_grid, recorded, **extra)

        monkeypatch.setattr(pm, "_x_grid_check", recording)
        pair = ExponentPair(p)
        report = pm.check_decomposition_identity(pair, X_SAMPLE)
        assert [x for x, _ in seen] == list(X_SAMPLE)
        bits = report.grid["precision_bits"]
        assert bits == pm._reference_bits(pair, 2.0 ** -10)
        for x, got in seen:
            xf = float(x)
            e, f = pm.eval_E(pair, xf), pm.eval_F(pair, xf)
            (s, r), = pm._reference_sides(pair, [xf], bits)
            value = e.value + f.value
            with mp.workprec(bits):
                residual = abs(value - r)
                size = abs(float(s)) + abs(float(r)) + abs(value)
                tol = pm._up(e.tail_bound + f.tail_bound
                             + 2.0 ** -53 * abs(value)
                             + pm._bracket_slack(pair, xf, size, bits), 3)
                assert got == (float(tol - residual), value, float(r))


class TestDecompositionReference:
    """The reference side r of the decomposition check, at its precision."""

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_allowance_covers_the_reference_error(self, p, bits):
        # r at `bits` from the rounded p, against r at 400 bits from the
        # exact p: the slack (with E + F = 0) must cover the difference.
        pair = ExponentPair(p)
        xs = [float(x) for x in X_SAMPLE]
        for x, (s, r) in zip(xs, pm._reference_sides(pair, xs, bits)):
            slack = pm._bracket_slack(pair, x, abs(float(s)) + abs(float(r)),
                                      bits)
            with mp.workprec(400):
                assert abs(r - reference_r(pair, x)) <= slack

    @pytest.mark.parametrize("x_min, p, bits", [
        (0.001, F("1.01"), 125), (0.001, F(3, 2), 115), (0.001, F(2), 114),
        (0.001, F(10), 115), (1e-8, F(3, 2), 182), (0.5, F(2), 78),
    ], ids=str)
    def test_precision_is_derived_from_p_and_the_smallest_x(self, x_min, p,
                                                            bits):
        assert pm._reference_bits(ExponentPair(p), x_min) == bits
        report = pm.check_decomposition_identity(ExponentPair(p), [x_min, 0.5])
        assert report.passed and report.grid["precision_bits"] == bits

    def test_points_report_both_sides(self, monkeypatch):
        # lhs is E + F from the double evaluators, rhs the reference r.
        pair = ExponentPair(F(7, 2))
        report = pm.check_decomposition_identity(pair, [0.25])
        e, f = pm.eval_E(pair, 0.25), pm.eval_F(pair, 0.25)
        bits = report.grid["precision_bits"]
        (_, r), = pm._reference_sides(pair, [0.25], bits)
        honest = pm._build_report
        seen = []
        monkeypatch.setattr(pm, "_build_report", lambda d, g, points:
                            seen.extend(points) or honest(d, g, points))
        pm.check_decomposition_identity(pair, [0.25])
        (_, _, margin, lhs, rhs), = seen
        assert (lhs, rhs) == (e.value + f.value, float(r))
        assert margin == report.worst_margin > 0


class TestDecompositionSensitivity:
    """A weight or an evaluator off by a small relative error must fail the
    decomposition check: the tolerance is tight enough to see it."""

    @staticmethod
    def bent(monkeypatch, relative):
        # The check reads its closed-form column from _improved_values.
        honest = pm._improved_values

        def bent(pair, xs, precision_bits):
            with mp.workprec(precision_bits):
                factor = 1 + mpf(relative)
                return [(mp.make_mpf(w) * factor)._mpf_
                        for w in honest(pair, xs, precision_bits)]

        monkeypatch.setattr(pm, "_improved_values", bent)

    @pytest.mark.parametrize("digits, p", [
        *[(28, p) for p in (F(3, 2), F(2), F(7, 2))],
        *[(24, p) for p in (F("1.01"), F(3, 2), F(2), F(7, 2), F(10))],
    ], ids=str)
    def test_relative_error_fails(self, monkeypatch, digits, p):
        # Far below double resolution E + F cannot see the bend, but the
        # reference side's own allowance must: at the check's precision, r
        # from the bent column lies outside _bracket_slack of the true r.
        pair = ExponentPair(p)
        xs = list(pm.DEFAULT_X_GRID)
        bits = pm._reference_bits(pair, min(xs))
        self.bent(monkeypatch, f"1e-{digits}")
        outside = 0
        for x, (s, r) in zip(xs, pm._reference_sides(pair, xs, bits)):
            slack = pm._bracket_slack(pair, x, abs(float(s)) + abs(float(r)),
                                      bits)
            with mp.workprec(400):
                outside += abs(r - reference_r(pair, x)) > slack
        assert outside >= 450

    @pytest.mark.parametrize("p", pm.DEFAULT_P_GRID, ids=str)
    def test_bent_weight_fails(self, monkeypatch, p):
        self.bent(monkeypatch, "1e-12")
        report = pm.check_decomposition_identity(ExponentPair(p),
                                                 pm.DEFAULT_X_GRID)
        assert report.failure_count >= 450
        assert report.worst_margin < 0

    def test_one_point_fails(self, monkeypatch):
        # A relative 1e-6 at p = 10, x = 0.001 alone: an absolute floor in
        # the allowance would hide it.
        self.bent(monkeypatch, "1e-6")
        assert not pm.check_decomposition_identity(ExponentPair(10),
                                                   [0.001]).passed

    @pytest.mark.parametrize("name", ["eval_E", "eval_F"])
    @pytest.mark.parametrize("p", [F("1.01"), F(3, 2), F(3), F(10), F(20)],
                             ids=str)
    def test_bent_evaluator_fails(self, monkeypatch, name, p):
        honest = getattr(pm, name)

        def bent(pair, x, *args):
            value, tail = honest(pair, x, *args)
            return SeriesValue(value * (1 + 1e-10), tail)

        monkeypatch.setattr(pm, name, bent)
        report = pm.check_decomposition_identity(ExponentPair(p),
                                                 pm.DEFAULT_X_GRID)
        assert report.failure_count >= 400

    def test_failures_are_capped(self, monkeypatch):
        self.bent(monkeypatch, "1e-12")
        report = pm.check_decomposition_identity(ExponentPair(F("1.01")),
                                                 pm.DEFAULT_X_GRID)
        assert report.failure_count == 460
        assert len(report.failures) == pm.FAILURES_KEPT == 20
        margins = [f["margin"] for f in report.failures]
        assert margins == sorted(margins)
        assert report.worst_margin == margins[0]
        payload = report.to_json_dict()
        assert payload["failure_count"] == 460
        assert list(payload["failures"][0]) == ["p", "x", "margin", "lhs", "rhs"]


class TestGridChecks:
    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_g_bounds_pass(self, p):
        report = pm.check_g_bounds(ExponentPair(p), SMALL_X)
        assert report.passed and report.worst_margin > 0

    def test_gpm_bound_value_p2(self):
        # (p+1)/(9 p^2) = 1/12 at p = 2
        assert (F(2) + 1) / (9 * F(2) ** 2) == F(1, 12)
        report = pm.check_lemma_gpm(ExponentPair(2), SMALL_X)
        assert report.passed
        # at x = 1/2 the left side is still below the bound with margin
        assert 0 < report.worst_margin < 1 / 12

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_gpm_pass(self, p):
        assert pm.check_lemma_gpm(ExponentPair(p), SMALL_X).passed

    def test_ak_lower_examples(self):
        a = pm.g_series(ExponentPair(2), 3)
        assert a[2] == F(1, 8) and a[2] >= F(1, 12)
        assert a[3] == F(5, 64) and a[3] >= F(1, 24)
        report = pm.check_lemma_ak_lower(ExponentPair(2))
        assert report.passed and report.worst_margin > 0

    def test_binom_upper_examples(self):
        # |binom(1.5, 3)| = 0.0625 <= 1/6
        report = pm.check_lemma_binom_upper(ExponentPair(F(5, 2)))
        assert report.passed
        value = abs(float(F(3, 2) * F(1, 2) * F(-1, 2) / 6))
        assert value == 0.0625 <= 1 / 6

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_binom_upper_pass(self, p):
        assert pm.check_lemma_binom_upper(ExponentPair(p)).passed

    def test_binom_upper_needs_p_below_40(self):
        # k runs over 2..40 and only k > p is checked: no point is left.
        with pytest.raises(ValueError, match="p < 40"):
            pm.check_lemma_binom_upper(ExponentPair(40))

    def test_g_linear_slope_p2(self):
        # (q-1)(5q-1)/(6q^2) = 9/24 = 3/8 at q = 2
        pair = ExponentPair(2)
        assert (pair.q_exact - 1) * (5 * pair.q_exact - 1) / (6 * pair.q_exact ** 2) == F(3, 8)
        report = pm.check_lemma_g_linear(pair, SMALL_X)
        assert report.passed and report.worst_margin > 0

    @pytest.mark.parametrize("p", [F("1.01"), F(3, 2), F(2), F(7, 2), F(4)])
    def test_pairwise_positivity_pass(self, p):
        report = pm.check_pairwise_positivity(ExponentPair(p), SMALL_X)
        assert report.passed

    def test_pairwise_rejects_even_window(self):
        with pytest.raises(ValueError):
            pm.check_pairwise_positivity(ExponentPair(F(5, 2)), SMALL_X)

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_ef_positive_pass(self, p):
        report = pm.check_EF_positive(ExponentPair(p), SMALL_X)
        assert report.passed and report.worst_margin > 0

    @pytest.mark.parametrize("p", [F(3, 2), F(2), F(3), F(10)])
    def test_decomposition_pass(self, p):
        report = pm.check_decomposition_identity(ExponentPair(p), SMALL_X)
        assert report.passed and report.worst_margin > 0

    def test_decomposition_value_at_half(self):
        # Both sides equal the n = 2 weight: 2 - sqrt(1/2) - sqrt(3/2).  At
        # p = 2, h(t) = 0, so F vanishes and the weight is (x/q)(x/q + E),
        # with E from g_series summed in mpf or from the double evaluators.
        pair = ExponentPair(2)
        e_hi, e_tail = e_sum(pair, 0.5)
        e, f = pm.eval_E(pair, 0.5), pm.eval_F(pair, 0.5)
        with mp.workprec(200):
            oracle = 2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)
            x_q = mpf(1) / 4                     # x/q at x = 1/2, q = 2
            lhs = eval_w_closed_x(pair, mpf(1) / 2, 200)
            assert abs(lhs - oracle) < mpf(10) ** -50
            assert (abs(x_q * (x_q + e_hi) - oracle)
                    <= x_q * e_tail + mpf(10) ** -50)
            rhs = x_q * (x_q + e.value + f.value)
            assert (abs(rhs - oracle)
                    <= x_q * (e.tail_bound + f.tail_bound) + mpf(10) ** -50)

    def test_n1_case_pass_and_example(self):
        report = pm.check_n1_case()
        assert report.passed
        # w_2(1) = 2 - sqrt(2) = 0.5858... > 1/4, so the p = 2 margin is
        # roughly 0.3358 and the grid's worst margin cannot exceed it.
        assert 0 < report.worst_margin <= (2 - 2 ** 0.5) - 0.25 + 1e-12

    def test_report_json_schema(self):
        report = pm.check_lemma_gpm(ExponentPair(2), SMALL_X[:5])
        payload = report.to_json_dict()
        assert set(payload) == {"description", "grid", "worst_margin", "pass",
                                "failures"}
        assert payload["pass"] is True and payload["failures"] == []

    def test_merge_reports(self):
        reports = [pm.check_lemma_gpm(ExponentPair(p), SMALL_X[:5])
                   for p in (F(2), F(3))]
        merged = pm.merge_reports(reports)
        assert merged.passed
        assert merged.worst_margin == min(r.worst_margin for r in reports)
        assert merged.grid["p"] == [2.0, 3.0]

    def test_merge_keeps_the_lowest_failures(self):
        # Two reports of 15 failing points each: the merge counts 30 and
        # lists the 20 of lowest margin, in ascending order.
        reports = [pm._build_report("d", {"p": [p]}, [
            (p, j / 100, -((7 * j) % 15 + p) / 1000, 0.0, 0.0)
            for j in range(1, 16)]) for p in (2.0, 3.0)]
        assert [r.failure_count for r in reports] == [15, 15]
        merged = pm.merge_reports(reports)
        assert not merged.passed and merged.failure_count == 30
        margins = [f["margin"] for f in merged.failures]
        assert margins == sorted(f["margin"] for r in reports
                                 for f in r.failures)[:20]
        assert merged.worst_margin == margins[0]
        assert merged.to_json_dict()["failure_count"] == 30


def fs08_pointwise(a: float, t: float, p: float) -> bool:
    """Pointwise inequality |a-t|^p >= (1-t)^(p-1) (|a|^p - t) for t in [0, 1]."""
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    lhs = abs(a - t) ** p
    rhs = (1 - t) ** (p - 1) * (abs(a) ** p - t) if t < 1 else 0.0
    return lhs >= rhs - 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestFS08Pointwise:
    @given(a=st.floats(min_value=-5, max_value=5,
                       allow_nan=False, allow_infinity=False),
           t=st.floats(min_value=0, max_value=1,
                       allow_nan=False, allow_infinity=False),
           p=st.floats(min_value=1.05, max_value=8,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_inequality_holds(self, a, t, p):
        assert fs08_pointwise(a, t, p)

    def test_trivial_cases(self):
        assert fs08_pointwise(0.7, 0.7, 2.5)   # a = t: rhs <= 0
        assert fs08_pointwise(1.3, 0.0, 3.0)   # t = 0: equality
        assert fs08_pointwise(-2.0, 1.0, 1.5)  # t = 1: rhs = 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            fs08_pointwise(1.0, 1.5, 2.0)
        with pytest.raises(ValueError):
            fs08_pointwise(1.0, 0.5, 1.0)


class TestAuxiliaryEstimates:
    def test_pair_sum_dominates_power_tail(self):
        # 1/(n(n+1)) > 2^-(n+1) for n >= 2: enumerate, then check the ratio
        # 2^(n+1)/(n(n+1)) grows so the estimate only improves.
        for n in range(2, 65):
            assert F(1, n * (n + 1)) > F(1, 2 ** (n + 1))
        for n in range(2, 65):
            ratio_growth = F(2 ** (n + 2), (n + 1) * (n + 2)) / F(2 ** (n + 1), n * (n + 1))
            assert ratio_growth >= 1
