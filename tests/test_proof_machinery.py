"""Lemma bounds, the bracket decomposition, and their grid reports."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from phardy import proof_machinery as pm
from phardy.numerics import ExponentPair, to_mpf
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
        pair = ExponentPair(F(7, 2))
        lo, lo_tail = pm.eval_g(pair, 0.3, -1)
        hi, hi_tail = pm.eval_g(pair, 0.3, -1, precision_bits=160)
        assert abs(lo - float(hi)) <= lo_tail + float(hi_tail)


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

    @pytest.mark.parametrize("bits, scale", [
        pytest.param(53, 1e-6, id="53"),
        pytest.param(113, 1e-6, id="113"),
        # Far below double resolution: only a tolerance at the working
        # precision, with no fixed relative slack, can catch it.
        pytest.param(113, 1e-13, id="113-rel1e-13"),
        # Thousands of units of 2^-121, far below the 113-bit unit itself.
        pytest.param(113, 1e-30, id="113-rel1e-30"),
    ])
    def test_cross_check_runs_at_every_precision(self, monkeypatch, bits, scale):
        honest = pm._e_binom_table

        def corrupted(pair, order, precision_bits):
            # Doubles up to 53 bits, fixed-point integers above.
            table = list(honest(pair, order, precision_bits))
            c = table[3]
            table[3] = c + round(c * scale) if isinstance(c, int) else c * (1 + scale)
            return tuple(table)

        monkeypatch.setattr(pm, "_e_binom_table", corrupted)
        with pytest.raises(pm.AgreementError):
            pm.eval_E(ExponentPair(F(5, 2)), 0.3, precision_bits=bits)


class TestEvalF:
    def test_identically_zero_for_p2(self):
        # binom(1, n) = 0 for n >= 2, so F vanishes
        pair = ExponentPair(2)
        for x in (0.1, 0.3, 0.5):
            value, tail = pm.eval_F(pair, x)
            assert abs(value) <= tail
            assert abs(value) < 1e-15

    def test_against_decomposition_residual_oracle(self):
        # 50-digit closed-form oracle: F = w(x)/(x/q)^(p-1) - x/q - E
        bits = 200
        pair = ExponentPair(3)
        x = 0.25
        with mp.workprec(bits):
            xm = mpf(x)
            q = pair.q_mpf(bits)
            s = pair.inv_q_mpf(bits)
            w = (1 - (1 - xm) ** s) ** 2 - ((1 + xm) ** s - 1) ** 2
            e_hi = pm.eval_E(pair, xm, order=60, precision_bits=bits)
            oracle = w / (xm / q) ** 2 - xm / q - e_hi.value
        value, tail = pm.eval_F(pair, x)
        assert abs(value - float(oracle)) <= tail + float(e_hi.tail_bound)

    @pytest.mark.parametrize("bits", [53, 113])
    @pytest.mark.parametrize("x", [0.001, 0.05, 0.25, 0.5])
    @pytest.mark.parametrize("p", [F("1.01"), F("1.1"), F(3, 2), F(2), F(3),
                                   F(7, 2), F(10)])
    def test_within_tail_of_closed_form_reference(self, p, x, bits):
        pair = ExponentPair(p)
        value, tail = pm.eval_F(pair, x, precision_bits=bits)
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

        def shifted_g(pair, x, sign, order, precision_bits):
            # In eval_g's arithmetic: doubles up to 53 bits, mpf above.
            if precision_bits <= 53:
                g = g_closed_form(pair, x, sign, 400) + shifts[sign] * 0.9 * tau
                return SeriesValue(float(g), tau)
            with mp.workprec(precision_bits):
                g = g_closed_form(pair, x, sign, 400) + shifts[sign] * 0.9 * tau
                return SeriesValue(+g, mpf(tau))

        monkeypatch.setattr(pm, "eval_g", shifted_g)
        value, tail = pm.eval_F(pair, x, precision_bits=bits)
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
            mpf(-0.99), mpf(0.02)))
        with pytest.raises(pm.AgreementError, match="is not positive"):
            pm.eval_F(ExponentPair(F(3, 2)), 0.3, precision_bits=bits)


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


class TestFixedPoint:
    """Above 53 bits g and E are fixed-point sums: the returned tail must
    cover the true error against the exact truncated sum."""

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("x", FIXED_X, ids=str)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_within_tail_of_exact_sums(self, p, x, bits):
        pair = ExponentPair(p)
        a = pm.g_series(pair, pm.DEFAULT_ORDER)
        xq = Fraction(x)
        for sign in (-1, +1):
            value, tail = pm.eval_g(pair, x, sign, precision_bits=bits)
            truth = horner_exact(a, -sign * xq)    # a_k are g(-x)'s
            assert abs(exact(value) - truth) <= exact(tail)
            # The tail also covers the truncation: against the closed form.
            oracle = g_closed_form(pair, x, sign, 400)
            with mp.workprec(400):
                assert abs(value - oracle) <= tail
        odd = [c if k % 2 == 1 and k >= 3 else 0 for k, c in enumerate(a)]
        value, tail = pm.eval_E(pair, x, precision_bits=bits)
        truth = 2 * (p - 1) * horner_exact(odd, xq)
        assert abs(exact(value) - truth) <= exact(tail)

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_tail_is_a_few_units(self, p, bits):
        # At x = 2^-10 the truncation tail is far below 2^-bits, so what is
        # left is rounding: well under one unit of the working precision.
        pair = ExponentPair(p)
        x = 2.0 ** -10
        tails = [pm.eval_g(pair, x, sign, precision_bits=bits).tail_bound
                 for sign in (-1, +1)]
        tails.append(pm.eval_E(pair, x, precision_bits=bits).tail_bound)
        assert all(0 < exact(tail) < Fraction(1, 2 ** bits) for tail in tails)

    def test_tables_are_floors_of_the_exact_coefficients(self):
        pair = ExponentPair(F(7, 2))
        scale = 113 + pm.FIXED_GUARD_BITS
        a = pm.g_series(pair, 12)
        table = pm._a_table(pair, 12, 113)
        assert all(t == math.floor(c * 2 ** scale) for t, c in zip(table, a))
        # g(x)'s Horner table: highest order first, odd orders negated, and
        # a closing 0 for the multiplication by x.
        assert pm._g_table(pair, 12, 113, +1) == tuple(
            (-1) ** k * table[k] for k in range(12, 0, -1)) + (0,)


class TestDoubleAllowances:
    """Above 53 bits the allowances that only scale a tail are doubles; each
    must be at least the same formula evaluated at 400 bits."""

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("x", FIXED_X, ids=str)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_slope_and_h_rounding(self, p, x, bits):
        pair = ExponentPair(p)
        for sign in (-1, +1):
            t, tau = pm.eval_g(pair, x, sign, precision_bits=bits)
            with mp.workprec(bits):
                unit = mpf(2) ** (1 - bits)
                alpha = to_mpf(p - 1)
                reach = tau + 2 * unit * (abs(t) + tau)
                ends = (t - reach, t + reach)
                u = alpha * mp.log1p(t)
                h = mp.expm1(u) - alpha * t
            lo = math.nextafter(float(ends[0]), -math.inf)
            hi = math.nextafter(float(ends[1]), math.inf)
            slope = pm._slope_bound(float(alpha), lo, hi)
            with mp.workprec(bits):
                rounding = pm._rounding_bound(float(u), float(alpha * t),
                                              float(h), float(unit))
            with mp.workprec(400):
                exact_alpha = to_mpf(p - 1)
                exact_slope = max(
                    abs(exact_alpha * ((1 + s) ** (exact_alpha - 1) - 1))
                    for s in ends)
                exact_rounding = 8 * unit * (abs(u) * mp.exp(abs(u))
                                             + abs(alpha * t) + abs(h))
                assert slope >= exact_slope
                assert rounding >= exact_rounding

    @pytest.mark.parametrize("bits", FIXED_BITS)
    @pytest.mark.parametrize("x", FIXED_X, ids=str)
    @pytest.mark.parametrize("p", FIXED_P, ids=str)
    def test_bracket_slack(self, p, x, bits):
        pair = ExponentPair(p)
        with mp.workprec(bits):
            xm = to_mpf(x)
            lhs = eval_w_closed_x(pair, xm, bits)
            rhs = lhs * (1 + mpf(2) ** -100)
        slack = pm._bracket_slack(pair, xm, lhs, rhs, bits)
        with mp.workprec(400):
            s = to_mpf(pair.inv_q_exact)
            pm1 = to_mpf(p - 1)
            eps = mpf(2) ** (1 - bits)
            v_plus = 1 - (1 - xm) ** s
            v_minus = (1 + xm) ** s - 1
            exact_slack = 64 * eps * (abs(pm1) + 1) * (
                v_plus ** pm1 / v_plus + v_minus ** pm1 / v_minus)
            exact_slack += 64 * eps * (abs(lhs) + abs(rhs) + 1)
            assert slack >= exact_slack


# 25 points of (0, 1/2]: doubles, exact rationals and the ends.
X_SAMPLE = ([0.001, 0.5, F(1, 3), F(1, 7), 2.0 ** -10]
            + [j / 40 for j in range(1, 20)] + [F(49, 100)])
MPMATH_1_3 = mpmath.__version__.startswith("1.3.")


def f_on_mpf_objects(pair, x, bits):
    """eval_F above 53 bits as the same operations on mpf objects give it,
    with mp.log1p and mp.expm1 (the derivation's arithmetic, term by
    term)."""
    with mp.workprec(bits):
        unit = mpf(2) ** (1 - bits)
        alpha = to_mpf(pair.p_exact - 1)
        value = tail = mpf(0)
        for sign in (-1, +1):
            t, tau = pm.eval_g(pair, x, sign, pm.DEFAULT_ORDER, bits)
            reach = tau + 2 * unit * (abs(t) + tau)
            lo = math.nextafter(float(t - reach), -math.inf)
            hi = math.nextafter(float(t + reach), math.inf)
            u = alpha * mp.log1p(t)
            h = mp.expm1(u) - alpha * t
            value -= sign * h
            tail += pm._rounding_bound(float(u), float(alpha * t), float(h),
                                       float(unit))
            tail += pm._up(pm._slope_bound(float(alpha), lo, hi)
                           * pm._up(float(tau)))
        return value, tail + 4 * unit * abs(value)


class TestRawPaths:
    """Above 53 bits F and the decomposition check run on raw libmp values;
    they must give what the same operations on mpf objects give."""

    @pytest.mark.skipif(not MPMATH_1_3, reason="the raw log1p and expm1 "
                        "round as mpmath 1.3.x does")
    @pytest.mark.parametrize("bits", [64, 113, 200])
    @pytest.mark.parametrize("p", [F("1.01"), F(3, 2), F(7, 3), F(10)], ids=str)
    def test_f_as_on_mpf_objects(self, p, bits):
        pair = ExponentPair(p)
        for x in X_SAMPLE:
            with mp.workprec(bits):
                xm = to_mpf(x)
            value, tail = pm.eval_F(pair, xm, precision_bits=bits)
            assert (value, tail) == f_on_mpf_objects(pair, xm, bits)

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
        pm.check_decomposition_identity(pair, X_SAMPLE)
        assert [x for x, _ in seen] == list(X_SAMPLE)
        bits = pm.DECOMPOSITION_BITS
        for x, got in seen:
            with mp.workprec(bits):
                xm = to_mpf(x)
                q = pair.q_mpf(bits)
                lhs = eval_w_closed_x(pair, xm, bits)
                e = pm.eval_E(pair, xm, pm.DEFAULT_ORDER, bits)
                f = pm.eval_F(pair, xm, pm.DEFAULT_ORDER, bits)
                prefactor = (xm / q) ** (pair.p_mpf(bits) - 1)
                rhs = prefactor * (xm / q + e.value + f.value)
                residual = abs(lhs - rhs)
                tol = (prefactor * (e.tail_bound + f.tail_bound)
                       + pm._bracket_slack(pair, xm, lhs, rhs, bits))
                assert got == (float(tol - residual), float(residual),
                               float(tol))


class TestDecompositionSensitivity:
    """A weight off by a relative epsilon must fail the decomposition check:
    the tolerance is tight enough to see it."""

    @staticmethod
    def bent(monkeypatch, digits):
        # The check reads its closed-form column from _improved_values.
        honest = pm._improved_values

        def bent(pair, xs, precision_bits):
            with mp.workprec(precision_bits):
                factor = 1 + mpf(10) ** -digits
                return [(mp.make_mpf(w) * factor)._mpf_
                        for w in honest(pair, xs, precision_bits)]

        monkeypatch.setattr(pm, "_improved_values", bent)

    @pytest.mark.parametrize("digits, p", [
        *[(28, p) for p in (F(3, 2), F(2), F(7, 2))],
        *[(24, p) for p in (F("1.01"), F(3, 2), F(2), F(7, 2), F(10))],
    ], ids=str)
    def test_relative_error_fails(self, monkeypatch, digits, p):
        self.bent(monkeypatch, digits)
        report = pm.check_decomposition_identity(ExponentPair(p),
                                                 pm.DEFAULT_X_GRID)
        assert not report.passed
        assert report.worst_margin < 0

    def test_failures_are_capped(self, monkeypatch):
        self.bent(monkeypatch, 24)
        report = pm.check_decomposition_identity(ExponentPair(F(3, 2)),
                                                 pm.DEFAULT_X_GRID)
        assert report.failure_count == 284
        assert len(report.failures) == pm.FAILURES_KEPT == 20
        margins = [f["margin"] for f in report.failures]
        assert margins == sorted(margins)
        assert report.worst_margin == margins[0]
        payload = report.to_json_dict()
        assert payload["failure_count"] == 284
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
        # both sides equal the n = 2 weight: 2 - sqrt(1/2) - sqrt(3/2)
        with mp.workprec(200):
            oracle = 2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)
            pair = ExponentPair(2)
            lhs = eval_w_closed_x(pair, mpf(1) / 2, 200)
            e = pm.eval_E(pair, mpf(1) / 2, precision_bits=200)
            f = pm.eval_F(pair, mpf(1) / 2, precision_bits=200)
            q = pair.q_mpf(200)
            rhs = (mpf(1) / 2 / q) * (mpf(1) / 2 / q + e.value + f.value)
            assert abs(lhs - oracle) < mpf(10) ** -50
            assert abs(rhs - oracle) < float(e.tail_bound + f.tail_bound) + mpf(10) ** -40

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
