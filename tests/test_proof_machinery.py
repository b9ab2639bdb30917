"""Lemma bounds, the bracket decomposition, and their grid reports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from phardy import proof_machinery as pm
from phardy.numerics import ExponentPair
from phardy.series import SeriesValue

F = Fraction

SMALL_X = tuple(j / 50 for j in range(1, 26))   # 0.02 .. 0.5
P_SAMPLE = [F("1.01"), F(3, 2), F(2), F(5, 2), F(7, 2), F(10)]


def g_closed_form(pair, x, sign, bits=200):
    """Oracle: g(sign x) = (q/x) * (bracket base) - 1 from the closed form."""
    with mp.workprec(bits):
        xm = mpf(x)
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
        gs = pm.g_series(ExponentPair(2), 4)
        assert gs.a[1] == F(1, 4)
        assert gs.a[2] == F(1, 8)
        assert gs.a[3] == F(5, 64)

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_first_coefficient_formula(self, p):
        gs = pm.g_series(ExponentPair(p), 2)
        assert gs.a[1] == 1 / (2 * F(p))

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_ratio_identity_exact(self, p):
        # a_{k+1}/a_k = (q(k+1) - 1)/(q(k+2)), an exact rational identity
        pair = ExponentPair(p)
        gs = pm.g_series(pair, 30)
        q = pair.q_exact
        for k in range(1, 30):
            assert gs.a[k + 1] / gs.a[k] == (q * (k + 1) - 1) / (q * (k + 2))

    def test_coefficients_positive_and_decaying(self):
        gs = pm.g_series(ExponentPair(F("1.01")), 40)
        for k in range(1, 40):
            assert gs.a[k] > 0
            assert gs.a[k + 1] <= gs.a[k]


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
        a3 = float(pm.g_series(pair, 3).a[3])
        value, _ = pm.eval_E(pair, 1e-4)
        assert value / 1e-12 == pytest.approx(2 * (float(p) - 1) * a3, rel=1e-6)

    @pytest.mark.parametrize("bits, scale", [
        pytest.param(53, 1e-6, id="53"),
        pytest.param(113, 1e-6, id="113"),
        # Far below double resolution: only a tolerance at the working
        # precision, with no fixed relative slack, can catch it.
        pytest.param(113, 1e-13, id="113-rel1e-13"),
    ])
    def test_cross_check_runs_at_every_precision(self, monkeypatch, bits, scale):
        honest = pm._e_binom_table

        def corrupted(pair, order, precision_bits):
            table = list(honest(pair, order, precision_bits))
            table[3] *= 1 + scale
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
            context, number, _ = pm._arithmetic(precision_bits)
            with context:
                g = g_closed_form(pair, x, sign, 400) + shifts[sign] * 0.9 * tau
                return SeriesValue(number(g), number(tau))

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
        monkeypatch.setattr(pm, "eval_g",
                            lambda *args, **kwargs: SeriesValue(-0.99, 0.02))
        with pytest.raises(pm.AgreementError):
            pm.eval_F(ExponentPair(F(3, 2)), 0.3, precision_bits=bits)


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
        gs = pm.g_series(ExponentPair(2), 3)
        assert gs.a[2] == F(1, 8) and gs.a[2] >= F(1, 12)
        assert gs.a[3] == F(5, 64) and gs.a[3] >= F(1, 24)
        report = pm.check_lemma_ak_lower(ExponentPair(2), 40)
        assert report.passed and report.worst_margin > 0

    def test_binom_upper_examples(self):
        # |binom(1.5, 3)| = 0.0625 <= 1/6
        report = pm.check_lemma_binom_upper(ExponentPair(F(5, 2)), range(3, 20))
        assert report.passed
        value = abs(float(F(3, 2) * F(1, 2) * F(-1, 2) / 6))
        assert value == 0.0625 <= 1 / 6

    @pytest.mark.parametrize("p", P_SAMPLE)
    def test_binom_upper_pass(self, p):
        assert pm.check_lemma_binom_upper(ExponentPair(p)).passed

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

    def test_pairwise_rejects_even_n_max(self):
        with pytest.raises(ValueError):
            pm.check_pairwise_positivity(ExponentPair(2), SMALL_X, n_max=6)

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
            lhs = pm.eval_w_closed_x(pair, mpf(1) / 2, 200)
            e = pm.eval_E(pair, mpf(1) / 2, precision_bits=200)
            f = pm.eval_F(pair, mpf(1) / 2, precision_bits=200)
            q = pair.q_mpf(200)
            rhs = (mpf(1) / 2 / q) * (mpf(1) / 2 / q + e.value + f.value)
            assert abs(lhs - oracle) < mpf(10) ** -50
            assert abs(rhs - oracle) < float(e.tail_bound + f.tail_bound) + mpf(10) ** -40

    def test_n1_case_pass_and_example(self):
        report = pm.check_n1_case(p_grid=[F(2), F(3), F(10)])
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
        merged = pm.merge_reports("merged", reports)
        assert merged.passed
        assert merged.worst_margin == min(r.worst_margin for r in reports)
        assert merged.grid["p"] == [2.0, 3.0]


class TestFS08Pointwise:
    @given(a=st.floats(min_value=-5, max_value=5,
                       allow_nan=False, allow_infinity=False),
           t=st.floats(min_value=0, max_value=1,
                       allow_nan=False, allow_infinity=False),
           p=st.floats(min_value=1.05, max_value=8,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_inequality_holds(self, a, t, p):
        assert pm.check_fs08_pointwise(a, t, p)

    def test_trivial_cases(self):
        assert pm.check_fs08_pointwise(0.7, 0.7, 2.5)   # a = t: rhs <= 0
        assert pm.check_fs08_pointwise(1.3, 0.0, 3.0)   # t = 0: equality
        assert pm.check_fs08_pointwise(-2.0, 1.0, 1.5)  # t = 1: rhs = 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            pm.check_fs08_pointwise(1.0, 1.5, 2.0)
        with pytest.raises(ValueError):
            pm.check_fs08_pointwise(1.0, 0.5, 1.0)


class TestAuxiliaryEstimates:
    def test_pair_sum_dominates_power_tail(self):
        # 1/(n(n+1)) > 2^-(n+1) for n >= 2: enumerate, then check the ratio
        # 2^(n+1)/(n(n+1)) grows so the estimate only improves.
        for n in range(2, 65):
            assert F(1, n * (n + 1)) > F(1, 2 ** (n + 1))
        for n in range(2, 65):
            ratio_growth = F(2 ** (n + 2), (n + 1) * (n + 2)) / F(2 ** (n + 1), n * (n + 1))
            assert ratio_growth >= 1
