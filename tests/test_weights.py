"""Weight evaluation, closed form and correction series, against independent
high-precision oracles."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from phardy.numerics import (
    ExponentPair,
    PrecisionInfeasibleError,
    contract_bits,
    required_precision,
)
from phardy.series import expand_correction
from phardy import weights
from phardy.weights import (
    SERIES_MAX_START,
    SERIES_RADIUS,
    WeightKind,
    _series_constants,
    _series_for,
    _series_kernel,
    _series_reach,
    compare_weights,
    eval_w,
    eval_w1_closed,
    eval_w_classical,
    eval_w_closed_x,
    weight_values_float,
)

F = Fraction


def oracle_bits(digits=60):
    return int(digits * 3.33) + 16


class TestSpecialValues:
    def test_w2_at_one(self):
        with mp.workprec(oracle_bits()):
            oracle = 2 - mp.sqrt(2)
        value = eval_w(ExponentPair(2), 1, 30)
        assert abs(value.value - oracle) < mpf(10) ** -30

    def test_w3_at_one(self):
        with mp.workprec(oracle_bits()):
            oracle = 1 - (mp.cbrt(4) - 1) ** 2
        value = eval_w(ExponentPair(3), 1, 30)
        assert abs(value.value - oracle) < mpf(10) ** -30

    def test_w4_at_one_closed(self):
        with mp.workprec(oracle_bits()):
            oracle = 1 - (mpf(2) ** mpf("0.75") - 1) ** 3
        value = eval_w1_closed(ExponentPair(4), 30)
        assert abs(value.value - oracle) < mpf(10) ** -30

    def test_w2_at_two(self):
        # direct closed-form evaluation at 50-digit oracle precision
        with mp.workprec(oracle_bits())        :
            oracle = 2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)
        value = eval_w(ExponentPair(2), 2, 30)
        assert abs(value.value - oracle) < mpf(10) ** -30

    @pytest.mark.parametrize("p", [F(3, 2), F(2), F(7, 3), F(10)])
    def test_n1_routes_to_closed_form(self, p):
        pair = ExponentPair(p)
        assert eval_w(pair, 1, 35).value == eval_w1_closed(pair, 35).value


class TestClassicalWeight:
    @pytest.mark.parametrize("p,n,expected", [
        (2, 1, F(1, 4)),
        (2, 2, F(1, 16)),
        (3, 1, F(8, 27)),
    ])
    def test_exact_values(self, p, n, expected):
        value = eval_w_classical(ExponentPair(p), n, 30)
        with mp.workprec(value.precision_bits):
            target = mpf(expected.numerator) / expected.denominator
            assert abs(value.value - target) < mpf(10) ** -28

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            eval_w_classical(ExponentPair(2), 0, 30)

    def test_precision_infeasible(self):
        with pytest.raises(PrecisionInfeasibleError):
            eval_w(ExponentPair(2), 5, 10 ** 7)


class TestCompareWeights:
    def test_ratio_at_two(self):
        # quotient of the two oracle evaluations: w_2(2)/(1/16) - 1
        with mp.workprec(oracle_bits()):
            oracle = (2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)) * 16 - 1
        table = compare_weights(ExponentPair(2), 2, 2, 30)
        row = table.rows[0]
        assert abs(row.ratio_minus_one.value - oracle) < mpf(10) ** -25
        assert float(row.ratio_minus_one.value) == pytest.approx(0.0903735587, rel=1e-9)

    def test_all_rows_positive_and_sorted(self):
        table = compare_weights(ExponentPair(F(5, 2)), 1, 50, 25)
        assert table.all_verified_positive()
        ns = [row.n for row in table.rows]
        assert ns == sorted(ns) and len(set(ns)) == len(ns)
        assert all(float(row.w_improved.value) > 0 for row in table.rows)

    @pytest.mark.parametrize("p", [F(2), F(7, 2), F(10)])
    def test_large_n_asymptotics(self, p):
        # the relative excess is (3/8 - 1/(8p))/n^2 + O(n^-4):
        # n^2 * (a - lead/n^2) stays bounded as n grows (checked via n^4 scale)
        pair = ExponentPair(p)
        lead = F(3, 8) - 1 / (8 * p)
        for n in (100, 1000, 10000):
            table = compare_weights(pair, n, n, 30)
            a = table.rows[0].ratio_minus_one.value
            with mp.workprec(table.precision_bits):
                residual = n * n * (n * n * a
                                    - mpf(lead.numerator) / lead.denominator)
            assert abs(residual) < 1

    def test_csv_shape_and_digits(self):
        table = compare_weights(ExponentPair(2), 1, 3, 20)
        lines = table.to_csv().splitlines()
        assert lines[0] == "n,w_improved,w_classical,ratio_minus_one"
        assert len(lines) == 4
        first_value = lines[1].split(",")[1]
        mantissa = first_value.replace("0.", "").replace(".", "").lstrip("0")
        assert len(first_value.split(".")[1]) >= 19

    def test_json_round_trip(self):
        import json
        table = compare_weights(ExponentPair(3), 1, 2, 15)
        rows = json.loads(table.to_json())
        assert rows[0]["n"] == 1 and rows[1]["n"] == 2
        assert rows[0]["verified_positive"] is True


class TestSeriesConsistency:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_truncated_series_vs_closed_form(self, p):
        # agreement within the first neglected term's magnitude, n >= 2
        from phardy.series import expand_w_integer_p
        order = 12
        e = expand_w_integer_p(p, order + 2)
        next_coeff = e.c[order + 2]
        truncated = expand_w_integer_p(p, order)
        pair = ExponentPair(p)
        for n in (2, 3, 5, 10):
            w = eval_w(pair, n, 30)
            x = F(1, n)
            value = x ** p * sum(ck * x ** k
                                 for k, ck in enumerate(truncated.c))
            neglected = float(next_coeff) * float(n) ** -(p + order + 2)
            assert abs(float(w.value) - float(value)) <= 2 * neglected


class TestFloatTable:
    def test_matches_high_precision(self):
        pair = ExponentPair(2)
        values = weight_values_float(pair, WeightKind.IMPROVED, 5)
        assert values[0] == pytest.approx(2 - 2 ** 0.5, abs=1e-15)
        classical = weight_values_float(pair, WeightKind.CLASSICAL, 4)
        assert classical[3] == pytest.approx(1 / 64, abs=1e-18)


# -- The table path against one-point evaluation, bit for bit ---------------

KERNEL_P = [F(101, 100), F(3, 2), F(2), F(5, 2), F(16, 5), F(27, 2)]


def _one_point_improved(pair, n, bits):
    # Reference: the closed form at one point, in its own precision context
    # with p formed for that point alone.
    with mp.workprec(bits):
        xm = mpf(1) / n
        p = pair.p_mpf(bits)
        pm1 = p - 1
        s = pm1 / p
        return (1 - (1 - xm) ** s) ** pm1 - ((1 + xm) ** s - 1) ** pm1


def _one_point_classical(pair, n, bits):
    with mp.workprec(bits):
        p = pair.p_mpf(bits)
        return ((p - 1) / p) ** p / mpf(n) ** p


class TestTableKernel:
    @pytest.mark.parametrize("p", KERNEL_P)
    def test_compare_weights_rows_equal_one_point(self, p):
        # A sparse table takes the direct pows: its rows equal the one-point
        # closed form bit for bit.  A dense one takes the sieve passes, too
        # cheap for the series kernel to repay at this size (by direct pows
        # the rows 7..300 would take it, except at p = 2): every cell is
        # within 2^-B relative of a 4x-precision reference,
        # B = contract_bits(D), at no fewer bits than the budget.
        pair = ExponentPair(p)
        digits = 20
        kernel = _series_for(pair, range(7, 301), digits)
        assert (kernel is None) == (p == 2)
        assert _series_for(pair, range(7, 301), digits, dense=True) is None
        dense = compare_weights(pair, 7, 300, digits)
        assert [row.n for row in dense.rows] == list(range(7, 301))
        assert dense.precision_bits >= (required_precision(pair, 300, digits)
                                        + math.ceil(2 * math.log2(300)))
        _assert_cells_meet_contract(dense)
        sparse = compare_weights(pair, 200, 300, digits)
        bits = sparse.precision_bits
        with mp.workprec(bits):
            threshold = mpf(10) ** -18
        for row in sparse.rows:
            w = _one_point_improved(pair, row.n, bits)
            wc = _one_point_classical(pair, row.n, bits)
            assert row.w_improved.value == w
            assert w == eval_w_closed_x(pair, F(1, row.n), bits)
            assert row.w_classical.value == wc
            with mp.workprec(bits):
                excess = (w - wc) / wc
            assert row.ratio_minus_one.value == excess
            assert row.verified_positive == bool(excess > threshold)

    @pytest.mark.parametrize("p", KERNEL_P)
    def test_ranges_take_each_index_at_its_own_budget(self, p):
        pair = ExponentPair(p)
        indices = range(3, 41)
        budgets = {required_precision(pair, n, 18) for n in indices}
        assert len(budgets) > 1          # the range crosses budgets
        improved = eval_w(pair, indices, 18)
        classical = eval_w_classical(pair, indices, 18)
        for n, w, wc in zip(indices, improved, classical, strict=True):
            bits = required_precision(pair, n, 18)
            assert w.precision_bits == wc.precision_bits == bits
            assert w.value == _one_point_improved(pair, n, bits)
            assert w.value == eval_w(pair, n, 18).value
            assert wc.value == _one_point_classical(pair, n, bits)
            assert wc.value == eval_w_classical(pair, n, 18).value

    @pytest.mark.parametrize("p", KERNEL_P)
    def test_float_table_equals_one_point(self, p):
        pair = ExponentPair(p)
        improved = weight_values_float(pair, WeightKind.IMPROVED, 40)
        classical = weight_values_float(pair, WeightKind.CLASSICAL, 40)
        assert improved == [float(eval_w(pair, n, 20)) for n in range(1, 41)]
        assert classical == [float(eval_w_classical(pair, n, 20))
                             for n in range(1, 41)]

    def test_range_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            eval_w(ExponentPair(2), range(0, 3), 15)


def _reference(p: Fraction, n: int, bits: int):
    """(w, w_classical, w/w_classical - 1) at n, at bits of precision.

    Independent of the kernel: p - 1 is rounded once from the exact
    rational, and expm1/log1p form both brackets and their difference,
    a^(p-1) - b^(p-1) = b^(p-1) expm1((p-1) log(a/b)), without subtracting
    nearby values; only log(a/b) and the ratio lose about log2(n) and
    2*log2(n) bits, which the caller's bits cover.
    """
    with mp.workprec(bits):
        p_m = mpf(p.numerator) / p.denominator
        pm1 = mpf(p.numerator - p.denominator) / p.denominator
        s = pm1 / p_m
        x = mpf(1) / n
        a = mpf(1) if n == 1 else -mp.expm1(s * mp.log1p(-x))
        b = mp.expm1(s * mp.log1p(x))
        w = b ** pm1 * mp.expm1(pm1 * mp.log(a / b))
        wc = s ** p_m / mpf(n) ** p_m
        return w, wc, w / wc - 1


def _assert_cells_meet_contract(table, step=1, scale=4):
    """Every cell of every step-th row within 2^-B relative of the
    reference at scale times the table's precision, B = contract_bits(D),
    tagged with that precision, and the row's flag as its excess states."""
    bits, digits = table.precision_bits, table.target_digits
    contract = contract_bits(digits)
    with mp.workprec(bits):
        threshold = mpf(10) ** (2 - digits)
    for row in table.rows[::step]:
        refs = _reference(table.pair.p_exact, row.n, scale * bits)
        cells = (row.w_improved, row.w_classical, row.ratio_minus_one)
        with mp.workprec(scale * bits):
            for cell, ref in zip(cells, refs):
                assert cell.precision_bits == bits
                assert abs(cell.value - ref) <= mp.ldexp(abs(ref), -contract), \
                    (row.n, cell.value, ref)
        assert row.verified_positive == bool(
            row.ratio_minus_one.value > threshold)


NEAR_ONE = st.integers(1, 19).map(lambda e: 1 + F(1, 10 ** e))
EXPONENTS = st.one_of(
    NEAR_ONE,
    st.fractions(min_value=1, max_value=20, max_denominator=1000)
    .filter(lambda p: p > 1))


class TestDigitContract:
    """Every value printed to D digits is correct to D digits: checked
    against a reference at four times a precision that covers every
    cancellation, over p in (1, 20], n <= 10^12 and D in {5, 15, 30}."""

    @settings(max_examples=80, deadline=None)
    @given(p=EXPONENTS,
           n=st.one_of(st.integers(1, 1000), st.integers(1, 10 ** 12)),
           digits=st.sampled_from([5, 15, 30]))
    @example(p=F(1001, 1000), n=10 ** 9, digits=5)
    @example(p=F(101, 100), n=10 ** 4, digits=15)
    @example(p=1 + F(1, 10 ** 19), n=3, digits=15)
    def test_values_against_reference(self, p, n, digits):
        pair = ExponentPair(p)
        ref_bits = 4 * (math.ceil(digits * math.log2(10))
                        + math.ceil(2 * math.log2(n))
                        + math.ceil(-math.log2(p - 1)) + 32)
        n_min = max(1, n - 2)
        table = compare_weights(pair, n_min, n, digits)
        single = eval_w(pair, n, digits)
        with mp.workprec(ref_bits):
            tol = mpf(10) ** -digits

            def close(value, ref):
                return abs(value - ref) <= tol * abs(ref)

            w, _, _ = _reference(p, n, ref_bits)
            assert close(single.value, w), (single.value, w)
            for row in table.rows:
                refs = _reference(p, row.n, ref_bits)
                values = (row.w_improved.value, row.w_classical.value,
                          row.ratio_minus_one.value)
                for name, value, ref in zip(
                        ("w_improved", "w_classical", "ratio_minus_one"),
                        values, refs):
                    assert close(value, ref), (row.n, name, value, ref)

    @pytest.mark.parametrize("p", [F(1001, 1000), F(3, 2), F(2), F(27, 2),
                                   1 + F(1, 10 ** 19)])
    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 12])
    @pytest.mark.parametrize("digits", [15, 45])
    def test_series_kernel_against_reference(self, p, n, digits):
        # The kernel alone, at large n: a(1/n) within 2^-B relative.
        pair = ExponentPair(p)
        contract = contract_bits(digits)
        kernel = _series_kernel(pair, contract)
        assert kernel.start <= SERIES_MAX_START < n
        bits = required_precision(pair, n, digits)
        value = mp.make_mpf(kernel.correction(n, bits))
        ref_bits = 4 * (bits + math.ceil(2 * math.log2(n)))
        _, _, ref = _reference(p, n, ref_bits)
        with mp.workprec(ref_bits):
            assert abs(value - ref) <= mp.ldexp(ref, -contract), (value, ref)

    @pytest.mark.parametrize("p", [F(1001, 1000), F(16, 5), F(20)])
    def test_series_rows_of_a_table_at_large_n(self, p):
        pair = ExponentPair(p)
        n_min, n_max, digits = 10 ** 12, 10 ** 12 + 200, 15
        assert _series_for(pair, range(n_min, n_max + 1), digits) is not None
        table = compare_weights(pair, n_min, n_max, digits)
        ranged = eval_w(pair, range(n_min, n_max + 1), digits)
        ref_bits = 4 * table.precision_bits
        with mp.workprec(ref_bits):
            tol = mpf(10) ** -digits
            for row, single in zip(table.rows[::10], ranged[::10]):
                refs = _reference(p, row.n, ref_bits)
                for value, ref in zip((row.w_improved.value,
                                       row.w_classical.value,
                                       row.ratio_minus_one.value,
                                       single.value),
                                      refs + (refs[0],)):
                    assert abs(value - ref) <= tol * abs(ref), (row.n, value)


class TestDenseTables:
    """A dense table, rows at least half of 1..n_max, takes the sieve passes
    at the least precision at which every cell's derived bound meets the
    digit contract; checked here against the reference, over p near 1, in
    the middle, large and integer, n_max <= 300 and D from 15 to 80."""

    @settings(max_examples=20, deadline=None)
    @given(p=st.one_of(
               NEAR_ONE,
               st.fractions(F(11, 10), 5, max_denominator=100),
               st.fractions(5, 20, max_denominator=100),
               st.integers(2, 20).map(F)),
           n_max=st.integers(1, 300), lead=st.integers(0, 150),
           digits=st.integers(15, 80))
    def test_cells_meet_the_contract(self, p, n_max, lead, digits):
        n_min = 1 + min(lead, n_max // 2)
        pair = ExponentPair(p)
        table = compare_weights(pair, n_min, n_max, digits)
        assert table.precision_bits >= (required_precision(pair, n_max, digits)
                                        + math.ceil(2 * math.log2(n_max)))
        _assert_cells_meet_contract(table)

    def test_deep_table_bounds_are_positive_and_meet_the_contract(self):
        # At 2,989 bits eta = 2^(1-bits) is below the least double; the
        # bounds, in units of eta, stay positive and finite.
        pair, digits, ns = ExponentPair(F(49, 10)), 879, range(1, 40)
        table = compare_weights(pair, 1, 39, digits)
        bits, contract = table.precision_bits, contract_bits(digits)
        assert bits > 1075
        rels = [rel for _, rel in weights._improved_pass(pair, ns, bits)]
        rels.append(weights._classical_pass(pair, ns, bits)[0][1])
        assert all(0 < rel < math.inf for rel in rels)
        assert _series_for(pair, ns, digits) is None
        excess = [(row.n, float(row.ratio_minus_one.value))
                  for row in table.rows]
        assert weights._bits_for(pair, ns, 39, bits, contract, excess) == bits
        assert weights._bits_for(pair, ns, 39, contract + 1, contract,
                                 excess) > contract + 1
        # The reference's cancellations are under 100 bits of the 2,989
        # more that it carries at twice the precision.
        _assert_cells_meet_contract(table, scale=2)

    @pytest.mark.parametrize("p", [F(101, 100), F(16, 5), F(27, 2)])
    def test_series_rows_of_a_dense_table(self, p):
        # From the kernel's start on, w = wc (1 + a) with wc from the sieve
        # pass and a from the kernel.
        pair = ExponentPair(p)
        kernel = _series_for(pair, range(1, 1001), 15, dense=True)
        assert kernel is not None
        table = compare_weights(pair, 1, 1000, 15)
        _assert_cells_meet_contract(table, 7)
        _assert_cells_meet_contract(
            dataclasses.replace(table, rows=table.rows[kernel.start - 1:]), 50)

    def test_sparse_range_takes_the_direct_pows(self, monkeypatch):
        pows, closed = [], []
        pow_of, closed_values = weights.mpf_pow, weights._improved_values

        def counted_pow(*args):
            pows.append(args)
            return pow_of(*args)

        def counted_closed(pair, xs, bits):
            closed.extend(xs)
            return closed_values(pair, xs, bits)

        monkeypatch.setattr(weights, "mpf_pow", counted_pow)
        monkeypatch.setattr(weights, "_improved_values", counted_closed)
        weights._shared_powers.cache_clear()
        pair = ExponentPair(F(7, 3))
        compare_weights(pair, 100, 160, 20)           # 61 rows of 1..160
        assert not pows and len(closed) == 61
        del closed[:]
        compare_weights(pair, 1, 160, 20)
        # One flux pow per row, one pow per prime for each of n^s, n^(s
        # beta) and n^-p, and s^p; the direct route takes four per row.
        assert not closed and 160 < len(pows) < 2 * 160


TAIL_P = [1 + F(1, 1000), F(1137, 1000), F(3, 2), F(2), F(5, 2), F(16, 5),
          F(27, 2), F(20)]


class TestSeriesTailBound:
    """The proven tail of the correction series after order K,
    C t^(K+2)/(1 - t^2) with t = x/r, against the true tail a(x) minus the
    exact partial sum, a(x) from the closed form at 400 bits or more."""

    @pytest.fixture(scope="class")
    def coefficients(self):
        return {p: expand_correction(ExponentPair(p), 48).coeffs
                for p in TAIL_P}

    @pytest.mark.parametrize("p", TAIL_P)
    @pytest.mark.parametrize("n", [8, 16, 64, 10 ** 4])
    @pytest.mark.parametrize("order", [8, 20, 48])
    def test_bound_covers_true_tail(self, coefficients, p, n, order):
        bound, _ = _series_constants(ExponentPair(p))
        x = F(1, n)
        t = x / SERIES_RADIUS
        tail_bound = bound * t ** (order + 2) / (1 - t * t)
        # The tail is about x^(order+2): resolve it 64 bits deep, over the
        # cancellations of the reference.
        bits = max(400, 64 + math.ceil((order + 4) * math.log2(n))
                   + math.ceil(-math.log2(p - 1)))
        partial = sum(c * x ** k
                      for k, c in enumerate(coefficients[p][:order + 1]))
        _, _, a = _reference(p, n, bits)
        with mp.workprec(bits):
            tail = a - mpf(partial.numerator) / partial.denominator
            assert abs(tail) <= mpf(tail_bound.numerator) / \
                tail_bound.denominator, (tail, tail_bound)

    @pytest.mark.parametrize("p", TAIL_P + [1 + F(1, 10 ** 30)])
    def test_enclosure_is_an_upper_end(self, p):
        # q^p M(r)/r at 300 bits, from log1p/expm1 so that nothing cancels.
        pair = ExponentPair(p)
        bound, c2 = _series_constants(pair)
        assert c2 == F(3, 8) - 1 / (8 * p)
        with mp.workprec(300):
            def exact(v):
                return mpf(v.numerator) / v.denominator
            r, s, beta = (exact(SERIES_RADIUS), exact(pair.inv_q_exact),
                          exact(p - 1))
            u = -mp.expm1(s * mp.log1p(-r)) / (s * r) - 1
            m = 2 * s ** beta * mp.expm1(-beta * mp.log1p(-u))
            value = exact(pair.q_exact) ** exact(p) * m / r
            upper = exact(bound)
            assert value <= upper <= value * (1 + mp.ldexp(1, -50))


class TestSeriesChoice:
    """Which tables take the series: a property of the request."""

    @pytest.mark.parametrize("p, n_min, n_max, digits", [
        ("1.001", 10 ** 12, 10 ** 12, 15),      # a one-row edge job
        ("2", 1, 100, 20),                      # a Rayleigh table
        ("3/2", 1, 100, 20),
        ("5/2", 1, 40, 300),                    # a deep table
        ("5/2", 1, 20000, 80),                  # no order <= 48 reaches it
        ("2", 1, 400, 15),                      # p = 2: cheap closed form
    ])
    def test_closed_form_tables(self, p, n_min, n_max, digits):
        assert _series_for(ExponentPair(F(p)), range(n_min, n_max + 1),
                           digits) is None

    def test_sparse_rows_are_counted_not_spanned(self):
        # A few rows spread over 1..10^4, as a rounding test leaves them,
        # cannot repay the coefficients; the whole range can.
        pair = ExponentPair(F("1.137"))
        assert _series_for(pair, list(range(1, 10 ** 4 + 1, 500)), 15) is None
        assert _series_for(pair, range(1, 10 ** 4 + 1), 15) is not None

    @pytest.mark.parametrize("p, n_max", [("1.137", 10 ** 4), ("2", 10 ** 4),
                                          ("5/2", 400), ("3", 400)])
    def test_large_table_takes_the_series(self, p, n_max):
        kernel = _series_for(ExponentPair(F(p)), range(1, n_max + 1), 15)
        assert kernel is not None and kernel.start <= SERIES_MAX_START

    @pytest.mark.parametrize("p, n_max, digits, series", [
        ("19/4", 608, 41, False),       # a mid table: the passes are cheaper
        ("27/2", 4000, 15, True),       # a wide table: the series repays
        ("3", 4000, 15, True),          # integer p: the same 40 K rows
    ])
    def test_dense_tables_weigh_the_sieve_passes(self, p, n_max, digits,
                                                  series):
        # The same rows by direct pows take the series in each case.
        pair, ns = ExponentPair(F(p)), range(1, n_max + 1)
        assert _series_for(pair, ns, digits) is not None
        assert (_series_for(pair, ns, digits, dense=True) is not None) == series

    def test_contract_out_of_reach_keeps_the_closed_form(self):
        # Every row from the closed form: the ground-state pass in a dense
        # table, the direct pows in a sparse one.
        pair = ExponentPair(F(5, 2))
        assert _series_reach(pair, contract_bits(80)) is None
        assert _series_for(pair, range(1, 401), 80) is None
        _assert_cells_meet_contract(compare_weights(pair, 1, 400, 80), 57)
        sparse = compare_weights(pair, 300, 400, 80)
        for row in sparse.rows[::57]:
            assert row.w_improved.value == _one_point_improved(
                pair, row.n, sparse.precision_bits)

    def test_unenclosed_majorant_keeps_the_closed_form(self, monkeypatch):
        # Were the enclosure of M(r) to fail, tables keep the closed form.
        pair = ExponentPair(F(1, 10 ** 40) + 1)
        monkeypatch.setattr(weights, "_series_constants", lambda pair: None)
        monkeypatch.setattr(weights, "_series_reach",
                            weights._series_reach.__wrapped__)
        assert _series_for(pair, range(1, 10 ** 4 + 1), 15) is None
        table = compare_weights(pair, 400, 402, 15)
        assert table.rows[0].w_improved.value == _one_point_improved(
            pair, 400, table.precision_bits)

    def test_enclosure_resolves_p_near_one(self):
        # The enclosure's precision grows with log2(q): at p - 1 = 10^-300
        # the bound is still within a hair of its p -> 1 limit.
        near, nearer = (_series_constants(ExponentPair(1 + F(1, 10 ** e)))[0]
                        for e in (30, 300))
        assert abs(near - nearer) < F(1, 10 ** 12)
        kernel = _series_for(ExponentPair(1 + F(1, 10 ** 300)),
                             range(1, 10 ** 4 + 1), 15)
        assert kernel is not None
