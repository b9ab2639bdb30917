"""The discrete nonlinear difference operator and the supersolution identity."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from phardy.laplacian import (
    GridFunction,
    SupportError,
    apply_p_laplacian,
    ground_state_grid,
    hardy_ground_state,
    signed_power,
    weight_from_supersolution,
)
from phardy.numerics import ExponentPair, required_precision
from phardy.weights import eval_w

F = Fraction


class TestSignedPower:
    def test_zero_maps_to_zero(self):
        for p in (1.5, 2, 3, 7.25):
            assert signed_power(0, p) == 0

    def test_negative_one_cubed(self):
        assert signed_power(-1, 3) == -1

    def test_identity_for_p_two(self):
        assert float(signed_power(0.5, 2)) == 0.5

    def test_odd_symmetry(self):
        for t in (0.25, 1.75, 9.0):
            assert float(signed_power(-t, 2.7)) == -float(signed_power(t, 2.7))


class TestApplyPLaplacian:
    @pytest.mark.parametrize("p", [2, 3, 5.5])
    def test_linear_functions_are_harmonic(self, p):
        f = GridFunction.from_callable(lambda n: float(n), 10)
        assert float(apply_p_laplacian(f, 5, p)) == 0.0

    def test_ground_state_at_one_matches_weight(self):
        # (1-0) - (sqrt(2)-1) = 2 - sqrt(2), the n = 1 weight times u(1)
        bits = 120
        u = ground_state_grid(ExponentPair(2), 2, bits)
        value = apply_p_laplacian(u, 1, 2, bits)
        with mp.workprec(bits):
            assert abs(value - (2 - mp.sqrt(2))) < mpf(2) ** -100

    def test_boundary_is_undefined(self):
        f = GridFunction.from_callable(lambda n: float(n), 5)
        with pytest.raises(SupportError):
            apply_p_laplacian(f, 5, 2)
        with pytest.raises(SupportError):
            apply_p_laplacian(f, 0, 2)

    def test_evaluation_outside_support(self):
        f = GridFunction([0.0, 1.0, 2.0])
        with pytest.raises(SupportError):
            f(3)
        with pytest.raises(SupportError):
            f(-1)


class TestGroundState:
    def test_vanishes_at_zero(self):
        for p in (F(3, 2), F(2), F(10)):
            assert hardy_ground_state(ExponentPair(p), 0) == 0

    def test_one_at_one(self):
        assert hardy_ground_state(ExponentPair(F(7, 3)), 1) == 1

    def test_square_root_case(self):
        assert float(hardy_ground_state(ExponentPair(2), 4)) == 2.0


class TestWeightFromSupersolution:
    @pytest.mark.parametrize("p", [F(11, 10), F(2), F(7, 2), F(10)])
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_matches_closed_form(self, p, n):
        pair = ExponentPair(p)
        digits = 35
        bits = required_precision(pair, n, digits)
        u = ground_state_grid(pair, n + 1, bits)
        lhs = weight_from_supersolution(u, pair, n, bits)
        rhs = eval_w(pair, n, digits)
        assert abs(float(lhs - rhs.value)) < 10.0 ** -(digits - 5)

    def test_n2_against_oracle(self):
        # 50-digit closed-form oracle for the n = 2 weight
        with mp.workprec(200):
            oracle = 2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)
        pair = ExponentPair(2)
        u = ground_state_grid(pair, 3, 200)
        value = weight_from_supersolution(u, pair, 2, 200)
        assert abs(value - oracle) < mpf(10) ** -45

    def test_homogeneity(self):
        pair = ExponentPair(F(5, 2))
        bits = 120
        u = ground_state_grid(pair, 12, bits)
        with mp.workprec(bits):
            scaled = GridFunction([mpf(7) / 2 * v for v in u.values])
            for n in (1, 5, 10):
                a = weight_from_supersolution(u, pair, n, bits)
                b = weight_from_supersolution(scaled, pair, n, bits)
                assert abs(a - b) < mpf(2) ** -(bits - 10)

    def test_linear_supersolution_gives_zero(self):
        pair = ExponentPair(2)
        f = GridFunction.from_callable(lambda n: float(n), 10)
        for n in range(1, 10):
            assert float(weight_from_supersolution(f, pair, n, 64)) == 0.0

    def test_requires_positive_value(self):
        pair = ExponentPair(2)
        f = GridFunction([0.0, 0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            weight_from_supersolution(f, pair, 1, 64)


class TestSignStructure:
    def test_increasing_function_resolves_signs(self):
        # For strictly increasing u the operator is the difference of the
        # two one-sided increment powers.
        pair = ExponentPair(F(7, 2))
        bits = 90
        u = ground_state_grid(pair, 8, bits)
        with mp.workprec(bits):
            pm1 = pair.p_mpf(bits) - 1
            for n in range(1, 8):
                direct = ((u(n) - u(n - 1)) ** pm1
                          - (u(n + 1) - u(n)) ** pm1)
                assert abs(apply_p_laplacian(u, n, pair.p_mpf(bits), bits)
                           - direct) < mpf(2) ** -(bits - 8)


def _one_point_transform(u, pair, n, bits):
    # Reference: the transform at one index, p formed for each use.
    with mp.workprec(bits):
        p = pair.p_mpf(bits)
        left = mpf(u(n) - u(n - 1))
        right = mpf(u(n) - u(n + 1))
        lap = mpf(0)
        for t in (left, right):
            if t != 0:
                mag = abs(t) ** (mpf(p) - 1)
                lap += mag if t > 0 else -mag
        return lap / mpf(u(n)) ** (pair.p_mpf(bits) - 1)


class TestBatchedTransform:
    @pytest.mark.parametrize("p", [F(101, 100), F(3, 2), F(2), F(5, 2),
                                   F(16, 5), F(27, 2)])
    def test_range_equals_per_index(self, p):
        pair = ExponentPair(p)
        bits = required_precision(pair, 60, 25)
        u = ground_state_grid(pair, 61, bits)
        indices = range(4, 61)
        batch = weight_from_supersolution(u, pair, indices, bits)
        assert len(batch) == len(indices)
        for n, value in zip(indices, batch):
            assert value == weight_from_supersolution(u, pair, n, bits)
            assert value == _one_point_transform(u, pair, n, bits)

    def test_range_checks_every_index(self):
        pair = ExponentPair(2)
        u = ground_state_grid(pair, 5, 64)
        with pytest.raises(SupportError):
            weight_from_supersolution(u, pair, range(1, 6), 64)
        f = GridFunction([0.0, 1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            weight_from_supersolution(f, pair, range(1, 3), 64)
