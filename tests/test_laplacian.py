"""The discrete nonlinear difference operator and the supersolution identity."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from phardy.laplacian import ground_state_grid, weight_from_supersolution
from phardy.numerics import ExponentPair, required_precision
from phardy.weights import eval_w

F = Fraction


def _at(u, p, n, bits=53):
    """The transform of the values u at the one index n."""
    return weight_from_supersolution(u, ExponentPair(p), range(n, n + 1),
                                     bits)[0]


class TestSignedPower:
    """The flux sgn(t)|t|^(p-1), seen through the transform at u(n) = 1."""

    def test_zero_maps_to_zero(self):
        for p in (1.5, 2, 3, 7.25):
            assert _at([1.0, 1.0, 1.0], p, 1) == 0

    def test_negative_one_cubed(self):
        # One flux sgn(-1)|-1|^3, the other zero.
        assert _at([2.0, 1.0, 1.0], 4, 1) == -1

    def test_identity_for_p_two(self):
        # At p = 2 the transform is the second difference over u(n).
        assert float(_at([0.0, 0.5, 0.75], 2, 1)) == 0.5

    def test_odd_symmetry(self):
        for t in (0.25, 1.75, 9.0):
            assert float(_at([1 - t, 1.0, 1.0], 2.7, 1)) == \
                -float(_at([1 + t, 1.0, 1.0], 2.7, 1))


class TestApplyPLaplacian:
    @pytest.mark.parametrize("p", [2, 3, 5.5])
    def test_linear_functions_are_harmonic(self, p):
        u = [float(n) for n in range(11)]
        assert float(_at(u, p, 5)) == 0.0

    def test_ground_state_at_one_matches_weight(self):
        # (1-0) - (sqrt(2)-1) = 2 - sqrt(2), the n = 1 weight, as u(1) = 1
        bits = 120
        u = ground_state_grid(ExponentPair(2), 2, bits)
        value = _at(u, 2, 1, bits)
        with mp.workprec(bits):
            assert abs(value - (2 - mp.sqrt(2))) < mpf(2) ** -100

    def test_boundary_is_undefined(self):
        u = [float(n) for n in range(6)]
        with pytest.raises(ValueError, match="neighbors"):
            _at(u, 2, 5)
        with pytest.raises(ValueError, match="neighbors"):
            _at(u, 2, 0)

    def test_evaluation_outside_support(self):
        # A list would wrap a negative index around; the window check
        # refuses it, and an index past the end, instead.
        u = [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="neighbors"):
            _at(u, 2, 3)
        with pytest.raises(ValueError, match="neighbors"):
            _at(u, 2, -1)


class TestGroundState:
    def test_vanishes_at_zero(self):
        for p in (F(3, 2), F(2), F(10)):
            assert ground_state_grid(ExponentPair(p), 3)[0] == 0

    def test_one_at_one(self):
        assert ground_state_grid(ExponentPair(F(7, 3)), 1)[1] == 1

    def test_square_root_case(self):
        assert float(ground_state_grid(ExponentPair(2), 4)[4]) == 2.0


class TestWeightFromSupersolution:
    @pytest.mark.parametrize("p", [F(11, 10), F(2), F(7, 2), F(10)])
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_matches_closed_form(self, p, n):
        pair = ExponentPair(p)
        digits = 35
        bits = required_precision(pair, n, digits)
        u = ground_state_grid(pair, n + 1, bits)
        lhs = _at(u, p, n, bits)
        rhs = eval_w(pair, n, digits)
        assert abs(float(lhs - rhs.value)) < 10.0 ** -(digits - 5)

    def test_n2_against_oracle(self):
        # 50-digit closed-form oracle for the n = 2 weight
        with mp.workprec(200):
            oracle = 2 - mp.sqrt(mpf(1) / 2) - mp.sqrt(mpf(3) / 2)
        u = ground_state_grid(ExponentPair(2), 3, 200)
        value = _at(u, 2, 2, 200)
        assert abs(value - oracle) < mpf(10) ** -45

    def test_homogeneity(self):
        pair = ExponentPair(F(5, 2))
        bits = 120
        u = ground_state_grid(pair, 12, bits)
        with mp.workprec(bits):
            scaled = [mpf(7) / 2 * v for v in u]
        indices = range(1, 11)
        a = weight_from_supersolution(u, pair, indices, bits)
        b = weight_from_supersolution(scaled, pair, indices, bits)
        for x, y in zip(a, b):
            assert abs(x - y) < mpf(2) ** -(bits - 10)

    def test_linear_supersolution_gives_zero(self):
        u = [float(n) for n in range(11)]
        values = weight_from_supersolution(u, ExponentPair(2), range(1, 10), 64)
        assert [float(v) for v in values] == [0.0] * 9

    def test_requires_positive_value(self):
        with pytest.raises(ValueError, match="positive"):
            _at([0.0, 0.0, 1.0, 2.0], 2, 1, 64)


class TestSignStructure:
    def test_increasing_function_resolves_signs(self):
        # For strictly increasing u the operator is the difference of the
        # two one-sided increment powers.
        pair = ExponentPair(F(7, 2))
        bits = 90
        u = ground_state_grid(pair, 8, bits)
        values = weight_from_supersolution(u, pair, range(1, 8), bits)
        with mp.workprec(bits):
            pm1 = pair.p_mpf(bits) - 1
            for n, value in zip(range(1, 8), values):
                direct = ((u[n] - u[n - 1]) ** pm1
                          - (u[n + 1] - u[n]) ** pm1)
                assert abs(value * u[n] ** pm1 - direct) \
                    < mpf(2) ** -(bits - 8)


def _one_point_transform(u, pair, n, bits):
    # Reference: the transform at one index, p formed for each use.
    with mp.workprec(bits):
        p = pair.p_mpf(bits)
        left = mpf(u[n] - u[n - 1])
        right = mpf(u[n] - u[n + 1])
        lap = mpf(0)
        for t in (left, right):
            if t != 0:
                mag = abs(t) ** (mpf(p) - 1)
                lap += mag if t > 0 else -mag
        return lap / mpf(u[n]) ** (pair.p_mpf(bits) - 1)


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
            assert value == _at(u, p, n, bits)
            assert value == _one_point_transform(u, pair, n, bits)

    @pytest.mark.parametrize("p", [F(3, 2), F(5, 2), F(41, 4)], ids=str)
    @pytest.mark.parametrize("indices", [range(1, 40), range(1, 40, 2),
                                         range(3, 38, 3), range(39, 0, -1)],
                             ids=["step1", "step2", "step3", "descending"])
    def test_shared_fluxes_match_two_powers_per_index(self, p, indices):
        # Each flux is formed once and reused by the next index; on a u that
        # rises and falls, and on ranges whose indices share no flux, every
        # value is the per-index form's, bit for bit.
        pair, bits = ExponentPair(p), 100
        with mp.workprec(bits):
            u = [mpf(0)] + [1 + mpf(n % 7) / 3 - mpf(n % 4) / 5
                            for n in range(1, 40)] + [mpf(0)]
        batch = weight_from_supersolution(u, pair, indices, bits)
        assert [value._mpf_ for value in batch] == [
            _one_point_transform(u, pair, n, bits)._mpf_ for n in indices]

    def test_range_checks_every_index(self):
        pair = ExponentPair(2)
        u = ground_state_grid(pair, 5, 64)
        with pytest.raises(ValueError, match="neighbors"):
            weight_from_supersolution(u, pair, range(1, 6), 64)
        with pytest.raises(ValueError, match="positive"):
            weight_from_supersolution([0.0, 1.0, 0.0, 2.0], pair, range(1, 3),
                                      64)
