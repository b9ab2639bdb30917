"""Hardy inequality on test functions, gradients, and the minimizer."""

import math
import warnings
from collections import Counter, OrderedDict
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from phardy import verify, weights
from phardy.numerics import (ExponentPair, PrecisionInfeasibleError,
                             required_precision)
from phardy.verify import (
    CompactFunction,
    _p_laplacian,
    _trial_sums,
    _weight_array,
    check_hardy,
    hardy_lhs,
    hardy_rhs,
    minimize_rayleigh,
    random_compact,
    rayleigh_gradient,
    rayleigh_quotient,
    run_hardy_trials,
)
from phardy.weights import WeightKind, weight_values_float

F = Fraction
SQRT2 = math.sqrt(2)


def indicator(n_max=1):
    return CompactFunction(np.ones(n_max))


class TestSums:
    def test_lhs_indicator(self):
        phi = indicator()
        assert hardy_lhs(phi, ExponentPair(2)) == 2.0
        assert hardy_lhs(phi, ExponentPair(3)) == 2.0

    def test_lhs_two_ones(self):
        phi = CompactFunction([1.0, 1.0])
        assert hardy_lhs(phi, ExponentPair(2)) == 2.0

    def test_rhs_indicator_improved(self):
        value = hardy_rhs(indicator(), ExponentPair(2), WeightKind.IMPROVED)
        assert value == pytest.approx(2 - SQRT2, abs=1e-14)

    def test_rhs_indicator_classical(self):
        value = hardy_rhs(indicator(), ExponentPair(2), WeightKind.CLASSICAL)
        assert value == pytest.approx(0.25, abs=1e-16)

    def test_rhs_zero_function(self):
        phi = CompactFunction(np.zeros(5))
        assert hardy_rhs(phi, ExponentPair(2), WeightKind.IMPROVED) == 0.0

    def test_lhs_requires_p_above_one(self):
        # p - 1 = 10^-30 exceeds 0 but not a unit of a double near 1.
        pair = ExponentPair("1.000000000000000000000000000001")
        with pytest.raises(PrecisionInfeasibleError, match=str(pair.p_exact)):
            hardy_lhs(indicator(), pair)


class TestCheckHardy:
    def test_indicator_slack_is_sqrt2(self):
        report = check_hardy(indicator(), ExponentPair(2), WeightKind.IMPROVED)
        assert report.passed
        assert report.slack == pytest.approx(SQRT2, abs=1e-14)

    def test_zero_function_passes(self):
        report = check_hardy(CompactFunction(np.zeros(3)), ExponentPair(2),
                             WeightKind.CLASSICAL)
        assert report.passed and report.slack == 0.0

    @pytest.mark.parametrize("p", [F(6, 5), F(2), F(7, 2), F(6)])
    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "sparse"])
    def test_random_functions_pass_both_kinds(self, p, dist):
        pair = ExponentPair(p)
        for seed in range(25):
            phi = random_compact(seed, 40, dist)
            imp = check_hardy(phi, pair, WeightKind.IMPROVED)
            cls = check_hardy(phi, pair, WeightKind.CLASSICAL)
            assert imp.passed and cls.passed
            assert imp.slack <= cls.slack + 1e-12 * max(1.0, abs(cls.slack))


def _reference_weight(pair: ExponentPair, kind: WeightKind, n: int,
                      bits: int) -> mpf:
    """The closed form at n, with p rounded once from the exact rational."""
    p = pair.p_exact
    with mp.workprec(bits):
        p_m = mpf(p.numerator) / p.denominator
        pm1 = mpf(p.numerator - p.denominator) / p.denominator
        s = pm1 / p_m
        if kind is WeightKind.CLASSICAL:
            return s ** p_m / mpf(n) ** p_m
        x = mpf(1) / n
        return ((1 - (1 - x) ** s) ** pm1) - (((1 + x) ** s - 1) ** pm1)


FLOAT_PASS_P = (F(1001, 1000), F(1014, 1000), F(3, 2), F(2), F(7, 3),
                F(39, 2), F(73, 4))


def _float_pass(pair: ExponentPair, kind: WeightKind, ns: range) -> list:
    """(value, rel) of each row from the cheap pass of the float table, rel
    relative (the pass gives it in units of 2^(1-bits))."""
    fast = (weights._improved_pass if kind is WeightKind.IMPROVED
            else weights._classical_pass)
    bits = weights._float_pass_bits(pair, ns[-1])
    return [(value, math.ldexp(rel, 1 - bits))
            for value, rel in fast(pair, ns, bits)]


class TestWeightTable:
    """One float table per (p, kind), extended by the rows a request lacks."""

    KINDS = (WeightKind.IMPROVED, WeightKind.CLASSICAL)
    EXPONENTS = (F(1001, 1000), F(5, 2), F(73, 4))

    @pytest.fixture
    def rows_computed(self, monkeypatch):
        """An empty table cache, and a count of the rows computed per
        (p, kind, n)."""
        monkeypatch.setattr(verify, "_WEIGHT_TABLES", OrderedDict())
        counts = Counter()

        def counted(pair, kind, n_max, first=1):
            counts.update((pair, kind, n) for n in range(first, n_max + 1))
            return weight_values_float(pair, kind, n_max, first=first)

        monkeypatch.setattr(verify, "weight_values_float", counted)
        return counts

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("p", EXPONENTS, ids=str)
    def test_grown_in_steps_equals_one_table(self, rows_computed, p, kind):
        pair = ExponentPair(p)
        for n in (10, 130, 60, 200):
            arr = _weight_array(pair, kind, n)
            assert arr.shape == (n,)
        whole = np.array(weight_values_float(pair, kind, 200))
        assert arr.tobytes() == whole.tobytes()
        assert rows_computed == Counter(
            {(pair, kind, n): 1 for n in range(1, 201)})

    @pytest.mark.parametrize("p", EXPONENTS, ids=str)
    def test_closed_form_rows_extend_a_series_table(self, rows_computed, p):
        # 1..300 in one range takes the correction series from n0 <= 64 on;
        # 1..150 and 151..300 are too short to repay it and keep the
        # closed form.  Both routes give the same doubles.
        pair = ExponentPair(p)
        _weight_array(pair, WeightKind.IMPROVED, 150)
        arr = _weight_array(pair, WeightKind.IMPROVED, 300)
        whole = np.array(weight_values_float(pair, WeightKind.IMPROVED, 300))
        assert arr.tobytes() == whole.tobytes()
        assert max(rows_computed.values()) == 1

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("p", EXPONENTS, ids=str)
    def test_rows_are_correctly_rounded(self, rows_computed, p, kind):
        pair = ExponentPair(p)
        _weight_array(pair, kind, 60)
        arr = _weight_array(pair, kind, 200)
        for n in range(1, 201):
            bits = 4 * required_precision(pair, n, 20)
            ref = _reference_weight(pair, kind, n, bits)
            with mp.workprec(bits):
                assert arr[n - 1] == float(ref), n

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("p", FLOAT_PASS_P, ids=str)
    def test_decided_rows_are_correctly_rounded(self, p, kind):
        pair, ns = ExponentPair(p), range(1, 2001)
        rows = _float_pass(pair, kind, ns)
        decided = 0
        for n, (value, rel) in zip(ns, rows):
            row = weights._rounded_double(value, rel)
            if row is not None:
                decided += 1
                bits = 4 * required_precision(pair, n, 20)
                with mp.workprec(bits):
                    assert row == float(_reference_weight(pair, kind, n,
                                                          bits)), n
        assert decided >= 0.99 * len(ns)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("p", FLOAT_PASS_P, ids=str)
    def test_error_bound_holds_at_200_bits(self, p, kind):
        # The derived bound against a 200-bit closed form: the largest
        # fraction of it used stays below 1 (at most 0.083 on these rows,
        # at p = 7/3, classical, n = 1248).
        pair, ns = ExponentPair(p), range(1, 2001)
        used = 0
        with mp.workprec(200):
            for n, (value, rel) in zip(ns, _float_pass(pair, kind, ns)):
                value = mp.make_mpf(value)
                error = abs(value - _reference_weight(pair, kind, n, 200))
                used = max(used, float(error / value) / rel)
        assert 0 < used < 1

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_undecided_rows_take_the_precise_route(self, monkeypatch, kind):
        # With an infinite bound no row is decided; every row then comes
        # from the digit-contract route, with the same doubles.
        pair = ExponentPair(F(7, 3))
        table = weight_values_float(pair, kind, 300)
        routed = []
        precise = weights._at_own_precision

        def counted(pair, kind, ns, digits):
            routed.extend(ns)
            return precise(pair, kind, ns, digits)

        monkeypatch.setattr(weights, "_at_own_precision", counted)
        monkeypatch.setattr(weights, "_PAD", math.inf)
        assert weight_values_float(pair, kind, 300) == table
        assert routed == list(range(1, 301))

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("p", [500, 1000])
    def test_rows_beyond_the_normal_range_are_unchanged(self, p, kind):
        # Weights below the normal range (n^-p underflows from n = 5 at
        # p = 500, n = 3 at p = 1000) are left to the digit-contract route,
        # whose doubles they keep.
        pair = ExponentPair(p)
        table = weight_values_float(pair, kind, 12)
        assert min(table) < 2.0 ** -1022
        assert table == [float(value) for value in weights._at_own_precision(
            pair, kind, range(1, 13), 20)]

    def test_arrays_are_read_only(self, rows_computed):
        pair = ExponentPair(F(5, 2))
        short = _weight_array(pair, WeightKind.IMPROVED, 20)
        grown = _weight_array(pair, WeightKind.IMPROVED, 40)
        again = _weight_array(pair, WeightKind.IMPROVED, 30)
        for arr in (short, grown, again):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert verify._WEIGHT_TABLES[(pair, WeightKind.IMPROVED)].size == 40

    def test_cache_keeps_the_most_recently_used_tables(self, rows_computed,
                                                       monkeypatch):
        monkeypatch.setattr(verify, "PAIR_CACHE_SIZE", 2)
        pairs = [ExponentPair(p) for p in (2, 3, 4)]
        for pair in pairs[:2]:
            _weight_array(pair, WeightKind.CLASSICAL, 5)
        _weight_array(pairs[0], WeightKind.CLASSICAL, 3)    # used again
        _weight_array(pairs[2], WeightKind.CLASSICAL, 5)
        assert list(verify._WEIGHT_TABLES) == [
            (pairs[0], WeightKind.CLASSICAL), (pairs[2], WeightKind.CLASSICAL)]
        _weight_array(pairs[1], WeightKind.CLASSICAL, 5)
        assert rows_computed[(pairs[1], WeightKind.CLASSICAL, 1)] == 2
        assert rows_computed[(pairs[0], WeightKind.CLASSICAL, 1)] == 1


class TestRandomCompact:
    def test_deterministic(self):
        a = random_compact(123, 50, "gaussian")
        b = random_compact(123, 50, "gaussian")
        assert np.array_equal(a.values, b.values)

    def test_distribution_changes_stream(self):
        a = random_compact(123, 50, "uniform")
        b = random_compact(123, 50, "gaussian")
        assert not np.array_equal(a.values, b.values)

    def test_sparse_zero_density_forces_one_entry(self):
        phi = random_compact(5, 30, "sparse", density=0.0)
        assert np.count_nonzero(phi.values) == 1

    def test_minimal_support(self):
        phi = random_compact(0, 1, "uniform")
        assert phi.support_bound == 1

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            random_compact(0, 5, "cauchy")


class TestRayleighQuotient:
    def test_indicator_improved(self):
        value = rayleigh_quotient(indicator(), ExponentPair(2),
                                  WeightKind.IMPROVED)
        assert value == pytest.approx(2 + SQRT2, abs=1e-12)

    def test_indicator_classical(self):
        value = rayleigh_quotient(indicator(), ExponentPair(2),
                                  WeightKind.CLASSICAL)
        assert value == pytest.approx(8.0, abs=1e-12)

    @given(c=st.floats(min_value=0.01, max_value=100,
                       allow_nan=False, allow_infinity=False),
           negate=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance(self, c, negate):
        pair = ExponentPair(F(5, 2))
        phi = random_compact(11, 30, "gaussian")
        scaled = CompactFunction(phi.values * (-c if negate else c))
        a = rayleigh_quotient(phi, pair, WeightKind.IMPROVED)
        b = rayleigh_quotient(scaled, pair, WeightKind.IMPROVED)
        assert b == pytest.approx(a, rel=1e-10)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(CompactFunction(np.zeros(4)), ExponentPair(2),
                              WeightKind.IMPROVED)


class TestRayleighGradient:
    @pytest.mark.parametrize("p,seed", [(F(13, 10), 0), (F(2), 1),
                                        (F(7, 2), 2), (F(11, 2), 3)])
    def test_matches_central_differences(self, p, seed):
        pair = ExponentPair(p)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(15)
        # keep the finite-difference oracle well-conditioned
        values[np.abs(values) < 0.05] = 0.3
        phi = CompactFunction(values)
        grad = rayleigh_gradient(phi, pair, WeightKind.IMPROVED)
        h = 1e-6
        fd = np.zeros(15)
        for j in range(15):
            up = values.copy()
            up[j] += h
            down = values.copy()
            down[j] -= h
            fd[j] = (rayleigh_quotient(CompactFunction(up), pair,
                                       WeightKind.IMPROVED)
                     - rayleigh_quotient(CompactFunction(down), pair,
                                         WeightKind.IMPROVED)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert float(np.max(np.abs(grad - fd))) / scale < 1e-5

    def test_orthogonal_to_scaling_direction(self):
        # Euler's relation for the 0-homogeneous quotient
        pair = ExponentPair(F(8, 3))
        phi = random_compact(4, 25, "gaussian")
        grad = rayleigh_gradient(phi, pair, WeightKind.CLASSICAL)
        qscale = rayleigh_quotient(phi, pair, WeightKind.CLASSICAL)
        assert abs(float(np.dot(grad, phi.values))) < 1e-10 * max(1.0, qscale)

    def test_p2_matrix_oracle(self):
        # direct linear-algebra oracle at small N for the quadratic case
        pair = ExponentPair(2)
        N = 8
        rng = np.random.default_rng(9)
        values = rng.standard_normal(N)
        phi = CompactFunction(values)
        L = 2 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
        w = np.asarray(_weight_array(pair, WeightKind.IMPROVED, N))
        a = values @ L @ values
        b = values @ (w * values)
        oracle = 2 * (L @ values - (a / b) * (w * values)) / b
        grad = rayleigh_gradient(phi, pair, WeightKind.IMPROVED)
        assert np.allclose(grad, oracle, rtol=1e-12, atol=1e-12)


class TestMinimizeRayleigh:
    def test_two_site_case_matches_angle_scan(self):
        # exhaustive 1-d scan over the projective angle parameter
        pair = ExponentPair(2)
        best = np.inf
        for theta in np.linspace(0.0, np.pi, 20001)[:-1]:
            values = np.array([np.cos(theta), np.sin(theta)])
            if np.allclose(values, 0):
                continue
            try:
                q = rayleigh_quotient(CompactFunction(values), pair,
                                      WeightKind.CLASSICAL)
            except ValueError:
                continue
            best = min(best, q)
        result = minimize_rayleigh(pair, WeightKind.CLASSICAL, 2,
                                   max_iters=2000)
        assert result.quotient == pytest.approx(best, rel=1e-6)

    @pytest.mark.parametrize("kind", [WeightKind.CLASSICAL, WeightKind.IMPROVED])
    def test_never_below_one(self, kind):
        for p in (F(3, 2), F(2), F(3)):
            result = minimize_rayleigh(ExponentPair(p), kind, 30,
                                       max_iters=3000)
            assert result.quotient >= 1 - 1e-9
            assert np.any(result.minimizer.values != 0)

    @pytest.mark.parametrize("kind", [WeightKind.IMPROVED,
                                      WeightKind.CLASSICAL],
                             ids=lambda k: k.value)
    def test_start_beyond_doubles_is_refused(self, kind):
        # n^(1 - 1/p) to the power 1000 overflows; refused, not NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionInfeasibleError, match="p = 1000:"):
                minimize_rayleigh(ExponentPair(1000), kind, 10)

    def test_rejects_tiny_support(self):
        with pytest.raises(ValueError):
            minimize_rayleigh(ExponentPair(2), WeightKind.CLASSICAL, 1)

    def test_p2_eigenvalue_oracle_small(self):
        import scipy.linalg as sla
        pair = ExponentPair(2)
        N = 12
        L = 2 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
        w = np.asarray(_weight_array(pair, WeightKind.CLASSICAL, N))
        target = sla.eigh(L, np.diag(w), eigvals_only=True,
                          subset_by_index=[0, 0])[0]
        result = minimize_rayleigh(pair, WeightKind.CLASSICAL, N,
                                   max_iters=4000)
        assert result.quotient == pytest.approx(target, rel=1e-7)


@lru_cache(maxsize=None)
def _bracket(p, kind, N=30):
    return minimize_rayleigh(ExponentPair(p), kind, N)


def _exact_p_laplacian(padded, pf):
    """Delta_p at 200 bits from the same doubles."""
    with mp.workprec(200):
        q = mpf(pf) - 1
        u = [mpf(float(v)) for v in padded]
        flux = [mp.sign(b - a) * abs(b - a) ** q for a, b in zip(u, u[1:])]
        return [flux[i] - flux[i + 1] for i in range(len(flux) - 1)]


class TestCertificate:
    """minimize_rayleigh's bracket: lower_bound <= lambda_N <= quotient."""

    @pytest.mark.parametrize("kind", [WeightKind.IMPROVED,
                                      WeightKind.CLASSICAL])
    @pytest.mark.parametrize("N", [2, 10, 100, 1000])
    def test_p2_brackets_tridiagonal_eigenvalue(self, N, kind):
        from scipy.linalg import eigh_tridiagonal
        pair = ExponentPair(2)
        w = np.asarray(_weight_array(pair, kind, N))
        root = np.sqrt(w)
        # lambda_1 of W^(-1/2) tridiag(-1, 2, -1) W^(-1/2); the default
        # bisection tolerance eps * ||T||_1 is about 3e-9 at N = 1000, so
        # bisect to full precision instead.
        lam = eigh_tridiagonal(2 / w, -1 / (root[:-1] * root[1:]),
                               eigvals_only=True, select="i",
                               select_range=(0, 0), tol=1e-300)[0]
        result = minimize_rayleigh(pair, kind, N)
        slack = 1e-12 * lam     # rounding of the reference itself
        assert result.lower_bound <= lam + slack
        assert lam - slack <= result.quotient
        assert result.quotient - lam <= 1e-9 * lam
        assert result.gap == result.quotient - result.lower_bound
        assert result.converged

    @given(p=st.sampled_from([F(3, 2), F(3)]),
           kind=st.sampled_from([WeightKind.IMPROVED, WeightKind.CLASSICAL]),
           values=st.lists(st.floats(-1.0, 1.0), min_size=30, max_size=30)
           .filter(lambda v: max(map(abs, v)) > 1e-3))
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_below_any_quotient(self, p, kind, values):
        result = _bracket(p, kind)
        phi = CompactFunction(values)
        assert result.lower_bound <= rayleigh_quotient(phi, ExponentPair(p),
                                                       kind)

    @given(p=st.sampled_from([F(3, 2), F(3)]),
           kind=st.sampled_from([WeightKind.IMPROVED, WeightKind.CLASSICAL]),
           scale=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]),
           noise=st.lists(st.floats(-1.0, 1.0), min_size=30, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_below_quotient_near_minimizer(self, p, kind, scale,
                                                        noise):
        result = _bracket(p, kind)
        values = result.minimizer.values * (1 + scale * np.array(noise))
        phi = CompactFunction(values)
        assert result.lower_bound <= rayleigh_quotient(phi, ExponentPair(p),
                                                       kind)

    @pytest.mark.parametrize("p", [F(11, 10), F(3, 2), F(2), F(3), F(7)])
    def test_rounding_bound_covers_p_laplacian(self, p):
        # at a converged minimizer (near-cancelling fluxes) and on
        # sign-changing random arrays
        pf = ExponentPair(p).p_float()
        arrays = [_bracket(p, WeightKind.IMPROVED, 100).minimizer.padded()]
        for seed in range(5):
            values = random_compact(seed, 40, "gaussian").values
            arrays.append(np.concatenate(([0.0], values, [0.0])))
        for padded in arrays:
            lap, err = _p_laplacian(padded, pf)
            exact = _exact_p_laplacian(padded, pf)
            for value, bound, ref in zip(lap, err, exact):
                assert abs(mpf(float(value)) - ref) <= bound

    def test_one_iteration_is_not_converged(self):
        result = minimize_rayleigh(ExponentPair(3), WeightKind.IMPROVED, 100,
                                   max_iters=1)
        assert result.iterations == 1
        assert not result.converged
        assert result.lower_bound < result.quotient


# Quotients of the earlier Barzilai-Borwein descent at max_iters=2000, which
# stopped there unconverged.
CAPPED_DESCENT = {
    (F(11, 10), WeightKind.IMPROVED, 10): 5.250413282840688,
    (F(11, 10), WeightKind.IMPROVED, 100): 3.707849224798174,
    (F(11, 10), WeightKind.CLASSICAL, 10): 10.13153174893013,
    (F(11, 10), WeightKind.CLASSICAL, 100): 6.478228885090202,
    (F(7), WeightKind.IMPROVED, 10): 1.2248736551455244,
    (F(7), WeightKind.IMPROVED, 100): 1.2138580564750587,
    (F(7), WeightKind.CLASSICAL, 10): 2.0317707437524284,
    (F(7), WeightKind.CLASSICAL, 100): 1.9366980300003587,
}


@pytest.mark.parametrize("p,kind,N", list(CAPPED_DESCENT))
def test_not_above_capped_descent(p, kind, N):
    result = minimize_rayleigh(ExponentPair(p), kind, N, max_iters=2000)
    assert math.isfinite(result.quotient)
    assert math.isfinite(result.lower_bound)
    assert result.quotient <= CAPPED_DESCENT[(p, kind, N)] * (1 + 1e-12)
    assert result.lower_bound <= result.quotient


def _trial_functions(trials, support, seed, dists):
    """Each trial's test function, drawn as a batch draws it: the sizes and
    then the function seeds as arrays from one default_rng(seed)."""
    batch = np.random.default_rng(seed)
    sizes = batch.integers(1, support + 1, size=trials)
    phi_seeds = batch.integers(2 ** 31, size=trials)
    for t, (n, phi_seed) in enumerate(zip(sizes.tolist(), phi_seeds.tolist())):
        yield random_compact(phi_seed, n, dists[t % len(dists)])


class TestKeyedStreams:
    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "sparse"])
    def test_state_set_on_a_reused_generator_draws_as_a_fresh_one(self,
                                                                  dist):
        # A state set on a generator that has already drawn (part of a
        # buffered word included) starts the keyed stream afresh.
        generator = np.random.Generator(np.random.Philox(key=0))
        generator.random(3)
        generator.integers(2 ** 31, dtype=np.uint32)
        code = verify._DIST_CODES[dist]
        for seed, n in [(0, 1), (2 ** 31 - 1, 37), (12345, 10 ** 6)]:
            fresh = np.random.Generator(
                np.random.Philox(key=seed | code << 32 | n << 64))
            reused = verify._keyed(generator, seed, n, code)
            assert reused is generator
            size = min(n, 500)
            assert np.array_equal(verify._draw_values(reused, size, dist),
                                  verify._draw_values(fresh, size, dist))
            assert reused.random() == fresh.random()

    def test_random_compact_is_each_trial_across_blocks(self, monkeypatch):
        # Batches summed over several blocks still draw trial t's function
        # as random_compact does on its own.
        monkeypatch.setattr(verify, "TRIAL_BLOCK_VALUES", 130)
        pair, trials, support, seed = ExponentPair(F(7, 3)), 40, 60, 2 ** 31 + 8
        dists = ("uniform", "gaussian", "sparse")
        lhs, rhs = _trial_sums(pair, trials, support, seed, dists)
        functions = list(_trial_functions(trials, support, 8, dists))
        assert sum(phi.support_bound for phi in functions) > 4 * 130
        for t, phi in enumerate(functions):
            assert lhs[t] == hardy_lhs(phi, pair), t
            for kind in (WeightKind.IMPROVED, WeightKind.CLASSICAL):
                assert rhs[kind][t] == hardy_rhs(phi, pair, kind), t


class TestTrials:
    def test_deterministic_summary(self):
        pair = ExponentPair(2)
        a = run_hardy_trials(pair, 60, 30, seed=42)
        b = run_hardy_trials(pair, 60, 30, seed=42)
        assert a == b
        assert a["all_pass"] and a["improved_slack_below_classical"]
        assert a["min_slack_improved"] >= 0

    @pytest.mark.parametrize("p", [F(1003, 1000), F(7, 3), F(73, 4)],
                             ids=str)
    def test_shared_sums_equal_the_public_ones(self, p):
        # A batch lays all its test functions out in one array and sums
        # each trial over its own slices; its sums are hardy_lhs's and
        # hardy_rhs's, bit for bit, and its slacks those of check_hardy.
        pair = ExponentPair(p)
        trials, support, seed = 45, 120, 3
        dists = ("uniform", "gaussian", "sparse")
        slack = {WeightKind.IMPROVED: [], WeightKind.CLASSICAL: []}
        lhs, rhs = _trial_sums(pair, trials, support, seed, dists)
        assert lhs.shape == (trials,)
        for t, phi in enumerate(_trial_functions(trials, support, seed,
                                                 dists)):
            assert lhs[t] == hardy_lhs(phi, pair)
            for kind, values in slack.items():
                assert rhs[kind].shape == (trials,)
                assert rhs[kind][t] == hardy_rhs(phi, pair, kind)
                values.append(check_hardy(phi, pair, kind).slack)
        summary = run_hardy_trials(pair, trials, support, seed)
        assert summary["min_slack_improved"] == min(slack[WeightKind.IMPROVED])
        assert summary["min_slack_classical"] == min(
            slack[WeightKind.CLASSICAL])

    @given(p=st.sampled_from([F(1001, 1000), F(7, 3), F(73, 4)]),
           support=st.integers(1, 200), trials=st.integers(1, 30),
           seed=st.integers(0, 2 ** 31 - 1),
           dists=st.sampled_from([("sparse",), ("gaussian", "sparse"),
                                  ("uniform", "gaussian", "sparse")]))
    @settings(max_examples=30, deadline=None)
    def test_batch_sums_equal_the_public_ones(self, p, support, trials,
                                              seed, dists):
        pair = ExponentPair(p)
        lhs, rhs = _trial_sums(pair, trials, support, seed, dists)
        functions = _trial_functions(trials, support, seed, dists)
        for t, phi in enumerate(functions):
            assert lhs[t] == hardy_lhs(phi, pair), t
            for kind in (WeightKind.IMPROVED, WeightKind.CLASSICAL):
                assert rhs[kind][t] == hardy_rhs(phi, pair, kind), t

    def test_batch_sums_over_several_blocks(self, monkeypatch):
        # A batch larger than a block is summed in blocks, to the same sums.
        pair = ExponentPair(F(5, 2))
        whole = _trial_sums(pair, 40, 60, 9, ("gaussian", "sparse"))
        monkeypatch.setattr(verify, "TRIAL_BLOCK_VALUES", 130)
        blocks = _trial_sums(pair, 40, 60, 9, ("gaussian", "sparse"))
        assert blocks[0].tobytes() == whole[0].tobytes()
        for kind, sums in whole[1].items():
            assert blocks[1][kind].tobytes() == sums.tobytes()

    @pytest.mark.parametrize("dists", [(), ("uniform", "cauchy")],
                             ids=["empty", "unknown"])
    def test_distributions_are_checked_before_any_table(self, monkeypatch,
                                                        dists):
        tables = OrderedDict()
        monkeypatch.setattr(verify, "_WEIGHT_TABLES", tables)
        with pytest.raises(ValueError, match="distribution"):
            run_hardy_trials(ExponentPair(F(7, 3)), 10, 20, 1, dists)
        assert not tables

    @pytest.mark.parametrize("p", [700, 1000])
    def test_sums_beyond_doubles_are_refused(self, p):
        # |phi(n) - phi(n-1)|^p overflows, and 0 * inf would read as a
        # failed trial; the batch refuses instead, without numpy warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionInfeasibleError, match=f"p = {p}:"):
                run_hardy_trials(ExponentPair(p), 30, 20, seed=1)

    def test_large_p_within_doubles_passes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_hardy_trials(ExponentPair(500), 30, 20, seed=1)
        assert summary["all_pass"] and summary["improved_slack_below_classical"]

    def test_first_trial_beyond_doubles_is_named(self):
        # Uniform values on [-1, 1] keep |phi(n) - phi(n-1)|^700 finite, so
        # trial 0 passes; a later gaussian trial overflows, and the error
        # names its sums.
        pair, trials, support, seed = ExponentPair(700), 12, 20, 4
        dists = ("uniform", "gaussian")
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [(hardy_lhs(phi, pair),
                     hardy_rhs(phi, pair, WeightKind.IMPROVED))
                    for phi in _trial_functions(trials, support, seed, dists)]
        first = next(t for t, pair_sums in enumerate(sums)
                     if not np.all(np.isfinite(pair_sums)))
        assert first > 0
        lhs, rhs = sums[first]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionInfeasibleError) as info:
                run_hardy_trials(pair, trials, support, seed, dists)
        assert f"(energy {lhs}, weighted p-norm {rhs})" in str(info.value)

    def test_check_hardy_refuses_sums_beyond_doubles(self):
        phi = CompactFunction([8.0, -8.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionInfeasibleError, match="p = 1000:"):
                check_hardy(phi, ExponentPair(1000), WeightKind.CLASSICAL)

    def test_csv_export_of_minimizer(self):
        phi = CompactFunction([0.5, -0.25])
        text = phi.to_csv()
        assert text.splitlines()[0] == "n,phi_n"
        assert text.splitlines()[1].startswith("1,0.5")
