"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Universal statements are checked on
the finite grids and sample counts stated here; every printed line names
its grid.  Nothing here needs more than a laptop.

Criterion 9a asks each of the 18 minimizations for a certified bracket: a
lower bound min_n Delta_p u(n) / (w(n) u(n)^(p-1)) >= 1 - 1e-9 (the
ground-state representation) within 1e-6 relative of the minimum, with the
run reporting convergence at its tol of 1e-9.
Criterion 9b's classical window at support size 1000 is [1, lambda_1 + 5e-4],
where lambda_1 = 1.4448151 is the exact minimum of the p = 2 classical
quotient on {1..1000}: the smallest generalized eigenvalue of the Dirichlet
difference operator against 1/(4n^2), computed in the test from that closed
form.  A fixed window [1, 1.2] is unattainable there, because the
finite-section minimum exceeds the Hardy constant 1 by a gap of order
1/log^2 N, which is still about 0.44 at N = 1000.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from phardy import proof_machinery as pm
from phardy.cli import main as cli_main
from phardy.laplacian import ground_state_grid, weight_from_supersolution
from phardy.numerics import ExponentPair, required_precision
from phardy.series import expand_correction, expand_w_integer_p
from phardy.verify import (
    CompactFunction,
    minimize_rayleigh,
    rayleigh_gradient,
    rayleigh_quotient,
    run_hardy_trials,
)
from phardy.weights import WeightKind, compare_weights, eval_w, eval_w1_closed

F = Fraction

P_GRID = [F("1.05"), F("1.1"), F("1.25"), F("1.5"), F(2), F("2.5"),
          F(3), F(4), F(6), F(10)]


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def lemma_suite():
    return pm.run_default_suite()


@pytest.fixture(scope="module")
def rayleigh_results():
    results = {}
    for p in (F(2), F(3), F("1.5")):
        pair = ExponentPair(p)
        for kind in (WeightKind.CLASSICAL, WeightKind.IMPROVED):
            for n_support in (10, 100, 1000):
                results[(p, kind, n_support)] = minimize_rayleigh(
                    pair, kind, n_support, max_iters=30000, tol=1e-9)
    return results


class TestCriterion1ExactCoefficients:
    def test_cli_tables(self, capsys):
        expected = {
            ("2", "6"): ["1/4", "0", "5/64", "0", "21/512", "0", "429/16384"],
            ("3", "4"): ["8/27", "0", "8/81", "0", "112/2187"],
            ("4", "4"): ["81/256", "0", "891/8192", "0", "58653/1048576"],
        }
        start = time.perf_counter()
        results = {}
        for (p, order), want in expected.items():
            code = cli_main(["series", "--p", p, "--order", order])
            out = capsys.readouterr().out
            results[(p, order)] = (code, json.loads(out)["coefficients"], want)
        elapsed = time.perf_counter() - start
        ok = elapsed < 1.0 and all(
            code == 0 and got == want for code, got, want in results.values())
        with capsys.disabled():
            report("1", ok, f"exact rational tables for p=2,3,4 via the CLI "
                            f"(zero tolerance), {elapsed:.3f}s")
        for code, got, want in results.values():
            assert code == 0
            assert got == want
        assert elapsed < 1.0


class TestCriterion2CorrectionSeries:
    def test_exact_formulas(self, capsys):
        ok = True
        for p in (F(2), F(3), F(4), F(5), F(7, 2)):
            series = expand_correction(ExponentPair(p), 4)
            want2 = (3 * p - 1) / (8 * p)
            want4 = (215 * p ** 3 - 38 * p ** 2 - 31 * p + 6) / (1152 * p ** 3)
            ok = ok and series[2] == want2 and series[4] == want4
        spot = (expand_correction(ExponentPair(2), 2)[2] == F(5, 16)
                and expand_correction(ExponentPair(3), 4)[4] == F(14, 81)
                and expand_correction(ExponentPair(4), 2)[2] == F(11, 32))
        ok = ok and spot
        with capsys.disabled():
            report("2", ok, "correction coefficients match the closed "
                            "formulas exactly on p in {2,3,4,5,7/2}")
        assert ok

    def test_spot_values_frozen(self):
        assert expand_correction(ExponentPair(2), 2)[2] == F(5, 16)
        assert expand_correction(ExponentPair(3), 4)[4] == F(14, 81)
        assert expand_correction(ExponentPair(4), 2)[2] == F(11, 32)


class TestCriterion3SpecialValues:
    def test_forty_digit_match(self, capsys):
        with mp.workprec(400):
            oracles = [
                (eval_w(ExponentPair(2), 1, 40).value, 2 - mp.sqrt(2)),
                (eval_w1_closed(ExponentPair(3), 40).value,
                 1 - (mp.cbrt(4) - 1) ** 2),
                (eval_w1_closed(ExponentPair(4), 40).value,
                 1 - (mpf(8) ** mpf("0.25") - 1) ** 3),
            ]
            worst = max(abs(a - b) for a, b in oracles)
            ok = bool(worst < mpf(10) ** -40)
        with capsys.disabled():
            report("3", ok, f"n=1 special values match independent 400-bit "
                            f"closed forms; worst |diff| = {float(worst):.2e} "
                            f"< 1e-40")
        assert ok


class TestCriterion4SupersolutionIdentity:
    def test_identity_grid(self, capsys):
        start = time.perf_counter()
        worst = 0.0
        for p in P_GRID:
            pair = ExponentPair(p)
            bits = required_precision(pair, 1000, 40)
            u = ground_state_grid(pair, 1001, bits)
            ns = range(1, 1001)
            lhs = weight_from_supersolution(u, pair, ns, bits)
            rhs = eval_w(pair, ns, 40)
            with mp.workprec(bits + 30):
                for left, right in zip(lhs, rhs):
                    worst = max(worst, abs(float(left - right.value)))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-28 and elapsed < 30
        with capsys.disabled():
            report("4", ok, f"|lap(u)/u^(p-1) - w| <= {worst:.2e} < 1e-28 on "
                            f"p-grid x n=1..1000 at 40-digit working "
                            f"precision, {elapsed:.1f}s < 30s")
        assert worst < 1e-28
        assert elapsed < 30


class TestCriterion5StrictImprovement:
    def test_ratio_positive_to_ten_thousand(self, capsys):
        ok = True
        for p in P_GRID:
            table = compare_weights(ExponentPair(p), 1, 10 ** 4, 15)
            ok = ok and table.all_verified_positive()
        with capsys.disabled():
            report("5", ok, "ratio_minus_one > 0 at 15-digit precision on "
                            "the p-grid x n=1..10^4")
        assert ok


class TestCriterion6CoefficientPositivity:
    def test_integer_p_window(self, capsys):
        ok = True
        for p in range(2, 13):
            expansion = expand_w_integer_p(p, 40)
            for k, ck in enumerate(expansion.c):
                if k % 2 == 1:
                    ok = ok and ck == 0
                else:
                    ok = ok and ck > 0 and ck.denominator > 0
        with capsys.disabled():
            report("6", ok, "c_k > 0 (even k) and c_k = 0 (odd k) exactly, "
                            "p = 2..12, k <= 40")
        assert ok


class TestCriterion7LemmaSuite:
    def test_default_grids(self, capsys, lemma_suite):
        failures = {name: rep for name, rep in lemma_suite.items()
                    if not rep.passed or not rep.worst_margin > 0}
        ok = not failures
        grid_note = ("p in {1.01,1.1,1.25,1.5..10 by 1/2}, "
                     "x = 0.001..0.5 by 0.001; n=1 check on p in (1,20]")
        with capsys.disabled():
            margins = {name: f"{rep.worst_margin:.2e}"
                       for name, rep in lemma_suite.items()}
            report("7", ok, f"all lemma grid checks pass on {grid_note}; "
                            f"worst margins {margins}")
        assert ok, f"failing lemma checks: {sorted(failures)}"


class TestCriterion8HardyPropertyTest:
    def test_ten_thousand_trials(self, capsys):
        start = time.perf_counter()
        trials_per_p = 10 ** 4 // len(P_GRID)
        all_pass = True
        comparisons = True
        worst_slack = float("inf")
        for p in P_GRID:
            summary = run_hardy_trials(ExponentPair(p), trials_per_p,
                                       support=200, seed=20240809)
            all_pass = all_pass and summary["all_pass"]
            comparisons = comparisons and summary["improved_slack_below_classical"]
            worst_slack = min(worst_slack, summary["min_slack_improved"],
                              summary["min_slack_classical"])
        elapsed = time.perf_counter() - start
        ok = all_pass and comparisons and elapsed < 60
        with capsys.disabled():
            report("8", ok, f"{trials_per_p * len(P_GRID)} seeded trials "
                            f"(N <= 200, 3 distributions, 10-point p-grid): "
                            f"min slack {worst_slack:.3e} >= 0, improved <= "
                            f"classical everywhere, {elapsed:.1f}s < 60s")
        assert all_pass
        assert comparisons
        assert elapsed < 60


class TestCriterion9VariationalFloor:
    def test_9a_floor_and_monotonicity(self, capsys, rayleigh_results):
        results = rayleigh_results.values()
        floor_ok = all(r.quotient >= 1 - 1e-9 for r in results)
        certified = all(r.lower_bound >= 1 - 1e-9
                        and r.gap <= 1e-6 * r.quotient and r.converged
                        for r in results)
        worst_gap = max(r.gap / r.quotient for r in results)
        classical_p2 = [rayleigh_results[(F(2), WeightKind.CLASSICAL, n)]
                        .quotient for n in (10, 100, 1000)]
        monotone = (classical_p2[0] >= classical_p2[1] - 1e-9
                    and classical_p2[1] >= classical_p2[2] - 1e-9)
        ok = floor_ok and certified and monotone
        with capsys.disabled():
            report("9a", ok, f"all 18 (p, kind, N) minima >= 1 - 1e-9, each "
                             f"converged with a certified lower bound "
                             f">= 1 - 1e-9 and gap <= 1e-6 * minimum (worst "
                             f"{worst_gap:.1e}), and classical p=2 "
                             f"non-increasing in N: "
                             f"{[f'{q:.6f}' for q in classical_p2]}")
        assert floor_ok
        assert certified
        assert monotone

    def test_9b_classical_window_at_n1000(self, capsys, rayleigh_results):
        """Classical p=2 at N=1000 lies in [1, lambda_1 + 5e-4].

        The exact minimum of this quotient over support {1..1000} is the
        smallest generalized eigenvalue lambda_1 of the Dirichlet difference
        operator against the classical weight 1/(4n^2).  The weight is built
        here from that closed form, not from the package, so a fault in the
        package's weight table cannot move the reference with the value.
        The window is bounded below by the Hardy constant 1 and is tight:
        the minimizer must also agree with lambda_1 to 5e-4.  A fixed upper
        end of 1.2 would be unattainable, since the finite-section minimum
        exceeds 1 by a gap of order 1/log^2 N (lambda_1 = 1.4448151 here).
        """
        import scipy.linalg as sla
        value = rayleigh_results[(F(2), WeightKind.CLASSICAL, 1000)].quotient
        n_support = 1000
        lap = (2 * np.eye(n_support) - np.eye(n_support, k=1)
               - np.eye(n_support, k=-1))
        n = np.arange(1, n_support + 1, dtype=float)
        w = 1.0 / (4.0 * n ** 2)
        exact = sla.eigh(lap, np.diag(w), eigvals_only=True,
                         subset_by_index=[0, 0])[0]
        upper = exact + 5e-4
        pinned = abs(exact - 1.4448151) < 1e-6
        in_window = 1.0 <= value <= upper
        agrees = abs(value - exact) < 5e-4
        ok = pinned and in_window and agrees
        with capsys.disabled():
            report("9b", ok, f"classical p=2, N=1000 minimum = {value:.7f}; "
                             f"exact eigenvalue lambda_1 = {exact:.7f}; "
                             f"window [1, lambda_1 + 5e-4] = [1, {upper:.7f}]"
                             f"; |minimum - lambda_1| = "
                             f"{abs(value - exact):.1e} (required < 5e-4)")
        assert pinned, "closed-form reference eigenvalue moved"
        assert in_window, "minimum outside [1, lambda_1 + 5e-4]"
        assert agrees, "minimizer strayed from the exact eigenvalue"


class TestCriterion10GradientCorrectness:
    def test_hundred_configurations(self, capsys):
        rng = np.random.default_rng(20240809)
        kept = 0
        worst = 0.0
        guard = 0
        while kept < 100:
            guard += 1
            assert guard < 1000, "conditioning guard loop ran away"
            pf = float(rng.uniform(1.2, 6.0))
            pair = ExponentPair(F(str(round(pf, 3))))
            n_support = int(rng.integers(5, 30))
            values = rng.standard_normal(n_support)
            padded = np.concatenate(([0.0], values, [0.0]))
            # keep the central-difference oracle well-conditioned: the
            # p-power terms lose smoothness where increments vanish
            if np.min(np.abs(np.diff(padded))) < 5e-2 \
                    or np.min(np.abs(values)) < 5e-2:
                continue
            kept += 1
            kind = WeightKind.IMPROVED if kept % 2 else WeightKind.CLASSICAL
            phi = CompactFunction(values)
            grad = rayleigh_gradient(phi, pair, kind)
            h = 1e-6
            fd = np.zeros(n_support)
            for j in range(n_support):
                up = values.copy()
                up[j] += h
                down = values.copy()
                down[j] -= h
                fd[j] = (rayleigh_quotient(CompactFunction(up), pair, kind)
                         - rayleigh_quotient(CompactFunction(down), pair,
                                             kind)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(grad))))
            worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
        ok = worst < 1e-5
        with capsys.disabled():
            report("10", ok, f"gradient vs central differences over 100 "
                             f"seeded configurations, p in [1.2, 6]: worst "
                             f"relative deviation {worst:.2e} < 1e-5")
        assert worst < 1e-5


class TestCriterion11DeskScaleHonesty:
    def test_reports_state_their_grids(self, capsys, lemma_suite):
        ok = all(rep.grid and rep.grid.get("points", rep.grid.get("k_max", 1))
                 for rep in lemma_suite.values())
        with capsys.disabled():
            report("11", ok, "universal claims are checked on finite grids "
                             "and samples only; every report above names its "
                             "grid, and no check needs more than a laptop")
        assert ok
        for rep in lemma_suite.values():
            assert rep.grid, "a grid check failed to declare its grid"
