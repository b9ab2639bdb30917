"""Subcommand behavior, exit codes, and reproducible output."""

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from phardy import cli
from phardy import proof_machinery as pm
from phardy import series
from phardy import verify
from phardy.cli import build_parser, main
from phardy.numerics import ExponentPair
from phardy.weights import compare_weights


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _cap_address_space(limit_bytes):
    """A preexec_fn that caps the child's address space, so a size check
    that regressed ends in a MemoryError, not in the machine's swap."""
    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    return cap


def run_phardy(*argv, python_args=(), memory_limit=None, timeout=300):
    """The CLI in its own process, so that an uncaught exception shows as a
    traceback on stderr rather than as a failure of the calling test;
    python_args go to the interpreter, and memory_limit (bytes) caps the
    child's address space."""
    return subprocess.run([sys.executable, *python_args, "-m", "phardy.cli",
                           *argv],
                          cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=timeout,
                          preexec_fn=memory_limit and _cap_address_space(
                              memory_limit))


class TestSeriesCommand:
    def test_p2_order6_exact(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--p", "2", "--order", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == [
            "1/4", "0", "5/64", "0", "21/512", "0", "429/16384"]

    def test_p3_csv(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--p", "3", "--order", "4",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["k,c_k", "0,8/27", "1,0", "2,8/81",
                                    "3,0", "4,112/2187"]

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--p", "2", "--order", "0")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["1/4"]

    def test_non_integer_p_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "series", "--p", "5/2", "--order", "4")
        assert code == 2
        assert "correction" in err

    def test_correction_mode(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--correction", "--p", "3",
                               "--order", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"][4] == "14/81"
        assert payload["coefficients"][2] == "1/3"

    def test_correction_reports_positivity(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--correction", "--p", "3/2",
                               "--order", "12")
        assert code == 0
        payload = json.loads(out)
        assert "all_even_positive" in payload

    @pytest.mark.parametrize("p", ["3/2", "7/3"])
    def test_correction_expands_once(self, capsys, monkeypatch, p):
        honest = series.expand_correction
        calls = []

        def counted(pair, order):
            calls.append(order)
            return honest(pair, order)

        monkeypatch.setattr(cli, "expand_correction", counted)
        monkeypatch.setattr(series, "expand_correction", counted)
        code, out, _ = run_cli(capsys, "series", "--correction", "--p", p,
                               "--order", "20")
        assert code == 0
        assert calls == [20]
        payload = json.loads(out)
        report = series.correction_positivity_report(
            ExponentPair(Fraction(p)), 20)
        for key in ("all_even_positive", "nonpositive_positions"):
            assert payload[key] == report[key]


class TestWeightCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run_cli(capsys, "weight", "--p", "2", "--n", "1..5",
                               "--digits", "30", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,w_improved,w_classical,ratio_minus_one"
        assert len(lines) == 6
        for line in lines[1:]:
            assert not line.split(",")[3].startswith("-")

    def test_rational_p_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "weight", "--p", "3/2", "--n", "1..1")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1 and rows[0]["verified_positive"]

    def test_p_one_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "weight", "--p", "1", "--n", "1..1")
        assert code == 2
        assert "exceed 1" in err

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "weight", "--p", "2", "--n", "5..2")
        assert code == 2


class TestVerifyCommand:
    def test_trials_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "2", "--trials", "30",
                               "--support", "20", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert payload["min_slack_improved"] > 0

    def test_single_trial_deterministic(self, capsys):
        args = ("verify", "--p", "2", "--trials", "1", "--support", "1",
                "--seed", "0")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_supersolution_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--supersolution", "--p",
                               "2.5", "--n", "1..60")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_residual"] < payload["tolerance"]
        assert payload["max_relative_residual"] < payload["tolerance"]
        assert list(payload)[-4:] == ["max_residual", "max_relative_residual",
                                      "tolerance", "pass"]

    def test_supersolution_fails_where_weight_is_below_tolerance(
            self, capsys, monkeypatch):
        # At D = 20 the tolerance is 1e-8, far above w(200) = 1.9e-18, so a
        # transform that returns 0 there has an absolute residual inside the
        # tolerance; the relative residual catches it.
        original = cli.weight_from_supersolution

        def zero_at_last(u, pair, n, bits):
            values = original(u, pair, n, bits)
            return values[:-1] + [mpf(0)]

        monkeypatch.setattr(cli, "weight_from_supersolution", zero_at_last)
        code, out, _ = run_cli(capsys, "verify", "--supersolution", "--p",
                               "15/2", "--n", "1..200", "--digits", "20")
        payload = json.loads(out)
        assert payload["max_residual"] < payload["tolerance"]
        assert payload["max_relative_residual"] == pytest.approx(1.0)
        assert payload["pass"] is False
        assert code == 1

    def test_supersolution_fails_on_a_zero_weight(self, capsys, monkeypatch):
        original = cli.eval_w

        def zero_at_last(pair, n, digits):
            values = original(pair, n, digits)
            last = values[-1]
            return values[:-1] + [type(last)(mpf(0), last.precision_bits)]

        monkeypatch.setattr(cli, "eval_w", zero_at_last)
        code, out, _ = run_cli(capsys, "verify", "--supersolution", "--p",
                               "3", "--n", "1..20", "--digits", "20")
        payload = json.loads(out)
        assert payload["max_relative_residual"] == float("inf")
        assert payload["pass"] is False
        assert code == 1

    def test_supersolution_passes_below_double_range(self, capsys):
        # 10^-(340-12) underflows a double to 0; the decision does not.
        code, out, _ = run_cli(capsys, "verify", "--supersolution", "--p",
                               "2", "--n", "1..5", "--digits", "340")
        payload = json.loads(out)
        assert payload["tolerance"] == 0.0
        assert payload["pass"] is True
        assert code == 0

    def test_supersolution_fails_below_double_range(self, capsys,
                                                     monkeypatch):
        # A relative residual of 1e-350 misses the tolerance 1e-388 by far,
        # but as doubles both would read 0.
        original = cli.weight_from_supersolution

        def scaled(u, pair, n, bits):
            values = original(u, pair, n, bits)
            with mp.workprec(bits):
                factor = 1 + mpf(10) ** -350
                return [value * factor for value in values]

        monkeypatch.setattr(cli, "weight_from_supersolution", scaled)
        code, out, _ = run_cli(capsys, "verify", "--supersolution", "--p",
                               "2", "--n", "1..5", "--digits", "400")
        payload = json.loads(out)
        assert payload["max_relative_residual"] == 0.0
        assert payload["pass"] is False
        assert code == 1

    @pytest.mark.parametrize("digits", ["12", "5"])
    def test_supersolution_rejects_tolerance_of_one(self, capsys, digits):
        code, out, err = run_cli(capsys, "verify", "--supersolution", "--p",
                                 "2", "--n", "1..5", "--digits", digits)
        assert code == 2 and not out
        assert "--digits >= 13" in err


class TestLemmasCommand:
    def test_single_lemma_single_p(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--only", "gpm", "--p", "2",
                               "--x-grid", "0.01:0.5:0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"]["gpm"]["pass"] is True
        assert "not_applicable" not in payload

    def test_ef_lemma_low_p(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--only", "ef", "--p", "1.5",
                               "--x-grid", "0.02:0.5:0.02")
        assert code == 0
        assert json.loads(out)["reports"]["ef"]["worst_margin"] > 0

    def test_small_grid_all_lemmas(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--p-grid", "1.5:3:0.5",
                               "--x-grid", "0.05:0.5:0.05")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["reports"]) == {
            "g_bounds", "gpm", "ak_lower", "binom_upper", "g_linear",
            "pairwise", "ef", "decomposition", "n1"}
        assert all(rep["pass"] for rep in payload["reports"].values())

    @pytest.mark.parametrize("p, left_out", [("5/2", "pairwise"),
                                             ("50", "binom_upper")])
    def test_lemma_no_p_satisfies_is_left_out(self, capsys, p, left_out):
        code, out, _ = run_cli(capsys, "lemmas", "--p", p,
                               "--x-grid", "0.05:0.5:0.05")
        assert code == 0
        payload = json.loads(out)
        assert list(payload["reports"]) == [
            name for name in pm.LEMMAS if name != left_out]
        assert payload["not_applicable"] == [left_out]
        assert all(rep["pass"] for rep in payload["reports"].values())

    def test_binom_upper_outside_hypothesis_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lemmas", "--only", "binom_upper",
                               "--p", "50")
        assert code == 2
        assert "below 40" in err

    def test_pairwise_outside_window_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lemmas", "--only", "pairwise",
                               "--p", "5/2")
        assert code == 2
        assert "odd" in err

    def test_cli_and_default_suite_share_one_registry(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "--p-grid", "1.5:2.5:1",
                               "--x-grid", "0.05:0.5:0.05")
        assert code == 0
        cli_reports = json.loads(out)["reports"]
        suite = pm.run_default_suite(
            p_grid=[Fraction(3, 2), Fraction(5, 2)],
            x_grid=[Fraction(k, 20) for k in range(1, 11)])
        subcommands = next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction))
        only = next(a for a in subcommands.choices["lemmas"]._actions
                    if a.dest == "only")
        assert list(suite) == list(cli_reports) == list(only.choices)
        for name, report in suite.items():
            assert (cli_reports[name]
                    == json.loads(json.dumps(report.to_json_dict()))), name


class TestRayleighCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "rayleigh", "--p", "2", "--weight",
                               "classical", "--N", "40",
                               "--max-iters", "3000")
        assert code == 0
        payload = json.loads(out)
        assert payload["quotient"] >= 1 - 1e-9

    def test_small_support_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "rayleigh", "--p", "2", "--N", "1")
        assert code == 2

    def test_reports_certified_bracket(self, capsys):
        args = ("rayleigh", "--p", "3", "--weight", "improved", "--N", "30",
                "--max-iters", "2000")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "quotient", "lower_bound", "gap",
                                "worst_site", "iterations", "converged"}
        assert payload["converged"]
        assert payload["lower_bound"] <= payload["quotient"]
        assert payload["gap"] == payload["quotient"] - payload["lower_bound"]
        assert payload["gap"] <= 1e-9 * payload["quotient"]
        assert 1 <= payload["worst_site"] <= 30
        assert run_cli(capsys, *args)[1] == out

    def test_phi_export(self, capsys, tmp_path):
        target = tmp_path / "phi.csv"
        code, _, _ = run_cli(capsys, "rayleigh", "--p", "2", "--weight",
                             "improved", "--N", "10", "--max-iters", "2000",
                             "--phi-out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "n,phi_n" and len(lines) == 11


class TestEdgeInputs:
    """Edge inputs either work or fail with exit code 2, never a traceback."""

    # p - 1 = 10^-30: kept by the mpmath budget, lost in a double.
    P_NEAR_1 = "1.000000000000000000000000000001"
    P_NEAR_1_EXACT = str(Fraction(P_NEAR_1))

    @pytest.mark.parametrize("argv, expected, text", [
        (["weight", "--p", P_NEAR_1, "--n", "1..3", "--digits", "15"], 0,
         '"w_classical": "1.00000000000000e-30"'),
        # Rows from the correction series, its majorant enclosed at p - 1
        # = 10^-30; and a contract that no series order reaches.
        (["weight", "--p", P_NEAR_1, "--n", "1..300", "--digits", "15"], 0,
         '"w_classical": "1.00000000000000e-30"'),
        (["weight", "--p", "5/2", "--n", "1..500", "--digits", "80"], 0,
         None),
        (["verify", "--supersolution", "--p", "2", "--n", "1..5",
          "--digits", "340"], 0, None),
        (["weight", "--p", "2", "--n", "1..3", "--digits", "0"], 2, None),
        (["weight", "--p", "2", "--n", "0..3"], 2, None),
        (["series", "--p", "2", "--order", "-1"], 2, None),
        (["rayleigh", "--p", "2", "--N", "1"], 2, None),
        (["rayleigh", "--p", "2", "--N", "5", "--tol", "nan"], 2, None),
        (["rayleigh", "--p", "2", "--N", "5", "--tol", "inf"], 2, None),
        (["rayleigh", "--p", "2", "--N", "5", "--tol", "-1"], 2, None),
        (["rayleigh", "--p", "2", "--N", "5", "--max-iters", "-3"], 2, None),
        (["lemmas", "--p", P_NEAR_1, "--only", "g_linear"], 2, None),
        (["lemmas", "--p", P_NEAR_1, "--only", "ef"], 2, P_NEAR_1_EXACT),
        (["verify", "--p", P_NEAR_1, "--trials", "3"], 2, P_NEAR_1_EXACT),
        # |phi(n) - phi(n-1)|^p overflows doubles: refused, not failed.
        (["verify", "--p", "1000", "--trials", "30", "--support", "20",
          "--seed", "1"], 2, "p = 1000:"),
        # The starting ground state's u^p overflows: refused, not NaN.
        (["rayleigh", "--p", "1000", "--N", "10"], 2, "p = 1000:"),
        # A budget of p log2(n) bits above the ceiling, with p in and
        # beyond the double range; and at n = 1, where the budget holds,
        # a p that no double can hold.
        (["weight", "--p", "1e30", "--n", "1..2", "--digits", "15"], 2,
         "bits of working precision"),
        (["weight", "--p", "1e400", "--n", "1..2", "--digits", "15"], 2,
         "bits of working precision"),
        (["weight", "--p", "1e400", "--n", "1..1", "--digits", "15"], 2,
         "beyond the double range"),
        (["verify", "--supersolution", "--p", "1e300", "--n", "1..3",
          "--digits", "15"], 2, "bits of working precision"),
        # The lemma grids: F's allowance beyond the doubles at p = 1e30 (on
        # its own and in the full suite at 1e300), and a p no double holds
        # where the pairwise window and the reference precision read it.
        (["lemmas", "--p", "1e30", "--only", "ef"], 2,
         "beyond the double range"),
        (["lemmas", "--p", "1e300"], 2, "beyond the double range"),
        (["lemmas", "--p", "1e400", "--only", "pairwise"], 2,
         "beyond the double range"),
        (["lemmas", "--p", "1e400", "--only", "decomposition"], 2,
         "beyond the double range"),
        (["lemmas", "--p", "1e30", "--only", "pairwise"], 2,
         "beyond the double range"),
        # The README's overflow example.
        (["verify", "--p", "700", "--trials", "30", "--support", "20",
          "--seed", "1"], 2, "p = 700:"),
    ], ids=["p-rounds-to-1", "p-near-1-series-rows",
            "digits-beyond-series-reach", "supersolution-D340", "digits-0", "n-from-0",
            "negative-order", "rayleigh-N1", "rayleigh-tol-nan",
            "rayleigh-tol-inf", "rayleigh-tol-negative",
            "rayleigh-negative-max-iters", "lemmas-p-rounds-to-1",
            "lemmas-ef-p-rounds-to-1", "verify-p-rounds-to-1",
            "verify-sums-beyond-doubles", "rayleigh-sums-beyond-doubles",
            "weight-budget-above-ceiling", "weight-budget-p-beyond-doubles",
            "weight-n1-p-beyond-doubles", "supersolution-budget-above-ceiling",
            "lemmas-ef-allowance-beyond-doubles",
            "lemmas-suite-allowance-beyond-doubles",
            "lemmas-pairwise-p-beyond-doubles",
            "lemmas-decomposition-p-beyond-doubles",
            "lemmas-pairwise-p-1e30", "verify-readme-overflow-p700"])
    def test_exit_code(self, argv, expected, text):
        result = run_phardy(*argv)
        assert "Traceback" not in result.stderr, result.stderr
        assert result.returncode == expected, result.stderr
        if expected == 2:
            assert result.stderr.startswith("error: ")
        if text is not None:
            assert text in (result.stdout if expected == 0 else result.stderr)

    @pytest.mark.parametrize("argv", [
        ["weight", "--p", "2", "--n", "1..3"],
        ["series", "--p", "2", "--order", "4"],
        ["verify", "--p", "2", "--trials", "2", "--support", "3"],
        ["lemmas", "--p", "3/2", "--only", "ak_lower"],
        ["rayleigh", "--p", "2", "--N", "5"],
        ["rayleigh", "--p", "2", "--N", "5", "--phi-out", "{missing}"],
    ], ids=["weight", "series", "verify", "lemmas", "rayleigh",
            "rayleigh-phi-out"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing" / "out.txt")
        argv = [missing if arg == "{missing}" else arg for arg in argv]
        if missing not in argv:
            argv += ["--out", missing]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == (f"error: cannot write {missing}: No such file or "
                       f"directory\n")

    HUGE = "100000000000"           # 10^11

    @pytest.mark.parametrize("argv", [
        ["weight", "--p", "2", "--n", f"1..{HUGE}", "--digits", "15"],
        ["rayleigh", "--p", "2", "--N", HUGE],
        ["verify", "--supersolution", "--p", "2", "--n", f"1..{HUGE}",
         "--digits", "20"],
        # One row, but the ground state runs up to n_max + 1.
        ["verify", "--supersolution", "--p", "2", "--n", f"{HUGE}..{HUGE}",
         "--digits", "20"],
        ["verify", "--p", "2", "--trials", HUGE],
        ["verify", "--p", "2", "--support", HUGE],
        ["lemmas", "--p", "3/2", "--only", "ef", "--x-grid", "0:0.5:1e-15"],
        ["lemmas", "--p-grid", "1.5:2:1e-12", "--only", "ak_lower"],
    ], ids=["weight-rows", "rayleigh-N", "supersolution-rows",
            "supersolution-ground-state", "trials", "support", "x-grid",
            "p-grid"])
    def test_huge_size_is_refused_before_allocating(self, argv):
        # Capped at 2 GB and 60 s: without the check each of these ends in a
        # MemoryError or is still allocating when the timeout stops it.
        result = run_phardy(*argv, memory_limit=2 * 10 ** 9, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: "), result.stderr
        assert f"at most {cli.MAX_POINTS} are accepted" in result.stderr

    @pytest.mark.parametrize("argv, count", [
        (["weight", "--p", "2", "--n", "3..7", "--digits", "15"], 5),
        (["rayleigh", "--p", "2", "--N", "5"], 5),
        (["verify", "--supersolution", "--p", "2", "--n", "2..3",
          "--digits", "20"], 5),
        (["verify", "--p", "2", "--trials", "5", "--support", "3"], 5),
        (["verify", "--p", "2", "--trials", "3", "--support", "5"], 5),
        (["lemmas", "--p", "3/2", "--only", "ef", "--x-grid",
          "0.1:0.5:0.1"], 5),
        (["lemmas", "--p", "3/2", "--only", "ef", "--x-grid",
          "0.1:0.55:0.1"], 5),
        (["lemmas", "--p-grid", "3/2:7/2:1/2", "--only", "ak_lower"], 5),
    ], ids=["weight-rows", "rayleigh-N", "supersolution-ground-state",
            "trials", "support", "x-grid", "x-grid-stop-between-points",
            "p-grid"])
    def test_size_limit_is_inclusive(self, capsys, monkeypatch, argv, count):
        # Each command needs exactly `count` points: accepted at that limit,
        # refused one below it.
        monkeypatch.setattr(cli, "MAX_POINTS", count)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        monkeypatch.setattr(cli, "MAX_POINTS", count - 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert err.endswith(f" needs {count} points; at most {count - 1} "
                            f"are accepted\n")

    @pytest.mark.parametrize("argv", [
        ["series", "--p", "2"],
        ["series", "--p", "5/2", "--correction"],
    ], ids=["table", "correction"])
    def test_huge_series_order_is_refused(self, argv):
        # Capped at 2 GB and 60 s: without the bound each is still forming
        # coefficients when the timeout stops it.
        result = run_phardy(*argv, "--order", self.HUGE,
                            memory_limit=2 * 10 ** 9, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stderr == (f"error: order {self.HUGE} is above the "
                                 f"largest accepted, {cli.MAX_ORDER}\n")

    @pytest.mark.parametrize("argv", [
        ["series", "--p", "2"],
        ["series", "--p", "5/2", "--correction"],
    ], ids=["table", "correction"])
    def test_series_order_limit_is_inclusive(self, capsys, monkeypatch, argv):
        # Accepted at the limit; one above it is refused before any
        # coefficient is formed.
        monkeypatch.setattr(cli, "MAX_ORDER", 6)
        code, out, err = run_cli(capsys, *argv, "--order", "6")
        assert code == 0 and out, err

        def formed(*args):
            raise AssertionError("a coefficient was formed")

        monkeypatch.setattr(cli, "expand_correction", formed)
        monkeypatch.setattr(cli, "expand_w_integer_p", formed)
        code, out, err = run_cli(capsys, *argv, "--order", "7")
        assert code == 2 and out == ""
        assert err == "error: order 7 is above the largest accepted, 6\n"

    def test_large_p_rayleigh_does_not_overflow(self):
        # Q u^(p-1) exceeds the double range at most sites of the first
        # Newton step; the margin there is formed without overflow.
        result = run_phardy("rayleigh", "--p", "150", "--N", "100",
                            python_args=("-W", "error::RuntimeWarning"))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        payload = json.loads(result.stdout)
        assert payload["lower_bound"] <= payload["quotient"]


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["weight", "--p", "2", "--n", "1..2", "--seed", "1"],
        ["series", "--p", "2", "--order", "4", "--digits", "50"],
        ["series", "--p", "2", "--order", "4", "--seed", "1"],
        ["verify", "--p", "2", "--trials", "3", "--support", "5",
         "--format", "csv"],
        ["lemmas", "--only", "ak_lower", "--p", "2", "--format", "csv"],
        ["lemmas", "--only", "ak_lower", "--p", "2", "--digits", "50"],
        ["lemmas", "--only", "ak_lower", "--p", "2", "--seed", "1"],
        ["rayleigh", "--p", "2", "--N", "5", "--format", "csv"],
        ["rayleigh", "--p", "2", "--N", "5", "--digits", "50"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_not_read_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--p", "2", "--trials", "3", "--support", "5",
         "--digits", "50"],
        ["verify", "--p", "2", "--trials", "3", "--n", "1..5"],
        ["verify", "--supersolution", "--p", "2", "--n", "1..5",
         "--trials", "9"],
        ["verify", "--supersolution", "--p", "2", "--n", "1..5",
         "--support", "3"],
        ["verify", "--supersolution", "--p", "2", "--n", "1..5",
         "--seed", "7"],
    ], ids=lambda argv: f"{argv[1]}{argv[-2]}")
    def test_verify_refuses_the_other_modes_flags(self, capsys, argv):
        # --n and --digits are read only with --supersolution; --trials,
        # --support and --seed only without it.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {argv[-2]} ")

    @staticmethod
    def benchmark_workloads(monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses
        spec.loader.exec_module(workloads)
        return workloads

    def test_benchmark_rayleigh_line_is_accepted(self, capsys, monkeypatch):
        # The benchmark's rayleigh jobs pass --seed, which rayleigh ignores.
        workloads = self.benchmark_workloads(monkeypatch)
        argv = next(job.argv for job in workloads.variational(0)
                    if job.cls == "rayleigh")
        assert "--seed" in argv
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["converged"] is True

    @pytest.mark.parametrize("workload, cls", [("tables", "super"),
                                               ("variational", "trials")])
    def test_benchmark_verify_lines_are_accepted(self, capsys, monkeypatch,
                                                 workload, cls):
        workloads = self.benchmark_workloads(monkeypatch)
        argv = next(job.argv for job in getattr(workloads, workload)(0)
                    if job.cls == cls)
        assert argv[0] == "verify"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"]["mode"] == (
            "supersolution" if "--supersolution" in argv else "trials")


class TestReproducibility:
    def test_weight_json_byte_identical(self, capsys):
        args = ("weight", "--p", "3", "--n", "1..4", "--digits", "25")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        run_cli(capsys, "weight", "--p", "2", "--n", "1..3",
                "--format", "csv", "--out", str(target))
        code, out, _ = run_cli(capsys, "weight", "--p", "2", "--n", "1..3",
                               "--format", "csv")
        assert code == 0
        assert target.read_text() == out


class TestParserOncePerProcess:
    ARGV = ("lemmas", "--only", "decomposition", "--p", "3/2",
            "--x-grid", "1/10:1/2:1/10")

    def test_two_calls_share_one_parser_and_match_a_fresh_process(
            self, capsys, monkeypatch):
        parser = build_parser()
        assert build_parser() is parser
        calls = []
        honest = parser.parse_args
        monkeypatch.setattr(parser, "parse_args",
                            lambda argv=None: calls.append(argv) or honest(argv))
        first = run_cli(capsys, *self.ARGV)
        second = run_cli(capsys, *self.ARGV)
        assert len(calls) == 2
        assert first == second
        fresh = run_phardy(*self.ARGV)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == first

    def test_handlers_are_looked_up_at_call_time(self, capsys, monkeypatch):
        build_parser()
        monkeypatch.setattr(cli, "cmd_lemmas", lambda args: 7)
        assert main(list(self.ARGV)) == 7


class TestLayersLoadedOnUse:
    """Only the commands that run the float layer import it, and numpy."""

    @pytest.mark.parametrize("argv, numpy_loaded", [
        ([], False),
        (["weight", "--p", "2", "--n", "1..10", "--digits", "15"], False),
        (["series", "--p", "2", "--order", "6"], False),
        (["series", "--p", "5/2", "--order", "6", "--correction"], False),
        (["lemmas", "--p", "3/2", "--only", "ef"], False),
        (["verify", "--supersolution", "--p", "2", "--n", "1..5",
          "--digits", "20"], False),
        (["verify", "--p", "2", "--trials", "3", "--support", "5"], True),
        (["rayleigh", "--p", "2", "--N", "5"], True),
    ], ids=["import-only", "weight", "series", "series-correction", "lemmas",
            "verify-supersolution", "verify-trials", "rayleigh"])
    def test_numpy_imported_only_where_used(self, argv, numpy_loaded):
        script = (
            "import contextlib, io, json, sys\n"
            "import phardy.cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = phardy.cli.main(argv) if argv else 0\n"
            "print(json.dumps([code, 'numpy' in sys.modules]))\n")
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)], cwd=ROOT,
            env=_child_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [0, numpy_loaded]


class TestWeightSerialization:
    """The table export writes each value as PrecReal.to_decimal does."""

    @staticmethod
    def expected(p, lo, hi, digits, fmt):
        table = compare_weights(ExponentPair(Fraction(p)), lo, hi, digits)
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "w_improved", "w_classical",
                             "ratio_minus_one"])
            for row in table.rows:
                writer.writerow([row.n, row.w_improved.to_decimal(digits),
                                 row.w_classical.to_decimal(digits),
                                 row.ratio_minus_one.to_decimal(digits)])
            return buf.getvalue()
        rows = [{"n": row.n,
                 "w_improved": row.w_improved.to_decimal(digits),
                 "w_classical": row.w_classical.to_decimal(digits),
                 "ratio_minus_one": row.ratio_minus_one.to_decimal(digits),
                 "verified_positive": row.verified_positive}
                for row in table.rows]
        config = {"subcommand": "weight", "p": str(Fraction(p)),
                  "n": f"{lo}..{hi}", "digits": digits, "format": "json"}
        return json.dumps({"config": config, "rows": rows}, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("p, lo, hi, digits", [
        ("1.137", 1, 30, 15), ("5/2", 4, 25, 40), ("27/2", 1, 12, 120),
        ("3", 90, 100, 25)])
    def test_stdout_equals_per_row_decimals(self, capsys, p, lo, hi, digits,
                                            fmt):
        code, out, _ = run_cli(capsys, "weight", "--p", p, "--n",
                               f"{lo}..{hi}", "--digits", str(digits),
                               "--format", fmt)
        assert code == 0
        assert out == self.expected(p, lo, hi, digits, fmt)

    @staticmethod
    def row_dicts(table):
        return [{"n": row.n,
                 "w_improved": row.w_improved.to_decimal(table.target_digits),
                 "w_classical": row.w_classical.to_decimal(
                     table.target_digits),
                 "ratio_minus_one": row.ratio_minus_one.to_decimal(
                     table.target_digits),
                 "verified_positive": row.verified_positive}
                for row in table.rows]

    @pytest.mark.parametrize("p, lo, hi, digits", [
        ("7/3", 2, 9, 30), ("3/2", 5, 5, 20), ("1.137", 1, 300, 15),
        ("2", 1000000000000, 1000000000000, 15)],
        ids=["rows-8", "one-row", "series-rows", "one-row-unverified"])
    def test_to_json_matches_json_dumps(self, p, lo, hi, digits):
        table = compare_weights(ExponentPair(Fraction(p)), lo, hi, digits)
        rows = self.row_dicts(table)
        assert table.to_json() == json.dumps(rows, indent=2)
        config = {"subcommand": "weight", "p": p, "n": f"{lo}..{hi}",
                  "digits": digits, "format": "json"}
        assert table.to_json(config) == json.dumps(
            {"config": config, "rows": rows}, indent=2)

    def test_to_json_config_escapes_its_strings(self):
        table = compare_weights(ExponentPair(2), 1, 2, 15)
        config = {"n": ' 1.."2"', "nested": {"a": [1, None]}, "empty": {}}
        assert table.to_json(config) == json.dumps(
            {"config": config, "rows": self.row_dicts(table)}, indent=2)

    def test_json_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        argv = ("weight", "--p", "1.137", "--n", "1..400", "--digits", "15")
        assert run_cli(capsys, *argv, "--out", str(target))[:2] == (0, "")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert target.read_text() == out
        assert out == self.expected("1.137", 1, 400, 15, "json")


class TestGoldenWeightOutput:
    """SHA-256 of stdout for three large tables, recorded before their rows
    at large n came from the correction series; the series rows must print
    the same digits as the closed form did."""

    @pytest.mark.parametrize("argv, digest", [
        (("--p", "1.137", "--n", "1..10000", "--digits", "15"),
         "8017d1bfd8fc442e3a0beeb65abbb85c622ebb2ddad0ad33ba9f957eb9ceb037"),
        (("--p", "19/4", "--n", "1..608", "--digits", "41", "--format", "csv"),
         "064657bba31787c7493eb7872e29d87c451bc7db3b2653a5141689c1a9041756"),
        (("--p", "27/2", "--n", "1..4000", "--digits", "15"),
         "882b741fbb4a314d3af9d68947a21691c0c95c5421cb73b1014947a6bd889574"),
    ], ids=["p1.137-n1e4-json", "p19_4-n608-D41-csv", "p27_2-n4000-json"])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "weight", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGoldenTrialOutput:
    """SHA-256 of stdout for trial batches and one Rayleigh bracket.  The
    Rayleigh digest was recorded while every float weight table was still
    recomputed whole at each power-of-two size, and the trial digests with
    the keyed Philox streams; a table grown row range by row range must
    print the same."""

    @pytest.mark.parametrize("argv, digest", [
        (("verify", "--p", "1.003", "--trials", "300", "--support", "200",
          "--seed", "11"),
         "7bcf5e4f12a06f625f86da25148713d1721bf9ce43b8bc834a1c347af7730dc5"),
        (("verify", "--p", "7/3", "--trials", "300", "--support", "150",
          "--seed", "5"),
         "ff9b5b91ca71a973ddca801896850fd002f7516aa6bd748b7ab986e0e1adea44"),
        (("verify", "--p", "73/4", "--trials", "300", "--support", "200",
          "--seed", "2"),
         "b48c8d38eabb2aa8d851952ffd41992a1a8b1ccc0db1eeb8a43353c770c8d2af"),
        (("rayleigh", "--p", "3", "--weight", "improved", "--N", "100"),
         "304f80135a2c16f456eb396c4f8d4f0e6f9678ced48a8abc40ad2beb29a559bc"),
    ], ids=["trials-p1.003", "trials-p7_3", "trials-p73_4",
            "rayleigh-p3-improved-N100"])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Batches over many blocks, with a seed above 2^31 (masked to 31 bits)
    # and with support 1.
    @pytest.mark.parametrize("argv, digest", [
        (("--p", "5/2", "--trials", "2000", "--support", "300", "--seed", "7"),
         "852cba8f9a25cf1a054363e5e868764e0f5aff1f934f285a8476ac60543804fc"),
        (("--p", "3/2", "--trials", "200", "--support", "40",
          "--seed", "6442450949"),
         "78051a785902fb72e7906e9b4b3aa9011268b000584cb8359965ea5666a26ede"),
        (("--p", "2", "--trials", "5000", "--support", "1", "--seed", "3"),
         "79dbdd3c17e26a2ea0f6e6e0137e234e149342d54c96156af73db50ce6c48d5e"),
    ], ids=["trials-several-blocks", "trials-seed-above-2^31",
            "trials-support-1"])
    def test_batch_seeded_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cold_and_warm_cache_agree(self, monkeypatch):
        pair = ExponentPair(Fraction(7, 3))
        monkeypatch.setattr(verify, "_WEIGHT_TABLES", OrderedDict())
        cold = verify.run_hardy_trials(pair, 200, 150, seed=5)
        monkeypatch.setattr(verify, "_WEIGHT_TABLES", OrderedDict())
        verify.run_hardy_trials(pair, 40, 60, seed=8)
        assert verify.run_hardy_trials(pair, 200, 150, seed=5) == cold
