"""Subcommand behavior, exit codes, and reproducible output."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from phardy import cli
from phardy import proof_machinery as pm
from phardy import series
from phardy.cli import build_parser, main
from phardy.numerics import ExponentPair
from phardy.weights import compare_weights


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_phardy(*argv):
    """The CLI in its own process, so that an uncaught exception shows as a
    traceback on stderr rather than as a failure of the calling test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "phardy.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


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
    ], ids=["p-rounds-to-1", "supersolution-D340", "digits-0", "n-from-0",
            "negative-order", "rayleigh-N1", "rayleigh-tol-nan",
            "rayleigh-tol-inf", "rayleigh-tol-negative",
            "rayleigh-negative-max-iters", "lemmas-p-rounds-to-1",
            "lemmas-ef-p-rounds-to-1", "verify-p-rounds-to-1"])
    def test_exit_code(self, argv, expected, text):
        result = run_phardy(*argv)
        assert "Traceback" not in result.stderr, result.stderr
        assert result.returncode == expected, result.stderr
        if expected == 2:
            assert result.stderr.startswith("error: ")
        if text is not None:
            assert text in (result.stdout if expected == 0 else result.stderr)


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

    def test_to_json_matches_json_rows(self):
        table = compare_weights(ExponentPair(Fraction(7, 3)), 2, 9, 30)
        assert table.to_json() == json.dumps(table.json_rows())
