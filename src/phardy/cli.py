"""Command-line front end: weights, series, verification batches, lemma
grids, and the Rayleigh minimizer as reproducible subcommands.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage
error.  Every JSON report echoes its configuration under a "config" key so
tables can be reproduced without a lab notebook.  p is accepted as an exact
rational string ("3/2") or a decimal ("2.5"); decimals are parsed as exact
rationals too.  A command that would allocate more than MAX_POINTS rows,
sites, trials or grid points, or a series order above MAX_ORDER, is
refused with exit code 2 before it allocates any.

Only `verify`'s trials and `rayleigh` run the float layer (`verify.py`), so
only they import it, and numpy with it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from mpmath import mp, mpf

from . import proof_machinery as pm
from .laplacian import ground_state_grid, weight_from_supersolution
from .numerics import ExponentPair, required_precision
from .series import (
    DEFAULT_ORDER,
    InvariantViolation,
    coefficients_csv,
    expand_correction,
    expand_w_integer_p,
    nonpositive_even_positions,
)
from .weights import WeightKind, compare_weights

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# The most weight rows, ground-state sites, Rayleigh sites, trials, support
# sites or grid points one command accepts: ten times the largest size that
# the tests, demos, README, benchmark and recorded timings use (10^5 weight
# rows).  A size is counted before anything is allocated, so a larger one
# is a usage error, not a MemoryError or a grid that is never done being
# built.  A size below the limit may still take minutes and a gigabyte:
# 10^5 rows of `weight` at 15 digits peak at 115 MB (p = 2, JSON).
MAX_POINTS = 10 ** 6
# The largest `series --order`.  The exact coefficients' cost grows about as
# the cube of the order (one-shot, 2-core VM: `series --correction --p 5/2`
# 0.36 s at order 300 and 13.7 s at 1000, and the series alone still running
# at 125 s at 2000; `series --p 2` 2.0 s at 1000, and 11 s for its series at
# 2000), so a size limit in points would not bound it.  The benchmark reads
# order 80 at most.
MAX_ORDER = 1000


class UsageError(ValueError):
    pass


def _check_size(what: str, count: int) -> None:
    if count > MAX_POINTS:
        raise UsageError(f"{what} needs {count} points; at most "
                         f"{MAX_POINTS} are accepted")


def _parse_p(text: str) -> Fraction:
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse p from {text!r}: {exc}") from None
    if not p > 1:
        raise UsageError(f"p must exceed 1, got {text}")
    return p


def _parse_n_range(text: str) -> tuple:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(
            f"cannot parse n-range {text!r}; expected LO..HI") from None
    if not 1 <= lo <= hi:
        raise UsageError(f"need 1 <= lo <= hi in n-range, got {text}")
    return lo, hi


def _parse_grid(text: str) -> list:
    try:
        start, stop, step = (Fraction(part) for part in text.split(":"))
    except (ValueError, ZeroDivisionError):
        raise UsageError(
            f"cannot parse grid {text!r}; expected START:STOP:STEP") from None
    if step <= 0 or stop < start:
        raise UsageError(f"degenerate grid {text!r}")
    _check_size(f"grid {text!r}", (stop - start) // step + 1)
    values = []
    v = start
    while v <= stop:
        values.append(v)
        v += step
    return values


def _emit(text: str, out_path: str | None) -> None:
    """text to out_path, or to stdout; a file that cannot be written is a
    usage error."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


def _json_report(config: dict, body: dict) -> str:
    return json.dumps({"config": config, **body}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_weight(args) -> int:
    p = _parse_p(args.p)
    n_min, n_max = _parse_n_range(args.n)
    _check_size(f"--n {args.n}", n_max - n_min + 1)
    pair = ExponentPair(p)
    table = compare_weights(pair, n_min, n_max, args.digits)
    if args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        config = {"subcommand": "weight", "p": str(p), "n": args.n,
                  "digits": args.digits, "format": args.format}
        _emit(table.to_json(config) + "\n", args.out)
    return EXIT_OK if table.all_verified_positive() else EXIT_CHECK_FAILED


def cmd_series(args) -> int:
    p = _parse_p(args.p)
    if args.order < 0:
        raise UsageError(f"order must be nonnegative, got {args.order}")
    if args.order > MAX_ORDER:
        raise UsageError(f"order {args.order} is above the largest accepted, "
                         f"{MAX_ORDER}")
    config = {"subcommand": "series", "p": str(p), "order": args.order,
              "correction": bool(args.correction), "format": args.format}
    if args.correction:
        series = expand_correction(ExponentPair(p), args.order)
        coeffs = series.coeffs
        negatives = nonpositive_even_positions(series)
        # Positivity for non-integer p is a conjecture: reported, not gated.
        body = {"coefficients": [str(c) for c in coeffs],
                "all_even_positive": not negatives,
                "nonpositive_positions": negatives}
    else:
        if p.denominator != 1 or p < 2:
            raise UsageError(
                f"the coefficient table requires an integer p >= 2, got "
                f"{args.p}; use --correction for non-integer p")
        try:
            expansion = expand_w_integer_p(int(p), args.order)
        except InvariantViolation:
            return EXIT_CHECK_FAILED
        coeffs = expansion.c
        body = expansion.to_json_dict()
    if args.format == "csv":
        _emit(coefficients_csv(coeffs), args.out)
    else:
        _emit(_json_report(config, body), args.out)
    return EXIT_OK


# Each verify mode's own flags and their defaults; a flag of the other mode
# is a usage error.
VERIFY_FLAGS = {
    "supersolution": {"n": "1..1000", "digits": 40},
    "trials": {"trials": 1000, "support": 50, "seed": 0},
}


def _verify_settings(args) -> dict:
    """The flags of the chosen verify mode, defaults filled in; a flag given
    for the other mode is refused."""
    mode = "supersolution" if args.supersolution else "trials"
    for other, flags in VERIFY_FLAGS.items():
        for name in flags:
            if other != mode and getattr(args, name) is not None:
                raise UsageError(
                    f"--{name} is read only with --supersolution"
                    if other == "supersolution"
                    else f"--{name} is not read with --supersolution")
    return {name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in VERIFY_FLAGS[mode].items()}


def cmd_verify(args) -> int:
    settings = _verify_settings(args)
    p = _parse_p(args.p)
    pair = ExponentPair(p)
    if args.supersolution:
        n_min, n_max = _parse_n_range(settings["n"])
        # The ground state is built on 0..n_max + 1 whatever n_min is.
        _check_size(f"--n {settings['n']}", n_max + 2)
        digits = settings["digits"]
        if digits <= 12:
            raise UsageError(
                f"--supersolution needs --digits >= 13, got {digits}: the "
                f"tolerance 10^-(D-12) would be at least 1")
        bits = required_precision(pair, n_max, digits)
        u = ground_state_grid(pair, n_max + 1, bits)
        tolerance = 10.0 ** (-(digits - 12))
        indices = range(n_min, n_max + 1)
        lhs = weight_from_supersolution(u, pair, indices, bits)
        # The reference column is the weight table's, correct to D digits.
        rhs = compare_weights(pair, n_min, n_max, digits).columns[0]
        worst = 0.0
        worst_relative = mpf(0)
        for left, right in zip(lhs, map(mp.make_mpf, rhs)):
            diff = left - right
            worst = max(worst, abs(float(diff)))
            # w(n) > 0, so a computed 0 has lost every digit: it fails.
            worst_relative = max(worst_relative, abs(diff / right)
                                 if right else mp.inf)
        config = {"subcommand": "verify", "mode": "supersolution",
                  "p": str(p), "n": settings["n"], "digits": digits}
        # |w(n)| < 1, so the relative residual bounds the absolute one; an
        # absolute test alone would pass a transform that returns 0 wherever
        # w(n) is below the tolerance.  The test is made in mpf, which does
        # not underflow: as doubles, both sides read 0 once D exceeds 335.
        with mp.workprec(bits):
            passed = worst_relative < mpf(10) ** (12 - digits)
        _emit(_json_report(config, {
            "max_residual": worst,
            "max_relative_residual": float(worst_relative),
            "tolerance": tolerance,
            "pass": passed,
        }), args.out)
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    _check_size("--trials", settings["trials"])
    _check_size("--support", settings["support"])
    from .verify import run_hardy_trials
    summary = run_hardy_trials(pair, settings["trials"], settings["support"],
                               settings["seed"])
    config = {"subcommand": "verify", "mode": "trials", "p": str(p),
              **settings}
    _emit(_json_report(config, summary), args.out)
    passed = summary["all_pass"] and summary["improved_slack_below_classical"]
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_lemmas(args) -> int:
    if args.p is not None:
        p_values = [_parse_p(args.p)]
    elif args.p_grid is not None:
        p_values = [v for v in _parse_grid(args.p_grid) if v > 1]
        if not p_values:
            raise UsageError(f"p-grid {args.p_grid!r} has no points above 1")
    else:
        p_values = list(pm.DEFAULT_P_GRID)
    if args.x_grid is not None:
        x_values = [v for v in _parse_grid(args.x_grid)
                    if 0 < v <= Fraction(1, 2)]
        if not x_values:
            raise UsageError(f"x-grid {args.x_grid!r} has no points in (0, 1/2]")
    else:
        x_values = list(pm.DEFAULT_X_GRID)
    if args.only:
        pairs = [ExponentPair(p) for p in p_values]
        reports = {args.only: pm.run_lemma(args.only, pairs, x_values)}
        not_applicable = []
    else:
        reports = pm.run_default_suite(p_values, x_values)
        not_applicable = [name for name in pm.LEMMAS if name not in reports]
    config = {"subcommand": "lemmas",
              "p": args.p, "p_grid": args.p_grid, "x_grid": args.x_grid,
              "only": args.only}
    body = {"reports": {name: rep.to_json_dict()
                        for name, rep in reports.items()}}
    if not_applicable:
        body["not_applicable"] = not_applicable
    _emit(_json_report(config, body), args.out)
    all_pass = all(rep.passed for rep in reports.values())
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_rayleigh(args) -> int:
    p = _parse_p(args.p)
    pair = ExponentPair(p)
    kind = WeightKind(args.weight)
    _check_size("--N", args.N)
    from .verify import minimize_rayleigh
    result = minimize_rayleigh(pair, kind, args.N, max_iters=args.max_iters,
                               tol=args.tol)
    config = {"subcommand": "rayleigh", "p": str(p), "weight": args.weight,
              "N": args.N, "max_iters": args.max_iters, "tol": args.tol}
    _emit(_json_report(config, {
        "quotient": result.quotient,
        "lower_bound": result.lower_bound,
        "gap": result.gap,
        "worst_site": result.worst_site,
        "iterations": result.iterations,
        "converged": result.converged,
    }), args.out)
    if args.phi_out:
        _emit(result.minimizer.to_csv(), args.phi_out)
    return EXIT_OK if result.quotient >= 1 - args.tol else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Built once per process.  The handlers look cmd_* up by module-global name
# at call time, so a wrapper installed on one sees every later call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Every subcommand takes --out; each other flag only where it is read.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("csv", "json"), default="json",
                         help="output format (default: json)")

    parser = argparse.ArgumentParser(
        prog="phardy",
        description="Improved discrete Hardy weights: evaluation, exact "
                    "series, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weight", parents=[common, formats],
                       help="tabulate improved vs classical weights")
    w.add_argument("--p", required=True, help='exponent, e.g. "2" or "3/2"')
    w.add_argument("--n", default="1..10", metavar="LO..HI",
                   help="index range (default: 1..10)")
    w.add_argument("--digits", type=int, default=40, metavar="D",
                   help="decimal digits of every value (default: 40)")
    w.set_defaults(handler=lambda args: cmd_weight(args))

    s = sub.add_parser("series", parents=[common, formats],
                       help="exact expansion coefficients")
    s.add_argument("--p", required=True,
                   help="integer >= 2 for the coefficient table; any "
                        "rational > 1 with --correction")
    s.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help=f"truncation order (default: {DEFAULT_ORDER})")
    s.add_argument("--correction", action="store_true",
                   help="expand the relative correction series instead; "
                        "positivity of its even coefficients is reported, "
                        "never asserted (open conjecture for non-integer p)")
    s.set_defaults(handler=lambda args: cmd_series(args))

    v = sub.add_parser("verify", parents=[common],
                       help="Hardy inequality on random test functions, or "
                            "the supersolution identity")
    v.add_argument("--p", required=True)
    # The mode flags default to None, so that a flag of the other mode can be
    # told from an absent one; VERIFY_FLAGS holds the defaults.
    trials, supersolution = VERIFY_FLAGS["trials"], VERIFY_FLAGS["supersolution"]
    v.add_argument("--trials", type=int, default=None,
                   help=f"number of random test functions (default: "
                        f"{trials['trials']})")
    v.add_argument("--support", type=int, default=None,
                   help="maximum support size of random test functions "
                        f"(default: {trials['support']})")
    v.add_argument("--supersolution", action="store_true",
                   help="check the ground-state identity instead of trials")
    v.add_argument("--n", default=None, metavar="LO..HI",
                   help="index range for --supersolution (default: "
                        f"{supersolution['n']})")
    v.add_argument("--digits", type=int, default=None, metavar="D",
                   help="digits D of --supersolution, which passes below a "
                        "relative residual of 10^-(D-12) (default: "
                        f"{supersolution['digits']})")
    v.add_argument("--seed", type=int, default=None, metavar="S",
                   help=f"master RNG seed of the trials (default: "
                        f"{trials['seed']})")
    v.set_defaults(handler=lambda args: cmd_verify(args))

    l = sub.add_parser("lemmas", parents=[common],
                       help="grid checks of every proof lemma")
    l.add_argument("--p", default=None, help="single exponent")
    l.add_argument("--p-grid", default=None, metavar="START:STOP:STEP")
    l.add_argument("--x-grid", default=None, metavar="START:STOP:STEP")
    l.add_argument("--only", default=None, choices=tuple(pm.LEMMAS),
                   help="run a single check")
    l.set_defaults(handler=lambda args: cmd_lemmas(args))

    r = sub.add_parser("rayleigh", parents=[common],
                       help="certified bracket [lower_bound, quotient] for "
                            "the smallest Rayleigh quotient on {1..N}")
    r.add_argument("--p", required=True)
    r.add_argument("--weight", choices=("improved", "classical"),
                   default="improved")
    r.add_argument("--N", type=int, required=True, help="support size")
    r.add_argument("--max-iters", type=int, default=20000,
                   help="iteration cap; each iteration is one Newton or "
                        "inverse-power step (default: 20000)")
    r.add_argument("--tol", type=float, default=1e-9,
                   help="stop once the certified gap quotient - lower_bound "
                        "is at most tol * quotient (reported as converged); "
                        "exit code 1 if the quotient is below 1 - tol "
                        "(default: 1e-9)")
    r.add_argument("--phi-out", default=None, metavar="PATH",
                   help="write the minimizer as CSV (n,phi_n)")
    r.add_argument("--seed", type=int, default=0, metavar="S",
                   help="unused (the minimizer is deterministic); accepted "
                        "for existing command lines")
    r.set_defaults(handler=lambda args: cmd_rayleigh(args))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
