"""Reference checks for every benchmark job, run after the timed passes.

The references are computed here, independently of phardy: closed forms
evaluated with mpmath at four times the working precision the program
budgets, Taylor coefficients of the closed forms from ``mpmath.taylor``, and
the p = 2 Rayleigh minimum from scipy's tridiagonal eigensolver.  A check
returns None when the job's output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

from mpmath import mp, mpf, taylor

# Exact spot values of the correction series: (p, k) -> a_k.
SPOT_VALUES = {("2", 2): Fraction(5, 16), ("3", 4): Fraction(14, 81),
               ("4", 2): Fraction(11, 32)}
SAMPLE_ROWS = 3            # seeded rows per weight table, besides both ends
TAYLOR_TERMS = 8           # coefficients compared with mpmath.taylor
TAYLOR_DPS = 40
RAYLEIGH_EIG_TOL = 5e-4


def _mpf(p: str):
    value = Fraction(p)
    return mpf(value.numerator) / value.denominator


def _reference_bits(p: str, n: int, digits: int) -> int:
    # Four times a budget that already exceeds the program's own
    # (max(p, 2) instead of p for the cancellation headroom).
    cancel = math.ceil(max(float(Fraction(p)), 2.0) * math.log2(n)) if n > 1 else 0
    return 4 * (math.ceil(digits * math.log2(10)) + cancel + 32)


def reference_row(p: str, n: int, digits: int) -> tuple:
    """(w, w_classical, w / w_classical - 1) at reference precision.

    The brackets are formed with expm1/log1p, a different route from the
    program's direct powers."""
    with mp.workprec(_reference_bits(p, n, digits)):
        pm = _mpf(p)
        s = (pm - 1) / pm
        if n == 1:
            w = 1 - (2 ** s - 1) ** (pm - 1)
        else:
            x = mpf(1) / n
            w = ((-mp.expm1(s * mp.log1p(-x))) ** (pm - 1)
                 - mp.expm1(s * mp.log1p(x)) ** (pm - 1))
        wc = ((pm - 1) / pm) ** pm / mpf(n) ** pm
        return w, wc, w / wc - 1


def _digit_error(text: str, ref, digits: int) -> float:
    """|value - ref| in units of the digits-th significant digit of ref."""
    value = mpf(text)
    unit = mpf(10) ** (mp.floor(mp.log10(abs(ref))) - digits + 1)
    return float(abs(value - ref) / unit)


def _weight_rows(job, stdout: str) -> list:
    if job.check["format"] == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        for row in rows:
            row["n"] = int(row["n"])
        return rows
    return json.loads(stdout)["rows"]


def check_weight(job, code, stdout, seed) -> str | None:
    c = job.check
    p, lo, hi, digits = c["p"], c["lo"], c["hi"], c["digits"]
    rows = _weight_rows(job, stdout)
    if [row["n"] for row in rows] != list(range(lo, hi + 1)):
        return "rows do not cover the requested n-range"
    rng = random.Random(f"{job.name}:{seed}")
    picks = sorted({0, len(rows) - 1} | {rng.randrange(len(rows))
                                         for _ in range(SAMPLE_ROWS)})
    all_clear = True
    for i in picks:
        row = rows[i]
        n = row["n"]
        w, wc, excess = reference_row(p, n, digits)
        with mp.workprec(_reference_bits(p, n, digits)):
            for key, ref in (("w_improved", w), ("w_classical", wc),
                             ("ratio_minus_one", excess)):
                err = _digit_error(row[key], ref, digits)
                if err > 1.0:
                    return (f"n={n}: {key} off by {err:.3g} units in digit "
                            f"{digits}")
            # the program flags rows whose excess clears 10^-(digits-2)
            threshold = mpf(10) ** (2 - digits)
            clear = excess > threshold
            near = abs(excess / threshold - 1) < mpf(10) ** (1 - digits)
        all_clear = all_clear and clear
        if "verified_positive" in row and row["verified_positive"] != clear \
                and not near:
            return f"n={n}: verified_positive={row['verified_positive']}, " \
                   f"reference excess clears the threshold: {clear}"
    expected = 0 if all_clear else 1
    if code != expected:
        return f"exit code {code}, expected {expected}"
    return None


def check_supersolution(job, code, stdout, seed) -> str | None:
    report = json.loads(stdout)
    if code != 0 or report["pass"] is not True:
        return f"exit code {code}, pass={report['pass']}"
    if not report["max_residual"] <= report["tolerance"]:
        return "residual above tolerance"
    return None


def check_lemma(job, code, stdout, seed) -> str | None:
    reports = json.loads(stdout)["reports"]
    name = job.check["name"]
    if list(reports) != [name]:
        return f"reports {list(reports)}, expected [{name!r}]"
    report = reports[name]
    if code != 0 or report["pass"] is not True or report["failures"]:
        return f"exit code {code}, pass={report['pass']}"
    if not report["worst_margin"] > 0:
        return f"worst margin {report['worst_margin']} is not positive"
    return None


def _correction_closed_form(p: str):
    pm = _mpf(p)
    q = pm / (pm - 1)
    s = 1 / q

    def a(x):       # w(x) (q/x)^p - 1, with the brackets scaled by q/x
        minus = q * (1 - (1 - x) ** s) / x
        plus = q * ((1 + x) ** s - 1) / x
        return (q / x) * (minus ** (pm - 1) - plus ** (pm - 1)) - 1
    return a


def _weight_over_xp(p: str):
    pm = _mpf(p)
    s = (pm - 1) / pm

    def f(x):       # w(x) / x^p
        return ((1 - (1 - x) ** s) ** (pm - 1)
                - ((1 + x) ** s - 1) ** (pm - 1)) / x ** pm
    return f


def _match_taylor(coeffs: list, closed_form, p: str) -> str | None:
    """Compare exact coefficients with the closed form's Taylor series.

    The closed forms have a removable singularity at 0, so derivatives are
    taken with ``singular=True`` and the constant term is the value at a
    tiny x, computed at triple precision."""
    terms = min(TAYLOR_TERMS, len(coeffs) - 1)
    with mp.workdps(3 * TAYLOR_DPS):     # the brackets cancel TAYLOR_DPS digits
        constant = closed_form(p)(mpf(10) ** -TAYLOR_DPS)
    with mp.workdps(TAYLOR_DPS):
        ref = taylor(closed_form(p), 0, terms, singular=True) if terms else [0]
        ref[0] = constant
        for k in range(terms + 1):
            exact = mpf(coeffs[k].numerator) / coeffs[k].denominator
            tol = mpf(10) ** (-TAYLOR_DPS // 2 + 2) * max(1, abs(exact))
            if abs(exact - ref[k]) > tol:
                return f"coefficient {k} = {coeffs[k]} differs from the " \
                       f"Taylor reference {mp.nstr(ref[k], 20)}"
    return None


def check_series(job, code, stdout, seed) -> str | None:
    c = job.check
    if code != 0:
        return f"exit code {code}"
    coeffs = [Fraction(v) for v in json.loads(stdout)["coefficients"]]
    if len(coeffs) != c["order"] + 1:
        return f"{len(coeffs)} coefficients for order {c['order']}"
    if job.check["kind"] == "series":
        for k, ck in enumerate(coeffs):
            if (k % 2 == 1 and ck != 0) or (k % 2 == 0 and not ck > 0):
                return f"coefficient {k} = {ck} breaks the parity pattern"
        return _match_taylor(coeffs, _weight_over_xp, c["p"])
    for (p, k), value in SPOT_VALUES.items():
        if p == c["p"] and k <= c["order"] and coeffs[k] != value:
            return f"a_{k} = {coeffs[k]} at p={p}, expected {value}"
    return _match_taylor(coeffs, _correction_closed_form, c["p"])


def check_trials(job, code, stdout, seed) -> str | None:
    summary = json.loads(stdout)
    if code != 0 or not summary["all_pass"] \
            or not summary["improved_slack_below_classical"]:
        return f"exit code {code}, all_pass={summary['all_pass']}"
    return None


def rayleigh_p2_minimum(weight: str, n_sites: int) -> float:
    """Smallest generalized eigenvalue of tridiag(-1, 2, -1) against
    diag(w) on {1..N}: the exact p = 2 Rayleigh minimum."""
    from scipy.linalg import eigh_tridiagonal

    if weight == "improved":
        w = [float(reference_row("2", n, 20)[0]) for n in range(1, n_sites + 1)]
    else:
        w = [1 / (4 * n * n) for n in range(1, n_sites + 1)]
    root = [math.sqrt(v) for v in w]
    diag = [2 / v for v in w]
    off = [-1 / (root[i] * root[i + 1]) for i in range(n_sites - 1)]
    return float(eigh_tridiagonal(diag, off, eigvals_only=True,
                                  select="i", select_range=(0, 0))[0])


def check_rayleigh(job, code, stdout, seed) -> str | None:
    c = job.check
    q = json.loads(stdout)["quotient"]
    if code != 0 or not q >= 1 - c["tol"]:
        return f"exit code {code}, quotient {q}"
    if c["p"] == "2":
        lam = rayleigh_p2_minimum(c["weight"], c["N"])
        if not lam * (1 - 1e-9) <= q <= lam + RAYLEIGH_EIG_TOL:
            return f"quotient {q} vs p=2 eigenvalue {lam}"
    return None


_CHECKS = {"weight": check_weight, "supersolution": check_supersolution,
           "lemma": check_lemma, "series": check_series,
           "correction": check_series, "trials": check_trials,
           "rayleigh": check_rayleigh}


def check_job(job, code, stdout: str, seed: int) -> str | None:
    try:
        return _CHECKS[job.check["kind"]](job, code, stdout, seed)
    except (ValueError, KeyError, TypeError) as exc:
        # Unparseable or incomplete output is a failed job, not a crash.
        return f"output not understood: {type(exc).__name__}: {exc}"
