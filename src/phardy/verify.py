"""End-to-end verification of the Hardy inequality on compactly supported
test functions, and a certified bracket for the finite-section constant.

This layer runs in double precision for speed.  The weights it consumes
come from the weight module as doubles, each the double nearest the
weight: a cheap fixed-precision pass decides most rows by a rounding test,
and the rest go through the digit-contract route.  There is one table
w(1..n) per (p, kind), which a longer request extends by the rows it lacks,
so each row is computed once (see `_weight_array`).  A batch of random
trials (`run_hardy_trials`) lays all its test functions out in one array,
so its powers and products are formed once per batch.  Its sizes and
function seeds are drawn as two arrays from one batch stream, and each
function's values from a counter-based Philox stream keyed by its seed,
size and distribution, set on one reused generator with no seed to hash,
so each trial costs its draws (`_trial_sums`, `random_compact`).  The
quotient

    Q(phi) = sum |phi(n) - phi(n-1)|^p  /  sum w(n) |phi(n)|^p

over functions on {1..N} (zero at 0 and N+1) has a smallest value
lambda_N, the first eigenvalue of the weighted p-Laplacian
Delta_p u = lambda w u^(p-1) with zero boundary values.  The inequality on
that support is the statement lambda_N >= 1.

`minimize_rayleigh` brackets lambda_N from both sides:

* Upper end.  Q of any function is >= lambda_N.  Since
  ||a| - |b|| <= |a - b|, Q(|phi|) <= Q(phi), so the minimizer is the
  positive ground state, and every iterate here stays positive.
* Hidden convexity (Diaz-Saa).  In rho = u^p the energy is convex: each
  edge term |rho_a^(1/p) - rho_b^(1/p)|^p is 1-homogeneous with a rank-1
  positive semidefinite 2x2 Hessian.  So lambda_N is the minimum of a
  convex function of rho on the hyperplane sum w rho = 1, whose Hessian is
  tridiagonal.  Newton's method on it needs one O(N) solve per step.
* Lower end (ground-state representation, Frank-Seiringer 2008; the
  paper's supersolution-to-weight transform).  For any u > 0 on {1..N}
  with zero boundary values, summation by parts and Picone's inequality
  give sum |D phi|^p >= sum (Delta_p u / u^(p-1)) |phi|^p for every phi, so
  lambda_N >= min_n Delta_p u(n) / (w(n) u(n)^(p-1)).  At the ground state
  the ratio is lambda_N at every site, so the bracket closes as the
  iterates converge.

Both ends are computed in doubles for the float weight table; the lower
end subtracts an explicit rounding allowance (see `_p_laplacian`).  Where
the weight is tiny, rounding the iterate alone would move the ratio by
more than the gap sought, so the solver aims at a ground state with a
margin of that size built in (see `_newton_step`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .numerics import (PAIR_CACHE_SIZE, ExponentPair,
                       PrecisionInfeasibleError)
from .weights import WeightKind, weight_values_float


_DIST_CODES = {"uniform": 0, "gaussian": 1, "sparse": 2}


@dataclass(frozen=True)
class CompactFunction:
    """Finitely supported test function: values phi(1..N), phi(0) = 0."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a nonempty 1-d array")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def support_bound(self) -> int:
        return int(self.values.size)

    def padded(self) -> np.ndarray:
        """phi(0), ..., phi(N+1) with the zero boundary values in place."""
        return np.concatenate(([0.0], self.values, [0.0]))

    def to_csv(self) -> str:
        lines = ["n,phi_n"]
        lines += [f"{n + 1},{float(v)!r}" for n, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class RayleighResult:
    """Certified bracket lower_bound <= lambda_N <= quotient.

    `quotient` is the Rayleigh quotient of `minimizer`; `lower_bound` is
    certified by an iterate u (not always the minimizer, see
    `minimize_rayleigh`) and `worst_site` is the n where its ratio
    Delta_p u / (w u^(p-1)) is smallest; `converged` means
    gap <= tol * quotient.
    """

    quotient: float
    minimizer: CompactFunction
    iterations: int
    converged: bool
    lower_bound: float
    gap: float
    worst_site: int


# (pair, kind) -> read-only float table w(1..n), least recently used first.
_WEIGHT_TABLES: OrderedDict = OrderedDict()
_NO_ROWS = np.empty(0)


def _weight_array(pair: ExponentPair, kind: WeightKind, n_max: int):
    """w(1..n_max) as a read-only float array.

    Each (pair, kind) has one table, of the PAIR_CACHE_SIZE most recently
    used ones kept.  A request beyond its end extends it by the missing
    rows only, so no row is computed twice.  The rows come from
    `weight_values_float` in two phases: a fixed-precision pass whose error
    bound decides most rows as the correctly rounded double, and for the
    rest, float() of a value within about 2^-B relative of the weight,
    B = contract_bits(20) = 99, by whichever route (closed form or series)
    the digit contract takes.  So every row is the double nearest the
    weight, unless an undecided one lies within 2^-B of a rounding
    midpoint, and a table grown in steps equals one computed whole.
    """
    table = _WEIGHT_TABLES.pop((pair, kind), _NO_ROWS)
    if table.size < n_max:
        rows = weight_values_float(pair, kind, n_max, first=table.size + 1)
        table = np.concatenate((table, rows))
        table.setflags(write=False)
    _WEIGHT_TABLES[(pair, kind)] = table
    if len(_WEIGHT_TABLES) > PAIR_CACHE_SIZE:
        _WEIGHT_TABLES.popitem(last=False)
    return table[:n_max]


def _energy(padded: np.ndarray, pf: float) -> float:
    return float(np.sum(np.abs(np.diff(padded)) ** pf))


def _mass(values: np.ndarray, w: np.ndarray, pf: float) -> float:
    return float(np.sum(w * np.abs(values) ** pf))


def hardy_lhs(phi: CompactFunction, pair: ExponentPair) -> float:
    """Energy sum |phi(n) - phi(n-1)|^p, n = 1..N+1, zero beyond support.

    A p that rounds to 1 in doubles is refused (PrecisionInfeasibleError).
    """
    return _energy(phi.padded(), pair.p_float())


def hardy_rhs(phi: CompactFunction, pair: ExponentPair, kind: WeightKind) -> float:
    """Weighted p-norm sum w(n) |phi(n)|^p over the support."""
    w = _weight_array(pair, kind, phi.support_bound)
    return _mass(phi.values, w, pair.p_float())


def _pass_rule(lhs, rhs, tolerance: float = 1e-12):
    """(slack, passed), elementwise over floats or arrays of finite sums:
    energy lhs dominates weighted p-norm rhs, the slack dipping below zero
    only by the relative tolerance (double-precision rounding allowance)."""
    slack = lhs - rhs
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return slack, slack >= -tolerance * scale


def _inequality_report(lhs: float, rhs: float, pair: ExponentPair,
                       tolerance: float = 1e-12) -> InequalityReport:
    """`_pass_rule` for one function.  Sums outside the double range decide
    nothing, so they are refused rather than compared."""
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise PrecisionInfeasibleError(
            f"p = {pair.p_exact}: a test function's sums leave the double "
            f"range (energy {lhs}, weighted p-norm {rhs})")
    slack, passed = _pass_rule(lhs, rhs, tolerance)
    return InequalityReport(lhs=lhs, rhs=rhs, slack=float(slack),
                            passed=bool(passed))


def check_hardy(phi: CompactFunction, pair: ExponentPair, kind: WeightKind,
                tolerance: float = 1e-12) -> InequalityReport:
    """Energy dominates the weighted p-norm; slack may dip below zero only
    by the stated relative tolerance (double-precision rounding allowance).
    Sums that overflow doubles are refused (PrecisionInfeasibleError)."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = hardy_lhs(phi, pair)
        rhs = hardy_rhs(phi, pair, kind)
    return _inequality_report(lhs, rhs, pair, tolerance)


def random_compact(seed: int, N: int, distribution: str,
                   density: float = 0.1) -> CompactFunction:
    """Deterministic random test function on {1..N}.

    distribution: "uniform" (on [-1,1]), "gaussian", or "sparse" (gaussian
    entries kept independently with the given density; at least one nonzero
    entry is forced).  The values come from the counter-based stream
    np.random.Generator(np.random.Philox(key=k)) with the 128-bit key
    k = (seed & 0x7FFFFFFF) | code << 32 | N << 64, code the distribution's
    number in _DIST_CODES: a key and a counter from 0, with no seed hash.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    code = _distribution_codes((distribution,))[0]
    rng = _keyed(np.random.Generator(np.random.Philox(key=0)),
                 seed & 0x7FFFFFFF, N, code)
    return CompactFunction(_draw_values(rng, N, distribution, density))


_ZERO_WORDS = (0, 0, 0, 0)


def _keyed(generator: np.random.Generator, seed: int, N: int,
           code: int) -> np.random.Generator:
    """generator, its Philox bit generator set to key (seed | code << 32, N)
    and counter 0 with nothing buffered: the stream of `random_compact`
    for a seed below 2^31.  Setting the state builds nothing, so a batch
    reuses one generator for all its functions."""
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed | code << 32, N)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return generator


def _distribution_codes(distributions) -> list:
    """The _DIST_CODES numbers of a nonempty sequence of distribution
    names; an empty one or an unknown name is refused (ValueError)."""
    if not distributions:
        raise ValueError(f"distributions must name at least one of "
                         f"{sorted(_DIST_CODES)}")
    try:
        return [_DIST_CODES[name] for name in distributions]
    except KeyError as exc:
        raise ValueError(f"unknown distribution {exc.args[0]!r}; "
                         f"choose from {sorted(_DIST_CODES)}") from None


def _draw_values(rng: np.random.Generator, N: int, distribution: str,
                 density: float = 0.1) -> np.ndarray:
    """The values phi(1..N) of `random_compact`, drawn from rng."""
    if distribution == "uniform":
        return rng.uniform(-1.0, 1.0, size=N)
    if distribution == "gaussian":
        return rng.standard_normal(N)
    values = rng.standard_normal(N)
    mask = rng.random(N) < density
    values = values * mask
    if not np.any(values):
        values[int(rng.integers(N))] = 1.0
    return values


def rayleigh_quotient(phi: CompactFunction, pair: ExponentPair,
                      kind: WeightKind) -> float:
    rhs = hardy_rhs(phi, pair, kind)
    if not rhs > 0:
        raise ValueError("quotient undefined: weighted p-norm vanishes")
    return hardy_lhs(phi, pair) / rhs


_UNIT = np.finfo(float).eps / 2     # unit roundoff of doubles


def _signed_pow(t: np.ndarray, expo: float) -> np.ndarray:
    return np.sign(t) * np.abs(t) ** expo


def _p_laplacian(padded: np.ndarray, pf: float):
    """Delta_p u(n) = phi_p(a) - phi_p(b) at the interior sites of a padded
    array, a = u(n) - u(n-1), b = u(n+1) - u(n), phi_p(t) = |t|^(p-2) t;
    returns the values and a first-order bound on their rounding error.

    Near a ground state the two fluxes share a sign and nearly cancel (at
    the last site, where the weight is smallest, Delta_p u is about
    w(N) ~ N^-p times either flux).  Where they share a sign and
    |a - b| <= m = min(|a|, |b|), the difference is therefore taken as

        sign(a - b) m^(p-1) expm1((p-1) log1p(|a - b| / m)),

    whose rounding error is relative to the result.  With e the unit
    roundoff and library pow/log1p/expm1 within one ulp (2e), to first
    order in e:

    * that form: |a - b| (e), the quotient (2e), log1p (2e, and t/(1+t)
      <= log1p(t) keeps the argument's error from growing), times p - 1
      (e; p - 1 itself is exact for a double p >= 1), expm1 (2e, and an
      argument error grows by x e^x / expm1(x) <= 1 + x), m^(p-1) (2e) and
      the product (e): error <= (10 + 5x) e |result|, x = (p-1) log1p(.);
    * the plain difference elsewhere: each flux 2e, the subtraction e:
      error <= e (2 |phi_p(a)| + 2 |phi_p(b)| + |result|);
    * a difference of two doubles is exact when they share a sign and lie
      within a factor 2 of each other (Sterbenz) or one is zero; otherwise
      its error e|a| moves phi_p(a) by (p-1) e |phi_p(a)|, which is added.
    """
    q = pf - 1.0
    d = np.diff(padded)
    flux = _signed_pow(d, q)
    a, b = d[:-1], d[1:]
    lap = flux[:-1] - flux[1:]
    err = 2 * np.abs(flux[:-1]) + 2 * np.abs(flux[1:]) + np.abs(lap)
    s = a - b
    m = np.minimum(np.abs(a), np.abs(b))
    close = (np.sign(a) == np.sign(b)) & (a != 0) & (np.abs(s) <= m)
    if np.any(close):
        m, s = m[close], s[close]
        x = q * np.log1p(np.abs(s) / m)
        lap[close] = np.sign(s) * m ** q * np.expm1(x)
        err[close] = (10 + 5 * x) * np.abs(lap[close])
    lo, hi = padded[:-1], padded[1:]
    exact = ((lo == 0) | (hi == 0)
             | ((np.sign(lo) == np.sign(hi)) & (np.abs(hi) <= 2 * np.abs(lo))
                & (np.abs(lo) <= 2 * np.abs(hi))))
    inexact_flux = np.abs(flux) * ~exact
    err += q * (inexact_flux[:-1] + inexact_flux[1:])
    return lap, _UNIT * err


def rayleigh_gradient(phi: CompactFunction, pair: ExponentPair,
                      kind: WeightKind) -> np.ndarray:
    """Exact gradient of the quotient (quotient rule over both p-sums).

    The numerator gradient at site j is p times the p-Laplacian of phi at j;
    by 0-homogeneity the result is orthogonal to phi.
    """
    pf = pair.p_float()
    w = _weight_array(pair, kind, phi.support_bound)
    vals = phi.values
    a = hardy_lhs(phi, pair)
    b = _mass(vals, w, pf)
    if not b > 0:
        raise ValueError("gradient undefined: weighted p-norm vanishes")
    grad_a = pf * _p_laplacian(phi.padded(), pf)[0]
    grad_b = pf * w * _signed_pow(vals, pf - 1)
    q = a / b
    return (grad_a - q * grad_b) / b


def _ground_state_taper(pair: ExponentPair, N: int) -> np.ndarray:
    n = np.arange(1, N + 1, dtype=float)
    u = n ** (1.0 - 1.0 / pair.p_float())
    taper_start = max(1, N - N // 4)
    taper = np.minimum(1.0, (N + 1 - n) / (N + 1 - taper_start))
    return u * taper


def _pad(u: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], u, [0.0]))


def _quotient(u: np.ndarray, w: np.ndarray, pf: float) -> float:
    return _energy(_pad(u), pf) / _mass(u, w, pf)


def _certified_lower_bound(u: np.ndarray, w: np.ndarray, pf: float):
    """min_n Delta_p u(n) / (w(n) u(n)^(p-1)) less twice its first-order
    rounding bound (`_p_laplacian`'s, plus 4e relative for u^(p-1), the
    product and the quotient), and the site n where it is attained.  The
    factor 2 covers the second-order terms.
    """
    lap, err = _p_laplacian(_pad(u), pf)
    den = w * u ** (pf - 1)
    bound = (lap - 2 * (err + 4 * _UNIT * np.abs(lap))) / den
    k = int(np.argmin(bound))
    return float(bound[k]), k + 1


def _newton_step(u: np.ndarray, w: np.ndarray, pf: float):
    """Newton step for min E(rho) on sum v rho = 1, rho = u^p, from a u > 0;
    None unless it is taken in full.

    Written as rho -> rho (1 + e), the Hessian of E is the path Laplacian
    sum_n c_n (e(n+1) - e(n))^2 with c_n = (p-1)/p |u(n+1) - u(n)|^(p-2)
    u(n) u(n+1) (a rank-1 term per interior edge; the boundary edges are
    linear in rho), and the KKT system reduces to L e = r with
    r = Q v u^p - u Delta_p u and sum v u^p e = 0.  r sums to zero (Euler's
    relation for the 1-homogeneous E), so the flow across an edge is the
    partial sum of r on either side of it, taken from the end with less
    mass so that it carries the smaller rounding error, and e follows by a
    second partial sum: an O(N) tridiagonal solve with no elimination.

    The weight v is w plus a margin.  Rounding each u(n) by a unit moves
    Delta_p u(n) by up to s(n) = (p-1) e (|a|^(p-2) (u(n-1) + u(n))
    + |b|^(p-2) (u(n) + u(n+1))) (a, b the differences at n, floored at
    e times their endpoint sums), which near the last sites, where
    w ~ N^-p, far exceeds Q w u^(p-1) times any useful gap.  Aiming at the
    ground state for v = w + 2 s / (Q u^(p-1)) makes the iterate a
    supersolution for w with twice that margin at every site, so the
    certificate is not lost to rounding; the price, about
    sum (v - w) u^p relative, is a few units of N e in the bound.

    The full step is taken when it stays positive and achieves half the
    predicted decrease delta^2 / 2 (delta^2 = r.e, the Newton decrement),
    or when delta^2 is below the rounding of Q, where a line search cannot
    judge and the step only polishes the lower bound.
    """
    padded = _pad(u)
    q = pf - 1.0
    diff = np.abs(np.diff(padded))
    pair_sum = padded[:-1] + padded[1:]
    slope = np.maximum(diff, _UNIT * pair_sum) ** (q - 1) * pair_sum
    shift = q * _UNIT * (slope[:-1] + slope[1:])
    start = _quotient(u, w, pf)
    with np.errstate(over="ignore"):
        scale = start * u ** q
    margin = 2 * shift / scale
    beyond = np.isinf(scale)        # Q u^(p-1) beyond doubles: by logarithms
    if beyond.any():
        with np.errstate(divide="ignore"):
            margin[beyond] = np.exp(np.log(2 * shift[beyond] / start)
                                    - q * np.log(u[beyond]))
    v = w + margin
    mass = v * u ** pf
    quotient = _quotient(u, v, pf)
    resid = quotient * mass - u * _p_laplacian(padded, pf)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = q / pf * diff[1:-1] ** (pf - 2) * u[:-1] * u[1:]
        lighter_left = np.cumsum(mass)[:-1] < 0.5 * np.sum(mass)
        flow = np.where(lighter_left, -np.cumsum(resid)[:-1],
                        np.cumsum(resid[::-1])[::-1][1:])
        e = np.concatenate(([0.0], np.cumsum(flow / cond)))
        e -= np.dot(mass, e) / np.sum(mass)
        decrement = float(np.dot(resid, e))
        if not np.min(e) > -1:
            return None
        cand = u * (1 + e) ** (1 / pf)
        if decrement <= (u.size + 2) * _UNIT * quotient:
            return cand
        if _quotient(cand, v, pf) <= quotient - decrement / 4:
            return cand
    return None


def _inverse_power_step(u: np.ndarray, w: np.ndarray, pf: float):
    """One inverse power step (Biezuner, Ercole & Martins 2009; Hein &
    Buehler 2010): v with Delta_p v = w u^(p-1), v(0) = v(N+1) = 0.  In
    exact arithmetic the quotient of v is never above that of u.

    In one dimension the equation integrates.  The flux phi_p(v(n) -
    v(n-1)) drops by w(n) u(n)^(p-1) across site n, so it equals F - S(n),
    S the partial sums, and the boundary values fix F through the monotone
    scalar equation sum_{n=1}^{N+1} phi_p^{-1}(F - S(n)) = 0, solved on
    [0, S(N+1)] by Newton's method safeguarded with bisection.  The fluxes
    are scaled to at most 1 before the power 1/(p-1) (v's scale is free),
    and v sums its increments from the left end up to the peak and from the
    right end after it, so both ends keep full relative accuracy.
    """
    q = pf - 1.0
    partial = np.concatenate(([0.0], np.cumsum(w * u ** q)))
    lo, hi = 0.0, float(partial[-1])
    top = 0.5 * hi
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            t = top - partial
            scale = np.max(np.abs(t))
            t /= scale
            inc = np.sign(t) * np.abs(t) ** (1 / q)
            total = float(np.sum(inc))
            if total == 0:
                break
            if total < 0:
                lo = top
            else:
                hi = top
            slope = float(np.sum(np.abs(t) ** (1 / q - 1))) / (q * scale)
            nxt = top - total / slope if np.isfinite(slope) else np.nan
            if nxt == top:
                break
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    break
            top = nxt
    rising = np.cumsum(inc)[:-1]
    falling = -np.cumsum(inc[::-1])[::-1][1:]
    return np.where(inc[:-1] > 0, rising, falling)


def minimize_rayleigh(pair: ExponentPair, kind: WeightKind, N: int,
                      max_iters: int = 20000,
                      tol: float = 1e-9) -> RayleighResult:
    """Certified bracket [lower_bound, quotient] for the smallest Rayleigh
    quotient lambda_N on support {1..N}.

    Starts from the tapered ground state n^(1-1/p).  Each iteration tries
    the Newton step of the convex rho = u^p problem (`_newton_step`) and,
    where Newton stalls (the full step leaves the positive cone or falls
    short of half its predicted decrease, as for p > 2, where |Du|^(p-2)
    vanishes at the peak, or p near 1), an inverse power step
    (`_inverse_power_step`).  Both are O(N) and keep the iterate positive.

    The bracket is the smallest quotient and the largest certified lower
    bound (ground-state representation, see the module docstring) over all
    iterates; both bound lambda_N, and the returned minimizer is the
    iterate with the smallest quotient.  The loop ends when
    gap <= tol * quotient (`converged`), after max_iters iterations, or
    when neither step moves either end of the bracket (stationary in
    floats).  Newton aims at a ground state with a rounding margin (see
    `_newton_step`), so the gap closes to about N e relative; it stalls
    where doubles cannot resolve the ground state, as for p near 1, whose
    differences near the peak fall below a unit of its values.
    Non-convergence is flagged, never raised; a start whose weighted p-norm
    leaves the double range, as at large p, is refused
    (PrecisionInfeasibleError).
    """
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    if not 0 <= tol < 1:
        raise ValueError(f"tol must lie in [0, 1), got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    pf = pair.p_float()
    w = _weight_array(pair, kind, N)
    u = _ground_state_taper(pair, N)
    with np.errstate(over="ignore", invalid="ignore"):
        mass = _mass(u, w, pf)
    if not (np.isfinite(mass) and mass > 0):
        raise PrecisionInfeasibleError(
            f"p = {pair.p_exact}: the starting ground state's weighted "
            f"p-norm leaves the double range ({mass})")
    u = u / mass ** (1 / pf)
    upper = _quotient(u, w, pf)
    best = u
    lower, worst_site = _certified_lower_bound(u, w, pf)
    iterations = 0
    while iterations < max_iters and upper - lower > tol * upper:
        iterations += 1
        for step in (_newton_step, _inverse_power_step):
            cand = step(u, w, pf)
            if cand is None or not np.all(np.isfinite(cand) & (cand > 0)):
                continue
            cand = cand / _mass(cand, w, pf) ** (1 / pf)
            cand_quotient = _quotient(cand, w, pf)
            cand_lower, cand_site = _certified_lower_bound(cand, w, pf)
            if cand_quotient < upper or cand_lower > lower:
                break
        else:
            break
        u = cand
        if cand_quotient < upper:
            best, upper = u, cand_quotient
        if cand_lower > lower:
            lower, worst_site = cand_lower, cand_site
    gap = upper - lower
    return RayleighResult(quotient=upper, minimizer=CompactFunction(best),
                          iterations=iterations,
                          converged=bool(gap <= tol * upper),
                          lower_bound=lower, gap=gap, worst_site=worst_site)


_KINDS = (WeightKind.IMPROVED, WeightKind.CLASSICAL)
_ZERO = np.zeros(1)
# Test-function values a batch lays out at once (see `_trial_sums`): a
# block's arrays take a few hundred kB, whatever the batch size.
TRIAL_BLOCK_VALUES = 1 << 12


def _block_sums(functions, tables: dict, pf: float):
    """Energy and {kind: weighted p-norm} of each values array of functions.

    The values are laid out in one array, each function's between zeros
    that it shares with its neighbours,

        0, phi_1(1..n_1), 0, phi_2(1..n_2), 0, ...,

    so that |phi(n) - phi(n-1)|^p, |phi|^p and w |phi|^p are formed once
    for all of them.  A function's sums are the sums (np.add.reduce, as
    np.sum) of its own contiguous slices, the n + 1 differences from its
    leading zero and the n values: the elements of `hardy_lhs` and
    `hardy_rhs`, summed in the same pairwise order, hence the same doubles.
    np.add.reduceat, or supports padded to one length, would change that
    order.
    """
    sizes = np.array([values.size for values in functions])
    blocks = [_ZERO]
    for values in functions:
        blocks += (values, _ZERO)
    laid = np.concatenate(blocks)
    stop = np.cumsum(sizes + 1)
    start = stop - sizes
    # Row of each position in the tables (which start with a 0 for the
    # zeros): 0 at a function's leading zero, then 1..n.
    rows = np.arange(laid.size - 1) - np.repeat(start - 1, sizes + 1)
    # Overflow shows as a non-finite sum, which the batch refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.abs(np.diff(laid)) ** pf
        power = np.abs(laid[:-1]) ** pf
        mass = {kind: table[rows] * power for kind, table in tables.items()}
    bounds = list(zip(start.tolist(), stop.tolist()))
    lhs = [energy[lo - 1:hi].sum() for lo, hi in bounds]
    rhs = {kind: [terms[lo:hi].sum() for lo, hi in bounds]
           for kind, terms in mass.items()}
    return lhs, rhs


def _trial_sums(pair: ExponentPair, trials: int, support: int, seed: int,
                distributions):
    """(energy, {kind: weighted p-norm}): arrays over the trials, in trial
    order, equal bit for bit to `hardy_lhs` and `hardy_rhs` of each trial's
    test function.

    One batch stream, np.random.default_rng(seed & 0x7FFFFFFF), draws the
    trials' support sizes n, integers(1, support + 1, size=trials), and
    then their function seeds, integers(2^31, size=trials).  Trial t's
    values are `random_compact` of its seed, its n and
    distributions[t % len(distributions)].  The weight tables are filled
    once, up to the largest n drawn, and the test functions are then drawn
    in trial order and summed in blocks of about TRIAL_BLOCK_VALUES values
    (`_block_sums`).  Each function's keyed stream is set on one reused
    Philox generator (`_keyed`), with no seed to hash, so what a trial
    costs is its draws and its share of the sums.
    """
    codes = _distribution_codes(distributions)
    pf = pair.p_float()
    batch = np.random.default_rng(seed & 0x7FFFFFFF)
    sizes = batch.integers(1, support + 1, size=trials)
    phi_seeds = batch.integers(2 ** 31, size=trials)
    tables = {kind: np.concatenate((_ZERO, _weight_array(pair, kind,
                                                         int(sizes.max()))))
              for kind in _KINDS}
    generator = np.random.Generator(np.random.Philox(key=0))
    per_block = max(1, TRIAL_BLOCK_VALUES // support)
    lhs, rhs = np.empty(trials), {kind: np.empty(trials) for kind in _KINDS}
    for first in range(0, trials, per_block):
        block = slice(first, min(first + per_block, trials))
        functions = []
        for t, n, phi_seed in zip(range(block.start, block.stop),
                                  sizes[block].tolist(),
                                  phi_seeds[block].tolist()):
            k = t % len(codes)
            rng = _keyed(generator, phi_seed, n, codes[k])
            functions.append(_draw_values(rng, n, distributions[k]))
        block_lhs, block_rhs = _block_sums(functions, tables, pf)
        lhs[block] = block_lhs
        for kind in _KINDS:
            rhs[kind][block] = block_rhs[kind]
    return lhs, rhs


def run_hardy_trials(pair: ExponentPair, trials: int, support: int, seed: int,
                     distributions=("uniform", "gaussian", "sparse")) -> dict:
    """Seeded batch of random test functions checked against both weights.

    Per-trial streams derive from the master seed, so results do not depend
    on execution order; all of them are drawn before the weight tables are
    filled, once, up to the largest support drawn (`_trial_sums`).  Reports
    slack statistics and whether the improved weight's slack stayed below
    the classical one's on every trial, both over whole arrays with
    `check_hardy`'s pass rule.  The first trial whose sums leave the double
    range is refused (PrecisionInfeasibleError), as in `check_hardy`.  An
    empty distributions, or an unknown name in it, is refused (ValueError)
    before anything is drawn or tabulated.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if support < 1:
        raise ValueError(f"support must be positive, got {support}")
    lhs, rhs = _trial_sums(pair, trials, support, seed, distributions)
    finite = np.isfinite(lhs)
    for kind in _KINDS:
        finite &= np.isfinite(rhs[kind])
    if not finite.all():
        # The pass rule raises on the first such trial, in trial order.
        t = int(np.argmin(finite))
        for kind in _KINDS:
            _inequality_report(float(lhs[t]), float(rhs[kind][t]), pair)
    slack, all_pass = {}, True
    for kind in _KINDS:
        slack[kind], passed = _pass_rule(lhs, rhs[kind])
        all_pass = all_pass and bool(passed.all())
    classical = slack[WeightKind.CLASSICAL]
    allowance = 1e-12 * np.maximum(1.0, np.abs(classical))
    comparisons_ok = not np.any(slack[WeightKind.IMPROVED]
                                > classical + allowance)
    return {
        "trials": trials,
        "support": support,
        "seed": seed,
        "distributions": list(distributions),
        "min_slack_improved": float(np.min(slack[WeightKind.IMPROVED])),
        "min_slack_classical": float(np.min(classical)),
        "all_pass": all_pass,
        "improved_slack_below_classical": comparisons_ok,
    }
