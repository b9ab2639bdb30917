"""End-to-end verification of the Hardy inequality on compactly supported
test functions, and a Rayleigh-quotient minimizer that probes the constant
from above.

This layer runs in double precision for speed; the weights it consumes are
tabulated once per (p, kind, N) by the high-precision weight module and
cached as plain floats.  The quotient

    sum |phi(n) - phi(n-1)|^p  /  sum w(n) |phi(n)|^p

is scale-invariant and differentiable for p > 1, so a first-order descent
with backtracking works uniformly across the whole p-range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import PAIR_CACHE_SIZE, ExponentPair
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

    def to_json_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "slack": self.slack,
                "pass": self.passed}

    def to_csv(self) -> str:
        return ("lhs,rhs,slack,pass\n"
                f"{self.lhs!r},{self.rhs!r},{self.slack!r},{self.passed}\n")


@dataclass(frozen=True)
class RayleighResult:
    quotient: float
    minimizer: CompactFunction
    iterations: int
    converged: bool
    grad_norm: float


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _weight_array_capacity(pair: ExponentPair, kind: WeightKind, capacity: int):
    arr = np.array(weight_values_float(pair, kind, capacity), dtype=float)
    arr.setflags(write=False)
    return arr


def _weight_array(pair: ExponentPair, kind: WeightKind, n_max: int):
    # Geometric capacities keep the number of cached high-precision
    # tabulations small when support sizes vary trial to trial.
    capacity = max(16, 1 << (n_max - 1).bit_length())
    return _weight_array_capacity(pair, kind, capacity)[:n_max]


def _pval(p) -> float:
    return p.p_float() if isinstance(p, ExponentPair) else float(p)


def hardy_lhs(phi: CompactFunction, p) -> float:
    """Energy sum |phi(n) - phi(n-1)|^p, n = 1..N+1, zero beyond support."""
    pf = _pval(p)
    if not pf > 1:
        raise ValueError(f"p must exceed 1, got {pf}")
    d = np.diff(phi.padded())
    return float(np.sum(np.abs(d) ** pf))


def hardy_rhs(phi: CompactFunction, pair: ExponentPair, kind: WeightKind) -> float:
    """Weighted p-norm sum w(n) |phi(n)|^p over the support."""
    w = _weight_array(pair, kind, phi.support_bound)
    return float(np.sum(w * np.abs(phi.values) ** pair.p_float()))


def check_hardy(phi: CompactFunction, pair: ExponentPair, kind: WeightKind,
                tolerance: float = 1e-12) -> InequalityReport:
    """Energy dominates the weighted p-norm; slack may dip below zero only
    by the stated relative tolerance (double-precision rounding allowance)."""
    lhs = hardy_lhs(phi, pair)
    rhs = hardy_rhs(phi, pair, kind)
    slack = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    return InequalityReport(lhs=lhs, rhs=rhs, slack=slack,
                            passed=bool(slack >= -tolerance * scale))


def random_compact(seed: int, N: int, distribution: str,
                   density: float = 0.1) -> CompactFunction:
    """Deterministic random test function on {1..N}.

    distribution: "uniform" (on [-1,1]), "gaussian", or "sparse" (gaussian
    entries kept independently with the given density; at least one nonzero
    entry is forced).
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    try:
        code = _DIST_CODES[distribution]
    except KeyError:
        raise ValueError(f"unknown distribution {distribution!r}; "
                         f"choose from {sorted(_DIST_CODES)}") from None
    rng = np.random.default_rng([seed & 0x7FFFFFFF, N, code])
    if distribution == "uniform":
        values = rng.uniform(-1.0, 1.0, size=N)
    elif distribution == "gaussian":
        values = rng.standard_normal(N)
    else:
        values = rng.standard_normal(N)
        mask = rng.random(N) < density
        values = values * mask
        if not np.any(values):
            values[int(rng.integers(N))] = 1.0
    return CompactFunction(values)


def rayleigh_quotient(phi: CompactFunction, pair: ExponentPair,
                      kind: WeightKind) -> float:
    rhs = hardy_rhs(phi, pair, kind)
    if not rhs > 0:
        raise ValueError("quotient undefined: weighted p-norm vanishes")
    return hardy_lhs(phi, pair) / rhs


def _signed_pow(t: np.ndarray, expo: float) -> np.ndarray:
    return np.sign(t) * np.abs(t) ** expo


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
    b = float(np.sum(w * np.abs(vals) ** pf))
    if not b > 0:
        raise ValueError("gradient undefined: weighted p-norm vanishes")
    d = np.diff(phi.padded())
    sp = _signed_pow(d, pf - 1)
    grad_a = pf * (sp[:-1] - sp[1:])
    grad_b = pf * w * _signed_pow(vals, pf - 1)
    q = a / b
    return (grad_a - q * grad_b) / b


def _ground_state_taper(pair: ExponentPair, N: int) -> np.ndarray:
    n = np.arange(1, N + 1, dtype=float)
    u = n ** (1.0 - 1.0 / pair.p_float())
    taper_start = max(1, N - N // 4)
    taper = np.minimum(1.0, (N + 1 - n) / (N + 1 - taper_start))
    return u * taper


def _ground_state_log_arch(pair: ExponentPair, N: int) -> np.ndarray:
    # Ground state under a log-scale arch: near-optimizers of Hardy sums
    # live on logarithmic windows, so this start ends far closer to the
    # minimizer than any polynomial taper when N is large.
    n = np.arange(1, N + 1, dtype=float)
    u = n ** (1.0 - 1.0 / pair.p_float())
    return u * np.sin(np.pi * np.log(n + 0.5) / np.log(N + 1))


# Iterations without improvement beyond tol before the descent gives up.
_STALL_LIMIT = 200


def _descend(values: np.ndarray, pair: ExponentPair, kind: WeightKind,
             max_iters: int, tol: float):
    """Spectral (Barzilai-Borwein) gradient descent with a nonmonotone
    backtracking line search, on the unit-denominator sphere.

    Plain steepest descent crawls here (the quotient's landscape near the
    Hardy constant is extremely ill-conditioned for large N); the BB step
    keeps the method strictly first-order while fixing the scaling.
    """
    pf = pair.p_float()
    w = _weight_array(pair, kind, values.size)

    def normalize(v):
        b = float(np.sum(w * np.abs(v) ** pf))
        return v / b ** (1.0 / pf)

    x = normalize(values.astype(float))
    phi = CompactFunction(x)
    q = hardy_lhs(phi, pair)          # denominator is 1 after normalization
    history = [q]
    best_q, best_iter = q, 0
    step = 1.0
    x_prev = g_prev = None
    iterations = 0
    converged = False
    g = rayleigh_gradient(phi, pair, kind)
    grad_norm = float(np.linalg.norm(g))
    for iterations in range(1, max_iters + 1):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= tol * max(1.0, q):
            converged = True
            break
        if x_prev is not None:
            s = x - x_prev
            y = g - g_prev
            sy = float(np.dot(s, y))
            if sy > 0:
                step = float(np.dot(s, s)) / sy
            step = min(max(step, 1e-12), 1e8)
        reference = max(history[-10:])
        t = step
        improved = False
        while t > 1e-22:
            cand = normalize(x - t * g)
            q_cand = hardy_lhs(CompactFunction(cand), pair)
            if q_cand <= reference - 1e-4 * t * grad_norm ** 2:
                improved = True
                break
            t *= 0.5
        if not improved:
            # No descent direction survives rounding: stationary in floats.
            converged = True
            break
        x_prev, g_prev = x, g
        x = cand
        phi = CompactFunction(x)
        q = q_cand
        history.append(q)
        if q < best_q - tol * max(1.0, q):
            best_q, best_iter = q, iterations
        elif iterations - best_iter > _STALL_LIMIT:
            converged = True
            break
        g = rayleigh_gradient(phi, pair, kind)
    return phi, q, iterations, converged, grad_norm


def minimize_rayleigh(pair: ExponentPair, kind: WeightKind, N: int,
                      max_iters: int = 20000, tol: float = 1e-9,
                      seed: int = 0, restarts: int = 2) -> RayleighResult:
    """Best quotient found by normalized first-order descent.

    Starts from the tapered ground state (the natural near-optimizer), a
    log-arched ground state, and seeded noise restarts; non-convergence is
    flagged, never raised.
    """
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    starts = [_ground_state_taper(pair, N), _ground_state_log_arch(pair, N)]
    for r in range(restarts):
        rng = np.random.default_rng([seed & 0x7FFFFFFF, r])
        starts.append(rng.uniform(-1.0, 1.0, size=N)
                      + _ground_state_taper(pair, N))
    best = None
    for values in starts:
        result = _descend(values, pair, kind, max_iters, tol)
        if best is None or result[1] < best[1]:
            best = result
    phi, q, iterations, converged, grad_norm = best
    return RayleighResult(quotient=q, minimizer=phi, iterations=iterations,
                          converged=converged, grad_norm=grad_norm)


def run_hardy_trials(pair: ExponentPair, trials: int, support: int, seed: int,
                     distributions=("uniform", "gaussian", "sparse")) -> dict:
    """Seeded batch of random test functions checked against both weights.

    Per-trial streams derive from the master seed, so results do not depend
    on execution order.  Reports slack statistics and whether the improved
    weight's slack stayed below the classical one's on every trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if support < 1:
        raise ValueError(f"support must be positive, got {support}")
    min_slack = {WeightKind.IMPROVED: float("inf"),
                 WeightKind.CLASSICAL: float("inf")}
    all_pass = True
    comparisons_ok = True
    for t in range(trials):
        rng = np.random.default_rng([seed & 0x7FFFFFFF, t])
        n = int(rng.integers(1, support + 1))
        dist = distributions[t % len(distributions)]
        phi = random_compact(int(rng.integers(2 ** 31)), n, dist)
        slack = {}
        for kind in (WeightKind.IMPROVED, WeightKind.CLASSICAL):
            report = check_hardy(phi, pair, kind)
            slack[kind] = report.slack
            min_slack[kind] = min(min_slack[kind], report.slack)
            all_pass = all_pass and report.passed
        allowance = 1e-12 * max(1.0, abs(slack[WeightKind.CLASSICAL]))
        if slack[WeightKind.IMPROVED] > slack[WeightKind.CLASSICAL] + allowance:
            comparisons_ok = False
    return {
        "trials": trials,
        "support": support,
        "seed": seed,
        "distributions": list(distributions),
        "min_slack_improved": min_slack[WeightKind.IMPROVED],
        "min_slack_classical": min_slack[WeightKind.CLASSICAL],
        "all_pass": all_pass,
        "improved_slack_below_classical": comparisons_ok,
    }
