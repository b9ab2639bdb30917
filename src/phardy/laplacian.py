"""The combinatorial p-Laplacian on the nonnegative integers and the
supersolution-to-weight transform.

For a function f on {0, ..., N} the operator at an interior point n is

    sgn(f(n)-f(n-1))|f(n)-f(n-1)|^(p-1) + sgn(f(n)-f(n+1))|f(n)-f(n+1)|^(p-1).

The ground state n^((p-1)/p) turns this into the improved Hardy weight via
division by u(n)^(p-1); that identity is the generator of everything the
weight module evaluates in closed form.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .numerics import ExponentPair


class SupportError(ValueError):
    """Evaluation outside the declared support window."""


class GridFunction:
    """A function sampled eagerly on {0, 1, ..., N}; immutable.

    Evaluation outside the window raises; the operator is deliberately left
    undefined at the right boundary rather than made one-sided.
    """

    def __init__(self, values):
        values = tuple(values)
        if not values:
            raise ValueError("a GridFunction needs at least the value at 0")
        self.values = values
        self.support_bound = len(values) - 1

    def __call__(self, n: int):
        if not 0 <= n <= self.support_bound:
            raise SupportError(
                f"index {n} outside support [0, {self.support_bound}]")
        return self.values[n]

    @staticmethod
    def from_callable(f, support_bound: int) -> "GridFunction":
        return GridFunction(f(n) for n in range(support_bound + 1))


def _signed_power(t, pm1):
    """sgn(t) * |t|^(p-1) from p - 1, in the caller's precision context."""
    if t == 0:
        return mpf(0)
    tm = mpf(t)
    mag = abs(tm) ** pm1
    return mag if tm > 0 else -mag


def _laplacian_at(f: GridFunction, n: int, pm1):
    if not 1 <= n <= f.support_bound - 1:
        raise SupportError(
            f"need both neighbors of {n} inside [0, {f.support_bound}]")
    return (_signed_power(f(n) - f(n - 1), pm1)
            + _signed_power(f(n) - f(n + 1), pm1))


def _p_minus_one(p, precision_bits: int):
    pm = p.p_mpf(precision_bits) if isinstance(p, ExponentPair) else mpf(p)
    return pm - 1


def signed_power(t, p, precision_bits: int = 53):
    """sgn(t) * |t|^(p-1), exactly zero at t = 0."""
    if t == 0:
        return mpf(0)
    with mp.workprec(precision_bits):
        return _signed_power(t, _p_minus_one(p, precision_bits))


def apply_p_laplacian(f: GridFunction, n: int, p,
                      precision_bits: int = 53):
    """The operator at interior point n (both neighbors inside support)."""
    with mp.workprec(precision_bits):
        return _laplacian_at(f, n, _p_minus_one(p, precision_bits))


def hardy_ground_state(pair: ExponentPair, n: int, precision_bits: int = 53):
    """The positive supersolution n^((p-1)/p); exactly zero at n = 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return mpf(0)
    with mp.workprec(precision_bits):
        return mpf(n) ** pair.inv_q_mpf(precision_bits)


def ground_state_grid(pair: ExponentPair, support_bound: int,
                      precision_bits: int = 53) -> GridFunction:
    """Ground state tabulated on {0, ..., support_bound} in one pass."""
    with mp.workprec(precision_bits):
        s = pair.inv_q_mpf(precision_bits)
        values = [mpf(0)]
        values += [mpf(n) ** s for n in range(1, support_bound + 1)]
    return GridFunction(values)


def weight_from_supersolution(u: GridFunction, pair: ExponentPair, n,
                              precision_bits: int = 53):
    """The weight generated by a positive supersolution: lap(u)(n) / u(n)^(p-1).

    Given a range of indices instead of one, returns the list of weights,
    evaluated in one precision context with p - 1 formed once.
    """
    indices = n if isinstance(n, range) else (n,)
    out = []
    with mp.workprec(precision_bits):
        pm1 = pair.p_mpf(precision_bits) - 1
        for k in indices:
            uk = u(k)
            if not uk > 0:
                raise ValueError(f"u must be positive at n={k}, got {uk}")
            out.append(_laplacian_at(u, k, pm1) / mpf(uk) ** pm1)
    return out if isinstance(n, range) else out[0]
