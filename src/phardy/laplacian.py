"""The combinatorial p-Laplacian on the nonnegative integers and the
supersolution-to-weight transform.

For a function u on {0, ..., N} the operator at an interior point n is

    sgn(u(n)-u(n-1))|u(n)-u(n-1)|^(p-1) + sgn(u(n)-u(n+1))|u(n)-u(n+1)|^(p-1).

The ground state n^((p-1)/p) turns this into the improved Hardy weight via
division by u(n)^(p-1); that identity is the generator of everything the
weight module evaluates in closed form.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .numerics import ExponentPair


def _signed_power(t, pm1):
    """sgn(t) * |t|^(p-1) from p - 1, in the caller's precision context."""
    if t == 0:
        return mpf(0)
    tm = mpf(t)
    mag = abs(tm) ** pm1
    return mag if tm > 0 else -mag


def ground_state_grid(pair: ExponentPair, support_bound: int,
                      precision_bits: int = 53) -> list:
    """The positive supersolution n^((p-1)/p) at n = 0, ..., support_bound,
    in one pass; exactly zero at n = 0."""
    with mp.workprec(precision_bits):
        s = pair.inv_q_mpf(precision_bits)
        return [mpf(0)] + [mpf(n) ** s for n in range(1, support_bound + 1)]


def weight_from_supersolution(u, pair: ExponentPair, indices: range,
                              precision_bits: int = 53) -> list:
    """The weight generated by a positive supersolution, lap(u)(n) / u(n)^(p-1),
    at each n of indices, for u given by its values u(0), ..., u(N).

    Evaluated in one precision context with p - 1 formed once.  The operator
    is left undefined at the ends of the grid rather than made one-sided, so
    an index outside 1..N-1 is refused, as is a u not positive at n.

    With the signed flux F(m) = sgn(d)|d|^(p-1), d = u(m+1) - u(m), the
    operator is lap(u)(n) = F(n-1) - F(n): the term of u(n) - u(n+1) is
    -F(n) exactly, since a - b = -(b - a) under round-to-nearest.  So each
    flux is formed once, and reused by the next index when it is n + 1.
    """
    last = len(u) - 1
    out = []
    flux_at, flux = None, None
    with mp.workprec(precision_bits):
        pm1 = pair.p_mpf(precision_bits) - 1
        for n in indices:
            if not 1 <= n <= last - 1:
                raise ValueError(
                    f"need both neighbors of {n} inside [0, {last}]")
            un = u[n]
            if not un > 0:
                raise ValueError(f"u must be positive at n={n}, got {un}")
            left = (flux if flux_at == n - 1
                    else _signed_power(un - u[n - 1], pm1))
            flux_at, flux = n, _signed_power(u[n + 1] - un, pm1)
            out.append((left - flux) / mpf(un) ** pm1)
    return out
