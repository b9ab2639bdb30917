#!/usr/bin/env python3
"""Variational view: the inequality on random functions and the quotient's
floor.

Any compactly supported function gives energy >= weighted p-norm for both
weights, with less slack under the improved weight (it is pointwise
larger).  The smallest Rayleigh quotient on support {1..N} is the first
eigenvalue lambda_N of the weighted p-Laplacian there; the minimizer
brackets it as [lower, upper], where upper is the quotient of the computed
ground state and lower is certified by the ground-state representation.  A
lower end >= 1 verifies the inequality on that support.  The classical
weight has sharp constant 1, approached only logarithmically in the support
size; the improved weight's minima drift toward 1 noticeably faster.  The
improved weight's limiting value is reported here, not asserted:
criticality is not claimed.
"""

from fractions import Fraction

from phardy import ExponentPair, minimize_rayleigh
from phardy.verify import run_hardy_trials
from phardy.weights import WeightKind

pair = ExponentPair(2)

print("Random-function slack (1000 seeded trials, support <= 100):")
summary = run_hardy_trials(pair, trials=1000, support=100, seed=7)
print(f"  min slack, improved  kind: {summary['min_slack_improved']:.6f}")
print(f"  min slack, classical kind: {summary['min_slack_classical']:.6f}")
print(f"  improved slack <= classical on every trial: "
      f"{summary['improved_slack_below_classical']}")
print()


def bracket(pair, kind, n_support):
    result = minimize_rayleigh(pair, kind, n_support, max_iters=30000)
    return f"[{result.lower_bound:.9f}, {result.quotient:.9f}]"


print("Certified brackets [lower, upper] for the smallest quotient (p = 2):")
print(f"{'N':<8s} {'classical':<26s} {'improved':<26s}")
for n_support in (10, 100, 1000):
    classical = bracket(pair, WeightKind.CLASSICAL, n_support)
    improved = bracket(pair, WeightKind.IMPROVED, n_support)
    print(f"{n_support:<8d} {classical:<26s} {improved:<26s}")
print()
print("Both columns stay above 1, as the inequality demands.  The "
      "classical column creeps down only logarithmically; the improved "
      "column sits much closer to 1 at the same support size, consistent "
      "with the improved weight being much closer to the edge of what the "
      "energy can dominate.")

print()
print("Same probe at p = 3/2:")
pair = ExponentPair(Fraction(3, 2))
for n_support in (10, 100):
    print(f"N = {n_support:<5d} classical "
          f"{bracket(pair, WeightKind.CLASSICAL, n_support)}   improved "
          f"{bracket(pair, WeightKind.IMPROVED, n_support)}")
