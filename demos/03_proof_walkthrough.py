#!/usr/bin/env python3
"""The decomposition behind the improvement, term by term.

Writing x = 1/n, the weight factors as (x/q)^(p-1) (x/q + E(x) + F(x)): the
classical weight is the (x/q)^p part, so everything above it is E + F.  E
collects the odd-order terms of the first bracket power and is positive on
sight; F is the remainder over bracket powers n >= 2, summed in closed form
as h(g(-x)) - h(g(x)) with h(t) = (1+t)^(p-1) - 1 - (p-1)t, and its sign
needs the lemma apparatus.  This script evaluates all pieces at sample
points, confirms the decomposition against the closed form, and runs every
lemma bound over a grid, printing worst margins.
"""

from fractions import Fraction

from phardy.numerics import ExponentPair
from phardy import proof_machinery as pm
from phardy.weights import eval_w_closed_x

for p in (Fraction(3, 2), Fraction(2), Fraction(7, 2)):
    pair = ExponentPair(p)
    print(f"=== p = {p} (q = {pair.q_exact}) ===")
    for x in (0.1, 0.25, 0.5):
        e = pm.eval_E(pair, x)
        f = pm.eval_F(pair, x)
        qf = pair.q_float()
        lhs = float(eval_w_closed_x(pair, x, 113))
        rhs = (x / qf) ** (float(p) - 1) * (x / qf + e.value + f.value)
        print(f"  x = {x}: E = {e.value:+.6e}  F = {f.value:+.6e}  "
              f"E+F = {e.value + f.value:+.6e}  |w - factored| = "
              f"{abs(lhs - rhs):.2e}")
    print()

print("Lemma suite over a coarse grid (x = 0.01 .. 0.5, step 0.01):")
x_grid = tuple(j / 100 for j in range(1, 51))
p_grid = (Fraction("1.05"), Fraction(3, 2), Fraction(2), Fraction(5, 2),
          Fraction(7, 2), Fraction(6))
suite = pm.run_default_suite(p_grid=p_grid, x_grid=x_grid)
for name, report in suite.items():
    print(f"  {name:<14s} {'pass' if report.passed else 'FAIL'}   "
          f"worst margin = {report.worst_margin:.3e}")
print("\nMargins are the checked quantity minus its truncation-plus-rounding "
      "tolerance; positive margin means the strict inequality is certified "
      "beyond numerical noise at every grid point.")
