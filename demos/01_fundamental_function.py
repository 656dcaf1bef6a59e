"""Building and evaluating fundamental solutions.

A frequency vector (l_0, ..., l_n) fixes the operator prod (d/dx - l_j).  Its
fundamental solution is the unique solution with an n-fold zero at the origin
and unit n-th derivative there.  The evaluator handles repeated frequencies
without any case analysis, so confluent limits just work.
"""

import math

from expfun import build_evaluator, basis, eval_derivative

# ---------------------------------------------------------------------------
# Three textbook vectors with closed forms.
# ---------------------------------------------------------------------------

print("== decaying pair (-1, -2):  exp(-x) - exp(-2x)")
ev = build_evaluator([-1, -2])
for x in (0.5, 1.0, 2.0):
    closed = math.exp(-x) - math.exp(-2 * x)
    print(f"  x={x:4.1f}  evaluator={eval_derivative(ev, 0, x):+.12f}  closed={closed:+.12f}")

print("\n== all-zero triple (0, 0, 0):  x**2 / 2")
ev0 = build_evaluator([0, 0, 0])
for x in (0.5, 1.5, 3.0):
    print(f"  x={x:4.1f}  evaluator={eval_derivative(ev0, 0, x):+.12f}  closed={x**2 / 2:+.12f}")

print("\n== symmetric triple (0, 1, -1):  cosh(x) - 1")
evs = build_evaluator([0, 1, -1])
for x in (0.5, 1.0, 2.0):
    print(f"  x={x:4.1f}  evaluator={eval_derivative(evs, 0, x):+.12f}  closed={math.cosh(x) - 1:+.12f}")

# ---------------------------------------------------------------------------
# Initial data: an n-fold zero, then a unit derivative.
# ---------------------------------------------------------------------------

print("\n== initial data at the origin for (-1, 1, 0, 1)")
evm = build_evaluator([-1, 1, 0, 1])
for j in range(5):
    print(f"  derivative {j} at 0: {eval_derivative(evm, j, 0.0):+.3e}")

# ---------------------------------------------------------------------------
# The basis functions b_k(x) = k! Phi^(n-k)(x) reduce to monomials when all
# frequencies vanish, and always satisfy b_0(0) = 1.
# ---------------------------------------------------------------------------

print("\n== basis functions of (0, 0, 0) at x = 1.5 (should be 1, x, x**2)")
print("  ", [round(basis(ev0, k, 1.5), 12) for k in range(3)])
