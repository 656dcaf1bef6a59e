"""Certifying the sign of high derivatives on an interval.

The downstream inequalities all hinge on the (n+1)-th derivative of the
fundamental solution staying nonnegative on [0, B].  verify_sign samples a
grid, reports the first violation, and refines the adjacent sign change to a
bracket of width 1e-10.
"""

import math

from expfun import build_evaluator, verify_sign

# The decaying pair (-1, -2): the second derivative starts negative and
# crosses zero at 2 log 2 = 1.3862943611...
ev = build_evaluator([-1, -2])
report = verify_sign(ev, 2, 0.0, 3.0)
print("== second derivative of (-1, -2) on [0, 3]")
print(f"  status   : {report.status}")
print(f"  witness  : {report.witness}")
print(f"  boundary : {report.boundary:.12f}   (2 log 2 = {2 * math.log(2):.12f})")

# The mixed vector (-1, 1, 0, 1): its fourth derivative is nonnegative on
# the positive axis, which is what licenses every inequality that follows.
evm = build_evaluator([-1, 1, 0, 1])
print("\n== fourth derivative of (-1, 1, 0, 1) on [0, 4]")
print(f"  status: {verify_sign(evm, 4, 0.0, 4.0).status}")

# Symmetric vectors satisfy a two-sided hypothesis: the top derivative is
# nonpositive left of the origin and nonnegative right of it.
evs = build_evaluator([-1.1, 0, 1.1])
left = verify_sign(evs, 3, -3.0, 0.0, sign=-1)
right = verify_sign(evs, 3, 0.0, 3.0, sign=+1)
print("\n== two-sided check for the symmetric triple (-1.1, 0, 1.1)")
print(f"  nonpositive on [-3, 0]: {left.status}")
print(f"  nonnegative on [0, 3] : {right.status}")
