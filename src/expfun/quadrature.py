"""Gauss-Legendre quadrature with order doubling, shared by the integral routes.

Both integrals in the package, the convolution in ``identity_residual`` and
the density transform, have smooth integrands whose values at a whole rule's
nodes come from one ``derivative_table`` call.  ``gauss_legendre`` maps the
rule onto the interval, hands all nodes to the caller at once, and doubles the
order until two successive results agree.  Each rule is built once per order
and cached for the life of the process.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np


@functools.lru_cache(maxsize=None)
def legendre_rule(order: int) -> tuple:
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(rule_sum: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   lo: float, hi: float, start: int, cap: int, tol: float) -> np.ndarray:
    """Integral over [lo, hi] of an integrand given through its weighted node sums.

    ``rule_sum(ts, ws)`` returns sum_i ws[i] * f(ts[i]), a scalar or an
    array, for one rule's nodes and weights mapped onto [lo, hi]; hi < lo
    gives the oriented integral.  The order doubles from ``start`` until two
    successive results s, s' satisfy max|s - s'| <= tol * (1 + max|s|), and
    the later one is returned.  Raises RuntimeError when orders up to ``cap``
    do not agree.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    previous = None
    order = start
    while order <= cap:
        nodes, weights = legendre_rule(order)
        s = np.asarray(rule_sum(half * nodes + mid, half * weights))
        if previous is not None and np.abs(s - previous).max() <= tol * (1.0 + np.abs(s).max()):
            return s
        previous = s
        order *= 2
    raise RuntimeError(f"Gauss-Legendre quadrature did not stabilize by order {cap}")
