"""Nested Fejer quadrature with order doubling, shared by the integral routes.

Both integrals in the package, the convolution in ``identity_residual`` and
the density transform, have smooth integrands whose values at a set of nodes
come from one ``derivative_table`` call.  ``nested_fejer`` integrates them
with Fejer's second rule: the rule of order N has the N - 1 interior nodes
cos(j pi / N), j = 1..N-1, of Clenshaw-Curtis, so no integrand is evaluated
at an end of the interval.  The rule of order 2N contains every node of the
rule of order N, so each doubling evaluates only the new nodes.  Each order's
weights come from one inverse FFT (Waldvogel 2006, BIT 46:195) and are cached
for the life of the process.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

#: Agreement that both integrals, the density transform and ``identity_residual``,
#: ask of the results of successive orders.
_FEJER_TOL = 1e-11


@functools.lru_cache(maxsize=None)
def fejer_rule(order: int) -> tuple:
    """Nodes cos(j pi / order), j = 1..order-1, and weights of Fejer's second rule on [-1, 1].

    Both arrays are read-only.  For even order the rule integrates
    polynomials of degree order - 1 exactly.
    """
    # numpy.fft is imported here so that importing the package does not load it.
    from numpy.fft import ifft

    odd = np.arange(1, order, 2, dtype=float)
    moments = np.concatenate([2.0 / odd / (odd - 2.0), [1.0 / odd[-1]], np.zeros(order - odd.size)])
    # The weight of node j is entry j of the inverse transform; entry 0 is the
    # zero weight of the endpoint, which the rule leaves out.
    weights = ifft(-moments[:-1] - moments[:0:-1]).real[1:]
    # sin(pi (order - 2j) / (2 order)) is cos(j pi / order), exactly odd about j = order / 2.
    nodes = np.sin(np.pi * np.arange(order - 2, -order, -2) / (2 * order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def nested_fejer(values: Callable[[np.ndarray], np.ndarray],
                 lo: float, hi: float, start: int, cap: int, tol: float) -> np.ndarray:
    """Integral over [lo, hi] of an integrand given by its values at nodes.

    ``values(ts)`` returns the integrand at the points ``ts`` as an array of
    shape (len(ts), ...); the integral has the trailing shape.  hi < lo gives
    the oriented integral.  The first call evaluates the rule of order
    2 * start, whose odd-indexed nodes form the rule of order ``start``;
    each later call evaluates only the nodes that the doubled order adds.
    The order doubles until the results s, s' of two successive orders
    satisfy max|s - s'| <= tol * (1 + max|s'|), and s' is returned.  Raises
    RuntimeError when orders up to ``cap`` do not agree.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    order = start
    f = previous = None
    while 2 * order <= cap:
        order *= 2
        nodes, weights = fejer_rule(order)
        if f is None:
            f = np.asarray(values(half * nodes + mid))
            previous = half * (fejer_rule(start)[1] @ f[1::2])
        else:
            fresh = np.asarray(values(half * nodes[::2] + mid))
            merged = np.empty((order - 1,) + f.shape[1:], dtype=np.result_type(f, fresh))
            merged[1::2] = f
            merged[::2] = fresh
            f = merged
        s = half * (weights @ f)
        if np.abs(s - previous).max() <= tol * (1.0 + np.abs(s).max()):
            return s
        previous = s
    raise RuntimeError(f"Fejer quadrature did not stabilize by order {cap}")
