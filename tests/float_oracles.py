"""Float reference routes for the fundamental solution, used only by tests.

Two routes independent of the library's matrix exponential: a
partial-fraction sum, for distinct frequencies only, and a truncated power
series around the origin, for small |x|.  They are cheap enough for tests
that need thousands of reference values; ``mpmath_oracle`` covers the
regimes they cannot, near-confluent frequencies and large |x|.
"""

import math

import numpy as np

from expfun.frequencies import as_frequency_vector, _homogeneous_prefix


#: Partial fractions are rejected below this frequency separation.
MIN_DISTINCT_GAP = 1e-6


def eval_via_partial_fractions(freq, m: int, x: float) -> complex:
    """Oracle route: sum of l_j**m * exp(l_j x) / prod_{k != j} (l_j - l_k).

    Valid only for pairwise distinct frequencies; near-confluent vectors are
    rejected as ill-conditioned.  The error is absolute, about eps times the
    sum of the terms' magnitudes, so near the n-fold zero at the origin the
    result can lose every digit without a refusal: for
    [1, -1, 2, -2, 0.5, 3, -3] at x = 0.001 it returns 1.06e-17 where Phi is
    1.39e-21.  Use ``eval_via_taylor`` near the origin.
    """
    freq = as_frequency_vector(freq)
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    ent = freq.entries
    gap = min(
        (abs(ent[i] - ent[j]) for i in range(len(ent)) for j in range(i + 1, len(ent))),
        default=math.inf,
    )
    if gap <= MIN_DISTINCT_GAP:
        raise ValueError(
            f"frequencies too close (min gap {gap:.3e}); partial fractions are "
            "ill-conditioned near confluent nodes"
        )
    total = 0j
    for j, lj in enumerate(ent):
        denom = 1.0 + 0j
        for k, lk in enumerate(ent):
            if k != j:
                denom *= lj - lk
        total += lj**m * np.exp(lj * x) / denom
    return complex(total)


#: Truncated power series must certify a tail below this bound.
TAYLOR_TAIL_TOL = 1e-12


def eval_via_taylor(freq, m: int, x: float, terms: int = 60) -> complex:
    """Oracle route: truncated power series around the origin.

    Sums ``terms`` series terms starting at order max(m, n) and certifies the
    truncation with a geometric tail estimate; raises if the tail bound
    exceeds ``TAYLOR_TAIL_TOL``.
    """
    freq = as_frequency_vector(freq)
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    if terms < 1:
        raise ValueError("need at least one series term")
    n = freq.n
    k0 = max(m, n)
    klast = k0 + terms - 1
    h = _homogeneous_prefix(freq.entries, klast - n)
    total = 0j
    ax = abs(x)
    for k in range(k0, klast + 1):
        total += h[k - n] * (x ** (k - m)) / math.factorial(k - m)

    # Geometric tail estimate: |h_{k-n}| <= C(k, n) * max|l|**(k-n), so the
    # first omitted term is bounded by b and the tail by b / (1 - ratio).
    big = max(abs(v) for v in freq.entries)
    kt = klast + 1
    bound = math.comb(kt, n) * big ** (kt - n) * ax ** (kt - m) / math.factorial(kt - m)
    ratio = (kt + 1) / (kt + 1 - n) * big * ax / (kt + 1 - m)
    if bound != 0.0 and (ratio >= 1.0 or bound / (1.0 - ratio) > TAYLOR_TAIL_TOL):
        raise ValueError(
            f"series tail not certified below {TAYLOR_TAIL_TOL:g} after {terms} terms "
            f"(bound {bound:.3e}, ratio {ratio:.3f}); increase terms or reduce |x|"
        )
    return complex(total)
