"""Frequency vectors: structure predicates and derivative values at the origin.

A frequency vector (l_0, ..., l_n) lists the roots, with multiplicity, of the
characteristic polynomial of the constant-coefficient operator
prod_j (d/dx - l_j).  Everything downstream (the fundamental solution, its
inequalities, the moment transform) is parameterised by this vector.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "FrequencyVector",
    "as_frequency_vector",
    "is_conjugate_closed",
    "is_symmetric",
    "taylor_coefficient",
    "check_necessary",
]

#: Default absolute tolerance for multiset matching of frequencies.
DEFAULT_MATCH_TOL = 1e-9

#: Frequency sums with a larger imaginary part are rejected as non-real.
IMAG_SUM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class FrequencyVector:
    """Ordered tuple of complex frequencies, repeated entries allowed.

    ``n`` is the order index: a vector of ``n + 1`` entries describes an
    operator of order ``n + 1`` whose fundamental solution has an ``n``-fold
    zero at the origin.
    """

    entries: tuple

    def __post_init__(self):
        coerced = tuple(complex(v) for v in self.entries)
        if len(coerced) < 1:
            raise ValueError("a frequency vector needs at least one entry")
        for v in coerced:
            if not (cmath.isfinite(v)):
                raise ValueError(f"non-finite frequency {v!r}")
        object.__setattr__(self, "entries", coerced)

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def as_frequency_vector(freq) -> FrequencyVector:
    """Coerce a FrequencyVector or a plain sequence of scalars."""
    if isinstance(freq, FrequencyVector):
        return freq
    if isinstance(freq, Iterable):
        return FrequencyVector(tuple(freq))
    raise TypeError(f"cannot interpret {freq!r} as a frequency vector")


def _matching(left: Sequence[complex], right: Sequence[complex], tol: float):
    """Indices into right matched to each entry of left, or None if some distance exceeds tol.

    Greedy bipartite matching: each left element, taken in (real, imag)
    order, grabs the closest unused right element.  ValueError unless tol is
    finite and nonnegative.
    """
    _tolerance(tol, "tol")
    remaining = list(range(len(right)))
    match = [0] * len(left)
    for i in sorted(range(len(left)), key=lambda i: (left[i].real, left[i].imag)):
        best_i = -1
        best_d = None
        for k, j in enumerate(remaining):
            d = abs(left[i] - right[j])
            if best_d is None or d < best_d:
                best_d, best_i = d, k
        if best_d is None or best_d > tol:
            return None
        match[i] = remaining.pop(best_i)
    return match


def _conjugate_partners(freq, tol: float = DEFAULT_MATCH_TOL):
    """Per entry, the index of the entry matched to its conjugate; None if not closed.

    An entry matched to itself is real to within tol.  The map is a
    permutation; for repeated pairs closed only within tol it need not be
    an involution.  ``build_evaluator`` pairs the non-real entries along its
    cycles.
    """
    freq = as_frequency_vector(freq)
    return _matching([v.conjugate() for v in freq.entries], freq.entries, tol)


def is_conjugate_closed(freq, tol: float = DEFAULT_MATCH_TOL) -> bool:
    """True iff the multiset of frequencies equals its complex conjugate.

    This is the condition under which the solution space is closed under
    conjugation and the fundamental solution is real-valued on the real line.
    """
    return _conjugate_partners(freq, tol) is not None


def is_symmetric(freq, tol: float = DEFAULT_MATCH_TOL) -> bool:
    """True iff the multiset of frequencies equals its negation."""
    freq = as_frequency_vector(freq)
    return _matching([-v for v in freq.entries], freq.entries, tol) is not None


def _integer(value, name: str) -> int:
    """value as an int, numpy integers included; a bool or a non-integer raises ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _tolerance(value, name: str):
    """value unchanged when it is finite and nonnegative; otherwise ValueError."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _homogeneous_prefix(entries: Sequence[complex], dmax: int) -> list:
    """Complete homogeneous symmetric polynomials h_0..h_dmax of the entries.

    Grows one variable at a time: h_d(x_1..x_i) = h_d(x_1..x_{i-1})
    + x_i * h_{d-1}(x_1..x_i).  O(len(entries) * dmax) and numerically tame,
    unlike summing monomials over all multi-indices.
    """
    h = [1] + [0] * dmax
    for lam in entries:
        for d in range(1, dmax + 1):
            h[d] = h[d] + lam * h[d - 1]
    return h


def taylor_coefficient(freq, k: int) -> complex:
    """Value of the k-th derivative of the fundamental solution at 0.

    Zero for k < n, one for k = n, and the complete homogeneous symmetric
    polynomial of degree k - n in the frequencies for k > n.  ValueError
    unless k is a nonnegative integer (not a bool).
    """
    freq = as_frequency_vector(freq)
    k = _integer(k, "k")
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    n = freq.n
    if k < n:
        return 0
    return _homogeneous_prefix(freq.entries, k - n)[k - n]


def check_necessary(freq) -> bool:
    """Necessary condition for the (n+1)-th derivative to stay nonnegative on [0, oo).

    Returns True iff the frequency sum has nonnegative real part.  The sum of
    a conjugate-closed vector is real; a materially non-real sum means a
    non-real fundamental solution and is rejected.
    """
    freq = as_frequency_vector(freq)
    total = sum(freq.entries)
    if abs(total.imag) > IMAG_SUM_TOL:
        raise ValueError(
            f"frequency sum {total!r} is not real; the nonnegativity criterion "
            "applies to real-valued fundamental solutions only"
        )
    return total.real >= 0.0
