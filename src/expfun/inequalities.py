"""Sign certificates and inequalities for the fundamental solution.

Once the (n+1)-th derivative of the fundamental solution is certified
nonnegative on an interval, the weighted basis sum dominates every polynomial
that is nonnegative there, the associated Hankel matrices are positive
definite, and the squared-derivative ratio is pinched between 1 and
n/(n-1).  This module provides the certificate (a sampling check, not a
proof), the integral identity behind the dominance, and the monotonicity
criteria that make the sign hypothesis easy to establish for many frequency
vectors.

Sign changes, of a sampled derivative here and of a Hankel determinant in
the CLI, are located by one bracketed refinement, ``_refine_sign_change``.
It starts from the two samples around the change, takes safeguarded Newton
steps on f/f' where the row carries the next two derivatives (secant steps
where it does not), and falls back to bisection, so it returns a bracket of
the same width as bisection would after a few evaluations instead of about
25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .frequencies import as_frequency_vector, is_symmetric
from .fundamental import (
    FundamentalEvaluator,
    _grid,
    _order_rows,
    build_evaluator,
    derivative_table,
    eval_derivative,  # unused here; bench/test_smoke.py checks that tracing rebinds this copy
)
from .quadrature import gauss_legendre

__all__ = [
    "PolynomialCoeffs",
    "SignReport",
    "HankelMatrix",
    "CertificateKind",
    "MonotonicityCertificate",
    "verify_sign",
    "identity_residual",
    "dominance_gap",
    "hankel_matrix",
    "is_positive_definite",
    "polynomial_nonnegative_on",
    "turan_ratio",
    "monotonicity_certificate",
]

#: Width of the bracket to which ``_refine_sign_change`` narrows a sign change.
BISECTION_XTOL = 1e-10

#: Default number of grid samples for sign verification.
DEFAULT_GRID = 4096


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Real polynomial a_0 + a_1 x + ... + a_d x**d by ascending coefficients."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self) -> int:
        """Largest index with a nonzero coefficient (0 for the zero polynomial)."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0.0:
                return i
        return 0

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def as_polynomial(poly) -> PolynomialCoeffs:
    if isinstance(poly, PolynomialCoeffs):
        return poly
    return PolynomialCoeffs(tuple(poly))


@dataclass(frozen=True)
class SignReport:
    """Outcome of a sampled sign check.

    ``status`` is "nonnegative" when every sample of sign * value clears
    -tol, else "violated" with the first offending sample as ``witness``.
    ``boundary`` locates the adjacent sign change, when one exists on the
    grid: the midpoint of a bracket no wider than ``BISECTION_XTOL`` that
    holds it.  The bracket is around the sign change of the computed values,
    not of the true Phi^(m); where Phi^(m) is flat relative to its rounding
    error the two can lie far apart.
    """

    status: str
    witness: Optional[float]
    boundary: Optional[float]
    samples: int
    sign: int = 1


def _step_target(x0: float, row0, x: float, row) -> float:
    """Next root estimate from the last two probes, or NaN when the step is undefined.

    Rows holding (f, f', f'') give a Newton step on f/f' from x, which stays
    quadratic at multiple zeros; rows holding f alone give the secant step
    through (x0, f(x0)) and (x, f(x)).
    """
    if len(row) > 2:
        f, d1, d2 = float(row[0]), float(row[1]), float(row[2])
        den = d1 * d1 - f * d2
        return x - f * d1 / den if den else math.nan
    den = float(row[0]) - float(row0[0])
    return x - float(row[0]) * (x - x0) / den if den else math.nan


def _refine_sign_change(probe: Callable[[float], Sequence[float]], lo: float, hi: float,
                        row_lo, row_hi) -> float:
    """Narrow [lo, hi] around the flip of the predicate f < 0 and return the bracket's midpoint.

    ``row_lo`` and ``row_hi`` are the rows at the ends, the predicate taking
    opposite states there; ``probe(x)`` returns the row at x.  The result is
    the midpoint of a bracket no wider than ``BISECTION_XTOL`` that still
    holds the flip, or of two adjacent floats where their spacing exceeds it.

    Steps follow ``_step_target`` from the last probe, the first one from the
    end of smaller |f| at no evaluation cost.  As in ``rtsafe`` (Numerical
    Recipes, section 9.4), a target outside the bracket, or a step longer
    than half the step before the last, is replaced by bisection.
    Targets are clamped to a margin of BISECTION_XTOL/2 (at least one float
    spacing) inside the bracket.  So a target on an end is kept, and a converged
    target, within the margin of the last probe, is probed one margin from
    that end, just beyond the target, which closes the bracket when the
    target was right.
    """
    lo_negative = row_lo[0] < 0.0
    (x0, row0), (x, row) = sorted(((lo, row_lo), (hi, row_hi)), key=lambda end: -abs(end[1][0]))
    margin = max(0.5 * BISECTION_XTOL, math.ulp(max(abs(lo), abs(hi))))
    older = last = hi - lo
    while hi - lo > BISECTION_XTOL:
        t = _step_target(x0, row0, x, row)
        step = abs(t - x)
        if not (lo <= t <= hi and step <= 0.5 * older):
            t = 0.5 * (lo + hi)
        t = min(max(t, lo + margin), hi - margin)
        if not lo < t < hi:
            break  # lo and hi are adjacent floats
        older, last = last, abs(t - x)
        x0, row0, x, row = x, row, t, probe(t)
        if (row[0] < 0.0) == lo_negative:
            lo = t
        else:
            hi = t
    return 0.5 * (lo + hi)


def verify_sign(ev: FundamentalEvaluator, m: int, lo: float, hi: float,
                grid: int = DEFAULT_GRID, tol: float = 1e-10,
                sign: int = 1) -> SignReport:
    """Sampling certificate that sign * Phi^(m) >= -tol on [lo, hi].

    Samples the uniform grid of ``derivative_grid``, contracting only the
    orders m to m + 2; on a violation the report carries the first offending
    abscissa and the nearest sign change, refined by ``_refine_sign_change``
    from the two grid rows around it, each further step costing one
    evaluation of the same three orders at one point (about 3 on the
    benchmark's scans).  With
    ``sign=-1`` the check certifies nonpositivity.  A "nonnegative" status is
    a grid certificate, not a proof.

    The boundary's bracket holds the sign change of the computed Phi^(m),
    which can sit outside it where the slope is small against the value's
    rounding error: ``verify_sign(build_evaluator([-1e-6, -2e-6]), 2, 0.0,
    3e6)`` brackets 1386294.3611002, while the zero is 2 ln 2 * 1e6 =
    1386294.3611199.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if grid < 64:
        raise ValueError("need at least 64 grid samples")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if m < 0:
        raise ValueError("derivative order must be nonnegative")

    rows = sign * _order_rows(ev.diagonal, m + 2)[m:]
    samples = _grid(ev, lo, hi, grid, rows)
    xs = np.linspace(lo, hi, grid)
    vals = samples[:, 0]
    bad = np.flatnonzero(vals < -tol)
    if bad.size == 0:
        return SignReport("nonnegative", None, None, grid, sign)

    i = int(bad[0])
    witness = float(xs[i])
    if i > 0 and vals[i - 1] >= 0.0:
        # Entered the negative region: refine the crossing on its left.
        j = i
    else:
        # Negative from the start: refine where the sign is first recovered.
        after = np.flatnonzero(vals[i:] >= 0.0)
        if not after.size:
            return SignReport("violated", witness, None, grid, sign)
        j = i + int(after[0])
    probe = lambda x: _grid(ev, x, x, 1, rows)[0]
    boundary = _refine_sign_change(probe, float(xs[j - 1]), float(xs[j]), samples[j - 1], samples[j])
    return SignReport("violated", witness, boundary, grid, sign)


def _weighted_basis_sum(ev: FundamentalEvaluator, poly: PolynomialCoeffs, x: float) -> float:
    """sum_k a_k b_k(x), with b_k(x) = k! Phi^(n-k)(x) read from one derivative_table row."""
    n = ev.n
    if poly.degree > n:
        raise ValueError(f"polynomial degree {poly.degree} exceeds order index {n}")
    row = derivative_table(ev, [x], n)[0]
    total = 0.0
    for k, a in enumerate(poly.coeffs):
        if a != 0.0:
            total += a * (math.factorial(k) * row[n - k])
    return float(total)


#: Gauss-Legendre orders of the convolution integral in ``identity_residual``,
#: and the agreement its successive rules must reach.
_IDENTITY_START_ORDER = 16
_IDENTITY_MAX_ORDER = 4096
_IDENTITY_TOL = 1e-11


def identity_residual(ev: FundamentalEvaluator, poly, x: float) -> float:
    """Defect of the convolution identity linking basis sums to an integral.

    For R of degree at most n, the weighted basis sum
    sum_k a_k k! Phi^(n-k)(x) equals R(x) plus the convolution
    integral of R against Phi^(n+1) over [0, x]; the returned value is the
    absolute difference of the two sides.  The integral is computed by
    Gauss-Legendre rules whose order doubles from 16 until two successive
    results agree to ``1e-11 * (1 + |integral|)``; RuntimeError is raised
    when they still differ at 4096 nodes.  Negative x integrates with the
    orientation convention int_0^x = -int_x^0.
    """
    poly = as_polynomial(poly)
    n = ev.n
    lhs = _weighted_basis_sum(ev, poly, x)
    if x == 0.0:
        integral = 0.0
    else:
        integral = float(gauss_legendre(
            lambda ts, ws: ws @ (poly(ts) * derivative_table(ev, x - ts, n + 1)[:, n + 1]),
            0.0, x, _IDENTITY_START_ORDER, _IDENTITY_MAX_ORDER, _IDENTITY_TOL,
        ))
    return abs(lhs - poly(x) - integral)


def dominance_gap(ev: FundamentalEvaluator, poly, x: float) -> float:
    """Weighted basis sum minus the polynomial: sum_k a_k b_k(x) - R(x).

    Under the sign hypothesis on [0, B] and R nonnegative there, the gap is
    strictly positive for x in (0, B] and exactly zero at x = 0.
    """
    poly = as_polynomial(poly)
    return _weighted_basis_sum(ev, poly, x) - poly(x)


@dataclass(frozen=True)
class HankelMatrix:
    """Symmetric Hankel-structured matrix of scaled derivative values.

    Entry (r, s) is (r+s)! * Phi^(t - (r+s))(x) with top order
    t = max(n, 2k); for 2k <= n this puts Phi^(n) in the corner, and the
    boundary case 2k = n + 1 starts one derivative higher so that 2-frequency
    vectors admit the classical 2x2 probe [[Phi'', Phi'], [Phi', 2 Phi]].
    """

    entries: np.ndarray
    x: float
    k: int

    @property
    def dim(self) -> int:
        return self.k + 1


def hankel_matrix(ev: FundamentalEvaluator, k: int, x: float) -> HankelMatrix:
    """Build the (k+1) x (k+1) Hankel matrix of scaled derivatives at x."""
    n = ev.n
    if k < 0:
        raise ValueError("half-order k must be nonnegative")
    if 2 * k > n + 1:
        raise ValueError(
            f"half-order k={k} needs derivative orders below zero for n={n}; "
            "require 2k <= n + 1"
        )
    top = max(n, 2 * k)
    h = _hankel_entries(derivative_table(ev, [x], top), k)[0]
    h.setflags(write=False)
    return HankelMatrix(entries=h, x=float(x), k=k)


def _hankel_entries(rows: np.ndarray, k: int) -> np.ndarray:
    """Stack of (k+1) x (k+1) Hankel matrices, one per row of a derivative table.

    Entry (r, s) of matrix i is (r+s)! * rows[i, top - (r+s)], with top the
    table's highest order.
    """
    top = rows.shape[1] - 1
    j = np.add.outer(np.arange(k + 1), np.arange(k + 1))
    factorials = np.array([float(math.factorial(i)) for i in range(2 * k + 1)])
    return factorials[j] * rows[:, top - j]


def cholesky_factor(h, tol: float) -> Optional[np.ndarray]:
    """Lower unpivoted Cholesky factor of a symmetric matrix, or None.

    Returns None as soon as a pivot (the diagonal entry before its square
    root) is not above tol.
    """
    a = np.asarray(getattr(h, "entries", h), dtype=float)
    dim = a.shape[0]
    low = np.zeros((dim, dim))
    for j in range(dim):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > tol:
            return None
        low[j, j] = math.sqrt(pivot)
        for i in range(j + 1, dim):
            low[i, j] = (a[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]
    return low


def is_positive_definite(h, tol: float = 0.0) -> bool:
    """True iff an unpivoted Cholesky factorization has every pivot above tol."""
    return cholesky_factor(h, tol) is not None


def polynomial_nonnegative_on(poly, lo: float, hi: float) -> bool:
    """Sampled nonnegativity of a polynomial on [lo, hi].

    Checks 1024 Chebyshev points, both endpoints, and the real critical
    points inside the interval, each against -1e-12.  Callers who construct
    their polynomial as a square can skip this and assert nonnegativity
    themselves.
    """
    poly = as_polynomial(poly)
    nodes = np.cos(np.pi * (2 * np.arange(1024) + 1) / 2048)
    xs = list(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)) + [lo, hi]
    deriv = [k * c for k, c in enumerate(poly.coeffs)][1:]
    if any(deriv):
        for root in np.roots(deriv[::-1]):
            if abs(root.imag) < 1e-9 and lo < root.real < hi:
                xs.append(float(root.real))
    return all(poly(float(x)) >= -1e-12 for x in xs)


def turan_ratio(ev: FundamentalEvaluator, x: float) -> float:
    """Squared first derivative over (second derivative times value).

    For real frequencies with the sign hypothesis certified, the ratio lies
    in [1, n/(n-1)) for x in (0, B); outside that regime it can exceed the
    upper bound.  Raises ArithmeticError only where the denominator is
    exactly zero, as at x = 0.  A tiny denominator near the origin still
    gives an accurate ratio for real frequencies, whose derivatives keep
    their relative accuracy there.
    """
    return float(_turan_ratios(derivative_table(ev, [x], 2), [x])[0])


def _turan_ratios(rows: np.ndarray, xs) -> np.ndarray:
    """Phi'^2 / (Phi'' Phi) from the rows of a derivative table at the abscissae xs."""
    denom = rows[:, 2] * rows[:, 0]
    zero = np.flatnonzero(denom == 0.0)
    if zero.size:
        raise ArithmeticError(
            f"second derivative times value is 0 at x={float(xs[zero[0]])}; ratio undefined"
        )
    return rows[:, 1] * rows[:, 1] / denom


class CertificateKind(Enum):
    """Strength classes of the derivative-positivity certificate."""

    SYMMETRIC = "symmetric"
    PAIR_CHAIN = "pair_chain"
    SOME_NONNEG = "some_nonneg"
    NONE = "none"


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Certificate about derivative positivity of the fundamental solution on x > 0.

    - SYMMETRIC: the frequency multiset equals its negation; every derivative
      is nonnegative on x >= 0.  ``pairs`` holds a sign-matching of indices.
    - PAIR_CHAIN: ``rounds`` disjoint index pairs with nonnegative sums can be
      removed in sequence; derivatives of order 1..2*rounds are positive.
    - SOME_NONNEG: a single nonnegative frequency (``nonnegative_index``)
      forces a positive first derivative.
    - NONE: every frequency is negative; the first derivative provably
      vanishes somewhere on (0, oo), located at ``derivative_zero`` when a
      ``verify_sign`` scan of Phi' over [0, 1e4 / max(1, max|l|)] brackets
      it, and None when the zero lies beyond that range.  The zero is
      unique: with n+1 real frequencies counted with multiplicity, Phi' is an
      exponential polynomial with at most n real zeros (Polya-Szego, Part V)
      and n-1 of them sit at 0, so Phi' changes sign once on (0, oo) and the
      scan's first negative sample lies just past that zero.

    As with ``SignReport.boundary``, the 1e-10 bracket around
    ``derivative_zero`` holds a sign change of the computed Phi', which can
    lie farther from the true zero where Phi' cancels.  For [-93.03504499963121,
    -0.04451643050514944, -0.0015391044333304571] the zero is
    78.29988519656305 (40-digit mpmath), while ``derivative_zero`` is
    78.29988519665345, 9.0e-11 away; on 25 points spaced 5e-11 across the
    zero the computed Phi' reads ``-++++++00+00-+-+++-------``: Phi' = l_0 Phi
    + (...) cancels a term about 93 times the value, while its slope is set
    by the frequency 0.0015.
    """

    kind: CertificateKind
    rounds: int = 0
    pairs: tuple = ()
    nonnegative_index: Optional[int] = None
    derivative_zero: Optional[float] = None


def _symmetry_pairs(values: Sequence[float]) -> tuple:
    """Each index with the first free index of the negated value, or itself for a leftover 0.

    The values must equal their negation as a multiset exactly.
    """
    free = list(range(len(values)))
    pairs = []
    while free:
        i = free.pop(0)
        j = next((j for j in free if values[j] == -values[i]), i)
        if j != i:
            free.remove(j)
        pairs.append((i, j))
    return tuple(pairs)


def _greedy_pair_chain(values: Sequence[float]) -> tuple:
    """Disjoint pairs with nonnegative sum: largest joins the smallest admissible."""
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    pairs = []
    while len(order) >= 2:
        lead = order[0]
        partner = None
        for idx in reversed(order[1:]):
            if values[lead] + values[idx] >= 0.0:
                partner = idx
                break
        if partner is None:
            break
        order.remove(lead)
        order.remove(partner)
        pairs.append((lead, partner))
    return tuple(pairs)


def _locate_derivative_zero(freq) -> Optional[float]:
    scale = max(1.0, max(abs(v) for v in freq.entries))
    return verify_sign(build_evaluator(freq), 1, 0.0, 1e4 / scale, tol=0.0).boundary


def monotonicity_certificate(freq) -> MonotonicityCertificate:
    """Strongest applicable derivative-positivity certificate for real frequencies."""
    freq = as_frequency_vector(freq)
    if any(v.imag != 0.0 for v in freq.entries):
        raise ValueError("monotonicity certificates require real frequencies")
    values = [v.real for v in freq.entries]

    if is_symmetric(freq, tol=0.0):
        return MonotonicityCertificate(
            kind=CertificateKind.SYMMETRIC, pairs=_symmetry_pairs(values)
        )

    pairs = _greedy_pair_chain(values)
    if pairs:
        return MonotonicityCertificate(
            kind=CertificateKind.PAIR_CHAIN, rounds=len(pairs), pairs=pairs
        )

    nonneg = [i for i, v in enumerate(values) if v >= 0.0]
    if nonneg:
        return MonotonicityCertificate(
            kind=CertificateKind.SOME_NONNEG, nonnegative_index=nonneg[0]
        )

    return MonotonicityCertificate(
        kind=CertificateKind.NONE, derivative_zero=_locate_derivative_zero(freq)
    )
