"""Sign certificates and inequalities for the fundamental solution.

Once the (n+1)-th derivative of the fundamental solution is certified
nonnegative on an interval, the weighted basis sum dominates every polynomial
that is nonnegative there, the associated Hankel matrices are positive
definite, and the squared-derivative ratio is pinched between 1 and
n/(n-1).  This module provides the certificate (a sampling check, not a
proof), the integral identity behind the dominance, and the monotonicity
criteria that make the sign hypothesis easy to establish for many frequency
vectors; for vectors that pair off into nonnegative sums it holds at every
order on [0, oo) (``_nonnegative_taylor``).

Sign changes, of a sampled derivative here and of a Hankel determinant in
the CLI, are located by one bracketed refinement, ``_refine_sign_change``.
It starts from the two samples around the change.  Where their rows carry
the next two derivatives, the first target is the zero of the quintic
Hermite interpolant of the two rows, and later ones safeguarded Newton
steps on f/f' (secant steps where the rows carry f alone), with bisection
as the fallback.  Each step probes a pair of abscissae a quarter tolerance
either side of its target in one call, so a right target closes the
bracket at once, and the refinement returns a bracket of the same width as
bisection would after about one call instead of about 25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .frequencies import _integer, as_frequency_vector
from .fundamental import (
    FundamentalEvaluator,
    _grid,
    _order_rows,
    _table,
    build_evaluator,
    derivative_table,
    eval_derivative,  # unused here; bench/test_smoke.py checks that tracing rebinds this copy
)
from .quadrature import nested_fejer

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

#: Newton steps for the zero of the Hermite interpolant in ``_hermite_target``: enough
#: to settle at a simple zero, too few at a multiple one, where the steps converge
#: linearly and the interpolant is a poor model, so that the refinement's Newton steps
#: on f/f' take over there.
_HERMITE_STEPS = 8


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    through (x0, f(x0)) and (x, f(x)).  A probe at an exact zero is its own
    target, unless the probe before it was an exact zero too: then f vanishes
    on a stretch, as where it underflows, the target would creep along it by
    a margin per probe, and NaN makes the refinement bisect instead.
    """
    if not row[0]:
        return x if row0[0] else math.nan
    if len(row) > 2:
        f, d1, d2 = float(row[0]), float(row[1]), float(row[2])
        den = d1 * d1 - f * d2
        return x - f * d1 / den if den else math.nan
    den = float(row[0]) - float(row0[0])
    return x - float(row[0]) * (x - x0) / den if den else math.nan


def _hermite_target(lo: float, hi: float, row_lo, row_hi) -> float:
    """Zero in [lo, hi] of the quintic Hermite interpolant of (f, f', f'') at both ends, or NaN.

    With h = hi - lo the interpolant is p(s) = sum_k c_k s**k on s in [0, 1],
    and p(0) = f(lo).  Its zero is found by Newton steps on p from the end of
    smaller |f|, a step that leaves the bracket of the flip of p < 0 being
    replaced by bisection.  NaN when the steps have not settled to
    BISECTION_XTOL/8 after ``_HERMITE_STEPS``: at a multiple zero they
    converge only linearly, and there the quintic is a poor model of f.
    """
    h = hi - lo
    f0, d0, e0 = (float(v) for v in row_lo[:3])
    f1, d1, e1 = (float(v) for v in row_hi[:3])
    c0, c1, c2 = f0, h * d0, h * h * e0 / 2
    r0, r1, r2 = f1 - (c0 + c1 + c2), h * d1 - (c1 + 2 * c2), h * h * e1 / 2 - c2
    c = (c0, c1, c2, 10 * r0 - 4 * r1 + r2, -15 * r0 + 7 * r1 - 2 * r2, 6 * r0 - 3 * r1 + r2)
    a, b = 0.0, 1.0
    s = a if abs(f0) <= abs(f1) else b
    for _ in range(_HERMITE_STEPS):
        p = dp = 0.0
        for ck in reversed(c):
            dp = dp * s + p
            p = p * s + ck
        if (p < 0.0) == (f0 < 0.0):
            a = s
        else:
            b = s
        step = p / dp if dp else math.nan
        if not a <= s - step <= b:
            step = s - 0.5 * (a + b)
        s -= step
        if abs(step) * h <= 0.125 * BISECTION_XTOL:
            return lo + s * h
    return math.nan


def _refine_sign_change(probe: Callable[[Sequence[float]], Sequence], lo: float, hi: float,
                        row_lo, row_hi) -> float:
    """Narrow [lo, hi] around the flip of the predicate f < 0 and return the bracket's midpoint.

    ``row_lo`` and ``row_hi`` are the rows at the ends, the predicate taking
    opposite states there; ``probe(ts)`` returns the rows at the abscissae
    ts, one per abscissa.  The result is the midpoint of a bracket no wider
    than ``BISECTION_XTOL`` that still holds the flip, or of two adjacent
    floats where their spacing exceeds it.

    Each step probes the pair t -/+ BISECTION_XTOL/4 around a target t in
    one call, keeping only abscissae inside the bracket, so a target within
    BISECTION_XTOL/4 of the flip closes the bracket in that call: a pair
    whose two probes differ becomes the bracket, also where rounding noise
    gives the cell further flips.  Where
    both end rows carry (f, f', f''), the first target is the zero of their
    quintic Hermite interpolant (``_hermite_target``), at no evaluation
    cost; otherwise, or when that zero leaves the cell, the first target
    and every later one follow ``_step_target`` from the probe nearest the
    flip (the first from the end of smaller |f|).  As in ``rtsafe``
    (Numerical Recipes, section 9.4), a later target outside the bracket, or
    a step longer than half the step before the last, is replaced by
    bisection.  Targets are clamped to a margin of BISECTION_XTOL/4 (at
    least one float spacing) inside the bracket.
    """
    lo_negative = row_lo[0] < 0.0
    (x0, row0), (x, row) = sorted(((lo, row_lo), (hi, row_hi)), key=lambda end: -abs(end[1][0]))
    offset = 0.25 * BISECTION_XTOL
    margin = max(offset, math.ulp(max(abs(lo), abs(hi))))
    older = last = hi - lo
    t = _hermite_target(lo, hi, row_lo, row_hi) if len(row_lo) > 2 else math.nan
    while hi - lo > BISECTION_XTOL:
        if not lo <= t <= hi:
            t = _step_target(x0, row0, x, row)
            if not (lo <= t <= hi and abs(t - x) <= 0.5 * older):
                t = 0.5 * (lo + hi)
        t = min(max(t, lo + margin), hi - margin)
        if not lo < t < hi:
            break  # lo and hi are adjacent floats
        older, last = last, abs(t - x)
        ts = sorted({p for p in (t - offset, t + offset) if lo < p < hi})
        found = probe(ts)
        lo_side = [(r[0] < 0.0) == lo_negative for r in found]
        x0, row0 = x, row
        if lo_side[0] != lo_side[-1]:
            lo, hi = ts  # the pair holds a flip, and is no wider than BISECTION_XTOL
        else:
            k = -1 if lo_side[0] else 0
            x, row = ts[k], found[k]
            lo, hi = (x, hi) if lo_side[0] else (lo, x)
        t = math.nan
    return 0.5 * (lo + hi)


def verify_sign(ev: FundamentalEvaluator, m: int, lo: float, hi: float,
                grid: int = DEFAULT_GRID, tol: float = 1e-10,
                sign: int = 1) -> SignReport:
    """Sampling certificate that sign * Phi^(m) >= -tol on [lo, hi].

    Samples the uniform grid of ``derivative_grid``, contracting only the
    orders m to m + 2; on a violation the report carries the first offending
    abscissa and the nearest sign change, refined by ``_refine_sign_change``
    from the two grid rows around it, each step costing one evaluation of
    the same three orders at a pair of points (about 1 call per sign change
    on the benchmark's scans).  With ``sign=-1`` the check certifies
    nonpositivity.  A "nonnegative" status is a grid certificate, not a
    proof.  ValueError unless ``grid`` and ``m`` are integers (not bools),
    ``sign`` the int 1 or -1, and ``tol`` finite and nonnegative.

    The boundary's bracket holds the sign change of the computed Phi^(m),
    which can sit outside it where the slope is small against the value's
    rounding error: ``verify_sign(build_evaluator([-1e-6, -2e-6]), 2, 0.0,
    3e6)`` brackets 1386294.3611002, while the zero is 2 ln 2 * 1e6 =
    1386294.3611199.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if _integer(grid, "grid") < 64:
        raise ValueError("need at least 64 grid samples")
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign must be the int 1 or -1, got {sign!r}")
    if _integer(m, "m") < 0:
        raise ValueError("derivative order must be nonnegative")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")

    rows = _order_rows(ev, m + 2)[m:]
    rows = rows if sign == 1 else -rows
    xs, samples = _grid(ev, lo, hi, grid, rows)
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
    boundary = _refine_sign_change(lambda ts: _table(ev, ts, rows).tolist(), float(xs[j - 1]),
                                   float(xs[j]), samples[j - 1].tolist(), samples[j].tolist())
    return SignReport("violated", witness, boundary, grid, sign)


def _weighted_basis_sum(ev: FundamentalEvaluator, poly: PolynomialCoeffs, x: float) -> float:
    """sum_k a_k b_k(x), with b_k(x) = k! Phi^(n-k)(x) the ``_scaled`` derivative_table row."""
    n = ev.n
    if poly.degree > n:
        raise ValueError(f"polynomial degree {poly.degree} exceeds order index {n}")
    b = _scaled(derivative_table(ev, [x], n)[0])
    return float(sum(a * b[k] for k, a in enumerate(poly.coeffs) if a != 0.0))


#: Fejer orders of the convolution integral in ``identity_residual`` (the
#: first evaluation covers the 31 nodes of order 32), and the agreement the
#: results of successive orders must reach.
_IDENTITY_START_ORDER = 16
_IDENTITY_MAX_ORDER = 4096
_IDENTITY_TOL = 1e-11


def identity_residual(ev: FundamentalEvaluator, poly, x: float) -> float:
    """Defect of the convolution identity linking basis sums to an integral.

    For R of degree at most n, the weighted basis sum
    sum_k a_k k! Phi^(n-k)(x) equals R(x) plus the convolution
    integral of R against Phi^(n+1) over [0, x]; the returned value is the
    absolute difference of the two sides.  The integral is computed by
    nested Fejer rules whose order doubles from 16 until the results of two
    successive orders agree to ``1e-11 * (1 + |integral|)``; RuntimeError is
    raised when they still differ at order 4096 (4095 nodes).  Negative x
    integrates with the orientation convention int_0^x = -int_x^0.
    """
    poly = as_polynomial(poly)
    n = ev.n
    lhs = _weighted_basis_sum(ev, poly, x)
    if x == 0.0:
        integral = 0.0
    else:
        integral = float(nested_fejer(
            lambda ts: poly(ts) * derivative_table(ev, x - ts, n + 1)[:, n + 1],
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


@dataclass(frozen=True, slots=True)
class HankelMatrix:
    """Symmetric Hankel-structured matrix of scaled derivative values.

    Entry (r, s) is (r+s)! * Phi^(t - (r+s))(x) with top order
    t = max(n, 2k); for 2k <= n this puts Phi^(n) in the corner, and the
    boundary case 2k = n + 1 starts one derivative higher so that 2-frequency
    vectors admit the classical 2x2 probe [[Phi'', Phi'], [Phi', 2 Phi]].

    The entries are ``_hankel`` of the ``_scaled`` derivative row, the index
    map that also builds the moment conditions and the recovery block of
    ``expfun.moments``.  For 2k <= n the row is the basis values b_j(x), so
    the matrix is the moment matrix of ``transform`` of a unit atom at x on
    [0, x], entry for entry.
    """

    entries: np.ndarray
    x: float
    k: int

    @property
    def dim(self) -> int:
        return self.k + 1


def hankel_matrix(ev: FundamentalEvaluator, k: int, x: float) -> HankelMatrix:
    """Build the (k+1) x (k+1) Hankel matrix of scaled derivatives at x.

    ValueError unless k is an integer (not a bool) with 0 <= 2k <= n + 1.
    """
    n = ev.n
    k = _integer(k, "k")
    if k < 0:
        raise ValueError("half-order k must be nonnegative")
    if 2 * k > n + 1:
        raise ValueError(
            f"half-order k={k} needs derivative orders below zero for n={n}; "
            "require 2k <= n + 1"
        )
    h = _hankel(_scaled(derivative_table(ev, [x], max(n, 2 * k))[0]), k + 1)
    h.setflags(write=False)
    return HankelMatrix(entries=h, x=float(x), k=k)


#: j! as floats, j = 0..170; 171! is past the float range.
_FACTORIALS = np.array([float(math.factorial(j)) for j in range(171)])
_FACTORIALS.setflags(write=False)


def _factorials(count: int) -> np.ndarray:
    """j! as floats, j = 0..count-1: a slice of ``_FACTORIALS``; OverflowError past 170!."""
    if count > len(_FACTORIALS):
        raise OverflowError(f"{count - 1}! is past the float range")
    return _FACTORIALS[:count]


def _scaled(rows: np.ndarray) -> np.ndarray:
    """Factorial-weighted reversed rows: entry j is j! * rows[..., top - j], top the last order.

    For a derivative table with top order n these are the basis values
    b_j = j! Phi^(n-j).
    """
    return _factorials(rows.shape[-1]) * rows[..., ::-1]


def _hankel(seq: np.ndarray, size: int, offset: int = 0) -> np.ndarray:
    """The size x size Hankel matrix seq[..., offset + r + s] of one sequence or of a stack."""
    return seq[..., offset + np.add.outer(np.arange(size), np.arange(size))]


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
    themselves.  Raises ValueError for bounds that are not finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got [{lo!r}, {hi!r}]")
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


@dataclass(frozen=True, slots=True)
class MonotonicityCertificate:
    """Certificate about derivative positivity of the fundamental solution on x > 0.

    - SYMMETRIC: the frequency multiset equals its negation; every derivative
      is nonnegative on x >= 0.  ``pairs`` holds a sign-matching of indices.
    - PAIR_CHAIN: ``rounds`` disjoint index pairs with nonnegative sums can be
      removed in sequence; derivatives of order 1..2*rounds are positive.
    - SOME_NONNEG: a single nonnegative frequency (``nonnegative_index``)
      forces a positive first derivative.
    - NONE: every frequency is negative; for n >= 1 the first derivative
      provably vanishes somewhere on (0, oo), at most n / |l_max| from 0
      with l_max the largest frequency (equality for n+1 equal ones).  It is
      located at ``derivative_zero`` when a ``verify_sign`` scan of Phi' over
      [0, min(2n / |l_max|, 1e4 / max(1, max|l|))] brackets it, and None when
      the zero lies beyond that range or n = 0 (Phi' = l e^(lx) has none).
      The zero is unique: with n+1 real frequencies counted with
      multiplicity, Phi' is an exponential polynomial with at most n real
      zeros (Polya-Szego, Part V) and n-1 of them sit at 0, so Phi' changes
      sign once on (0, oo) and the scan's first negative sample lies just
      past that zero.

    As with ``SignReport.boundary``, the 1e-10 bracket around
    ``derivative_zero`` holds a sign change of the computed Phi', which can
    lie farther from the true zero where Phi' cancels: Phi' = l_0 Phi +
    (...) cancels a term about |l_0| times the value.  For
    [-93.03504499963121, -0.04451643050514944, -0.0015391044333304571],
    scanned on [0, 1e4 / 93.04] since 2n / |l_max| = 2599 is larger, the
    zero is 78.29988519656305 (40-digit mpmath), and ``derivative_zero`` is
    78.29988519657854, 1.5e-11 away, while its slope is set by the frequency
    0.0015.
    """

    kind: CertificateKind
    rounds: int = 0
    pairs: tuple = ()
    nonnegative_index: Optional[int] = None
    derivative_zero: Optional[float] = None


def _symmetry_pairs(values: Sequence[float]) -> Optional[tuple]:
    """Each index with the first free index of the negated value, or itself for a leftover 0.

    None when some nonzero value has no free exact negation, that is when the
    values do not equal their negation as a multiset.
    """
    free = list(range(len(values)))
    pairs = []
    while free:
        i = free.pop(0)
        j = next((j for j in free if values[j] == -values[i]), i)
        if j != i:
            free.remove(j)
        elif values[i] != 0.0:
            return None
        pairs.append((i, j))
    return tuple(pairs)


def _greedy_pair_chain(values: Sequence[float]) -> tuple:
    """Disjoint pairs with nonnegative sum: largest joins the smallest admissible.

    A two-pointer walk over the values in descending order: a tail too
    negative for the current lead is too negative for every later lead, so
    it is dropped.
    """
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    pairs = []
    lead, tail = 0, len(order) - 1
    while lead < tail:
        if values[order[lead]] + values[order[tail]] >= 0.0:
            pairs.append((order[lead], order[tail]))
            lead += 1
        tail -= 1
    return tuple(pairs)


def _nonnegative_taylor(entries) -> bool:
    """Whether the frequencies prove that Phi has nonnegative Taylor coefficients at 0.

    True when the entries are real and split into pairs (p, q) with p + q >= 0
    plus single entries >= 0; then every Phi^(m) is >= 0 on [0, oo).  Phi is
    the convolution on [0, x] of the factors' fundamental solutions: a pair
    gives (e^(px) - e^(qx)) / (p - q), whose coefficients (p**(k+1) -
    q**(k+1)) / (p - q) are >= 0 as p >= |q|, a single entry v >= 0 gives
    e^(vx), and convolution keeps coefficients nonnegative.  Such a split
    exists exactly when ``_greedy_pair_chain`` pairs every negative entry: it
    offers the most negative entry the largest one, which covers it if any
    entry does.  Any non-real entry gives False.
    """
    if any(v.imag != 0.0 for v in entries):
        return False
    values = [v.real for v in entries]
    paired = {i for pair in _greedy_pair_chain(values) for i in pair}
    return all(v >= 0.0 or i in paired for i, v in enumerate(values))


def _locate_derivative_zero(freq) -> Optional[float]:
    """The sign change of Phi' on (0, oo) for all-negative real frequencies, or None.

    The zero z satisfies z <= n / |l_max|, with equality for n + 1 equal
    nodes.  With l_max the largest node, Phi = e^(l_max x) int_0^x psi, psi
    the fundamental solution of the other n nodes shifted by -l_max, so psi
    = x**(n-1) / (n-1)! M(x) where M, the simplex mean of exp(x sum_j u_j
    (l_j - l_max)) (Hermite-Genocchi), decreases; so int_0^x psi >= M(x) x**n
    / n! and Phi' <= e^(l_max x) (int_0^x psi) (n/x - |l_max|).  The scan
    covers [0, 2n / |l_max|], which holds even a confluent zero strictly
    inside, capped at 1e4 / max(1, max|l|), past which a zero gives None.
    A single frequency (n = 0) has Phi' = l e^(lx) < 0 and no zero.
    """
    n = freq.n
    if n == 0:
        return None
    scale = max(1.0, max(abs(v) for v in freq.entries))
    top = max(v.real for v in freq.entries)
    hi = min(1e4 / scale, 2 * n / -top)
    return verify_sign(build_evaluator(freq), 1, 0.0, hi, tol=0.0).boundary


def monotonicity_certificate(freq) -> MonotonicityCertificate:
    """Strongest applicable derivative-positivity certificate for real frequencies."""
    freq = as_frequency_vector(freq)
    if any(v.imag != 0.0 for v in freq.entries):
        raise ValueError("monotonicity certificates require real frequencies")
    values = [v.real for v in freq.entries]

    pairs = _symmetry_pairs(values)
    if pairs is not None:
        return MonotonicityCertificate(kind=CertificateKind.SYMMETRIC, pairs=pairs)

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
