"""Evaluation of the fundamental solution and its derivatives.

The fundamental solution Phi of prod_j (d/dx - l_j) is the unique solution
with an n-fold zero at the origin and n-th derivative equal to one there.  It
equals the divided difference of t -> exp(x*t) over the frequency nodes, so by
Opitz' theorem the m-th derivative at x is the top-right entry of
Z**m @ expm(x*Z), where Z is the upper bidiagonal matrix carrying the
frequencies on the diagonal and ones above it.  This representation needs no
case analysis for repeated (confluent) frequencies.

Two entry points tabulate the orders 0..m, both on one stacked Pade(13)
scaling-and-squaring kernel that takes a batch of abscissae and runs in real
arithmetic when every frequency is real.  The evaluator stores the powers
(Z/||Z||_2)**k, k = 0..13, once, so that the kernel builds the Pade
numerator and denominator of every abscissa from one product of its
coefficients with those powers, before one stacked solve and the squarings:

* ``derivative_table`` takes any abscissae and spends one exponential per
  point, passing them to the kernel in slices of bounded working memory.
  Quadrature nodes and the single-point functions use it:
  ``eval_derivative`` and ``basis`` read one row of it.
* ``derivative_grid`` takes a uniform grid ``linspace(lo, hi, count)`` and
  writes every point as the product of three exponentials, an anchor, a
  coarse and a fine offset, so about 3 cbrt(count) exponentials serve the
  whole grid, and two BLAS matrix products per side of 0 apply them.  The
  CLI ``eval``, ``hankel`` and ``turan`` tables use it.

Both read the orders off the last column c of each exponential as
(e_0 Z**j) . c, with the rows e_0 Z**j from a bidiagonal recurrence once per
call, and both hand those rows to one of two private kernels that take the
rows they apply: ``_table`` for given abscissae and ``_grid`` for a uniform
grid.  ``_table`` also serves ``eval_derivative_complex``, which skips the
real projection, and ``_grid``'s one-point grids.  Sign scans
(``verify_sign``) pass only the three orders they read to ``_grid``, and
refine a sign change on one-point grids of the same rows.  The table
applies the rows to every point's finished column with
``einsum``, so that a row does not depend on the other abscissae of the
call.  The grid makes no such promise: it folds the rows into its fine
factors, e_0 Z**j expm(r*h*Z), and applies those with a BLAS product to
the columns the coarse factors give, so it never forms one column per
point.

Two independent evaluation routes, a partial-fraction sum (distinct
frequencies only) and a truncated power series, are provided for
cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frequencies import FrequencyVector, as_frequency_vector, is_conjugate_closed, _homogeneous_prefix

__all__ = [
    "FundamentalEvaluator",
    "build_evaluator",
    "derivative_grid",
    "derivative_table",
    "eval_derivative",
    "eval_derivative_complex",
    "basis",
    "eval_via_partial_fractions",
    "eval_via_taylor",
]

#: Relative bound on the imaginary residue tolerated before projecting to the reals.
REAL_PROJECTION_TOL = 1e-9

#: Largest spectral-norm bound for which the Pade(13) kernel is used unscaled.
_THETA_13 = 5.371920351148152

#: Coefficients of A**k, k = 0..13, in the Pade(13) approximant q(A)**-1 p(A)
#: of exp(A): the numerator p in row 0, the denominator q(A) = p(-A) in row 1.
_PADE_13 = np.array((
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)) * np.array([[1.0], [-1.0]]) ** np.arange(14)

#: Refuse matrix exponentials whose scaling step would exceed 2**60.
_MAX_SQUARINGS = 60

#: Matrix entries per stacked array in one ``_table`` slice; this
#: bounds the kernel's working memory whatever the number of abscissae.
_CHUNK_ENTRIES = 4096


@dataclass(frozen=True)
class FundamentalEvaluator:
    """Precomputed state for evaluating derivatives of the fundamental solution.

    ``diagonal`` holds the frequencies, the diagonal of the (n+1) x (n+1)
    upper bidiagonal matrix Z with ones on its superdiagonal; it is real
    when every frequency is real, and evaluation then runs in real
    arithmetic.  ``norm`` is the spectral norm nu of Z, which fixes the
    scaling depth at every abscissa.  ``powers`` is the read-only
    (14, (n+1)**2) stack of the flattened powers (Z/nu)**k, k = 0..13, the
    basis in which the Pade(13) kernel writes every matrix it needs; nu = 1
    stands in when Z = 0, which happens only for the single frequency 0.
    ``realify`` records whether the frequency vector is conjugate-closed, in
    which case values are projected onto the reals after an
    imaginary-residue check.
    """

    freq: FrequencyVector
    diagonal: np.ndarray = field(repr=False, compare=False)
    powers: np.ndarray = field(repr=False, compare=False)
    norm: float
    realify: bool

    @property
    def n(self) -> int:
        return self.freq.n


def build_evaluator(freq) -> FundamentalEvaluator:
    """Build an evaluator for the given frequency vector."""
    freq = as_frequency_vector(freq)
    diagonal = np.array(freq.entries, dtype=complex)
    if not diagonal.imag.any():
        diagonal = diagonal.real.copy()
    diagonal.setflags(write=False)
    z = np.diag(diagonal) + np.diag(np.ones(len(diagonal) - 1), 1)
    norm = float(np.linalg.norm(z, 2))
    unit = z / (norm or 1.0)
    powers = np.empty((_PADE_13.shape[1],) + z.shape, dtype=z.dtype)
    powers[0] = np.eye(len(z))
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] @ unit
    powers = powers.reshape(len(powers), -1)
    powers.setflags(write=False)
    return FundamentalEvaluator(freq=freq, diagonal=diagonal, powers=powers, norm=norm,
                                realify=is_conjugate_closed(freq))


def _squarings(ev: FundamentalEvaluator, xs: np.ndarray) -> np.ndarray:
    """Scaling depth ceil(log2(|x| |Z|_2 / theta_13)) per abscissa, 0 within theta_13."""
    depth = np.ceil(np.log2(np.maximum(np.abs(xs) * ev.norm, _THETA_13) / _THETA_13))
    worst = depth.max(initial=0.0)
    if worst > _MAX_SQUARINGS:
        raise ValueError(
            f"matrix exponential needs 2**{worst:.0f} scaling, beyond the 2**{_MAX_SQUARINGS} guard; "
            "reduce |x| * max|frequency|"
        )
    return depth.astype(int)


def _exponentials(ev: FundamentalEvaluator, xs: np.ndarray) -> np.ndarray:
    """expm(x*Z) for every abscissa x in the nonempty xs, stacked in the order of xs.

    Each x is scaled to t = x / 2**depth, so that |t| nu <= theta_13 with nu
    = ``ev.norm``, and the Pade(13) numerator and denominator are written in
    the evaluator's power basis, p(t*Z) = sum_k b_k (t nu)**k (Z/nu)**k and
    q(t*Z) = p(-t*Z): one product of the (2 len(xs), 14) coefficient array
    with ``ev.powers`` builds both for every x, and one stacked solve gives
    q**-1 p.  The product is stacked, one 1 x 14 by 14 x (n+1)**2 product
    per matrix, because a single flat BLAS product rounds a row of a batch
    differently from the same row alone, and ``derivative_table`` promises
    that a row does not depend on the other abscissae of the call.

    Memory grows with the size of xs, which callers bound.  The abscissae
    are ordered by scaling depth, so that each squaring acts on the tail of
    the stack that still needs it; one scatter restores the order of xs.
    Matrices are complex unless every frequency is real.  At x = 0 the
    solve of b0*I against b0*I is off by an ulp, so those matrices are set
    to the identity.
    """
    squarings = _squarings(ev, xs)
    order = np.argsort(squarings, kind="stable")
    depth = squarings[order]
    t = xs[order] / 2.0 ** depth
    dim = len(ev.diagonal)
    ident = np.eye(dim, dtype=ev.diagonal.dtype)
    terms = len(ev.powers)
    scaled = np.vander(t * (ev.norm or 1.0), terms, increasing=True)
    coeffs = (_PADE_13[:, None, :] * scaled).reshape(-1, 1, terms)
    p, q = (coeffs @ ev.powers).reshape(2, len(xs), dim, dim)
    r = np.linalg.solve(q, p)
    for level in range(depth[-1]):
        tail = r[np.searchsorted(depth, level, side="right"):]
        tail[...] = tail @ tail
    r[t == 0.0] = ident
    mats = np.empty_like(r)
    mats[order] = r
    return mats


def _order_rows(diag: np.ndarray, max_order: int) -> np.ndarray:
    """Rows e_0 Z**j, j = 0..max_order, one per order.

    The j-th derivative is (e_0 Z**j) . c for the last column c of
    expm(x*Z).  The rows come from the bidiagonal recurrence on the row side,
    (r Z)[i] = r[i-1] + l_i r[i], once per call.
    """
    if max_order < 0:
        raise ValueError("derivative order must be nonnegative")
    rows = np.zeros((max_order + 1, len(diag)), dtype=diag.dtype)
    rows[0, 0] = 1.0
    for j in range(1, max_order + 1):
        rows[j] = diag * rows[j - 1]
        rows[j, 1:] += rows[j - 1, :-1]
    return rows


def _finite(values: np.ndarray) -> np.ndarray:
    """values, after refusing an inf or a NaN made from one (0 * inf in a contraction).

    The refusal is an OverflowError, so that no sign test downstream reads a
    NaN as nonnegative.
    """
    if not np.isfinite(values).all():
        raise OverflowError("a derivative value is not finite (inf or nan): past the float range")
    return values


def _orders(col: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Derivatives from last columns of expm(x*Z): rows of ``_order_rows`` applied to each column.

    ``np.einsum`` without ``optimize`` sums each output entry in the same
    order whatever the number of columns, so a row does not depend on its
    companions; a BLAS product (``col @ rows.T``) rounds a single column
    differently from a batch.  Values that are not finite are refused.
    """
    return _finite(np.einsum("pi,ji->pj", col, rows))


def _require_conjugate_closed(ev: FundamentalEvaluator) -> None:
    if not ev.realify:
        raise ValueError(
            "frequency vector is not conjugate-closed; use eval_derivative_complex"
        )


def _project(values: np.ndarray) -> np.ndarray:
    """Real part of values after checking every imaginary residue."""
    if not np.iscomplexobj(values):
        return values
    bad = np.abs(values.imag) > REAL_PROJECTION_TOL * (1.0 + np.abs(values))
    if bad.any():
        raise ArithmeticError(
            f"value {complex(values[bad][0])!r} has a material imaginary part although "
            "the frequency vector is conjugate-closed; evaluation is numerically "
            "unreliable here"
        )
    return values.real


def derivative_table(ev: FundamentalEvaluator, xs, max_order: int) -> np.ndarray:
    """Derivatives 0..max_order of the fundamental solution at every abscissa.

    Returns a (len(xs), max_order + 1) float array whose row i holds
    Phi(xs[i]), Phi'(xs[i]), ..., Phi^(max_order)(xs[i]); a row does not
    depend on the other abscissae of the call.  Requires a conjugate-closed
    frequency vector and finite abscissae; each value's imaginary residue is
    checked against ``REAL_PROJECTION_TOL`` before projecting, and a value
    that is not finite raises OverflowError.
    """
    _require_conjugate_closed(ev)
    return _project(_table(ev, xs, _order_rows(ev.diagonal, max_order)))


def _table(ev: FundamentalEvaluator, xs, rows: np.ndarray) -> np.ndarray:
    """Values of the given stack of rows e_0 Z**j at the abscissae xs: one value column per row.

    The counterpart of ``_grid`` for any abscissae: one exponential per
    point, passed to the kernel in slices of ``_CHUNK_ENTRIES`` matrix
    entries, with the rows applied to each finished last column by
    ``_orders``.  The values are not projected, so they are complex when the
    diagonal is.  Raises ValueError for abscissae that do not form a finite
    one-dimensional sequence or lie beyond the squaring guard, and
    OverflowError for a value that is not finite.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("abscissae must form a one-dimensional sequence")
    finite = np.isfinite(xs)
    if not finite.all():
        raise ValueError(f"abscissae must be finite, got x={float(xs[~finite][0])!r}")
    out = np.empty((len(xs), len(rows)), dtype=ev.diagonal.dtype)
    step = max(1, _CHUNK_ENTRIES // len(ev.diagonal) ** 2)
    for lo in range(0, len(xs), step):
        out[lo:lo + step] = _orders(_exponentials(ev, xs[lo:lo + step])[:, :, -1], rows)
    return out


def _side_by_side(factors: np.ndarray) -> np.ndarray:
    """[I | F_1^T | F_2^T | ...] for stacked (n+1) x (n+1) factors F_k.

    A row vector c^T times it is [c^T, (F_1 c)^T, (F_2 c)^T, ...]: one BLAS
    product applies every factor, and the identity, to many columns at once.
    """
    dim = factors.shape[-1]
    ident = np.eye(dim, dtype=factors.dtype)[None]
    return np.concatenate([ident, factors]).transpose(2, 0, 1).reshape(dim, -1)


def derivative_grid(ev: FundamentalEvaluator, lo: float, hi: float, count: int,
                    max_order: int) -> np.ndarray:
    """Derivatives 0..max_order on the uniform grid ``np.linspace(lo, hi, count)``.

    Returns, up to rounding, what ``derivative_table(ev, np.linspace(lo, hi,
    count), max_order)`` returns, from about 3 cbrt(count) matrix
    exponentials instead of count: 46 for 4096 points on one side of 0.  A
    grid with lo == hi or count == 1 is one abscissa, evaluated once and
    repeated.  Otherwise the grid is split at 0 and each side is cut, outward
    from 0, into blocks of s**2 points, s = ceil(cbrt(side count)).  With h
    the grid step, signed like the side, point q*s + r of a block
    (0 <= q, r < s) is the block's anchor (the block point nearest 0, a
    ``linspace`` abscissa) plus (q*s + r)*h, so that
    expm(x*Z) = expm(r*h*Z) @ expm(q*s*h*Z) @ expm(anchor*Z).  Only the
    anchors, the s - 1 fine offsets r*h and the s - 1 coarse offsets q*s*h go
    through the Pade kernel.  The rows e_0 Z**j are folded into the fine
    factors first, giving the small stack e_0 Z**j expm(r*h*Z).  Then two
    matrix products per side give every point's orders: the coarse factors
    (identity first) applied to all anchor last columns give the columns at
    the points anchor + q*s*h, which are true columns at grid points, and
    the folded rows applied to those give the orders at every point.  Each
    product is one BLAS call on the side's stacked factors, a chain has at
    most three factors, and nothing drifts along the grid.  Working memory
    is the count x (max_order+1) values and the columns at one point in s,
    never count matrices, the count x (n+1) columns nor the s**2 offset
    matrices.  Unlike ``derivative_table``, a row may depend on its
    companions at rounding level, since a BLAS product may round a batch
    differently from a single column.

    Error structure: no factor has a larger |abscissa|, hence no more
    squarings, than its point.  For real frequencies expm(t*Z) has entries of
    the sign of t**(j-i), and the three factors share the sign of t, so every
    product sums terms of one sign and keeps the relative accuracy of a
    single exponential, also at the n-fold zero at the origin; folding the
    rows into the fine factor first leaves the bound of the contraction
    unchanged, since the fine factor's terms and the coarse column's carry
    that sign pattern.  Conjugate pairs carry no such sign structure; their
    rows match ``derivative_table`` to rounding relative to the size of the
    factors.  Row i is computed at anchor + r*h + q*s*h, each offset rounded
    once, which agrees with ``linspace``'s abscissa to a few ulps of
    max(|lo|, |hi|); it is exact at the anchors.

    Raises ValueError for non-finite bounds, lo > hi, count < 1, a negative
    order, a vector that is not conjugate-closed, and abscissae beyond the
    squaring guard; ArithmeticError for a material imaginary residue, and
    OverflowError for a value that is not finite.
    """
    return _grid(ev, lo, hi, count, _order_rows(ev.diagonal, max_order))


def _grid(ev: FundamentalEvaluator, lo: float, hi: float, count: int,
          rows: np.ndarray) -> np.ndarray:
    """``derivative_grid`` for the given stack of rows e_0 Z**j: one value column per row.

    ``verify_sign`` passes only the orders it reads, the same rows to its
    scan and to the one-point grids that refine a sign change.  Raises as
    ``derivative_grid`` does, except for the order, which ``_order_rows``
    checks.
    """
    _require_conjugate_closed(ev)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got [{lo!r}, {hi!r}]")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo!r}, {hi!r}]")
    if count < 1:
        raise ValueError(f"need at least one grid point, got count={count!r}")
    xs = np.linspace(lo, hi, count)
    if lo == hi or count == 1:
        # One abscissa, possibly repeated: a zero offset would only add rounding.
        return np.repeat(_project(_table(ev, xs[:1], rows)), count, axis=0)
    # The 2**60 guard on every abscissa, not only on the factors: depth grows with |x|,
    # so the two ends decide it.
    _squarings(ev, xs[[0, -1]])
    step = (hi - lo) / (count - 1)
    split = int(np.searchsorted(xs, 0.0))
    # Each side: the slice of grid indices outward from 0, its length, and the abscissae
    # of its anchors, fine and coarse offsets.  A coarse offset past the side's last point
    # is left out (only a 2-point side has one), so no factor lies farther from 0 than
    # the points it serves.
    sides = []
    for side, length, h in ((slice(split - 1, None, -1), split, -step),
                            (slice(split, None), count - split, step)):
        if length:
            s = round(length ** (1 / 3))
            s += s ** 3 < length
            sides.append((side, length, (xs[side][::s * s], h * np.arange(1, s),
                                         h * np.arange(s, min(s * s, length), s))))
    ts = [t for *_, factors in sides for t in factors]
    parts = np.split(_exponentials(ev, np.concatenate(ts)), np.cumsum([len(t) for t in ts]))
    dim = len(ev.diagonal)
    out = np.empty((count, len(rows)))
    for i, (side, length, _) in enumerate(sides):
        anchors, fine, coarse = parts[3 * i:3 * i + 3]
        # Entry (i, r*K + j) of the folded fine factors is (e_0 Z**j F_r)[i], F_r the fine
        # factor r (identity first) and K the number of rows.
        folded = (_side_by_side(fine).reshape(dim, -1, dim) @ rows.T).reshape(dim, -1)
        # Columns as rows, so that every reshape keeps memory order: anchor b times coarse
        # factor q is row b*s + q, and its values under fine factor r are row
        # b*s**2 + q*s + r, the point's index on the side.  The last block runs up to
        # s**2 - 1 points past the side's end, whose values may overflow; they are dropped
        # after the last product, and a kept value that overflowed is refused.
        with np.errstate(over="ignore", invalid="ignore"):
            cols = (anchors[:, :, -1] @ _side_by_side(coarse)).reshape(-1, dim)
            values = (cols @ folded).reshape(-1, len(rows))[:length]
        out[side] = _project(_finite(values))
    return out


def eval_derivative_complex(ev: FundamentalEvaluator, m: int, x: float) -> complex:
    """m-th derivative of the fundamental solution at x, complex output.

    A value that is not finite raises OverflowError, as in ``eval_derivative``.
    """
    return complex(_table(ev, [x], _order_rows(ev.diagonal, m))[0, m])


def eval_derivative(ev: FundamentalEvaluator, m: int, x: float) -> float:
    """m-th derivative of the fundamental solution at x: one row of ``derivative_table``.

    Requires a conjugate-closed frequency vector; the imaginary residue is
    checked against ``REAL_PROJECTION_TOL`` before projecting.
    """
    return float(derivative_table(ev, [x], m)[0, m])


def basis(ev: FundamentalEvaluator, k: int, x: float) -> float:
    """Basis function b_k(x) = k! * Phi^(n-k)(x) for 0 <= k <= n.

    b_k has a k-fold zero at the origin and reduces to x**k when every
    frequency vanishes.
    """
    if not 0 <= k <= ev.n:
        raise ValueError(f"basis index {k} out of range [0, {ev.n}]")
    return math.factorial(k) * eval_derivative(ev, ev.n - k, x)


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
