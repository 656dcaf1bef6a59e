"""Evaluation of the fundamental solution and its derivatives.

The fundamental solution Phi of prod_j (d/dx - l_j) is the unique solution
with an n-fold zero at the origin and n-th derivative equal to one there.  It
equals the divided difference of t -> exp(x*t) over the frequency nodes, so by
Opitz' theorem the m-th derivative at x is the top-right entry of
A**m @ expm(x*A) / P for any matrix A that realizes 1/p(s), the Laplace
transform of Phi, p the characteristic polynomial, with P the cofactor of
that entry (the cascade realization of linear systems theory).  This
representation needs no case analysis for repeated (confluent) frequencies.

``build_evaluator`` builds every A by one rule, ``_realization``: a
tridiagonal matrix with the nodes in ascending modulus, each conjugate pair
a +- ib a real 2 x 2 block, and 1 or, after a block, 1/max(b, 1) between
nodes.  A conjugate-closed vector, whose operator has real coefficients and
whose Phi is real, gets a real A and values that are exactly real, in real
arithmetic throughout; a vector that is not closed keeps its complex nodes,
and only ``eval_derivative_complex`` evaluates it.

Two entry points tabulate the orders 0..m, both on one stacked Taylor
scaling-and-squaring kernel that takes a batch of abscissae, in the dtype
of A.  The evaluator stores the powers (A/||A||_2)**k, k = 0..n+18, once,
so that the kernel builds the Taylor polynomial of every scaled abscissa
from one product of its coefficients with those powers, with no solve,
before the squarings:

* ``derivative_table`` takes any abscissae and spends one exponential per
  point, passing them to the kernel in slices of bounded working memory.
  Quadrature nodes and the single-point functions use it:
  ``eval_derivative`` and ``basis`` read one row of it.
* ``derivative_grid`` takes a uniform grid ``linspace(lo, hi, count)`` and
  writes every point as the product of four exponentials, an anchor and
  three offsets, so about 4 count**(1/4) exponentials serve the whole grid
  (32 for 4096 points on one side of 0, three of them the identity at
  offset 0), and three BLAS matrix products per side of 0 apply them.
  The CLI ``eval``, ``hankel`` and ``turan`` tables use it.

Both read the orders off the last column c of each exponential as
(e_0 A**j / P) . c.  The evaluator stores the rows e_0 A**j / P of the
orders j = 0..n+3, the highest order the library reads itself, from a
three-term recurrence run once when it is built; a call reads a leading
slice of them, and only a higher order runs the same recurrence again.
Both hand those rows to one of two private kernels that take the rows they
apply: ``_table`` for given abscissae and ``_grid`` for a uniform grid.
``_table`` also serves ``eval_derivative_complex`` and ``_grid``'s
one-point grids.  Sign scans (``verify_sign``) pass only the three orders
they read to ``_grid``, and refine a sign change by ``_table`` calls on the
same rows, two abscissae at a time.  The table applies the rows to every
point's finished column with ``einsum``, so that a row does not depend on
the other abscissae of the call.  The grid makes no such promise: it folds
the rows into its fine factors, e_0 A**j expm(r*h*A), and applies those
with a BLAS product to the columns the other factors give, so it never
forms one column per point.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .frequencies import FrequencyVector, as_frequency_vector, _conjugate_partners, _integer

__all__ = [
    "FundamentalEvaluator",
    "build_evaluator",
    "derivative_grid",
    "derivative_table",
    "eval_derivative",
    "eval_derivative_complex",
    "basis",
]

#: Largest |t| ||A||_2 at which the Taylor kernel runs unscaled: theta_18, the
#: largest theta whose backward-error series sum_k |c_k| theta**(k-1), with
#: log(exp(-x) T_18(x)) = sum_k c_k x**k and T_18 the degree-18 Taylor
#: polynomial of exp, stays within 2**-53 (Al-Mohy & Higham 2011).
_THETA = 1.090863719290036

#: Terms of the Taylor kernel past the highest power at which an entry of
#: expm(t*A) starts: entry (i, j) starts at power j - i <= n, so the degree
#: n + 18 keeps 18 terms past every entry's first, a truncation of at most
#: about theta**19/19! = 4e-17 of the entry's leading term t**(j-i)/(j-i)!.
_TAYLOR_DEGREE = 18

#: Refuse matrix exponentials whose scaling step would exceed 2**60.
_MAX_SQUARINGS = 60

#: Deepest scaling whose squarings cannot overflow, run without ``np.errstate``.  A
#: depth of d leaves |x| nu <= theta * 2**d, and each squared matrix R, the Taylor
#: polynomial of t*A or a square of it with 2|t| <= |x|, has ||R||_2 <= e^(|t| nu); so
#: every partial sum of an entry of R @ R is at most ||R||_2**2 <= e^(|x| nu)
#: (Cauchy-Schwarz), at most e^558.5 up to depth 9, below the float range's e^709.78.
_QUIET_DEPTH = 9

#: The context the squarings run in up to ``_QUIET_DEPTH``: none, shared by every call.
_NO_ERRSTATE = nullcontext()

#: Matrix entries per stacked array in one ``_table`` slice; this
#: bounds the kernel's working memory whatever the number of abscissae.
_CHUNK_ENTRIES = 4096

#: Orders past n whose rows e_0 A**j / P every evaluator stores: n+3 is the
#: highest order the library reads itself, in the sign scan of order n+1 that
#: ``moments.transform`` runs, which reads orders n+1..n+3.
_STORED_ORDERS_PAST_N = 3


@dataclass(frozen=True, slots=True)
class FundamentalEvaluator:
    """Precomputed state for evaluating derivatives of the fundamental solution.

    The evaluator holds the (n+1) x (n+1) tridiagonal matrix A of
    ``_realization``, with ``diagonal``, ``upper`` (superdiagonal) and
    ``lower`` (subdiagonal, None when there is no pair block), for which
    Phi^(m)(x) = (A**m expm(x*A))[0, n] / ``cofactor``.  A is real for a
    conjugate-closed vector, whose values are then exactly real, and complex
    otherwise; ``realify`` reads which off the dtype of ``diagonal``.
    ``freq`` keeps the caller's order, while A depends only on the multiset
    of frequencies when its pairs are exact conjugates.

    ``rows`` is the read-only (n+4, n+1) array of the rows e_0 A**j /
    ``cofactor``, j = 0..n+3, from ``_row_recurrence``; ``_order_rows``
    reads its leading slices.

    ``norm`` is the spectral norm nu of A, which fixes the scaling depth at
    every abscissa.  ``powers`` is the read-only (n+19, (n+1)**2) stack of
    the flattened powers (A/nu)**k, k = 0..n+18, the basis in which the
    Taylor kernel writes every matrix; nu = 1 stands in for these powers when
    A = 0, which happens only for the single frequency 0, while ``norm``
    stays 0.
    """

    freq: FrequencyVector
    diagonal: np.ndarray = field(repr=False, compare=False)
    upper: np.ndarray = field(repr=False, compare=False)
    lower: Optional[np.ndarray] = field(repr=False, compare=False)
    cofactor: float = field(repr=False, compare=False)
    rows: np.ndarray = field(repr=False, compare=False)
    powers: np.ndarray = field(repr=False, compare=False)
    norm: float

    @property
    def n(self) -> int:
        return self.freq.n

    @property
    def realify(self) -> bool:
        """Whether the frequency vector is conjugate-closed, that is whether A is real."""
        return self.diagonal.dtype != complex


def build_evaluator(freq) -> FundamentalEvaluator:
    """Build an evaluator for the given frequency vector on its matrix from ``_realization``.

    The stored rows may pass the float range, as for [1e200j, -1e200j,
    2e200j, -2e200j] from order 2 on; they are built without a warning, and
    a value read from such a row is refused (``_finite``).
    """
    freq = as_frequency_vector(freq)
    diagonal, upper, lower, cofactor = _realization(freq.entries, _conjugate_partners(freq))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _row_recurrence(diagonal, upper, lower, cofactor, freq.n + _STORED_ORDERS_PAST_N)
    z = np.diag(diagonal) + np.diag(upper, 1)
    if lower is not None:
        z += np.diag(lower, -1)
    norm = float(np.linalg.norm(z, 2))
    unit = z / (norm or 1.0)
    powers = np.empty((len(z) + _TAYLOR_DEGREE,) + z.shape, dtype=z.dtype)
    powers[0] = np.eye(len(z))
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] @ unit
    powers = powers.reshape(len(powers), -1)
    for array in (diagonal, upper, lower, rows, powers):
        if array is not None:
            array.setflags(write=False)
    return FundamentalEvaluator(freq=freq, diagonal=diagonal, upper=upper, lower=lower,
                                cofactor=cofactor, rows=rows, powers=powers, norm=norm)


def _realization(entries, partners) -> tuple:
    """Diagonals and corner cofactor of the tridiagonal A that realizes 1/p(s).

    ``partners`` is ``_conjugate_partners``' map from each entry to the entry
    matched to its conjugate, or None for a vector that is not
    conjugate-closed, each of whose entries is then its own node and keeps
    its complex value.  For a closed vector the map is a permutation but,
    for repeated pairs closed only within the matching tolerance, not always
    an involution: it can run 0 -> 3 -> 2 -> 1 -> 0.  Each of its cycles is
    therefore cut into consecutive members, each matched to the next: a pair
    u, w with a non-real entry becomes a +- ib, a the mean of the real parts
    and b the mean of the moduli of the imaginary parts, while two real
    entries stay two real nodes.  The member left over by a cycle of odd
    length, real to within the matching tolerance, becomes its real part.
    The nodes are ordered by ascending modulus, then real part, then
    imaginary part, so that the small nodes come first in the rows e_0 A**j
    (with the large nodes first their terms can reach 1e9 times the value
    they sum to) and A does not depend on the caller's order, except through
    the matching of repeated pairs closed only within the tolerance.

    A single node is a diagonal entry; a pair is the 2 x 2 block [[a, beta],
    [-b**2 / beta, a]], whose characteristic polynomial is (s - a)**2 + b**2,
    with beta = max(b, 1).  A block with b > 1 is then a times the identity
    plus b times a rotation generator, of norm |a +- ib| like the pair's own,
    so that |A|_2 stays close to that of the bidiagonal matrix of the nodes
    and scaling depths do not grow; a block with b <= 1 is a Jordan block
    perturbed by -b**2.  The superdiagonal entry after a block is 1/beta, a
    diagonal similarity, and every other one between nodes is 1.  So
    det(sI - A) = p(s), the cofactor of the corner is the product P of the
    superdiagonal, and Phi^(m)(x) = (A**m expm(x*A))[0, n] / P.  Up to
    rounding P is the last node's beta when that node is a pair and 1
    otherwise, so it never overflows.  Returns (diagonal, upper, lower, P):
    ``diagonal`` is float for a closed vector and complex otherwise,
    ``lower`` is None when there is no pair block, and P is the product of
    ``upper`` in order, exactly 1.0 without blocks.
    """
    if partners is None:
        nodes = [(v, False) for v in entries]
    else:
        nodes, done = [], set()
        for i in range(len(entries)):
            if i in done:
                continue
            cycle = [i]
            while partners[cycle[-1]] != i:
                cycle.append(partners[cycle[-1]])
            done.update(cycle)
            for j, k in zip(cycle[::2], cycle[1::2]):
                v, w = entries[j], entries[k]
                if v.imag or w.imag:
                    nodes.append((complex(0.5 * v.real + 0.5 * w.real,
                                          0.5 * abs(v.imag) + 0.5 * abs(w.imag)), True))
                else:
                    nodes += [(v.real, False), (w.real, False)]
            if len(cycle) % 2:
                nodes.append((entries[cycle[-1]].real, False))
    nodes.sort(key=lambda node: (abs(node[0]), node[0].real, node[0].imag))
    diagonal, upper, lower, joint = [], [], [], 1.0
    for value, pair in nodes:
        if diagonal:
            upper.append(joint)
            lower.append(0.0)
        joint = 1.0
        if not pair:
            diagonal.append(value)
            continue
        a, b = value.real, value.imag
        beta = max(b, 1.0)
        diagonal += [a, a]
        upper.append(beta)
        lower.append(-(b / beta) * b)
        joint = 1.0 / beta
    return (np.array(diagonal), np.array(upper), np.array(lower) if any(lower) else None,
            math.prod(upper, start=1.0))


def _squarings(ev: FundamentalEvaluator, xs: np.ndarray) -> np.ndarray:
    """Scaling depth ceil(log2(|x| |A|_2 / theta)) per abscissa, 0 within theta.

    The depth is read off the binary exponent of |x| |A|_2 / theta, so it is
    exact: a depth of d leaves |x| |A|_2 / 2**d <= theta.  The guard
    (``_guard``) runs first and reads only the largest |x|: rounding is
    monotone, so that abscissa has the largest |x| |A|_2 / theta.  It
    accepts |x| |A|_2 = theta * 2**60 and refuses the next float above it,
    as well as a product |x| |A|_2 that overflows; once it has passed, no
    product overflows, so the depths are formed without ``np.errstate``.
    """
    size = np.abs(xs)
    _guard(ev, np.maximum.reduce(size, initial=0.0))
    mantissa, exponent = np.frexp(size * ev.norm / _THETA)
    return np.maximum(exponent - (mantissa == 0.5), 0)


def _guard(ev: FundamentalEvaluator, size: float) -> None:
    """Refuse an abscissa of modulus ``size`` whose depth would pass the 2**60 guard.

    The test runs on one Python float, whose product overflows to inf
    without a warning, so callers need no ``np.errstate``.
    """
    scaled = float(size) * ev.norm / _THETA
    if not scaled <= 2.0 ** _MAX_SQUARINGS:
        worst = "inf"
        if math.isfinite(scaled):
            mantissa, exponent = math.frexp(scaled)
            worst = exponent - (mantissa == 0.5)
        raise ValueError(
            f"matrix exponential needs 2**{worst} scaling, beyond the 2**{_MAX_SQUARINGS} guard; "
            "reduce |x| * max|frequency|"
        )


def _exponentials(ev: FundamentalEvaluator, xs: np.ndarray) -> np.ndarray:
    """expm(x*A) for every abscissa x in the nonempty xs, stacked in the order of xs.

    Each x is scaled to t = x / 2**depth, so that |t| nu <= theta with nu =
    ``ev.norm``, and the Taylor polynomial of degree n + 18 is written in the
    evaluator's power basis, sum_k (t nu)**k / k! (A/nu)**k: one product of
    the (len(xs), n + 19) coefficient array with ``ev.powers`` builds it for
    every x, with no solve, and the squarings follow.  The product is
    stacked, one 1 x (n + 19) by (n + 19) x (n+1)**2 product per matrix,
    because a single flat BLAS product rounds a row of a batch differently
    from the same row alone, and ``derivative_table`` promises that a row
    does not depend on the other abscissae of the call.  At x = 0 (either
    sign), and at every x when A = 0 (the single frequency 0, nu = 0), the
    coefficients are 1, 0, 0, ..., so the matrix is the identity exactly.

    Memory grows with the size of xs, which callers bound.  Each squaring
    acts on the tail of the stack that still needs it; one ``searchsorted``
    finds the tails' starts, unless the depths are all equal.  Only where
    the depths decrease somewhere, as among a grid's factors, are the
    abscissae sorted by depth and the order of xs restored by one scatter;
    probe pairs, single abscissae and ascending quadrature nodes need
    neither.  Matrices have the dtype of A, complex only when A is.  A
    stack deeper than ``_QUIET_DEPTH`` is squared under ``np.errstate``, so
    that an overflow leaves an inf or a NaN for ``_finite`` to refuse with
    no warning, also under -W error.
    """
    depth = _squarings(ev, xs)
    order = None
    if len(xs) > 1 and (depth[1:] < depth[:-1]).any():
        order = np.argsort(depth, kind="stable")
        depth, xs = depth[order], xs[order]
    t = xs / 2.0 ** depth
    dim = len(ev.diagonal)
    terms = len(ev.powers)
    coeffs = np.ones((len(xs), terms))
    np.multiply.accumulate((t * ev.norm)[:, None] / np.arange(1, terms), axis=1,
                           out=coeffs[:, 1:])
    r = (coeffs[:, None, :] @ ev.powers).reshape(len(xs), dim, dim)
    if depth[0] == depth[-1]:
        starts = [0] * int(depth[-1])
    else:
        starts = np.searchsorted(depth, np.arange(depth[-1]), side="right").tolist()
    # One start per squaring: len(starts) is the deepest depth.
    with (np.errstate(over="ignore", invalid="ignore") if len(starts) > _QUIET_DEPTH
          else _NO_ERRSTATE):
        for start in starts:
            tail = r[start:]
            tail[...] = tail @ tail
    if order is None:
        return r
    mats = np.empty_like(r)
    mats[order] = r
    return mats


def _order_rows(ev: FundamentalEvaluator, max_order: int) -> np.ndarray:
    """Rows e_0 A**j / cofactor, j = 0..max_order, for the evaluator's matrix A.

    The j-th derivative is the j-th row dotted with the last column of
    expm(x*A).  Orders up to n+3 are a leading slice of the stored
    ``ev.rows``, read-only and C-contiguous; a higher order runs
    ``_row_recurrence`` from row 0, whose leading rows equal the stored ones
    bit for bit.
    """
    if max_order < 0:
        raise ValueError("derivative order must be nonnegative")
    if max_order < len(ev.rows):
        return ev.rows[:max_order + 1]
    return _row_recurrence(ev.diagonal, ev.upper, ev.lower, ev.cofactor, max_order)


def _row_recurrence(diagonal: np.ndarray, upper: np.ndarray, lower: Optional[np.ndarray],
                    cofactor: float, max_order: int) -> np.ndarray:
    """Rows e_0 A**j / cofactor, j = 0..max_order, for the tridiagonal A of ``_realization``.

    The rows come from the three-term recurrence on the row side,
    (r A)[i] = upper[i-1] r[i-1] + diagonal[i] r[i] + lower[i] r[i+1], with
    the ``lower`` term only where A has a pair block and the division only
    where the cofactor is not 1.  Each row depends only on the one before,
    so the rows up to any order do not depend on ``max_order``.  The
    diagonal entry of row j is the product of the first j entries of
    ``upper``, formed in the order ``math.prod`` forms the cofactor, so row
    n ends in exactly 1 and Phi^(n)(0) = 1 exactly.
    """
    rows = np.zeros((max_order + 1, len(diagonal)), dtype=diagonal.dtype)
    rows[0, 0] = 1.0
    for prev, row in zip(rows, rows[1:]):
        np.multiply(diagonal, prev, out=row)
        row[1:] += upper * prev[:-1]
        if lower is not None:
            row[:-1] += lower * prev[1:]
    if cofactor != 1.0:
        rows /= cofactor
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
    """Derivatives from last columns of expm(x*A): rows of ``_order_rows`` applied to each column.

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


def derivative_table(ev: FundamentalEvaluator, xs, max_order: int) -> np.ndarray:
    """Derivatives 0..max_order of the fundamental solution at every abscissa.

    Returns a (len(xs), max_order + 1) float array whose row i holds
    Phi(xs[i]), Phi'(xs[i]), ..., Phi^(max_order)(xs[i]); a row does not
    depend on the other abscissae of the call.  Requires a conjugate-closed
    frequency vector, whose real matrix gives real values with no
    projection, finite abscissae and an integer order (not a bool), else
    ValueError; a value that is not finite raises OverflowError.
    """
    _require_conjugate_closed(ev)
    return _table(ev, xs, _order_rows(ev, _integer(max_order, "max_order")))


def _table(ev: FundamentalEvaluator, xs, rows: np.ndarray) -> np.ndarray:
    """Values of the given rows e_0 A**j / P at the abscissae xs: one value column per row.

    The counterpart of ``_grid`` for any abscissae: one exponential per
    point, with the rows applied to each finished last column by
    ``_orders``.  Abscissae that fit one slice of ``_CHUNK_ENTRIES`` matrix
    entries, as every single-point query and refinement probe does, go to
    the kernel in one call; more are passed in such slices, written into one
    output array.  The values have the dtype of the evaluator's matrix:
    complex only for a vector that is not conjugate-closed.  Raises
    ValueError for abscissae that do not form a finite one-dimensional
    sequence or lie beyond the squaring guard, and OverflowError for a value
    that is not finite.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("abscissae must form a one-dimensional sequence")
    if not np.isfinite(xs).all():
        raise ValueError(f"abscissae must be finite, got x={float(xs[~np.isfinite(xs)][0])!r}")
    step = max(1, _CHUNK_ENTRIES // len(ev.diagonal) ** 2)
    if 0 < len(xs) <= step:
        return _orders(_exponentials(ev, xs)[:, :, -1], rows)
    out = np.empty((len(xs), len(rows)), dtype=ev.diagonal.dtype)
    for lo in range(0, len(xs), step):
        out[lo:lo + step] = _orders(_exponentials(ev, xs[lo:lo + step])[:, :, -1], rows)
    return out


def derivative_grid(ev: FundamentalEvaluator, lo: float, hi: float, count: int,
                    max_order: int) -> np.ndarray:
    """Derivatives 0..max_order on the uniform grid ``np.linspace(lo, hi, count)``.

    Returns, up to rounding, what ``derivative_table(ev, np.linspace(lo, hi,
    count), max_order)`` returns, from about 4 count**(1/4) matrix
    exponentials instead of count: 32 for 4096 points on one side of 0.  A
    grid with lo == hi or count == 1 is one abscissa, evaluated once and
    repeated.  Otherwise the grid is split at 0 and each side is cut, outward
    from 0, into blocks of s**3 points, s = ceil(side count ** (1/4)).  With
    h the grid step, signed like the side, point q2*s**2 + q1*s + r of a
    block (digits 0 <= q2, q1, r < s) is the block's anchor (the block point
    nearest 0, a ``linspace`` abscissa) plus (q2*s**2 + q1*s + r)*h, so that
    expm(x*A) = expm(r*h*A) @ expm(q1*s*h*A) @ expm(q2*s**2*h*A) @
    expm(anchor*A).  Only the anchors and the s offsets q*s**k*h, 0 <= q < s,
    of each level k = 0, 1, 2 go through the Taylor kernel, which returns the
    identity exactly at offset 0.  The rows e_0 A**j / P are folded into the
    fine factors (level 0) first, giving the small stack e_0 A**j
    expm(r*h*A) / P.  Then one matrix product per level gives every point's
    orders: the level-2 factors applied to all anchor last columns, then
    the level-1 factors to those, give the columns at the points anchor +
    (q2*s + q1)*s*h, which are true columns at grid points, and the folded
    rows applied to those give the orders at every point.  Each product is
    one BLAS call on the side's stacked factors, a chain has at most four
    factors, and nothing drifts along the grid.  Working memory is the count x
    (max_order+1) values and the columns at one point in s, never count
    matrices, the count x (n+1) columns nor the s**3 offset matrices.  Unlike
    ``derivative_table``, a row may depend on its companions at rounding
    level, since a BLAS product may round a batch differently from a single
    column.

    Error structure: no factor has a larger |abscissa|, hence no more
    squarings, than its point.  For real frequencies expm(t*A) has entries of
    the sign of t**(j-i), and the four factors share the sign of t, so every
    product sums terms of one sign and keeps the relative accuracy of a
    single exponential, also at the n-fold zero at the origin; folding the
    rows into the fine factor first leaves the bound of the contraction
    unchanged, since the fine factor's terms and the other factors' column
    carry that sign pattern.  Conjugate pairs carry no such sign structure;
    their rows match ``derivative_table`` to rounding relative to the size
    of the factors.  Row i is computed at anchor + r*h + q1*s*h +
    q2*s**2*h, each offset rounded once, which agrees with ``linspace``'s
    abscissa to a few ulps of max(|lo|, |hi|); it is exact at the anchors.

    Raises ValueError for non-finite bounds, lo > hi, a count that is not an
    integer or is below 1, an order that is not an integer or is negative, a
    vector that is not conjugate-closed, and abscissae beyond the squaring
    guard, and OverflowError for a value that is not finite.
    """
    return _grid(ev, lo, hi, count, _order_rows(ev, _integer(max_order, "max_order")))[1]


def _grid(ev: FundamentalEvaluator, lo: float, hi: float, count: int,
          rows: np.ndarray) -> tuple:
    """``derivative_grid`` for the given rows e_0 A**j / P: the abscissae and the values.

    Returns ``(xs, values)``: xs is the grid ``np.linspace(lo, hi, count)``
    that the values sample, one value column per row, so that a caller
    reads the abscissae without forming the grid again.  ``verify_sign``
    passes only the orders it reads, the same rows that it passes to
    ``_table`` to refine a sign change.  The bounds are checked before any
    abscissa is formed.  Every factor of both sides comes from one kernel
    call, and the values of both sides from one overflow check on the
    finished table.  Raises as ``derivative_grid`` does, except for the
    order, which ``_order_rows`` checks.
    """
    _require_conjugate_closed(ev)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got [{lo!r}, {hi!r}]")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo!r}, {hi!r}]")
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"grid width hi - lo overflows the float range, got [{lo!r}, {hi!r}]")
    if _integer(count, "count") < 1:
        raise ValueError(f"need at least one grid point, got count={count!r}")
    xs = np.linspace(lo, hi, count)
    if lo == hi or count == 1:
        # One abscissa, possibly repeated: a zero offset would only add rounding.
        return xs, np.repeat(_table(ev, xs[:1], rows), count, axis=0)
    # The 2**60 guard on every abscissa, not only on the factors: depth grows with |x|,
    # so the two ends decide it.
    _guard(ev, max(abs(lo), abs(hi)))
    step = (hi - lo) / (count - 1)
    split = int(np.searchsorted(xs, 0.0))
    # Each side: the slice of grid indices outward from 0, its length, and the abscissae
    # of its anchors and, from one product, of its offsets q*s**k*h, 0 <= q < s, at levels
    # k = 2, 1, 0, q = 0 giving I exactly.  An offset past the side's last point is left out
    # (only a one-block side has one), so no factor lies farther from 0 than its points.
    sides, ts, sizes = [], [], []
    for side, length, h in ((slice(split - 1, None, -1), split, -step),
                            (slice(split, None), count - split, step)):
        if length:
            s = round(length ** (1 / 4))
            s += s ** 4 < length
            anchors = xs[side][::s ** 3]
            levels = [range(0, min(s ** (k + 1), length), s ** k) for k in (2, 1, 0)]
            ts += [anchors, h * np.array([*levels[0], *levels[1], *levels[2]], float)]
            sizes += [len(anchors), *map(len, levels)]
            sides.append((side, length))
    mats = _exponentials(ev, np.concatenate(ts))
    parts = [mats[end - size:end] for size, end in zip(sizes, accumulate(sizes))]
    dim = len(ev.diagonal)
    out = np.empty((count, len(rows)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (side, length) in enumerate(sides):
            # A level's factors side by side, [I | F_1^T | ...], are the transposed view of
            # their stack (the layout of an operand decides how BLAS rounds a product): c^T
            # times it is [c^T, (F_1 c)^T, ...], so one product applies a level to many columns.
            anchors, *offsets, fine = parts[4 * i:4 * i + 4]
            # Entry (i, r*K + j) of the folded fine factors is (e_0 A**j F_r)[i] / P, F_r the
            # fine factor r and K the number of rows.
            folded = (fine.transpose(2, 0, 1) @ rows.T).reshape(dim, -1)
            # Columns as rows, so that every reshape keeps memory order: a column at row c
            # times offset factor q of the next level is row c*s + q, so after the two
            # offset levels anchor b's column under digits q2, q1 is row (b*s + q2)*s + q1,
            # and its values under fine factor r are row b*s**3 + q2*s**2 + q1*s + r, the
            # point's index on the side.  The last block runs up to s**3 - 1 points past the
            # side's end, whose values may overflow; they are dropped after the last
            # product, and a kept value that overflowed is refused.
            cols = anchors[:, :, -1]
            for level in offsets:
                cols = (cols @ level.transpose(2, 0, 1).reshape(dim, -1)).reshape(-1, dim)
            out[side] = (cols @ folded).reshape(-1, len(rows))[:length]
    return xs, _finite(out)


def eval_derivative_complex(ev: FundamentalEvaluator, m: int, x: float) -> complex:
    """m-th derivative of the fundamental solution at x, complex output.

    Serves every frequency vector, on the evaluator's matrix: complex
    arithmetic for one that is not conjugate-closed, real for a closed one,
    whose value is then exactly real, that of ``eval_derivative``.  An order
    that is not an integer (a bool included) raises ValueError, and a value
    that is not finite OverflowError, as in ``eval_derivative``.
    """
    m = _integer(m, "m")
    return complex(_table(ev, [x], _order_rows(ev, m))[0, m])


def eval_derivative(ev: FundamentalEvaluator, m: int, x: float) -> float:
    """m-th derivative of the fundamental solution at x: one row of ``derivative_table``.

    Requires a conjugate-closed frequency vector and an integer order m (not
    a bool), else ValueError.
    """
    m = _integer(m, "m")
    return float(derivative_table(ev, [x], m)[0, m])


def basis(ev: FundamentalEvaluator, k: int, x: float) -> float:
    """Basis function b_k(x) = k! * Phi^(n-k)(x) for 0 <= k <= n.

    b_k has a k-fold zero at the origin and reduces to x**k when every
    frequency vanishes.  ValueError unless k is an integer (not a bool) in
    range.
    """
    if not 0 <= _integer(k, "k") <= ev.n:
        raise ValueError(f"basis index {k} out of range [0, {ev.n}]")
    return math.factorial(k) * eval_derivative(ev, ev.n - k, x)
