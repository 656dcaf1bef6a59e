"""Moment-sequence transform, truncated Hausdorff verification, measure recovery.

Integrating the basis functions b_k(x - a) against a nonnegative measure on
[a, b] produces a sequence that, whenever the sign hypothesis holds on
[0, b - a], is a genuine truncated moment sequence: some nonnegative measure
on [a, b] has exactly these power moments in t - a.  The checks here are the
classical even/odd localized Hankel conditions for the interval [0, b - a],
and the recovery builds a Gauss-type atomic representative from the
orthogonal-polynomial recurrence of the sequence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .frequencies import _tolerance
from .fundamental import FundamentalEvaluator, derivative_table
from .inequalities import (_factorials, _hankel, _nonnegative_taylor, _riesz, _scaled,
                          as_polynomial, cholesky_factor, verify_sign)
from .quadrature import _FEJER_TOL, nested_fejer

__all__ = [
    "Measure",
    "MomentSequence",
    "HausdorffReport",
    "ConditionCheck",
    "transform",
    "riesz_functional",
    "hausdorff_check",
    "recover_measure",
]


@dataclass(frozen=True, slots=True)
class Measure:
    """Nonnegative measure on a compact interval: weighted atoms or a density."""

    kind: str
    support: tuple
    atoms: Optional[tuple] = None
    density: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if len(self.support) != 2:
            raise ValueError(f"support needs exactly two bounds, got {len(self.support)}")
        a, b = (float(self.support[0]), float(self.support[1]))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"support bounds must be finite, got [{a}, {b}]")
        if not a <= b:
            raise ValueError("support must satisfy a <= b")
        object.__setattr__(self, "support", (a, b))
        if self.kind == "atoms":
            if not self.atoms:
                raise ValueError("atomic measure needs at least one atom")
            cleaned = []
            for x, w in self.atoms:
                x, w = float(x), float(w)
                if not 0.0 <= w < math.inf:
                    raise ValueError(f"atom weight {w} is not finite and nonnegative")
                if not a - 1e-12 <= x <= b + 1e-12:
                    raise ValueError(f"atom location {x} outside support [{a}, {b}]")
                cleaned.append((x, w))
            object.__setattr__(self, "atoms", tuple(cleaned))
        elif self.kind == "density":
            if self.density is None:
                raise ValueError("density measure needs a callable density")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @classmethod
    def from_atoms(cls, atoms, support) -> "Measure":
        return cls(kind="atoms", support=tuple(support), atoms=tuple(atoms))

    @classmethod
    def from_density(cls, density, support) -> "Measure":
        return cls(kind="density", support=tuple(support), density=density)


@dataclass(frozen=True, slots=True)
class MomentSequence:
    """Transformed sequence s_0..s_n with its interval geometry.

    ``hypothesis_certified`` records whether the sign hypothesis, the
    (n+1)-th derivative >= 0 on [0, support_length], was proved, or sampled
    on 512 points, when the sequence was produced (``transform``).
    Construction refuses non-finite values, a non-finite origin and a support
    length that is not finite and nonnegative, since no interval condition
    can be checked on such geometry.
    """

    values: tuple
    support_length: float
    origin: float
    hypothesis_certified: bool = True

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("moment values must be finite")
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if not 0.0 <= self.support_length < math.inf:
            raise ValueError(f"support length {self.support_length} is not finite and nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values) - 1


def _basis_sum(ev: FundamentalEvaluator, ts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # sum_i w_i b_k(t_i) for k = 0..n, with b_k(t) = k! Phi^(n-k)(t).
    n = ev.n
    return weights @ derivative_table(ev, ts, n)[:, ::-1] * _factorials(n + 1)


#: Fejer order of the coarse rule for density transforms; the first
#: evaluation covers the 127 nodes of order 128, which embeds it.
_START_ORDER = 64

#: Largest Fejer order tried for density transforms (8191 nodes).
_MAX_ORDER = 8192


def transform(ev: FundamentalEvaluator, mu: Measure) -> MomentSequence:
    """Integrate the shifted basis functions against mu.

    s_k = integral of b_k(x - a) d mu(x) over the support [a, b].  Atomic
    measures are summed exactly; densities use nested Fejer quadrature whose
    order doubles from 64 until two successive orders agree to 1e-11, and
    raise RuntimeError when they still differ at order 8192 (8191 nodes).
    The density is never evaluated at the ends of the support.  The sign
    hypothesis on [0, b - a] is proved, or sampled on 512 points: it is
    proved when the real frequencies split into pairs with nonnegative sums
    and single nonnegative entries, which make every Taylor coefficient of
    Phi nonnegative, and sampled otherwise.  A sampled failure only warns
    and is recorded on the returned sequence.
    """
    if not ev.realify:
        raise ValueError("moment transform requires a real-valued fundamental solution")
    a, b = mu.support
    length = b - a

    certified = True
    if length > 0.0 and not _nonnegative_taylor(ev.freq.entries):
        report = verify_sign(ev, ev.n + 1, 0.0, length, grid=512)
        certified = report.status == "nonnegative"
        if not certified:
            warnings.warn(
                f"sign hypothesis fails on [0, {length}] (witness x={report.witness}); "
                "the transformed sequence need not be a moment sequence",
                stacklevel=2,
            )

    if mu.kind == "atoms":
        atoms = np.array([(x, w) for x, w in mu.atoms if w != 0.0]).reshape(-1, 2)
        s = _basis_sum(ev, atoms[:, 0] - a, atoms[:, 1])
    else:
        s = _density_transform(ev, mu)
    return MomentSequence(tuple(s), support_length=length, origin=a,
                          hypothesis_certified=certified)


def _density_transform(ev: FundamentalEvaluator, mu: Measure) -> np.ndarray:
    a, b = mu.support
    if b == a:
        return np.zeros(ev.n + 1)

    n = ev.n

    def values(xs):
        dens = np.array([mu.density(x) for x in xs.tolist()])
        if np.any(dens < -1e-12 * (1.0 + np.abs(dens).max())):
            raise ValueError("density is negative at a quadrature node")
        keep = dens != 0.0
        out = np.zeros((xs.size, n + 1))
        out[keep] = _scaled(derivative_table(ev, xs[keep] - a, n)) * dens[keep, None]
        return out

    return nested_fejer(values, a, b, _START_ORDER, _MAX_ORDER, _FEJER_TOL)


def riesz_functional(s: MomentSequence, poly) -> float:
    """Linear functional sending t**k to s_k, applied to the polynomial."""
    poly = as_polynomial(poly)
    if poly.degree > s.n:
        raise ValueError(f"polynomial degree {poly.degree} exceeds sequence length")
    return _riesz(poly, s.values)


@dataclass(frozen=True, slots=True)
class ConditionCheck:
    label: str
    min_eigenvalue: float
    threshold: float
    passed: bool


@dataclass(frozen=True, slots=True)
class HausdorffReport:
    """Per-matrix positive-semidefiniteness results for the interval conditions."""

    passed: bool
    conditions: tuple


def _psd_conditions(s: MomentSequence):
    # Each matrix is the Hankel matrix of one localized sequence, such as b s_{i+1} - s_{i+2}.
    v = np.asarray(s.values)
    b = s.support_length
    m = s.n // 2
    if s.n % 2 == 0:
        yield "moments", _hankel(v, m + 1)
        yield "t_times_b_minus_t", _hankel(b * v[1:-1] - v[2:], m)
    else:
        yield "t", _hankel(v, m + 1, 1)
        yield "b_minus_t", _hankel(b * v[:-1] - v[1:], m + 1)


def hausdorff_check(s: MomentSequence, tol: Optional[float] = None) -> HausdorffReport:
    """Classical localized-Hankel test for a truncated moment sequence on [0, b].

    Even-length data (odd n) require the shifted block (s_{i+j+1}) and the
    reflected block (b*s_{i+j} - s_{i+j+1}) to be positive semidefinite;
    odd-length data (even n) require the plain block (s_{i+j}) together with
    the block of b*s_{i+j+1} - s_{i+j+2}.  Each matrix passes when its
    smallest eigenvalue clears -tol (default 1e-10 times max(1, its largest
    absolute eigenvalue), which is the spectral norm of a symmetric matrix).
    A given tol must be finite and nonnegative (ValueError).
    """
    if tol is not None:
        _tolerance(tol, "tol")
    checks = []
    passed = True
    for label, mat in _psd_conditions(s):
        if mat.size == 0:
            continue
        eig = np.linalg.eigvalsh(mat)
        min_eig = float(eig[0])
        thr = tol if tol is not None else 1e-10 * max(1.0, float(np.abs(eig).max()))
        ok = min_eig >= -thr
        passed = passed and ok
        checks.append(ConditionCheck(label, min_eig, thr, ok))
    return HausdorffReport(passed=passed, conditions=tuple(checks))


def _gauss_from_moments(seq: np.ndarray, tol: float):
    """Nodes and weights of a Gauss-type rule matching moments seq[0..2K-1].

    The Jacobi matrix is read off the Cholesky factor L of the K x K moment
    matrix (Golub & Welsch 1969): with d = diag(L) and r_j = L[j+1, j] / d_j,
    r_{K-1} taken from the last entry of L^-1 seq[K:2K], the off-diagonal is
    d_{j+1} / d_j and the diagonal r_j - r_{j-1} (r_{-1} = 0).  The
    tridiagonal eigenproblem yields the nodes and the squared first
    eigenvector components (times seq[0]) the weights.  Rank deficiency
    truncates K, so the rule matches only the prefix seq[0..2K-1];
    ``recover_measure`` returns a truncated rule only when it reproduces
    every moment.  No pivot above tol (as when seq[0] <= tol or seq has
    fewer than two entries) gives an empty rule.
    """
    for K in range(len(seq) // 2, 0, -1):
        h = _hankel(seq, K)
        low = cholesky_factor(h, tol * max(1.0, float(np.abs(np.diagonal(h)).max())))
        if low is None:
            continue
        if K == 1:
            return np.array([seq[1] / seq[0]]), np.array([float(seq[0])])
        d = np.diagonal(low)
        r = np.append(np.diagonal(low, -1), np.linalg.solve(low, seq[K:2 * K])[-1]) / d
        off = d[1:] / d[:-1]
        jacobi = np.diag(r - np.append(0.0, r[:-1])) + np.diag(off, 1) + np.diag(off, -1)
        eigvals, eigvecs = np.linalg.eigh(jacobi)
        weights = seq[0] * eigvecs[0, :] ** 2
        return eigvals, weights
    return np.array([]), np.array([])


#: Atoms may overshoot the support by at most this much before recovery fails.
_SUPPORT_SLACK = 1e-8

#: Relative Cholesky pivot tolerance of the Gauss rules built by recovery.
_PIVOT_TOL = 1e-12


def recover_measure(s: MomentSequence) -> Measure:
    """Atomic representative with the sequence as its shifted power moments.

    Even-length data (odd n) use the plain Gauss rule of the sequence;
    odd-length data (even n) use the Gauss rule of the once-shifted sequence
    plus an atom at the left endpoint that carries s_0 minus the mass of the
    other atoms; shifted nodes within 1e-8 of the endpoint merge into it.
    Each Hankel block's Cholesky pivots must exceed 1e-12 * max(1, largest
    diagonal entry); a block that fails is truncated, and a truncated rule is
    returned only when it reproduces every moment.  Atoms must land inside
    the support (within 1e-8), and every s_0..s_n is verified to
    1e-8 * (1 + |s_k|) before returning; ArithmeticError reports the first
    moment that misses.  A sequence that leaves no atom gives the zero
    measure, a weightless atom at the left endpoint.
    """
    report = hausdorff_check(s)
    if not report.passed:
        failing = [c.label for c in report.conditions if not c.passed]
        raise ValueError(
            f"sequence fails the interval moment conditions ({', '.join(failing)}); "
            "no nonnegative representing measure exists"
        )
    v = np.asarray(s.values)
    b = s.support_length
    a = s.origin

    if s.n % 2 == 1:
        nodes, weights = _gauss_from_moments(v, _PIVOT_TOL)
    else:
        nodes, weights = _gauss_from_moments(v[1:], _PIVOT_TOL)
        inner = nodes > _SUPPORT_SLACK
        nodes, weights = nodes[inner], weights[inner] / nodes[inner]
        w0 = float(v[0] - weights.sum())
        if w0 < -1e-9 * max(1.0, v[0]):
            raise ArithmeticError(
                f"endpoint weight {w0:.3e} is negative; recovery is inconsistent"
            )
        if w0 > 1e-14 * max(1.0, v[0]):
            nodes = np.concatenate(([0.0], nodes))
            weights = np.concatenate(([w0], weights))
    if not len(nodes):
        nodes, weights = np.array([0.0]), np.array([0.0])

    if nodes.min() < -_SUPPORT_SLACK or nodes.max() > b + _SUPPORT_SLACK:
        raise ArithmeticError(
            f"recovered atom at t={float(nodes.min() if nodes.min() < 0 else nodes.max())} "
            f"lies outside [0, {b}]; the sign hypothesis likely fails"
        )
    nodes = np.clip(nodes, 0.0, b if b > 0 else 0.0)

    for k in range(s.n + 1):
        got = float((weights * nodes**k).sum())
        if abs(got - v[k]) > 1e-8 * (1.0 + abs(v[k])):
            raise ArithmeticError(
                f"reconstructed moment {k} is {got!r}, expected {float(v[k])!r}; "
                "sequence is too ill-conditioned for reliable recovery"
            )

    atoms = tuple((float(t + a), float(w)) for t, w in zip(nodes, weights))
    return Measure.from_atoms(atoms, (a, a + b))
