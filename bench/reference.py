"""Independent references for checking expfun results.

Nothing in this module imports expfun.  Values of the fundamental solution
come from the partial-fraction sum

    Phi^(m)(x) = sum_j l_j**m exp(l_j x) / prod_{k != j} (l_j - l_k)

evaluated with mpmath at 50 significant digits or more (distinct frequencies
only), and from closed forms for two-frequency vectors.  Every sum tracks the
digits lost to cancellation; when fewer than ``KEEP_DIGITS`` survive, the sum
is recomputed at higher precision.

Comparisons are made relative to the scale of the task (for example the
largest ``|Phi^(m)|`` on a scanned interval), never against a fixed absolute
tolerance, so the checker does not share the absolute-tolerance defect of the
library's sign check.
"""

from __future__ import annotations

import math

import mpmath

#: Starting working precision in decimal digits.
DPS = 50

#: Digits that must survive cancellation before a reference is accepted.
KEEP_DIGITS = 25

#: Precision ladder tried in turn when cancellation eats too many digits.
_DPS_LADDER = (DPS, 100, 200, 400)

#: Distinct-frequency references refuse vectors with a smaller gap.
MIN_GAP = 1e-6

#: Relative band around zero inside which a sampled sign is ambiguous.
SIGN_BAND = 1e-8


def _lost_digits(abs_sum, value) -> float:
    if abs_sum == 0:
        return 0.0
    if value == 0:
        return math.inf
    return float(mpmath.log10(abs_sum / abs(value)))


class PartialFractions:
    """High-precision model of the fundamental solution of a frequency vector.

    The vector must be conjugate-closed with pairwise distinct entries, so
    that every value is real.  Conjugate pairs are summed as twice the real
    part of the term with positive imaginary part.
    """

    def __init__(self, freqs):
        self.freqs = tuple(complex(f) for f in freqs)
        ent = self.freqs
        gap = min((abs(a - b) for i, a in enumerate(ent) for b in ent[i + 1:]),
                  default=math.inf)
        if gap <= MIN_GAP:
            raise ValueError(f"frequencies too close for partial fractions (gap {gap:.3e})")
        # Index sets: real entries count once, upper conjugates twice (real part).
        self._real = [j for j, f in enumerate(ent) if f.imag == 0.0]
        self._upper = [j for j, f in enumerate(ent) if f.imag > 0.0]
        key = lambda z: (z.real, z.imag)
        lower = sorted((f.conjugate() for f in ent if f.imag < 0.0), key=key)
        if lower != sorted((ent[j] for j in self._upper), key=key):
            raise ValueError("frequency vector is not conjugate-closed")
        self._cache = {}

    @property
    def n(self) -> int:
        return len(self.freqs) - 1

    def _weights(self, dps):
        """Frequencies and partial-fraction weights at the given precision."""
        if dps not in self._cache:
            with mpmath.workdps(dps):
                lam = [mpmath.mpc(f.real, f.imag) if f.imag else mpmath.mpf(f.real)
                       for f in self.freqs]
                weights = []
                for j, lj in enumerate(lam):
                    denom = mpmath.mpf(1)
                    for k, lk in enumerate(lam):
                        if k != j:
                            denom *= lj - lk
                    weights.append(1 / denom)
            self._cache[dps] = (lam, weights)
        return self._cache[dps]

    def _terms(self, dps):
        lam, weights = self._weights(dps)
        return ([(lam[j], weights[j], 1) for j in self._real]
                + [(lam[j], weights[j], 2) for j in self._upper])

    def derivatives(self, x: float, kmax: int) -> list:
        """Real values of Phi^(k)(x) for k = 0..kmax, as floats."""
        for dps in _DPS_LADDER:
            with mpmath.workdps(dps):
                xm = mpmath.mpf(x)
                powered = [(lam, mult * w * mpmath.exp(lam * xm), mult)
                           for lam, w, mult in self._terms(dps)]
                values, worst = [], 0.0
                for _ in range(kmax + 1):
                    total = mpmath.mpf(0)
                    abs_sum = mpmath.mpf(0)
                    for _lam, term, _mult in powered:
                        total += mpmath.re(term)
                        abs_sum += abs(term)
                    values.append(total)
                    worst = max(worst, _lost_digits(abs_sum, total))
                    powered = [(lam, term * lam, mult) for lam, term, mult in powered]
            if dps - worst >= KEEP_DIGITS:
                break
        # At the top of the ladder a remaining loss means a genuine zero,
        # which is then accurate to far below any tolerance used here.
        return [float(v) for v in values]

    def value(self, m: int, x: float) -> float:
        return self.derivatives(x, m)[m]

    def local_scales(self, x: float, kmax: int) -> list:
        """Largest |Phi^(k)| over x, 0.9 x and 1.1 x for k = 0..kmax.

        This is the scale a point query is compared against: near a zero of
        Phi^(k) it is set by the neighbours, elsewhere it is |Phi^(k)(x)|.
        """
        rows = [self.derivatives(t, kmax) for t in (x, 0.9 * x, 1.1 * x)]
        return [max(abs(row[k]) for row in rows) for k in range(kmax + 1)]

    def grid(self, m: int, lo: float, hi: float, count: int) -> list:
        """Phi^(m) at ``count`` equispaced points of [lo, hi], as floats.

        Uses the exact recurrence exp(l (x + h)) = exp(l x) exp(l h).  The
        points differ from ``numpy.linspace`` by a few units in the last
        place, which moves a value by at most about 1e-13 of the scale here.
        """
        for dps in _DPS_LADDER:
            with mpmath.workdps(dps):
                lo_m, hi_m = mpmath.mpf(lo), mpmath.mpf(hi)
                step = (hi_m - lo_m) / (count - 1)
                terms, ratios, mults = [], [], []
                abs_bound = mpmath.mpf(0)
                for lam, w, mult in self._terms(dps):
                    first = w * lam**m * mpmath.exp(lam * lo_m)
                    last = w * lam**m * mpmath.exp(lam * hi_m)
                    # |term| is monotone along the grid, so the endpoints bound it.
                    abs_bound += mult * max(abs(first), abs(last))
                    terms.append(first)
                    ratios.append(mpmath.exp(lam * step))
                    mults.append(mult)
                real = all(not isinstance(t, mpmath.mpc) for t in terms)
                values = []
                for _ in range(count):
                    if real:
                        total = mpmath.fsum(terms)
                    else:
                        total = mpmath.fsum(mult * mpmath.re(t) for t, mult in zip(terms, mults))
                    values.append(total)
                    terms = [t * r for t, r in zip(terms, ratios)]
                scale = max(abs(v) for v in values)
                lost = _lost_digits(abs_bound, scale)
            if dps - lost >= KEEP_DIGITS:
                break
        else:
            raise ArithmeticError(f"reference lost {lost:.1f} digits at {dps} digits")
        return [float(v) for v in values]


# ---------------------------------------------------------------------------
# Closed forms for two real frequencies
# ---------------------------------------------------------------------------

def two_frequency_derivative_zero(l1: float, l2: float, m: int):
    """Zero of Phi^(m) for the vector (l1, l2): l1**m e^(l1 x) = l2**m e^(l2 x).

    x = m ln(l2 / l1) / (l1 - l2) when l1, l2 share a sign; for (-a, -b) and
    m = 1 this is ln(b/a) / (b - a), and for (-1, -2), m = 2 it is 2 ln 2.
    Returns None when no real zero exists.
    """
    if l1 == l2 or l1 * l2 <= 0.0 or m == 0:
        return None
    return m * math.log(l2 / l1) / (l1 - l2)


def two_frequency_hankel_zeros(l1: float, l2: float) -> list:
    """Zeros of det [[Phi'', Phi'], [Phi', 2 Phi]] for the vector (l1, l2).

    With r = exp((l1 - l2) x) the determinant vanishes where
    l1**2 r**2 - 2 (l1**2 + l2**2 - l1 l2) r + l2**2 = 0; for (-1, -2) the
    positive root is x = ln(3 + sqrt 5).
    """
    q = l1 * l1 + l2 * l2 - l1 * l2
    disc = q * q - (l1 * l2) ** 2
    if l1 == l2 or l1 == 0.0 or disc < 0.0:
        return []
    roots = ((q + math.sqrt(disc)) / (l1 * l1), (q - math.sqrt(disc)) / (l1 * l1))
    return sorted(math.log(r) / (l1 - l2) for r in roots if r > 0.0)


# ---------------------------------------------------------------------------
# Reference answers for derived quantities
# ---------------------------------------------------------------------------

def hankel_entries(derivs: list, k: int, n: int) -> list:
    """(k+1) x (k+1) matrix (r+s)! Phi^(t-(r+s)) with t = max(n, 2k)."""
    top = max(n, 2 * k)
    return [[math.factorial(r + s) * derivs[top - r - s] for s in range(k + 1)]
            for r in range(k + 1)]


def positive_definite(entries: list):
    """True, False, or None when a pivot lies inside the ambiguity band.

    Pivots of the unpivoted Cholesky factorization are computed at high
    precision and compared with ``SIGN_BAND`` times the diagonal entry.
    """
    with mpmath.workdps(DPS):
        a = mpmath.matrix(entries)
        dim = a.rows
        for j in range(dim):
            pivot = a[j, j] - sum(a[j, i] ** 2 for i in range(j))
            band = SIGN_BAND * abs(mpmath.mpf(entries[j][j]))
            if pivot <= band:
                return False if pivot < -band else None
            a[j, j] = mpmath.sqrt(pivot)
            for i in range(j + 1, dim):
                a[i, j] = (a[i, j] - sum(a[i, t] * a[j, t] for t in range(j))) / a[j, j]
    return True


def determinant(entries: list) -> float:
    with mpmath.workdps(DPS):
        return float(mpmath.det(mpmath.matrix(entries)))


def density_moments(freqs, length: float, density, kmax: int) -> list:
    """s_k = int_0^L k! Phi^(n-k)(t) rho(t) dt for k = 0..kmax, by mpmath quadrature.

    ``density`` maps an mpmath number t to rho(t).  Each exponential moment
    int_0^L rho(t) exp(l_j t) dt is integrated once; the partial-fraction
    weights then combine them.  Real frequencies only.
    """
    pf = PartialFractions(freqs)
    n = pf.n
    for dps in _DPS_LADDER:
        with mpmath.workdps(dps):
            upper = mpmath.mpf(length)
            integrals = []
            for lam, w, _mult in pf._terms(dps):
                val = mpmath.quad(lambda t, lam=lam: density(t) * mpmath.exp(lam * t),
                                  [0, upper])
                integrals.append((lam, w, val))
            out, worst = [], 0.0
            for k in range(kmax + 1):
                terms = [w * lam ** (n - k) * val for lam, w, val in integrals]
                total = mpmath.fsum(terms)
                worst = max(worst, _lost_digits(mpmath.fsum(abs(t) for t in terms), total))
                out.append(math.factorial(k) * total)
        if dps - worst >= KEEP_DIGITS:
            break
    return [float(v) for v in out]


def derivative_zero(pf: PartialFractions, start: float, stop: float):
    """First sign change of Phi' on a log-spaced scan of [start, stop], refined."""
    xs = [start * (stop / start) ** (i / 399) for i in range(400)]
    prev = None
    for x in xs:
        val = pf.value(1, x)
        if prev is not None and prev[1] > 0.0 >= val:
            with mpmath.workdps(DPS):
                return float(mpmath.findroot(
                    lambda t: _phi1(pf, t), (prev[0], x), solver="anderson"))
        prev = (x, val)
    return None


def _phi1(pf: PartialFractions, t):
    total = mpmath.mpf(0)
    for lam, w, mult in pf._terms(mpmath.mp.dps):
        total += mult * mpmath.re(w * lam * mpmath.exp(lam * t))
    return total
