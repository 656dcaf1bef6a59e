"""Task pools of the three workloads: seeded inputs, the call each task makes, its check.

A workload is an ordered pool of task slots.  The slot plan (which query, which
frequency family, which size) is the same for every seed; the seed draws the
values inside each slot.  A run cycles through its pool in order, so runs of
equal length see the same mix of work whatever the seed.

Every task is checked against ``reference`` (mpmath and closed forms), which
never calls expfun.  A check returns ``OK``, ``known:<defect>: ...`` for a
disagreement explained by a documented library defect, or ``fail: ...``.
Library calls go through the module attribute (``I.verify_sign``), so the
tracing wrappers installed by ``spans`` see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import warnings

import mpmath
import numpy as np

import expfun.fundamental as F
import expfun.inequalities as I
import expfun.moments as M

import reference as R
from families import (FAMILIES, REAL_FAMILIES, SIZES, as_pairs, frequencies, interval_for_depth,
                      log_uniform, slot_depth)

OK = "ok"

#: Point values must agree with the reference to this share of their local scale.
RTOL = 1e-9

#: The sign check's documented default grid and absolute tolerance.
DEFAULT_GRID = 4096
SIGN_TOL = 1e-10

#: Guard below which the library refuses the squared-derivative ratio.
RATIO_GUARD = 1e-14

#: A reported zero must make |value| this small relative to the task's scale.
ZERO_RTOL = 1e-6

#: Closed-form zeros must be matched to this relative distance.
CLOSED_FORM_RTOL = 1e-8


def known(defect: str, detail: str) -> str:
    return f"known:{defect}: {detail}"


def fail(detail: str) -> str:
    return f"fail: {detail}"


def raised(error) -> str:
    """Verdict for a library call that raised although the reference is defined."""
    if isinstance(error, ArithmeticError) and "material imaginary part" in str(error):
        return known("real_projection", f"refused: {error}")
    return fail(f"raised {error!r}")


def _draw_vector(rng, family, size):
    return frequencies(rng, family, size, log_uniform(rng, 0.5, 4.0))


def _draw_point(rng, freqs, family, slot):
    lo, hi = interval_for_depth(freqs, family, slot_depth(family, slot), slot)
    return rng.uniform(lo, hi)


def _real_pair(freqs):
    """(l1, l2) for a two-entry real vector, else None."""
    if len(freqs) == 2 and all(v.imag == 0.0 for v in freqs):
        return freqs[0].real, freqs[1].real
    return None


def _near(value, target, rtol=CLOSED_FORM_RTOL):
    return abs(value - target) <= rtol * max(1.0, abs(target))


class Task:
    """One closed-loop request.  Subclasses set ``freqs`` and implement run/check."""

    kind = ""
    needs_evaluator = True
    ev = None

    def bind(self):
        """Build the evaluator in set-up, before the first task runs."""
        if self.needs_evaluator:
            self.ev = F.build_evaluator(self.freqs)

    def run(self):
        raise NotImplementedError

    def check(self, value, error) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sign scans (scan workload, cli verify)
# ---------------------------------------------------------------------------

class SignScan(Task):
    """verify_sign(ev, m, lo, hi, sign=sign) on the documented default grid."""

    kind = "verify_sign"

    def __init__(self, freqs, m, lo, hi, sign, grid=DEFAULT_GRID):
        self.freqs, self.m, self.lo, self.hi, self.sign, self.grid = freqs, m, lo, hi, sign, grid
        self.pf = R.PartialFractions(freqs)
        self.xs = np.linspace(lo, hi, grid)
        self.ref = sign * np.array(self.pf.grid(m, lo, hi, grid))
        self.scale = float(np.abs(self.ref).max())
        pair = _real_pair(freqs)
        self.closed_zero = R.two_frequency_derivative_zero(*pair, m) if pair else None
        self._zero_checks = {}

    def run(self):
        if self.grid == DEFAULT_GRID:
            return I.verify_sign(self.ev, self.m, self.lo, self.hi, sign=self.sign)
        return I.verify_sign(self.ev, self.m, self.lo, self.hi, grid=self.grid, sign=self.sign)

    def check(self, value, error):
        if error is not None:
            return raised(error)
        return self.check_fields(value.status, value.witness, value.boundary, value.samples)

    def check_report(self, report):
        """Check the report of ``expfun verify``."""
        return self.check_fields(report["status"], report["witness"],
                                 report["boundary"], report["samples"])

    def check_fields(self, status, witness, boundary, samples):
        if samples != self.grid:
            return fail(f"{samples} samples, expected {self.grid}")
        v, band = self.ref, R.SIGN_BAND * self.scale
        neg, pos = v < -band, v > band
        hidden = f"scale {self.scale:.2e}, lowest sample {v.min():.2e} above -tol"
        if status == "nonnegative":
            if not neg.any():
                return OK
            if v.min() >= -SIGN_TOL:
                return known("sign_abs_tol", f"{int(neg.sum())}/{self.grid} samples negative, {hidden}")
            return fail(f"nonnegative, but the reference has {v.min():.3e}")
        if status != "violated":
            return fail(f"unknown status {status!r}")
        hits = np.flatnonzero(self.xs == witness)
        if hits.size == 0:
            return fail(f"witness {witness!r} is not a grid point")
        i = int(hits[0])
        if pos[i]:
            return fail(f"witness x={witness!r} is positive in the reference")
        if neg[:i].any():
            if v[:i].min() >= -SIGN_TOL:
                return known("sign_abs_tol", f"earlier negative samples missed, {hidden}")
            return fail("an earlier grid sample is clearly negative")
        if boundary is None:
            if pos[i:].any() or (i > 0 and pos[i - 1]):
                return fail("no boundary reported although the sign changes")
            return OK
        if not self.lo <= boundary <= self.hi:
            return fail(f"boundary {boundary!r} outside the interval")
        if boundary not in self._zero_checks:
            at = self.pf.derivatives(boundary, self.m)[self.m]
            self._zero_checks[boundary] = abs(at) <= ZERO_RTOL * self.scale
        if not self._zero_checks[boundary]:
            return fail(f"boundary {boundary!r} is not a zero of the reference")
        if self.closed_zero is not None and not _near(boundary, self.closed_zero):
            return fail(f"boundary {boundary!r}, closed form {self.closed_zero!r}")
        return OK


# ---------------------------------------------------------------------------
# Point queries (pointwise workload)
# ---------------------------------------------------------------------------

class PointQuery(Task):
    """Shared reference: derivatives 0..kmax at x and their local scales."""

    def _reference(self, kmax):
        self.pf = R.PartialFractions(self.freqs)
        self.d = self.pf.derivatives(self.x, kmax)
        self.t = self.pf.local_scales(self.x, kmax)


class EvalQuery(PointQuery):
    kind = "eval_derivative"

    def __init__(self, freqs, m, x):
        self.freqs, self.m, self.x = freqs, m, x
        self._reference(m)

    def run(self):
        return F.eval_derivative(self.ev, self.m, self.x)

    def check(self, value, error):
        if error is not None:
            return raised(error)
        if abs(value - self.d[self.m]) <= RTOL * self.t[self.m]:
            return OK
        return fail(f"Phi^({self.m})({self.x!r}) = {value!r}, reference {self.d[self.m]!r}")


class BasisQuery(PointQuery):
    kind = "basis"

    def __init__(self, freqs, k, x):
        self.freqs, self.k, self.x = freqs, k, x
        self.n = len(freqs) - 1
        self._reference(self.n)

    def run(self):
        return F.basis(self.ev, self.k, self.x)

    def check(self, value, error):
        if error is not None:
            return raised(error)
        c = math.factorial(self.k)
        j = self.n - self.k
        if abs(value - c * self.d[j]) <= RTOL * c * self.t[j]:
            return OK
        return fail(f"b_{self.k}({self.x!r}) = {value!r}, reference {c * self.d[j]!r}")


class HankelQuery(PointQuery):
    """hankel_matrix followed by is_positive_definite."""

    kind = "hankel"

    def __init__(self, freqs, k, x):
        self.freqs, self.k, self.x = freqs, k, x
        n = len(freqs) - 1
        self._reference(max(n, 2 * k))
        self.entries = R.hankel_entries(self.d, k, n)
        self.bounds = R.hankel_entries(self.t, k, n)
        self.pd = R.positive_definite(self.entries)

    def run(self):
        h = I.hankel_matrix(self.ev, self.k, self.x)
        return h.entries, I.is_positive_definite(h)

    def check(self, value, error):
        if error is not None:
            return raised(error)
        entries, pd = value
        err = np.abs(np.asarray(entries) - np.asarray(self.entries))
        if np.any(err > RTOL * np.asarray(self.bounds)):
            return fail(f"Hankel entries off by {err.max():.3e} at x={self.x!r}")
        if self.pd is not None and pd != self.pd:
            return fail(f"positive_definite={pd}, reference {self.pd}")
        return OK


def check_ratio(value, error, d, t):
    """Squared-derivative ratio against reference values d and local scales t."""
    denom = d[2] * d[0]
    if error is not None:
        if "ratio undefined" not in str(error):
            return raised(error)
        if denom == 0.0:
            return OK
        if abs(denom) <= RATIO_GUARD * (1 + 1e-6):
            return known("ratio_guard", f"ratio defined (Phi''*Phi = {denom:.3e}) but refused")
        return fail(f"refused although Phi''*Phi = {denom:.3e}")
    if denom == 0.0:
        return fail(f"ratio {value!r} returned where it is undefined")
    ratio = d[1] * d[1] / denom
    # First-order propagation of RTOL-sized errors in Phi, Phi' and Phi''.
    rel = RTOL * (2 * t[1] / abs(d[1]) + t[2] / abs(d[2]) + t[0] / abs(d[0])) if d[1] else 0.0
    if abs(value - ratio) <= abs(ratio) * (rel + RTOL):
        return OK
    return fail(f"ratio {value!r}, reference {ratio!r}")


class TuranQuery(PointQuery):
    kind = "turan_ratio"

    def __init__(self, freqs, x):
        self.freqs, self.x = freqs, x
        self._reference(2)

    def run(self):
        return I.turan_ratio(self.ev, self.x)

    def check(self, value, error):
        return check_ratio(value, error, self.d, self.t)


class DominanceQuery(PointQuery):
    """dominance_gap, or identity_residual when ``identity`` is set."""

    def __init__(self, freqs, coeffs, x, identity=False):
        self.freqs, self.coeffs, self.x, self.identity = freqs, coeffs, x, identity
        self.kind = "identity_residual" if identity else "dominance_gap"
        n = len(freqs) - 1
        self._reference(n)
        poly = sum(a * x**k for k, a in enumerate(coeffs))
        terms = [a * math.factorial(k) * self.d[n - k] for k, a in enumerate(coeffs)]
        self.gap = math.fsum(terms) - poly
        self.scale = sum(abs(a) * math.factorial(k) * self.t[n - k]
                         for k, a in enumerate(coeffs)) + abs(poly)

    def run(self):
        if self.identity:
            return I.identity_residual(self.ev, self.coeffs, self.x)
        return I.dominance_gap(self.ev, self.coeffs, self.x)

    def check(self, value, error):
        if error is not None:
            return raised(error)
        # The identity holds exactly, so the residual's reference value is 0.
        expected = 0.0 if self.identity else self.gap
        if abs(value - expected) <= RTOL * self.scale:
            return OK
        return fail(f"{self.kind} = {value!r}, reference {expected!r}, scale {self.scale:.3e}")


class CertifyQuery(Task):
    """monotonicity_certificate on a real vector; NONE runs the zero locator."""

    kind = "monotonicity_certificate"
    needs_evaluator = False

    def __init__(self, freqs):
        self.freqs = freqs
        self.values = [v.real for v in freqs]
        v = self.values
        top = sorted(v, reverse=True)
        if sorted(v) == sorted(-a for a in v):
            self.expected = "symmetric"
        elif len(v) >= 2 and top[0] + top[1] >= 0.0:
            self.expected = "pair_chain"
        elif top[0] >= 0.0:
            self.expected = "some_nonneg"
        else:
            self.expected = "none"
        self.zero = None
        if self.expected == "none":
            pair = _real_pair(freqs)
            if pair:
                self.zero = R.two_frequency_derivative_zero(*pair, 1)
            else:
                scale = max(1.0, max(abs(a) for a in v))
                self.zero = R.derivative_zero(R.PartialFractions(freqs), 1e-6 / scale, 1e4 / scale)

    def run(self):
        return I.monotonicity_certificate(self.freqs)

    def check(self, value, error):
        if error is not None:
            return raised(error)
        return self.check_fields(value.kind.value, value.rounds, value.pairs,
                                 value.nonnegative_index, value.derivative_zero)

    def check_report(self, report):
        """Check the report of ``expfun certify``, including its sum and necessary test."""
        total = sum(self.values)
        if abs(report["frequency_sum"] - total) > 1e-12 * sum(abs(v) for v in self.values):
            return fail(f"frequency_sum {report['frequency_sum']!r}, expected {total!r}")
        if report["necessary"] != (total >= 0.0):
            return fail(f"necessary={report['necessary']} for sum {total!r}")
        return self.check_fields(report["kind"], report["rounds"],
                                 [tuple(p) for p in report["pairs"]],
                                 report["nonnegative_index"], report["derivative_zero"])

    def check_fields(self, kind, rounds, pairs, nonnegative_index, derivative_zero):
        v = self.values
        if kind != self.expected:
            return fail(f"kind {kind}, expected {self.expected}")
        flat = [i for p in pairs for i in p]
        if kind == "symmetric":
            if sorted(set(flat)) != list(range(len(v))) or any(v[i] + v[j] != 0.0 for i, j in pairs):
                return fail(f"symmetry pairs {pairs} do not match entries to their negatives")
        elif kind == "pair_chain":
            if (rounds != len(pairs) or rounds < 1 or len(set(flat)) != len(flat)
                    or any(v[i] + v[j] < 0.0 for i, j in pairs)):
                return fail(f"pair chain {pairs} (rounds {rounds}) is not a disjoint nonnegative chain")
        elif kind == "some_nonneg":
            if nonnegative_index is None or v[nonnegative_index] < 0.0:
                return fail(f"nonnegative_index {nonnegative_index} points at a negative entry")
        elif self.zero is not None:
            if derivative_zero is None or not _near(derivative_zero, self.zero):
                return fail(f"derivative zero {derivative_zero!r}, reference {self.zero!r}")
        return OK


class Density:
    """The CLI's named densities in t = x - a; counts how often the library calls it."""

    def __init__(self, expr: str, origin: float):
        self.expr, self.origin, self.calls = expr, origin, 0
        name, _, args = expr.partition("(")
        self.name = name
        self.params = [float(c) for c in args.rstrip(")").split(",")] if args else []

    def _at(self, t, exp):
        if self.name == "uniform":
            return 1.0
        if self.name == "truncexp":
            return exp(-self.params[0] * t)
        acc = 0.0
        for c in reversed(self.params):
            acc = acc * t + c
        return acc

    def __call__(self, x):
        self.calls += 1
        return self._at(x - self.origin, math.exp)

    def at_mp(self, t):
        return self._at(t, mpmath.exp)


def draw_measure(rng, kind):
    """A CLI measure config on a support of length 0.5 to 2 with nonnegative weight."""
    a = rng.uniform(-1.0, 1.0)
    b = a + rng.uniform(0.5, 2.0)
    if kind == "atoms":
        atoms = [[rng.uniform(a, b), rng.uniform(0.2, 1.0)] for _ in range(rng.randint(2, 4))]
        return {"kind": "atoms", "support": [a, b], "atoms": atoms}
    if kind == "uniform":
        expr = "uniform"
    elif kind == "truncexp":
        expr = f"truncexp({rng.uniform(0.5, 3.0)!r})"
    else:
        expr = "poly(" + ",".join(repr(rng.uniform(0.0, 1.0)) for _ in range(3)) + ")"
    return {"kind": "density", "support": [a, b], "expr": expr}


class MomentsQuery(Task):
    """transform, hausdorff_check and recover_measure, as ``expfun moments`` runs them.

    Vectors are symmetric, so Phi^(n+1) >= 0 on [0, oo): the transformed
    sequence is a moment sequence, its conditions pass and a representing
    measure exists.
    """

    kind = "moments"

    def __init__(self, freqs, spec):
        self.freqs, self.spec = freqs, spec
        n = len(freqs) - 1
        a, b = spec["support"]
        if spec["kind"] == "atoms":
            pf = R.PartialFractions(freqs)
            s = np.zeros(n + 1)
            for x, w in spec["atoms"]:
                d = pf.derivatives(x - a, n)
                s += [w * math.factorial(k) * d[n - k] for k in range(n + 1)]
            self.moments = list(s)
            self.density = None
            self.measure = M.Measure.from_atoms(spec["atoms"], (a, b))
        else:
            self.density = Density(spec["expr"], a)
            self.moments = R.density_moments(freqs, b - a, self.density.at_mp, n)
            self.measure = M.Measure.from_density(self.density, (a, b))
        self.scale = max(abs(s) for s in self.moments)

    def run(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            seq = M.transform(self.ev, self.measure)
        report = M.hausdorff_check(seq)
        atoms = None
        if report.passed:
            try:
                atoms = M.recover_measure(seq).atoms
            except (ValueError, ArithmeticError):
                atoms = None
        return seq, report, atoms

    def check(self, value, error):
        if error is not None:
            return raised(error)
        seq, report, atoms = value
        return self.check_fields(seq.values, seq.hypothesis_certified, report.passed,
                                 atoms is not None, atoms)

    def check_report(self, report):
        """Check the report of ``expfun moments``."""
        return self.check_fields(report["sequence"], report["hypothesis_certified"],
                                 report["passed"], report["recovered"], report["atoms"])

    def check_fields(self, sequence, certified, passed, recovered, atoms):
        if len(sequence) != len(self.moments):
            return fail(f"{len(sequence)} moments, expected {len(self.moments)}")
        err = max(abs(s - r) for s, r in zip(sequence, self.moments))
        if err > RTOL * self.scale:
            return fail(f"moments off by {err:.3e} (scale {self.scale:.3e})")
        if not (certified and passed and recovered):
            return fail(f"certified={certified} passed={passed} recovered={recovered}")
        a, b = self.spec["support"]
        if any(not a - 1e-8 <= x <= b + 1e-8 or w < 0.0 for x, w in atoms):
            return fail(f"recovered atoms {atoms} leave the support or are negative")
        got = [sum(w * (x - a) ** k for x, w in atoms) for k in range(len(self.moments))]
        gerr = max(abs(g - r) for g, r in zip(got, self.moments))
        if gerr > 1e-7 * self.scale:
            return fail(f"recovered measure misses the moments by {gerr:.3e}")
        return OK


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def _interleave(groups):
    """Spread each kind evenly through the pool so partial passes stay balanced."""
    keyed = [((i + 0.5) / len(g), gi, t) for gi, g in enumerate(groups) for i, t in enumerate(g)]
    return [t for *_k, t in sorted(keyed, key=lambda e: e[:2])]


#: The scan pool's slots: (family, n + 1, scaling depth of the interval's
#: right end, order m).  Every family appears twice, and together the slots
#: cover every size, depths 0 to 6 and orders from 0 to n + 1.  The order is
#: fixed because an evaluation's cost grows with it (by a third from m = 0 to
#: m = 10 at n + 1 = 12).  Ten slots keep a pass near 5 s, so each slot runs
#: several times in a run and its median time shrugs off a slow spell.
SCAN_PLAN = (("symmetric", 2, 3, 0), ("pair_chain", 3, 2, 3), ("one_nonneg", 4, 4, 2),
             ("all_negative", 3, 6, 1), ("conjugate", 6, 6, 4), ("symmetric", 8, 1, 8),
             ("pair_chain", 12, 0, 6), ("one_nonneg", 6, 2, 5), ("all_negative", 12, 4, 12),
             ("conjugate", 8, 5, 3))


def scan_pool(seed: int, smoke: bool = False) -> list:
    """One verify_sign task per slot of ``SCAN_PLAN``, grid 4096.

    All-negative slots sit in the decaying tail and ask for the sign that
    fails there, so violations with |Phi^(m)| far below the library's
    absolute 1e-10 tolerance are in the pool; the other families draw the
    sign at random and give both passing and violated checks.
    """
    rng = random.Random(f"scan:{seed}")
    plan, grid = (SCAN_PLAN[:4], 64) if smoke else (SCAN_PLAN, DEFAULT_GRID)
    tasks = []
    for slot, (family, size, depth, m) in enumerate(plan):
        freqs = _draw_vector(rng, family, size)
        lo, hi = interval_for_depth(freqs, family, depth, slot)
        if family == "all_negative":
            # Far in the tail Phi^(m) has the sign of (-1)**m: check the opposite.
            sign = -(-1) ** m
        else:
            sign = rng.choice((1, -1))
        tasks.append(SignScan(freqs, m, lo, hi, sign, grid))
    return tasks


def pointwise_pool(seed: int, smoke: bool = False) -> list:
    """54 single-abscissa or single-measure queries, mostly cheap, a few heavy."""
    rng = random.Random(f"pointwise:{seed}")
    scale = 0.2 if smoke else 1.0

    def count(k):
        return max(1, round(k * scale))

    def vec(i, families=FAMILIES, sizes=SIZES):
        family = families[i % len(families)]
        return family, _draw_vector(rng, family, sizes[i % len(sizes)])

    evals, bases, hankels, turans, gaps, identities, certs, moments = ([] for _ in range(8))
    for i in range(count(10)):
        fam, f = vec(i)
        evals.append(EvalQuery(f, rng.randint(0, len(f)), _draw_point(rng, f, fam, i)))
    for i in range(count(6)):
        fam, f = vec(i + 1)
        bases.append(BasisQuery(f, rng.randint(0, len(f) - 1), _draw_point(rng, f, fam, i)))
    for i in range(count(8)):
        fam, f = vec(i, REAL_FAMILIES)
        hankels.append(HankelQuery(f, rng.randint(0, len(f) // 2), _draw_point(rng, f, fam, i)))
    for i in range(count(10)):
        # Small positive x, where n >= 4 vectors meet the ratio guard.
        fam, f = vec(i, ("symmetric", "pair_chain"), (3, 4, 6, 8, 12))
        turans.append(TuranQuery(f, log_uniform(rng, 1e-3, 3.0) / abs(f[-1])))
    for i in range(count(6)):
        fam, f = vec(i + 2)
        coeffs = [rng.uniform(-1.0, 1.0) for _ in f]
        gaps.append(DominanceQuery(f, coeffs, _draw_point(rng, f, fam, i)))
    for i in range(count(4)):
        fam, f = vec(i, ("symmetric", "pair_chain", "one_nonneg", "conjugate"), (2, 3, 4, 6))
        coeffs = [rng.uniform(-1.0, 1.0) for _ in f]
        # Depth 0 or 1 only: quad's work grows fast with |x| max|l|, and a few
        # deep draws would make a pass's cost depend on the seed.
        lo, hi = interval_for_depth(f, fam, i % 2, i)
        identities.append(DominanceQuery(f, coeffs, rng.uniform(lo, hi), identity=True))
    cert_plan = [("symmetric", 4), ("pair_chain", 6), ("one_nonneg", 3),
                 ("all_negative", 2), ("all_negative", 4), ("all_negative", 8)]
    for family, size in cert_plan[:count(6)]:
        certs.append(CertifyQuery(_draw_vector(rng, family, size)))
    for kind, size in [("atoms", 3), ("uniform", 4), ("truncexp", 2), ("poly", 5)][:count(4)]:
        f = _draw_vector(rng, "symmetric", size)
        moments.append(MomentsQuery(f, draw_measure(rng, kind)))
    return _interleave([evals, bases, hankels, turans, gaps, identities, certs, moments])


# ---------------------------------------------------------------------------
# CLI runs (cli workload)
# ---------------------------------------------------------------------------

def _cli_bool(text):
    return {"true": True, "false": False}[text]


def _cli_float(text):
    return None if text == "" else float(text)


def parse_cli_output(command: str, fmt: str, text: str) -> dict:
    """The JSON report of a CLI run; CSV output is mapped onto the same keys."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    head, body = rows[0], rows[1:]
    if command in ("eval", "hankel", "turan"):
        conv = [_cli_bool if c == "positive_definite" else float for c in head]
        return {"columns": head, "rows": [[f(c) for f, c in zip(conv, r)] for r in body]}
    if command == "verify":
        status, witness, boundary, samples = body[0]
        return {"status": status, "witness": _cli_float(witness),
                "boundary": _cli_float(boundary), "samples": int(samples)}
    if command == "certify":
        kind, rounds, pairs, index, zero, total, necessary = body[0]
        return {"kind": kind, "rounds": int(rounds),
                "pairs": [[int(i) for i in p.split("-")] for p in pairs.split(";") if p],
                "nonnegative_index": None if index == "" else int(index),
                "derivative_zero": _cli_float(zero), "frequency_sum": float(total),
                "necessary": _cli_bool(necessary)}
    out = {"sequence": [], "atoms": []}
    for record, index, value in body:
        if record == "moment":
            out["sequence"].append(float(value))
        elif record == "atom_location":
            out["atoms"].append([float(value), None])
        elif record == "atom_weight":
            out["atoms"][int(index)][1] = float(value)
        elif record in ("hypothesis_certified", "passed", "recovered"):
            out[record] = _cli_bool(value)
    return out


class CliRun(Task):
    """``python -m expfun.cli <command> --config <file> --format <fmt>`` in a child."""

    needs_evaluator = False

    def __init__(self, command, fmt, config, query):
        self.command, self.fmt, self.config, self.query = command, fmt, config, query
        self.kind = f"cli.{command}"
        self.freqs = [complex(*v) if isinstance(v, list) else complex(v)
                      for v in config["frequencies"]]

    def write_config(self, path):
        path.write_text(json.dumps(self.config), encoding="utf-8")
        self.config_path = path

    def argv(self):
        return ["-m", "expfun.cli", self.command, "--config", str(self.config_path),
                "--format", self.fmt]

    def check(self, value, error):
        if error is not None:
            return raised(error)
        code, out, err = value
        if self.command == "turan" and code == 3 and "ratio undefined" in err:
            return self.query.check_refusal()
        if code == 3:
            return raised(ArithmeticError(err.strip()))
        if code != 0:
            return fail(f"exit code {code}: {err.strip()[-200:]}")
        try:
            report = parse_cli_output(self.command, self.fmt, out)
        except (ValueError, KeyError, IndexError) as exc:
            return fail(f"unparseable {self.fmt} output: {exc!r}")
        return self.query.check_report(report)


class EvalTable:
    """Reference for ``expfun eval``: Phi^(m) on linspace(lo, hi, samples)."""

    def __init__(self, freqs, m, lo, hi, samples=65):
        self.xs = np.linspace(lo, hi, samples)
        self.ref = np.array(R.PartialFractions(freqs).grid(m, lo, hi, samples))
        self.scale = float(np.abs(self.ref).max())

    def check_report(self, report):
        rows = np.array(report["rows"], dtype=float)
        if rows.shape != (len(self.xs), 2) or np.any(rows[:, 0] != self.xs):
            return fail("eval rows do not sit on the documented grid")
        err = float(np.abs(rows[:, 1] - self.ref).max())
        return OK if err <= RTOL * self.scale else fail(f"eval values off by {err:.3e}")


class HankelTable:
    """Reference for ``expfun hankel``: determinants, definiteness, sign changes."""

    def __init__(self, freqs, k, lo, hi, samples=129):
        self.xs = np.linspace(lo, hi, samples)
        self.pf, self.k, self.n = R.PartialFractions(freqs), k, len(freqs) - 1
        self.dets, self.bounds, self.pds = [], [], []
        for x in self.xs:
            h = self._entries(float(x))
            self.dets.append(R.determinant(h))
            # Hadamard's bound, the product of row norms, is the determinant's scale.
            self.bounds.append(math.prod(math.hypot(*row) for row in h))
            self.pds.append(R.positive_definite(h))
        pair = _real_pair(freqs)
        self.closed = R.two_frequency_hankel_zeros(*pair) if pair and k == 1 else None

    def _entries(self, x):
        return R.hankel_entries(self.pf.derivatives(x, max(self.n, 2 * self.k)), self.k, self.n)

    def check_report(self, report):
        rows = report["rows"]
        if len(rows) != len(self.xs):
            return fail("hankel rows do not sit on the documented grid")
        for (x, det, pd), ref, bound, ref_pd in zip(rows, self.dets, self.bounds, self.pds):
            if abs(det - ref) > 1e-8 * bound:
                return fail(f"det at x={x!r} is {det!r}, reference {ref!r}")
            if ref_pd is not None and pd != ref_pd:
                return fail(f"positive_definite at x={x!r} is {pd}, reference {ref_pd}")
        for x in report.get("sign_changes", ()):
            det = R.determinant(self._entries(x))
            if abs(det) > ZERO_RTOL * max(self.bounds):
                return fail(f"sign change at x={x!r} is not a zero of the determinant")
            if self.closed is not None and not any(_near(x, z) for z in self.closed):
                return fail(f"sign change {x!r}, closed forms {self.closed}")
        return OK


class TuranTable:
    """Reference for ``expfun turan``: the ratio on linspace(lo, hi, samples)."""

    def __init__(self, freqs, lo, hi, samples=65):
        self.xs = np.linspace(lo, hi, samples)
        pf = R.PartialFractions(freqs)
        self.refs = [(pf.derivatives(float(x), 2), pf.local_scales(float(x), 2)) for x in self.xs]
        n = len(freqs) - 1
        self.upper = n / (n - 1)

    def check_report(self, report):
        rows = report["rows"]
        if len(rows) != len(self.xs):
            return fail("turan rows do not sit on the documented grid")
        for (x, ratio, lower, upper), (d, t) in zip(rows, self.refs):
            if lower != 1.0 or upper != self.upper:
                return fail(f"band [{lower}, {upper}], expected [1, {self.upper}]")
            verdict = check_ratio(ratio, None, d, t)
            if verdict != OK:
                return verdict
        return OK

    def check_refusal(self):
        """The run stopped at the ratio guard: known if some grid ratio is defined there."""
        for x, (d, t) in zip(self.xs, self.refs):
            denom = d[2] * d[0]
            if abs(denom) <= RATIO_GUARD * (1 + 1e-6):
                return check_ratio(None, ArithmeticError("ratio undefined"), d, t)
        return fail("ratio refused although every grid denominator clears the guard")


def cli_pool(seed: int, smoke: bool = False) -> list:
    """One seeded config per command, three rendered as CSV and three as JSON.

    Configs use the documented defaults (65 or 129 samples, the 4096-point
    sign grid).  The verify config uses a two-frequency all-negative vector,
    whose boundary has a closed form, and the certify config an all-negative
    vector, which runs the zero locator.  Six slots keep a pass near 7 s, so
    each slot runs several times in a run.
    """
    rng = random.Random(f"cli:{seed}")
    grid = 64 if smoke else DEFAULT_GRID
    runs = []

    def add(command, fmt, config, query):
        runs.append(CliRun(command, fmt, config, query))

    def vector_and_interval(families):
        family = rng.choice(families)
        f = _draw_vector(rng, family, rng.choice(SIZES))
        slot = rng.randrange(7)
        return (f, *interval_for_depth(f, family, slot_depth(family, slot), slot))

    f, lo, hi = vector_and_interval(FAMILIES)
    m = rng.randint(0, len(f))
    add("eval", "csv", {"frequencies": as_pairs(f), "interval": [lo, hi], "m": m},
        EvalTable(f, m, lo, hi))
    # verify: the closed-form boundary 2 ln(b/a)/(b-a) of Phi'' for (-a, -b)
    a = log_uniform(rng, 0.5, 2.0)
    f = [complex(-a), complex(-a * rng.uniform(1.5, 3.0))]
    hi = 3.0 * R.two_frequency_derivative_zero(f[0].real, f[1].real, 2)
    config = {"frequencies": as_pairs(f), "m": 2, "interval": [0.0, hi], "sign": 1}
    if smoke:
        config["grid"] = grid
    add("verify", "json", config, SignScan(f, 2, 0.0, hi, 1, grid))
    f, lo, hi = vector_and_interval(REAL_FAMILIES)
    k = rng.randint(0, len(f) // 2)
    add("hankel", "csv", {"frequencies": as_pairs(f), "k": k, "interval": [lo, hi]},
        HankelTable(f, k, lo, hi))
    f = _draw_vector(rng, rng.choice(("symmetric", "pair_chain")), rng.choice((3, 4, 6)))
    lo = log_uniform(rng, 0.05, 1.0) / abs(f[-1])
    hi = lo + rng.uniform(1.0, 3.0) / abs(f[-1])
    add("turan", "json", {"frequencies": as_pairs(f), "interval": [lo, hi]}, TuranTable(f, lo, hi))
    f = _draw_vector(rng, "symmetric", rng.choice((2, 3, 4)))
    spec = draw_measure(rng, "atoms")
    add("moments", "csv", {"frequencies": as_pairs(f), "measure": spec}, MomentsQuery(f, spec))
    f = _draw_vector(rng, "all_negative", rng.choice((2, 4)))
    add("certify", "json", {"frequencies": as_pairs(f)}, CertifyQuery(f))
    if smoke:
        return [run for run in runs if run.command in ("verify", "moments", "certify")]
    return runs
