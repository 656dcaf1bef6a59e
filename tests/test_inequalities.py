"""Sign certificates, the convolution identity, dominance, Hankel and ratio bounds."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import expfun.fundamental as fundamental
import expfun.inequalities as inequalities
from expfun import (
    CertificateKind,
    Measure,
    PolynomialCoeffs,
    build_evaluator,
    derivative_grid,
    dominance_gap,
    eval_derivative,
    hankel_matrix,
    identity_residual,
    is_positive_definite,
    monotonicity_certificate,
    polynomial_nonnegative_on,
    transform,
    turan_ratio,
    verify_sign,
)

from mpmath_oracle import eval_via_mpmath, zero_via_mpmath

LOG2_TWICE = 2 * math.log(2)
DET_FLIP = math.log(3 + math.sqrt(5))
XTOL = inequalities.BISECTION_XTOL

#: Twelve frequencies in six pairs of positive sum: Phi^(6) has a 5-fold zero at 0.
PAIR_CHAIN_12 = [0.8, -0.7, 1.4, -1.3, 2.1, -2.0, 3.1, -2.9, 3.8, -3.6, 4.5, -4.4]

#: A conjugate pair of modulus 2.88 ahead of six small decaying real nodes.
LARGE_PAIR_FIRST = [0.051883 + 2.879595j, 0.051883 - 2.879595j, -0.038215, -0.06119,
                    -0.069474, -0.069432, -0.054274, -0.057562]


def random_symmetric(rng, count, scale=1.2):
    """Random vector whose entry multiset equals its negation."""
    entries = []
    for _ in range(count // 2):
        a = rng.uniform(0.3, scale)
        entries += [a, -a]
    if count % 2:
        entries.append(0.0)
    rng.shuffle(entries)
    return entries


def squared_polynomial(rng, max_degree):
    """Random nonzero polynomial that is a square, hence nonnegative everywhere."""
    half = rng.uniform(-1, 1, size=max_degree // 2 + 1)
    if not half.any():
        half[0] = 1.0
    full = np.convolve(half, half)
    return PolynomialCoeffs(tuple(full))


class TestVerifySign:
    def test_two_negative_frequencies_flip(self):
        ev = build_evaluator([-1, -2])
        rep = verify_sign(ev, 2, 0.0, 3.0)
        assert rep.status == "violated"
        assert rep.witness == 0.0
        assert rep.boundary == pytest.approx(LOG2_TWICE, abs=1e-9)

    def test_non_finite_samples_refused(self):
        # NaN < -tol is false, so a NaN sample would otherwise count as nonnegative.
        ev = build_evaluator([0, 1000])
        with pytest.raises(OverflowError):
            verify_sign(ev, 0, 0.70, 0.712, grid=64)

    def test_identically_zero_derivative_is_nonnegative(self):
        ev = build_evaluator([0, 0, 0])
        rep = verify_sign(ev, 3, 0.0, 5.0)
        assert rep.status == "nonnegative"
        assert rep.witness is None and rep.boundary is None

    def test_mixed_vector_fourth_derivative_nonnegative(self):
        ev = build_evaluator([-1, 1, 0, 1])
        rep = verify_sign(ev, 4, 0.0, 4.0)
        assert rep.status == "nonnegative"

    def test_witness_is_reevaluable(self):
        ev = build_evaluator([-1, -2])
        rep = verify_sign(ev, 2, 0.0, 3.0, tol=1e-10)
        assert eval_derivative(ev, 2, rep.witness) < -1e-10

    def test_interior_violation_refines_left_crossing(self):
        # First derivative of the decaying pair turns negative at log 2.
        ev = build_evaluator([-1, -2])
        rep = verify_sign(ev, 1, 0.0, 3.0)
        assert rep.status == "violated"
        assert rep.witness > 0.0
        assert rep.boundary == pytest.approx(math.log(2), abs=1e-9)

    def test_nonpositive_check_on_negative_axis(self):
        # Symmetric vector: odd symmetry of the top derivative around zero.
        ev = build_evaluator([-1, 0, 1])
        assert verify_sign(ev, 3, -3.0, 0.0, sign=-1).status == "nonnegative"
        assert verify_sign(ev, 3, 0.0, 3.0, sign=1).status == "nonnegative"

    def test_preconditions(self):
        ev = build_evaluator([-1, -2])
        with pytest.raises(ValueError):
            verify_sign(ev, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            verify_sign(ev, 2, 0.0, 1.0, grid=32)
        with pytest.raises(ValueError):
            verify_sign(ev, 2, 0.0, 1.0, sign=2)
        # Non-integers and bools are refused as the CLI refuses them; numpy integers pass.
        for bad in (100.0, True):
            with pytest.raises(ValueError, match="grid must be an integer"):
                verify_sign(ev, 2, 0.0, 3.0, grid=bad)
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="m must be an integer"):
                verify_sign(ev, bad, 0.0, 3.0)
        for bad in (True, 1.0, -1.0, np.int64(1)):
            with pytest.raises(ValueError, match="sign must be the int 1 or -1"):
                verify_sign(ev, 2, 0.0, 3.0, sign=bad)
        rep = verify_sign(ev, np.int64(2), 0.0, 3.0, grid=np.int32(100))
        assert rep == verify_sign(ev, 2, 0.0, 3.0, grid=100) and rep.status == "violated"
        with pytest.raises(ValueError, match="nonnegative"):
            verify_sign(ev, -1, 0.0, 1.0)
        # Refused before any abscissa is formed, so numpy does not warn on inf * 0.
        with pytest.raises(ValueError, match="finite"):
            verify_sign(ev, 2, 0.0, math.inf)
        # Finite bounds whose distance overflows: refused by name, not from a NaN abscissa.
        with pytest.raises(ValueError, match="width hi - lo overflows"):
            verify_sign(build_evaluator([-1, -2, 0.5]), 1, -1e308, 1e308)

    @pytest.mark.parametrize("lo, hi, tol", [
        # Every sample of Phi for [-1, -2] is negative on [-3, -1]: NaN certified it.
        (-3.0, -1.0, math.nan),
        (-3.0, -1.0, math.inf),
        (-3.0, -1.0, -math.inf),
        # Phi > 0 on [0.5, 1]: a negative tol reported a violation with a boundary
        # refined on a reversed cell.
        (0.5, 1.0, -5.0),
        (0.5, 1.0, -1e-300),
    ])
    def test_tolerance_must_be_finite_and_nonnegative(self, lo, hi, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_sign(build_evaluator([-1, -2]), 0, lo, hi, tol=tol)

    def test_matches_scan_of_full_grid(self):
        # verify_sign contracts only the orders m..m+2; a scan of the full
        # derivative_grid must give the same status and witness, and plain
        # bisection from it the same boundary.
        rng = np.random.default_rng(47)
        checked = 0
        for trial in range(24):
            count = int(rng.integers(2, 9))
            if trial % 2:
                entries = list(rng.uniform(-2.0, 1.0, count))
            else:
                entries = [complex(rng.uniform(-0.5, 0.8), rng.uniform(0.3, 2.0))]
                entries += [entries[0].conjugate()] + list(rng.uniform(-2.0, 1.0, count - 2))
            ev = build_evaluator(entries)
            m = int(rng.integers(0, count + 1))
            lo, hi = sorted(rng.uniform(-1.0, 4.0, 2))
            sign = int(rng.choice([1, -1]))
            rep = verify_sign(ev, m, lo, hi, grid=512, sign=sign)
            xs = np.linspace(lo, hi, 512)
            bad = np.flatnonzero(sign * derivative_grid(ev, lo, hi, 512, m)[:, m] < -1e-10)
            assert rep.status == ("violated" if bad.size else "nonnegative"), (entries, m, lo, hi)
            assert rep.witness == (float(xs[bad[0]]) if bad.size else None)
            if rep.boundary is not None:
                oracle = bisection_oracle(ev, m, lo, hi, 512, sign=sign)
                assert abs(rep.boundary - oracle) <= XTOL, (entries, m, lo, hi)
                checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.2, 3.0), (1.0, 0.5)])
    def test_pair_second_derivative_zero_closed_form(self, a, b):
        # Phi = e^(ax) sin(bx) / b for the pair a +- bi, so Phi'' = |l|**2 e^(ax)
        # sin(bx + 2 arg l) / b, whose first zero on (0, oo) is B* below.
        zero = (math.pi - math.atan2(2 * a * b, a * a - b * b)) / b
        rep = verify_sign(build_evaluator([complex(a, b), complex(a, -b)]), 2, 0.0, 2 * zero)
        assert rep.status == "violated" and rep.witness > zero
        assert abs(rep.boundary - zero) <= 1e-10

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_pair_with_large_node_first(self, m):
        # The pair of modulus 2.88 is given before six small real nodes.  Rows
        # e_0 Z**j in that order carried terms up to 1e9 times the value, and the
        # complex kernel's imaginary residue (2e-9) made verify_sign refuse; the
        # real matrix puts the small nodes first.  The boundary is the zero of the
        # 40-digit reference, to a few ulps.
        rep = verify_sign(build_evaluator(LARGE_PAIR_FIRST), m, 0.0, 25.0)
        assert rep.status == "violated"
        assert eval_via_mpmath(LARGE_PAIR_FIRST, m, rep.witness, 40).real < -1e-10
        zero = zero_via_mpmath(LARGE_PAIR_FIRST, m, rep.boundary)
        assert abs(rep.boundary - zero) <= 1e-12, (rep.boundary, zero)

    def test_witness_and_bracket_ends_are_linspace_entries(self, monkeypatch):
        # The scan forms no abscissa: the witness and the ends of the refined cell are
        # read off _abscissae, and must be the grid's linspace entries, bit for bit, on
        # grids right of, left of and across 0 (one starting a hair below 0).
        ends = []
        refine = inequalities._refine_sign_change

        def recording(probe, lo, hi, row_lo, row_hi):
            ends.append((lo, hi))
            return refine(probe, lo, hi, row_lo, row_hi)

        monkeypatch.setattr(inequalities, "_refine_sign_change", recording)
        cases = [([-1, -2], 2, 0.0, 3.0, 1), ([-1, -2], 1, 0.1, 3.0, 1),
                 ([-1, -2], 2, -1.0, 3.0, 1), ([-1, -2], 2, -3e-13, 3.0, 1),
                 ([1, 2], 2, -3.0, -0.25, -1), ([0.5 + 1j, 0.5 - 1j], 2, -0.7, 2.0, 1)]
        for entries, m, lo, hi, sign in cases:
            ends.clear()
            for grid in (64, 65, 4096):
                rep = verify_sign(build_evaluator(entries), m, lo, hi, grid=grid, sign=sign)
                xs = np.linspace(lo, hi, grid).tolist()
                assert rep.status == "violated" and rep.witness in xs, (entries, m, lo, hi, grid)
                assert rep.boundary is not None
                a, b = ends[-1]
                assert xs.index(b) == xs.index(a) + 1 and a <= rep.boundary <= b, (lo, hi, grid)

    def test_deep_boundary_of_the_docstring(self):
        # The example of verify_sign's docstring: at depth 22 the computed Phi'' changes
        # sign 2.6e-5 past its true zero 2 ln 2 * 1e6, and the bracket holds the former.
        rep = verify_sign(build_evaluator([-1e-6, -2e-6]), 2, 0.0, 3e6)
        assert rep.status == "violated"
        assert abs(rep.boundary - 1386294.3611457) <= 1e-6, rep.boundary
        assert abs(rep.boundary - LOG2_TWICE * 1e6) > 2e-5, rep.boundary


def count_tables(monkeypatch):
    """Record every _grid scan and _table probe made from inequalities: kind, points, rows object."""
    calls = []
    grid, table = inequalities._grid, inequalities._table

    def counted_grid(ev, lo, hi, count, rows):
        calls.append(("grid", count, id(rows)))
        return grid(ev, lo, hi, count, rows)

    def counted_table(ev, xs, rows):
        calls.append(("table", len(xs), id(rows)))
        return table(ev, xs, rows)

    monkeypatch.setattr(inequalities, "_grid", counted_grid)
    monkeypatch.setattr(inequalities, "_table", counted_table)
    return calls


def assert_scan_then_probes(calls, grid, most):
    """The first call scans the grid; the rest are probes of one or two points on the scan's rows.

    Returns the number of probe calls, which must lie in 1..most.
    """
    (kind, count, rows), *probes = calls
    assert (kind, count) == ("grid", grid)
    assert all(kind == "table" and points in (1, 2) and probe_rows == rows
               for kind, points, probe_rows in probes), probes
    assert 1 <= len(probes) <= most, probes
    return len(probes)


def bisection_oracle(ev, m, lo, hi, grid, tol=1e-10, sign=1):
    """Plain bisection of the grid cell whose sign change verify_sign refines."""
    xs = np.linspace(lo, hi, grid)
    vals = sign * derivative_grid(ev, lo, hi, grid, m)[:, m]
    i = int(np.flatnonzero(vals < -tol)[0])
    j = i if i > 0 and vals[i - 1] >= 0.0 else i + int(np.flatnonzero(vals[i:] >= 0.0)[0])
    a, b, a_negative = float(xs[j - 1]), float(xs[j]), vals[j - 1] < 0.0
    while b - a > XTOL:
        mid = 0.5 * (a + b)
        if (sign * eval_derivative(ev, m, mid) < 0.0) == a_negative:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


class TestRefineSignChange:
    # The last entry is the most probe calls allowed: each probes the pair t -/+ XTOL/4.
    @pytest.mark.parametrize("freqs, m, lo, hi, grid, sign, tol, most", [
        ([-1, -2], 1, 0.0, 3.0, 4096, 1, 1e-10, 1),
        ([-1, -2], 2, 0.0, 3.0, 4096, 1, 1e-10, 1),
        ([1.5, -1.5], 0, -1.0, 1.0, 65, 1, 1e-10, 1),
        (PAIR_CHAIN_12, 6, -0.5, 0.5, 64, 1, 1e-10, 2),
        (PAIR_CHAIN_12, 6, -0.25, 1.0, 4096, 1, 1e-10, 2),
        # The sample next to 0 is 5.6e-17: Phi' squared underflows there, so
        # the first step bisects and the Newton step after it must be kept.
        (PAIR_CHAIN_12, 0, -0.3, 0.1, 65, 1, 0.0, 3),
        ([-1, -2], 1, 0.0, 3.0, 4096, -1, 1e-10, 1),
        ([1.5, -1.5], 0, -1.0, 1.0, 65, -1, 1e-10, 1),
    ], ids=["simple_zero", "simple_zero_negative_start", "grid_root_at_origin",
            "fivefold_zero_between_samples", "fivefold_zero_on_sample",
            "elevenfold_zero_next_to_sample", "sign_minus_one", "sign_minus_one_root_at_origin"])
    def test_few_evaluations_and_bisection_bracket(self, monkeypatch, freqs, m, lo, hi, grid,
                                                   sign, tol, most):
        ev = build_evaluator(freqs)
        oracle = bisection_oracle(ev, m, lo, hi, grid, tol, sign)
        calls = count_tables(monkeypatch)
        rep = verify_sign(ev, m, lo, hi, grid=grid, tol=tol, sign=sign)
        assert rep.status == "violated"
        assert_scan_then_probes(calls, grid, most)
        assert abs(rep.boundary - oracle) <= XTOL

    def test_smooth_simple_zero_in_one_probe(self, monkeypatch):
        # Phi' = 2e^(-2x) - e^(-x) for [-1, -2]: the quintic Hermite interpolant of the
        # grid rows around log 2 puts the first target within XTOL/4 of it, so the
        # first pair of probes closes the bracket.
        calls = count_tables(monkeypatch)
        rep = verify_sign(build_evaluator([-1, -2]), 1, 0.0, 3.0)
        assert assert_scan_then_probes(calls, inequalities.DEFAULT_GRID, 1) == 1
        assert abs(rep.boundary - math.log(2)) <= XTOL

    def test_bracket_of_adjacent_floats_far_from_origin(self):
        # Near 3e6 the float spacing is 4.7e-10, wider than the tolerance: the
        # refinement stops at two adjacent floats around the zero pi * 1e6.
        ev = build_evaluator([1e-6j, -1e-6j])
        rep = verify_sign(ev, 0, 3e6, 3.3e6)
        assert rep.status == "violated"
        assert abs(rep.boundary - math.pi * 1e6) <= 2 * math.ulp(math.pi * 1e6)

    def test_exact_zeros_bisect(self, monkeypatch):
        # Phi' = -e^(-x) underflows to -0.0 past x = 745, which the predicate f < 0 reads as
        # a sign change; on that stretch of exact zeros each Newton target would be the last
        # probe again, creeping XTOL/2 per call across the 2.4-wide cell, so it bisects.
        calls = count_tables(monkeypatch)
        rep = verify_sign(build_evaluator([-1.0]), 1, 0.0, 1e4, tol=0.0)
        assert rep.status == "violated" and 745.0 < rep.boundary < 746.0
        assert_scan_then_probes(calls, inequalities.DEFAULT_GRID, 45)

    def test_locator_evaluations(self, monkeypatch):
        calls = count_tables(monkeypatch)
        cert = monotonicity_certificate([-1, -2])
        assert cert.derivative_zero == pytest.approx(math.log(2), abs=XTOL)
        # The grid scan of [0, 2] (2n / |l_max|) brackets the zero in a cell 4.9e-4 wide, where
        # the Hermite target settles, so one pair of probes closes the bracket.
        assert assert_scan_then_probes(calls, inequalities.DEFAULT_GRID, 1) == 1


class TestIdentityResidual:
    def test_zero_point(self):
        ev = build_evaluator([-1.5, 0.5, 2.0])
        assert identity_residual(ev, [0.7, -0.3, 1.1], 0.0) <= 1e-14

    def test_polynomial_case_reproduces_exactly(self):
        ev = build_evaluator([0, 0, 0])
        for x in (-1.5, 0.3, 2.0):
            assert identity_residual(ev, [1.0, -2.0, 0.5], x) <= 1e-10

    def test_two_negative_frequencies_affine_polynomial(self):
        ev = build_evaluator([-1, -2])
        assert identity_residual(ev, [1.0, 1.0], 1.0) <= 1e-9

    def test_randomized_vectors_and_points(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(0, 7))
            ev = build_evaluator(list(rng.uniform(-1.5, 1.5, size=n + 1)))
            coeffs = list(rng.uniform(-1, 1, size=n + 1))
            x = float(rng.uniform(-2, 2))
            poly = PolynomialCoeffs(tuple(coeffs))
            lhs = sum(
                a * math.factorial(k) * eval_derivative(ev, n - k, x)
                for k, a in enumerate(coeffs)
            )
            assert identity_residual(ev, poly, x) <= 1e-8 * (1 + abs(poly(x)) + abs(lhs))

    def test_degree_cap(self):
        ev = build_evaluator([-1, -2])
        with pytest.raises(ValueError):
            identity_residual(ev, [0.0, 0.0, 1.0], 1.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_is_refused_before_the_nodes_are_placed(self, x):
        # Nodes placed on [0, inf] would be inf - inf, a RuntimeWarning under the suite's filter.
        with pytest.raises(ValueError, match="abscissae must be finite"):
            identity_residual(build_evaluator([-1, -2]), [1.0, 1.0], x)

    def test_non_finite_coefficient_is_refused(self):
        # A NaN coefficient ran Fejer rules up to order 4096, then raised "did not stabilize".
        with pytest.raises(ValueError, match="coefficient a_0 = nan is not finite"):
            identity_residual(build_evaluator([-1, -2]), [math.nan, 1.0], 0.5)

    def test_one_kernel_call_when_the_first_orders_agree(self, monkeypatch):
        # The left side's row at x rides with the 31 nodes of the first Fejer rule, and
        # the rules of orders 16 and 32 agree here, so no further node is evaluated.
        seen = []
        exponentials = fundamental._exponentials
        monkeypatch.setattr(fundamental, "_exponentials",
                            lambda ev, xs: seen.append(len(xs)) or exponentials(ev, xs))
        assert identity_residual(build_evaluator([-1, -2]), [1.0, 1.0], 1.0) <= 1e-9
        assert seen == [32]


class TestDominance:
    def test_gap_vanishes_at_origin(self):
        for entries in ([-1, -2], [0, 1, -1], [2, -0.5, 0.3, -2]):
            ev = build_evaluator(entries)
            poly = [0.4] + [0.1] * ev.n
            assert abs(dominance_gap(ev, poly, 0.0)) <= 1e-12

    def test_non_finite_coefficient_is_refused(self):
        # An infinite coefficient gave a NaN gap.
        with pytest.raises(ValueError, match="coefficient a_0 = inf is not finite"):
            dominance_gap(build_evaluator([-1, -2]), [math.inf, 0.0], 0.5)

    def test_gap_is_exactly_zero_at_origin(self):
        assert dominance_gap(build_evaluator([0, 1, -1]), [1.0], 0.0) == 0.0

    def test_polynomial_case_has_zero_gap(self):
        ev = build_evaluator([0, 0, 0])
        for x in (-1.0, 0.5, 2.0):
            assert abs(dominance_gap(ev, [1.0, 2.0, 3.0], x)) <= 1e-12

    def test_shifted_cosh_against_square(self):
        ev = build_evaluator([0, 1, -1])
        expected = 2 * (math.cosh(1) - 1) - 1
        assert dominance_gap(ev, [0.0, 0.0, 1.0], 1.0) == pytest.approx(expected, abs=1e-12)

    def test_strict_positivity_under_certified_hypothesis(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            count = int(rng.integers(3, 8))
            entries = random_symmetric(rng, count)
            n = count - 1
            ev = build_evaluator(entries)
            assert verify_sign(ev, n + 1, 0.0, 3.0, grid=256).status == "nonnegative"
            poly = squared_polynomial(rng, n)
            assert polynomial_nonnegative_on(poly, 0.0, 3.0)
            for x in np.linspace(3.0 / 64, 3.0, 64):
                assert dominance_gap(ev, poly, float(x)) > 0.0

    def test_two_sided_dominance_for_symmetric_vectors(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            count = int(rng.integers(3, 7))
            entries = random_symmetric(rng, count)
            n = count - 1
            ev = build_evaluator(entries)
            assert verify_sign(ev, n + 1, 0.0, 2.0, grid=256).status == "nonnegative"
            assert verify_sign(ev, n + 1, -2.0, 0.0, grid=256, sign=-1).status == "nonnegative"
            poly = squared_polynomial(rng, n)
            for x in np.linspace(-2.0, 2.0, 41):
                assert dominance_gap(ev, poly, float(x)) >= -1e-9


class TestHankel:
    def test_factorial_weights_end_at_170(self):
        # The basis values b_j = j! Phi^(n-j) weigh a reversed derivative row by j! from
        # one read-only table, exact up to 170!; 171! is past the float range.
        weights = inequalities._factorials(171)
        assert weights.tolist() == [float(math.factorial(j)) for j in range(171)]
        assert not weights.flags.writeable
        assert inequalities._scaled(np.array([2.0, 3.0, 5.0])).tolist() == [5.0, 3.0, 4.0]
        with pytest.raises(OverflowError, match="171!"):
            inequalities._scaled(np.ones(172))

    def test_two_frequency_determinant_formula(self):
        ev = build_evaluator([-1, -2])
        for x in (0.0, 0.5, 1.0, 2.0, 3.0):
            h = hankel_matrix(ev, 1, x)
            det = float(np.linalg.det(h.entries))
            closed = math.exp(-2 * x) * (4 * math.exp(-2 * x) - 6 * math.exp(-x) + 1)
            assert det == pytest.approx(closed, abs=1e-12)

    def test_two_frequency_not_definite_inside_flip(self):
        ev = build_evaluator([-1, -2])
        assert not is_positive_definite(hankel_matrix(ev, 1, 1.0))
        assert is_positive_definite(hankel_matrix(ev, 1, DET_FLIP + 0.5))

    def test_corner_entry_is_top_derivative(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            entries = list(rng.uniform(-1.5, 1.5, size=n + 1))
            ev = build_evaluator(entries)
            x = float(rng.uniform(0.1, 2))
            for k in range(0, n // 2 + 1):
                h = hankel_matrix(ev, k, x)
                assert h.entries[0, 0] == pytest.approx(eval_derivative(ev, n, x), rel=1e-12)
                assert np.allclose(h.entries, h.entries.T)

    def test_is_moment_matrix_of_unit_atom(self):
        # For 2k <= n, entry (r, s) is b_{r+s}(x) = s_{r+s} of the unit atom at x on [0, x].
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(0, 9))
            ev = build_evaluator(list(rng.uniform(-2, 2, size=n + 1)))
            x = float(rng.uniform(0.05, 3))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the sign hypothesis may fail; the values stand
                s = transform(ev, Measure.from_atoms([(x, 1.0)], (0.0, x))).values
            for k in range(n // 2 + 1):
                block = np.array([[s[r + c] for c in range(k + 1)] for r in range(k + 1)])
                assert np.array_equal(hankel_matrix(ev, k, x).entries, block)

    def test_polynomial_case_is_rank_one(self):
        # All basis entries are powers of x, so the matrix is singular but
        # positive semidefinite: definiteness fails at tol 0 and the
        # eigenvalues clear any negative slack.
        ev = build_evaluator([0, 0, 0, 0, 0])
        h = hankel_matrix(ev, 2, 1.0)
        assert np.allclose(h.entries, np.ones((3, 3)), atol=1e-12)
        assert not is_positive_definite(h, 0.0)
        assert np.linalg.eigvalsh(h.entries)[0] >= -1e-9

    def test_half_order_cap(self):
        ev = build_evaluator([-1, -2])
        with pytest.raises(ValueError):
            hankel_matrix(ev, 2, 1.0)
        ev3 = build_evaluator([0, 1, -1])
        with pytest.raises(ValueError):
            hankel_matrix(ev3, 2, 1.0)
        # A bool k gave a matrix with k=True and a float one an IndexError.
        for bad in (True, 1.0):
            with pytest.raises(ValueError, match="k must be an integer"):
                hankel_matrix(ev, bad, 0.5)
        h = hankel_matrix(ev, np.int64(1), 0.5)
        assert h.k == 1 and np.array_equal(h.entries, hankel_matrix(ev, 1, 0.5).entries)

    def test_definite_with_quadratic_form_floor(self):
        rng = np.random.default_rng(45)
        for _ in range(8):
            count = int(rng.integers(3, 8))
            entries = random_symmetric(rng, count)
            n = count - 1
            ev = build_evaluator(entries)
            for x in np.linspace(0.5, 3.0, 8):
                for k in range(0, n // 2 + 1):
                    h = hankel_matrix(ev, k, float(x))
                    assert is_positive_definite(h, 0.0)
                    for _ in range(5):
                        p = rng.standard_normal(k + 1)
                        quad_form = float(p @ h.entries @ p)
                        poly_val = float(np.polyval(p[::-1], x))
                        assert quad_form > poly_val**2 - 1e-9

    def test_two_sided_definiteness_for_symmetric_vectors(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            count = int(rng.integers(3, 7))
            entries = random_symmetric(rng, count)
            n = count - 1
            ev = build_evaluator(entries)
            for x in np.concatenate([np.linspace(-2, -0.2, 7), np.linspace(0.2, 2, 7)]):
                for k in range(0, n // 2 + 1):
                    assert is_positive_definite(hankel_matrix(ev, k, float(x)), 0.0)


class TestPolynomialNonnegativity:
    def test_squares_pass(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            half = rng.uniform(-1, 1, size=3)
            square = np.convolve(half, half)
            assert polynomial_nonnegative_on(list(square), -2.0, 2.0)

    def test_interior_dip_detected(self):
        # (x - 1)^2 - 0.01 dips negative near 1 but is positive at many grids.
        assert not polynomial_nonnegative_on([0.99, -2.0, 1.0], 0.0, 2.0)

    def test_negative_only_outside_interval(self):
        assert polynomial_nonnegative_on([0.0, 1.0], 0.0, 2.0)
        assert not polynomial_nonnegative_on([0.0, 1.0], -1.0, 2.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                        (0.0, math.nan)])
    def test_non_finite_bounds_refused(self, lo, hi):
        # A positive constant came out False on [0, inf), with a numpy warning.
        with pytest.raises(ValueError, match="finite"):
            polynomial_nonnegative_on([1.0], lo, hi)

    @pytest.mark.parametrize("coeffs", [[math.inf], [1.0, -math.inf], [0.0, 1.0, math.nan]])
    def test_non_finite_coefficients_refused(self, coeffs):
        # [inf] was called nonnegative on [0, 1].
        index = next(i for i, c in enumerate(coeffs) if not math.isfinite(c))
        with pytest.raises(ValueError, match=f"coefficient a_{index} = .* is not finite"):
            polynomial_nonnegative_on(coeffs, 0.0, 1.0)


class TestPositiveDefinite:
    def test_identity_passes(self):
        assert is_positive_definite(np.eye(4))

    def test_indefinite_fails(self):
        assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("tol", [-10.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # tol=-10 let the pivot -3 through to math.sqrt, which raised "math domain error".
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            is_positive_definite([[1.0, 2.0], [2.0, 1.0]], tol=tol)

    def test_single_entry_from_positive_value(self):
        ev = build_evaluator([-1, 0, 1])
        assert verify_sign(ev, 3, 0.0, 3.0, grid=128).status == "nonnegative"
        for x in (0.5, 1.0, 2.5):
            assert is_positive_definite(hankel_matrix(ev, 0, x))


class TestTuranRatio:
    def test_mixed_vector_probe_below_zero(self):
        ev = build_evaluator([-1, 1, 0, 1])
        closed_phi = lambda x: 0.5 * (math.exp(x) * (x - 2) + math.sinh(x) + 2)
        closed_d1 = lambda x: 0.5 * (math.exp(x) * (x - 1) + math.cosh(x))
        closed_d2 = lambda x: 0.5 * (math.exp(x) * x + math.sinh(x))
        x = -0.6
        expected = closed_d1(x) ** 2 / (closed_d2(x) * closed_phi(x))
        got = turan_ratio(ev, x)
        assert got == pytest.approx(expected, rel=1e-11)
        assert got > 1.5

    def test_mixed_vector_inside_band_at_one(self):
        got = turan_ratio(build_evaluator([-1, 1, 0, 1]), 1.0)
        assert 1.0 <= got < 1.5

    def test_polynomial_case_sits_at_upper_bound(self):
        # Value x**2/2: the ratio is identically n/(n-1) = 2.
        ev = build_evaluator([0, 0, 0])
        for x in (0.3, 1.0, 2.5):
            assert turan_ratio(ev, x) == pytest.approx(2.0, rel=1e-12)

    def test_banded_under_certified_hypothesis(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            count = int(rng.integers(3, 9))
            entries = random_symmetric(rng, count)
            n = count - 1
            ev = build_evaluator(entries)
            assert verify_sign(ev, n + 1, 0.0, 3.0, grid=256).status == "nonnegative"
            upper = n / (n - 1)
            # Small x is covered by test_small_denominators_near_origin.
            for x in np.linspace(0.5, 3.0, 30):
                ratio = turan_ratio(ev, float(x))
                assert 1.0 - 1e-9 <= ratio < upper + 1e-9

    def test_log_derivative_decreasing(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            ev = build_evaluator(list(rng.uniform(-2, 2, size=n + 1)))
            xs = np.linspace(0.05, 2.5, 40)
            ratios = [
                eval_derivative(ev, 1, float(x)) / eval_derivative(ev, 0, float(x))
                for x in xs
            ]
            for left, right in zip(ratios, ratios[1:]):
                assert right <= left + 1e-9

    def test_zero_denominator_guard(self):
        ev = build_evaluator([0, 0, 0])
        with pytest.raises(ArithmeticError):
            turan_ratio(ev, 0.0)

    @pytest.mark.parametrize("x", [0.001, 0.01, 0.03])
    def test_small_denominators_near_origin(self, x):
        # Phi'' * Phi is about 1e-35, 1e-25 and 1e-20 here: tiny, but each
        # factor keeps its relative accuracy, so the ratio is defined.  The
        # reference is partial fractions at 40 digits; in double precision
        # they cancel to nothing this close to the 6-fold zero at 0.
        freqs = [1, -1, 2, -2, 0.5, 3, -3]
        with mpmath.workdps(40):
            ls = [mpmath.mpf(v) for v in freqs]
            d = [mpmath.fsum(lj**m * mpmath.exp(lj * x) / mpmath.fprod(lj - lk for lk in ls if lk != lj)
                             for lj in ls) for m in range(3)]
            expected = float(d[1] ** 2 / (d[2] * d[0]))
        got = turan_ratio(build_evaluator(freqs), x)
        assert got == pytest.approx(expected, rel=1e-12)
        assert 1.0 <= got < 1.2


class TestMonotonicityCertificate:
    def test_symmetric_vector(self):
        cert = monotonicity_certificate([-1, 0, 1])
        assert cert.kind is CertificateKind.SYMMETRIC

    @pytest.mark.parametrize("values, pairs", [
        ([1, -1, 1, -1, 0, 0, 0], ((0, 1), (2, 3), (4, 5), (6, 6))),
        ([2, 0, -2], ((0, 2), (1, 1))),
        ([0.5, -1.5, 0.0, 1.5, -0.5], ((0, 4), (1, 3), (2, 2))),
        ([0, 0], ((0, 1),)),
        ([0.0], ((0, 0),)),
    ])
    def test_symmetric_pairs(self, values, pairs):
        # Each index meets the first free index of its negation; a leftover 0 pairs with itself.
        cert = monotonicity_certificate(values)
        assert cert.kind is CertificateKind.SYMMETRIC
        assert cert.pairs == pairs

    @pytest.mark.parametrize("values, pairs", [
        ([3, -1, -5, 2, -2], ((0, 4), (3, 1))),
        ([2, 2, -2, -1], ((0, 2), (1, 3))),
        ([1, -1, -1, 0], ((0, 2),)),
        ([0, 0, -1], ((0, 1),)),
        ([-1, -2, -3], ()),
    ])
    def test_pair_chain_pairs(self, values, pairs):
        # The largest remaining value joins the smallest it still sums to >= 0 with; ties keep
        # the given order, so a tied tail pairs its later index first.
        assert inequalities._greedy_pair_chain(values) == pairs

    def test_all_negative_vector_gets_counterexample(self):
        cert = monotonicity_certificate([-1, -2])
        assert cert.kind is CertificateKind.NONE
        assert cert.derivative_zero == pytest.approx(math.log(2), abs=1e-9)
        ev = build_evaluator([-1, -2])
        assert abs(eval_derivative(ev, 1, cert.derivative_zero)) <= 1e-9

    @pytest.mark.parametrize("a", [-1e-2, -1.0, -1e2])
    @pytest.mark.parametrize("ratio", [1.001, 2.0, 1e3])
    def test_two_frequency_zero_closed_form(self, a, ratio):
        # Phi' = (a e^(ax) - b e^(bx)) / (a - b) vanishes at ln(b/a) / (a - b).
        b = a * ratio
        zero = math.log(b / a) / (a - b)
        cert = monotonicity_certificate([a, b])
        assert abs(cert.derivative_zero - zero) <= 1e-9 * max(1.0, zero)

    @pytest.mark.parametrize("c", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("n", [2, 5])
    def test_confluent_zero_closed_form(self, c, n):
        # Phi = x**n e^(-cx) / n!, so Phi' vanishes at n/c.
        cert = monotonicity_certificate([-c] * (n + 1))
        assert abs(cert.derivative_zero - n / c) <= 1e-9 * max(1.0, n / c)

    def test_zero_beyond_scan_range(self):
        # The zero 1e6 ln 2 lies past the scanned [0, 1e4].
        cert = monotonicity_certificate([-1e-6, -2e-6])
        assert cert.kind is CertificateKind.NONE and cert.derivative_zero is None

    def test_pair_chain_with_one_round(self):
        cert = monotonicity_certificate([-1, 3, -2])
        assert cert.kind is CertificateKind.PAIR_CHAIN
        assert cert.rounds == 1
        ((i, j),) = cert.pairs
        assert {i, j} <= {0, 1, 2}
        assert [-1, 3, -2][i] + [-1, 3, -2][j] >= 0
        # The certified consequence: first and second derivatives positive.
        ev = build_evaluator([-1, 3, -2])
        assert verify_sign(ev, 1, 1e-6, 3.0, grid=128).status == "nonnegative"
        assert verify_sign(ev, 2, 1e-6, 3.0, grid=128).status == "nonnegative"

    def test_pair_chain_with_two_rounds(self):
        cert = monotonicity_certificate([3.0, 2.0, -1.0, -1.5])
        assert cert.kind is CertificateKind.PAIR_CHAIN
        assert cert.rounds == 2
        used = [i for pair in cert.pairs for i in pair]
        assert len(set(used)) == 4

    def test_single_nonnegative_frequency(self):
        values = [0.5, -10.0, -10.0]
        cert = monotonicity_certificate(values)
        assert cert.kind is CertificateKind.SOME_NONNEG
        assert values[cert.nonnegative_index] >= 0
        ev = build_evaluator(values)
        assert verify_sign(ev, 1, 1e-6, 3.0, grid=128).status == "nonnegative"

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_certificate([1j, -1j])

    def test_single_negative_frequency_has_no_zero(self):
        # Phi' = -e^(-x) never vanishes.
        cert = monotonicity_certificate([-1.0])
        assert cert.kind is CertificateKind.NONE and cert.derivative_zero is None

    def test_zero_within_bound_and_located(self):
        # The zero of Phi' lies at most n / |l_max| from 0, with equality for equal
        # frequencies; the locator scans [0, 2n / |l_max|] and must find it there.
        rng = np.random.default_rng(25)
        for i in range(10):
            size = int(rng.integers(2, 13))
            values = list(-rng.uniform(0.05, 1.0, size) * 10 ** rng.uniform(-1, 1))
            if i % 3 == 0:
                values = [values[0]] * size
            elif i % 3 == 1:
                values[1:3] = [values[1]] * 2
            cert = monotonicity_certificate(values)
            zero = zero_via_mpmath(values, 1, cert.derivative_zero, 30)
            bound = (size - 1) / abs(max(values))
            assert zero <= bound * (1 + 1e-12), (values, zero, bound)
            assert abs(cert.derivative_zero - zero) <= 1e-10 * max(1.0, zero), (values, zero)

    def test_zero_range_capped_as_before(self):
        # 2n / |l_max| = 2599 passes 1e4 / max|l| = 107.5: the scan keeps [0, 107.5], so
        # the documented sign change of the cancelling Phi' is the one found there.
        values = [-93.03504499963121, -0.04451643050514944, -0.0015391044333304571]
        cert = monotonicity_certificate(values)
        scan = verify_sign(build_evaluator(values), 1, 0.0, 1e4 / 93.03504499963121, tol=0.0)
        assert cert.derivative_zero == scan.boundary
        assert abs(cert.derivative_zero - 78.29988519656305) <= 2.5e-10


class TestNonnegativeTaylor:
    @pytest.mark.parametrize("values, proved", [
        ([0.5, 1, 2], True),
        ([3, -1, 2, -2], True),
        ([-1, 3, -2], False),
        ([1 + 2j, 1 - 2j], False),
        ([-1, 0, 1], True),
        ([0.0], True),
        ([-1e-300], False),
        ([2, -2, -0.5], False),
    ])
    def test_pinned_vectors(self, values, proved):
        assert inequalities._nonnegative_taylor([complex(v) for v in values]) is proved

    def test_every_order_sampled_nonnegative(self):
        # Pairs (p, q) with p + q >= 0 and single entries >= 0: every Taylor coefficient of
        # Phi is >= 0, so every order up to n+3 is >= 0 on [0, oo).
        rng = np.random.default_rng(19)
        for i in range(40):
            size = int(rng.integers(1, 11))
            scale = 10 ** rng.uniform(-1, 1)
            values = []
            for _ in range(size // 2):
                p = rng.uniform(0.1, 1.0) * scale
                q = [-p, -p * rng.uniform(0.0, 1.0), p * rng.uniform(0.0, 1.0), 0.0][i % 4]
                values += [p, q]
            values += [rng.uniform(0.0, 1.0) * scale * (i % 3 > 0)] * (size % 2)
            rng.shuffle(values)
            assert inequalities._nonnegative_taylor([complex(v) for v in values]), values
            n = len(values) - 1
            x = 8.0 / max(1.0, max(abs(v) for v in values))
            table = derivative_grid(build_evaluator(values), 0.0, x, 257, n + 3)
            assert (table >= -1e-14 * np.abs(table).max(axis=0)).all(), values

    def test_transform_skips_the_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sign hypothesis was scanned")

        monkeypatch.setattr("expfun.moments.verify_sign", refuse)
        for values in ([0.5, 1, 2], [3, -1, 2, -2], [-1, 0, 1]):
            s = transform(build_evaluator(values), Measure.from_atoms([(1.0, 1.0)], (0.0, 1.5)))
            assert s.hypothesis_certified
        with pytest.raises(AssertionError, match="scanned"):
            transform(build_evaluator([-1, 3, -2]), Measure.from_atoms([(1.0, 1.0)], (0.0, 1.5)))
