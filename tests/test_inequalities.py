"""Sign certificates, the convolution identity, dominance, Hankel and ratio bounds."""

import math

import mpmath
import numpy as np
import pytest

import expfun.inequalities as inequalities
from expfun import (
    CertificateKind,
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
    turan_ratio,
    verify_sign,
)

LOG2_TWICE = 2 * math.log(2)
DET_FLIP = math.log(3 + math.sqrt(5))
XTOL = inequalities.BISECTION_XTOL

#: Twelve frequencies in six pairs of positive sum: Phi^(6) has a 5-fold zero at 0.
PAIR_CHAIN_12 = [0.8, -0.7, 1.4, -1.3, 2.1, -2.0, 3.1, -2.9, 3.8, -3.6, 4.5, -4.4]


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
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
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
        with pytest.raises(ValueError, match="nonnegative"):
            verify_sign(ev, -1, 0.0, 1.0)
        # Refused before any abscissa is formed, so numpy does not warn on inf * 0.
        with pytest.raises(ValueError, match="finite"):
            verify_sign(ev, 2, 0.0, math.inf)

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


def count_tables(monkeypatch):
    """Record the point count and the rows object of every _grid call made from inequalities."""
    calls = []
    original = inequalities._grid

    def counted(ev, lo, hi, count, rows):
        calls.append((count, id(rows)))
        return original(ev, lo, hi, count, rows)

    monkeypatch.setattr(inequalities, "_grid", counted)
    return calls


def assert_scan_then_probes(calls, grid, most):
    """The first call scans the grid; the rest are one-point probes on the scan's rows."""
    (count, rows), *probes = calls
    assert count == grid
    assert probes == [(1, rows)] * len(probes) and 1 <= len(probes) <= most


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
    @pytest.mark.parametrize("freqs, m, lo, hi, grid, sign, tol", [
        ([-1, -2], 1, 0.0, 3.0, 4096, 1, 1e-10),
        ([-1, -2], 2, 0.0, 3.0, 4096, 1, 1e-10),
        ([1.5, -1.5], 0, -1.0, 1.0, 65, 1, 1e-10),
        (PAIR_CHAIN_12, 6, -0.5, 0.5, 64, 1, 1e-10),
        (PAIR_CHAIN_12, 6, -0.25, 1.0, 4096, 1, 1e-10),
        # The sample next to 0 is 5.6e-17: Phi' squared underflows there, so
        # the first step bisects and the Newton step after it must be kept.
        (PAIR_CHAIN_12, 0, -0.3, 0.1, 65, 1, 0.0),
        ([-1, -2], 1, 0.0, 3.0, 4096, -1, 1e-10),
        ([1.5, -1.5], 0, -1.0, 1.0, 65, -1, 1e-10),
    ], ids=["simple_zero", "simple_zero_negative_start", "grid_root_at_origin",
            "fivefold_zero_between_samples", "fivefold_zero_on_sample",
            "elevenfold_zero_next_to_sample", "sign_minus_one", "sign_minus_one_root_at_origin"])
    def test_few_evaluations_and_bisection_bracket(self, monkeypatch, freqs, m, lo, hi, grid,
                                                   sign, tol):
        ev = build_evaluator(freqs)
        oracle = bisection_oracle(ev, m, lo, hi, grid, tol, sign)
        calls = count_tables(monkeypatch)
        rep = verify_sign(ev, m, lo, hi, grid=grid, tol=tol, sign=sign)
        assert rep.status == "violated"
        assert_scan_then_probes(calls, grid, 6)
        assert abs(rep.boundary - oracle) <= XTOL

    def test_bracket_of_adjacent_floats_far_from_origin(self):
        # Near 3e6 the float spacing is 4.7e-10, wider than the tolerance: the
        # refinement stops at two adjacent floats around the zero pi * 1e6.
        ev = build_evaluator([1e-6j, -1e-6j])
        rep = verify_sign(ev, 0, 3e6, 3.3e6)
        assert rep.status == "violated"
        assert abs(rep.boundary - math.pi * 1e6) <= 2 * math.ulp(math.pi * 1e6)

    def test_locator_evaluations(self, monkeypatch):
        calls = count_tables(monkeypatch)
        cert = monotonicity_certificate([-1, -2])
        assert cert.derivative_zero == pytest.approx(math.log(2), abs=XTOL)
        # The grid scan brackets the zero; only one-point probes refine it, eight here.
        assert_scan_then_probes(calls, inequalities.DEFAULT_GRID, 8)


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


class TestDominance:
    def test_gap_vanishes_at_origin(self):
        for entries in ([-1, -2], [0, 1, -1], [2, -0.5, 0.3, -2]):
            ev = build_evaluator(entries)
            poly = [0.4] + [0.1] * ev.n
            assert abs(dominance_gap(ev, poly, 0.0)) <= 1e-12

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


class TestPositiveDefinite:
    def test_identity_passes(self):
        assert is_positive_definite(np.eye(4))

    def test_indefinite_fails(self):
        assert not is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))

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
