"""Evaluator correctness: initial data, closed forms, and oracle agreement."""

import math
import warnings

import numpy as np
import pytest

import expfun.fundamental as fundamental
from expfun import (
    basis,
    build_evaluator,
    derivative_grid,
    derivative_table,
    eval_derivative,
    eval_derivative_complex,
    eval_via_partial_fractions,
    eval_via_taylor,
)
from mpmath_oracle import eval_via_mpmath, expm_via_mpmath


def random_conjugate_closed(rng, n):
    """Random conjugate-closed vector with n + 1 entries of moderate size."""
    count = n + 1
    entries = []
    while len(entries) < count - 1:
        if rng.random() < 0.5:
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(0.1, 1.2))
            entries += [z, z.conjugate()]
        else:
            entries.append(complex(rng.uniform(-1.2, 1.2)))
    while len(entries) < count:
        entries.append(complex(rng.uniform(-1.2, 1.2)))
    rng.shuffle(entries)
    return entries


def random_distinct_real(rng, n, min_gap=0.1, scale=1.5):
    while True:
        entries = np.sort(rng.uniform(-scale, scale, size=n + 1))
        if np.diff(entries).min() >= min_gap:
            return list(entries)


class TestInitialData:
    def test_cauchy_data_random_vectors(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(0, 9))
            ev = build_evaluator(random_conjugate_closed(rng, n))
            for j in range(n):
                assert abs(eval_derivative(ev, j, 0.0)) <= 1e-10
            assert abs(eval_derivative(ev, n, 0.0) - 1.0) <= 1e-10


class TestClosedForms:
    def test_all_zero_frequencies_give_monomial(self):
        for n in (0, 1, 2, 4):
            ev = build_evaluator([0.0] * (n + 1))
            for x in (0.0, 0.5, 1.5, 3.0, -2.0):
                assert eval_derivative(ev, 0, x) == pytest.approx(x**n / math.factorial(n), abs=1e-12)

    def test_two_negative_frequencies(self):
        ev = build_evaluator([-1, -2])
        for x in (-1.0, 0.0, 0.7, 1.0, 2.5):
            assert eval_derivative(ev, 0, x) == pytest.approx(
                math.exp(-x) - math.exp(-2 * x), abs=1e-13, rel=1e-13
            )

    def test_two_negative_frequencies_second_derivative_zero(self):
        ev = build_evaluator([-1, -2])
        assert abs(eval_derivative(ev, 2, 2 * math.log(2))) <= 1e-12

    def test_confluent_mixed_vector(self):
        # (-1, 1, 0, 1): value is (exp(x) (x - 2) + sinh x + 2) / 2, checked
        # against the evaluator which needs no special casing for the
        # repeated frequency.
        ev = build_evaluator([-1, 1, 0, 1])
        closed = lambda x: 0.5 * (math.exp(x) * (x - 2) + math.sinh(x) + 2)
        for x in (-1.0, -0.6, 0.0, 0.5, 1.0, 2.0):
            assert eval_derivative(ev, 0, x) == pytest.approx(closed(x), abs=1e-12)

    def test_symmetric_triple_is_shifted_cosh(self):
        ev = build_evaluator([0, 1, -1])
        assert eval_derivative(ev, 0, 1.0) == pytest.approx(math.cosh(1) - 1, abs=1e-13)

    def test_sine_from_imaginary_pair(self):
        ev = build_evaluator([1j, -1j])
        assert ev.realify
        for x in (0.3, 1.0, 2.0):
            assert eval_derivative(ev, 0, x) == pytest.approx(math.sin(x), abs=1e-13)


class TestBasis:
    def test_monomials_in_polynomial_case(self):
        ev = build_evaluator([0, 0, 0])
        assert basis(ev, 2, 1.5) == pytest.approx(2.25, abs=1e-12)
        assert basis(ev, 1, 1.5) == pytest.approx(1.5, abs=1e-12)
        assert basis(ev, 0, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_first_basis_function_at_origin(self):
        for entries in ([-1, -2], [0, 1, -1], [2, 2, -3, 0.5]):
            ev = build_evaluator(entries)
            assert basis(ev, 0, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("entries", [[-1, -2], [0, 0, 0], [1j, -1j, 0.5]])
    def test_exact_initial_data_at_origin(self, entries):
        # expm(0 * Z) is the identity, so Phi^(j)(0) is exactly 0 for j < n and 1 for j = n.
        ev = build_evaluator(entries)
        assert eval_derivative(ev, ev.n, 0.0) == 1.0
        assert eval_derivative(ev, ev.n, -0.0) == 1.0
        assert basis(ev, 0, 0.0) == 1.0
        exact = [0.0] * ev.n + [1.0]
        assert derivative_table(ev, [0.5, 0.0], ev.n)[1].tolist() == exact
        assert derivative_grid(ev, 0.0, 1.0, 5, ev.n)[0].tolist() == exact

    def test_scaled_derivative(self):
        # n = 1 here, so b_0 is the first derivative and b_1 the value itself.
        ev = build_evaluator([-1, -2])
        assert basis(ev, 0, 1.0) == pytest.approx(-math.exp(-1) + 2 * math.exp(-2), abs=1e-13)
        assert basis(ev, 1, 1.0) == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-13)

    def test_index_range(self):
        ev = build_evaluator([-1, -2])
        with pytest.raises(ValueError):
            basis(ev, 2, 1.0)
        with pytest.raises(ValueError):
            basis(ev, -1, 1.0)


class TestPartialFractions:
    def test_two_frequencies(self):
        got = eval_via_partial_fractions([-1, -2], 0, 1.0)
        assert got == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-14)

    def test_exponential_minus_one(self):
        for x in (0.2, 1.0, -0.5):
            assert eval_via_partial_fractions([0, 1], 0, x) == pytest.approx(
                math.exp(x) - 1, abs=1e-13
            )

    def test_second_derivative_of_shifted_cosh(self):
        assert eval_via_partial_fractions([0, 1, -1], 2, 1.0) == pytest.approx(
            math.cosh(1), abs=1e-13
        )

    def test_near_confluent_rejected(self):
        with pytest.raises(ValueError):
            eval_via_partial_fractions([1.0, 1.0 + 1e-9], 0, 1.0)


class TestTaylorRoute:
    def test_frequency_sum_at_origin(self):
        assert eval_via_taylor([-1, -2], 2, 0.0) == pytest.approx(-3.0, abs=1e-14)

    def test_linear_polynomial_case(self):
        assert eval_via_taylor([0, 0], 0, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_shifted_cosh_near_origin(self):
        assert eval_via_taylor([0, 1, -1], 0, 0.1) == pytest.approx(
            math.cosh(0.1) - 1, abs=1e-14
        )

    def test_unconverged_tail_rejected(self):
        with pytest.raises(ValueError):
            eval_via_taylor([5.0, -5.0], 0, 10.0, terms=5)


class TestOracleAgreement:
    def test_three_routes_agree(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            entries = random_distinct_real(rng, n)
            ev = build_evaluator(entries)
            for _ in range(4):
                m = int(rng.integers(0, n + 4))
                x = float(rng.uniform(-3, 3))
                direct = eval_derivative(ev, m, x)
                pf = eval_via_partial_fractions(entries, m, x)
                assert abs(pf.imag) <= 1e-9 * (1 + abs(pf))
                assert abs(direct - pf.real) <= 1e-9 * (1 + max(abs(direct), abs(pf)))
                xs = float(rng.uniform(-0.2, 0.2))
                ts = eval_via_taylor(entries, m, xs, terms=80)
                assert abs(eval_derivative(ev, m, xs) - ts.real) <= 1e-10

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(34)
        h = 1e-5
        for _ in range(10):
            n = int(rng.integers(1, 6))
            ev = build_evaluator(random_conjugate_closed(rng, n))
            for _ in range(3):
                m = int(rng.integers(0, n + 2))
                x = float(rng.uniform(-2, 2))
                fd = (eval_derivative(ev, m, x + h) - eval_derivative(ev, m, x - h)) / (2 * h)
                assert abs(fd - eval_derivative(ev, m + 1, x)) <= 1e-6

    def test_annihilated_by_own_operator(self):
        # The operator's expanded coefficients come from the monic polynomial
        # with the frequencies as roots; applying it must give zero.
        rng = np.random.default_rng(35)
        for _ in range(15):
            n = int(rng.integers(0, 7))
            entries = list(rng.uniform(-1.5, 1.5, size=n + 1))
            ev = build_evaluator(entries)
            coeffs = np.poly(entries)  # x**(n+1) + c1 x**n + ... applied as derivatives
            for x in rng.uniform(-2, 2, size=3):
                residual = sum(
                    c * eval_derivative(ev, n + 1 - j, float(x))
                    for j, c in enumerate(coeffs)
                )
                assert abs(residual) <= 1e-8

    def test_positive_for_real_frequencies(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            n = int(rng.integers(0, 7))
            ev = build_evaluator(list(rng.uniform(-2, 2, size=n + 1)))
            for x in np.linspace(0.05, 3.0, 25):
                assert eval_derivative(ev, 0, float(x)) > 0.0


class TestGuards:
    def test_non_conjugate_closed_needs_complex_variant(self):
        ev = build_evaluator([1j, 0])
        assert not ev.realify
        with pytest.raises(ValueError):
            eval_derivative(ev, 0, 1.0)
        value = eval_derivative_complex(ev, 0, 1.0)
        # (exp(i x) - 1) / i at x = 1
        expected = (np.exp(1j) - 1) / 1j
        assert abs(value - expected) <= 1e-12

    def test_overflow_guard(self):
        ev = build_evaluator([40.0, -40.0])
        with pytest.raises(ValueError):
            eval_derivative(ev, 0, 1e18)

    def test_negative_order_rejected(self):
        ev = build_evaluator([-1, -2])
        with pytest.raises(ValueError):
            eval_derivative(ev, -1, 0.0)

    def test_non_finite_value_refused(self):
        # e^712 overflows the last column; the contraction's 0 * inf made the value NaN.
        ev = build_evaluator([0, 1000])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
            eval_derivative(ev, 0, 0.712)

    def test_non_finite_complex_value_refused(self):
        # The complex variant reads the same contraction and refuses the same NaN.
        ev = build_evaluator([0, 1000])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OverflowError, match="not finite"):
            eval_derivative_complex(ev, 0, 0.712)

    @pytest.mark.parametrize("count", [5, 64])
    def test_non_finite_grid_value_refused(self, count):
        # The grid's contraction is a BLAS product; it too must turn 0 * inf into
        # NaN and refuse it.  With 5 points the overflowing endpoint 0.712 is an
        # anchor; with 64 points (blocks of 16) the points past x = 0.70978, where
        # e^(1000 x) overflows, are offset points of the anchor 0.70914.
        ev = build_evaluator([0, 1000])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OverflowError, match="not finite"):
            derivative_grid(ev, 0.70, 0.712, count, 0)

    def test_overflowing_padding_does_not_warn(self):
        # 65 points form blocks of 25: the last block's padding runs to 0.82,
        # where e^(1000 x) overflows, while every kept value stays below 1.7e305.
        ev = build_evaluator([0, 1000])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = derivative_grid(ev, 0.0, 0.7097, 65, 0)
        assert np.isfinite(values).all()


def twelve_frequency_vectors():
    real = list(np.linspace(-3.0, 3.0, 12))
    pairs = [complex(-0.4 + 0.3 * k, s * (0.5 + 0.4 * k)) for k in range(6) for s in (1, -1)]
    return real, pairs


def assert_matches_mpmath(entries, table, xs, share):
    """Each column of table within share of its largest 50-digit reference value."""
    ref = np.array([[eval_via_mpmath(entries, m, x).real for m in range(table.shape[1])]
                    for x in xs])
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(table - ref) <= share * scale), np.abs(table - ref).max(axis=0) / scale


#: Share of each order's largest value allowed against eval_via_mpmath.  The
#: worst the kernel showed on these points was 1.5e-13 (orders up to 24 of the
#: twelve real frequencies at x = -2.5).
MPMATH_SHARE = 1e-12


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("which", [0, 1])
    def test_orders_up_to_2n_plus_2(self, which):
        entries = twelve_frequency_vectors()[which]
        xs = [-2.5, 0.3, 8.0]
        table = derivative_table(build_evaluator(entries), xs, 2 * (len(entries) - 1) + 2)
        assert_matches_mpmath(entries, table, xs, MPMATH_SHARE)

    def test_near_confluent_gap(self):
        entries = [-1, -1 + 1e-7, -2, 0.5]
        with pytest.raises(ValueError, match="too close"):
            eval_via_partial_fractions(entries, 0, 1.0)
        xs = [-3.0, 0.7, 5.0]
        table = derivative_table(build_evaluator(entries), xs, 2 * (len(entries) - 1) + 2)
        assert_matches_mpmath(entries, table, xs, MPMATH_SHARE)

    @pytest.mark.parametrize("which", [0, 1])
    def test_deep_scaling(self, which):
        entries = twelve_frequency_vectors()[which]
        ev = build_evaluator(entries)
        xs = [-30.0, 30.0]
        assert fundamental._squarings(ev, np.array(xs)).min() >= 5
        assert_matches_mpmath(entries, derivative_table(ev, xs, 24), xs, MPMATH_SHARE)


#: Vectors for the full-matrix oracle: real and conjugate pairs with twelve
#: entries, confluent, near-confluent, all-zero, and the single frequency 0,
#: whose Z = 0 has norm 0.
EXPM_VECTORS = {
    "real": twelve_frequency_vectors()[0],
    "pairs": twelve_frequency_vectors()[1],
    "confluent": [-1, -1, -1, 2, 2],
    "near_confluent": [-1, -1 + 1e-7, -2, 0.5],
    "zeros": [0.0] * 5,
    "zero": [0.0],
}


class TestExponentialsOracle:
    """Every entry of the kernel's expm(x*Z) against 40-digit mpmath.

    The grid's fine and coarse factors use whole matrices, not only the last
    column that the derivatives read.
    """

    @pytest.mark.parametrize("name", list(EXPM_VECTORS))
    def test_every_entry(self, name):
        entries = EXPM_VECTORS[name]
        ev = build_evaluator(entries)
        # x = 0, then one abscissa of each sign at every scaling depth 0..5.
        unit = fundamental._THETA_13 / (ev.norm or 1.0)
        xs = np.array([0.0] + [s * unit * (0.5 if d == 0 else 0.75 * 2 ** d)
                               for d in range(6) for s in (1, -1)])
        depths = [0] + [d for d in range(6) for _ in "+-"] if ev.norm else [0] * len(xs)
        assert fundamental._squarings(ev, xs).tolist() == depths
        mats = fundamental._exponentials(ev, xs)
        assert mats.dtype == (np.complex128 if name == "pairs" else np.float64)
        assert np.array_equal(mats[0], np.eye(len(entries)))
        upper = np.triu_indices(len(entries))
        for x, mat in zip(xs[1:], mats[1:]):
            ref = np.array(expm_via_mpmath(entries, x))
            err = np.abs(mat - ref)
            # Each column within 1e-12 of its largest reference entry.
            scale = np.abs(ref).max(axis=0)
            assert np.all(err <= 1e-12 * scale), (x, (err / scale).max())
            if name != "pairs":
                # Real Z: every upper entry of expm(x*Z) is nonzero, of the sign of
                # x**(j-i), and keeps its relative accuracy.
                rel = err[upper] / np.abs(ref[upper])
                assert np.all(rel <= 1e-12), (x, rel.max())


class TestDerivativeTable:
    def test_rows_match_partial_fractions(self):
        # A 12-frequency grid reaching squaring depths 0..3 over several chunks.
        xs = np.linspace(-2.5, 8.0, 301)
        for entries in twelve_frequency_vectors() + ([-1, -2], [0.5, 1j, -1j]):
            ev = build_evaluator(entries)
            max_order = len(entries) + 1
            table = derivative_table(ev, xs, max_order)
            assert table.shape == (len(xs), max_order + 1) and table.dtype == np.float64
            ref = np.array([[eval_via_partial_fractions(entries, m, x).real
                             for m in range(max_order + 1)] for x in xs])
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(table - ref) <= 1e-12 * scale)
            if len(entries) == 12:
                assert len(set(fundamental._squarings(ev, xs))) >= 3
                assert len(xs) > fundamental._CHUNK_ENTRIES // 144

    def test_row_independent_of_companions(self):
        rng = np.random.default_rng(37)
        xs = np.linspace(-2.5, 8.0, 97)
        for entries in twelve_frequency_vectors():
            ev = build_evaluator(entries)
            table = derivative_table(ev, xs, 5)
            perm = rng.permutation(len(xs))
            shuffled = derivative_table(ev, np.concatenate([xs[perm], [0.0, 7.5]]), 5)
            for i, x in enumerate(xs):
                alone = derivative_table(ev, [x], 5)[0]
                assert np.all(np.abs(table[i] - alone) <= 1e-15 * np.abs(alone))
            assert np.all(np.abs(shuffled[:len(xs)] - table[perm]) <= 1e-15 * np.abs(table[perm]))

    def test_single_point_calls_are_one_row(self):
        ev = build_evaluator([0.5, 1j, -1j])
        row = derivative_table(ev, [1.3], 4)[0]
        for m in range(5):
            assert eval_derivative(ev, m, 1.3) == row[m]

    def test_evaluators_compare_by_frequencies(self):
        ev = build_evaluator([-1, -2])
        assert ev == build_evaluator([-1.0, -2.0]) and hash(ev) == hash(build_evaluator([-1, -2]))
        assert ev != build_evaluator([-1, -3])

    def test_empty_and_negative_order(self):
        ev = build_evaluator([-1, -2])
        assert derivative_table(ev, [], 3).shape == (0, 4)
        with pytest.raises(ValueError):
            derivative_table(ev, [1.0], -1)
        with pytest.raises(ValueError, match="nonnegative"):
            eval_derivative_complex(build_evaluator([1j, 0]), -1, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            eval_derivative(ev, -1, 0.5)

    def test_guard_applies_to_whole_grid(self):
        ev = build_evaluator([40.0, -40.0])
        with pytest.raises(ValueError, match="2\\*\\*60 guard"):
            derivative_table(ev, [0.5, 1.0, 1e18], 0)

    def test_non_conjugate_closed_rejected(self):
        with pytest.raises(ValueError, match="conjugate-closed"):
            derivative_table(build_evaluator([1j, 0]), [1.0], 0)

    def test_residue_check_on_batched_path(self, monkeypatch):
        ev = build_evaluator([-0.5 + 1.3j, -0.5 - 1.3j, 0.2])
        xs = np.linspace(0.3, 5.0, 50)
        derivative_table(ev, xs, 2)
        monkeypatch.setattr(fundamental, "REAL_PROJECTION_TOL", 0.0)
        with pytest.raises(ArithmeticError, match="material imaginary part"):
            derivative_table(ev, xs, 2)

    def test_non_finite_abscissae_rejected(self):
        ev = build_evaluator([-1, -2])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                derivative_table(ev, [0.5, bad], 0)
            with pytest.raises(ValueError, match="finite"):
                eval_derivative(ev, 0, bad)
            with pytest.raises(ValueError, match="finite"):
                eval_derivative_complex(build_evaluator([1j, 0]), 0, bad)


class TestDerivativeGrid:
    def test_matches_table_on_linspace(self):
        vectors = ([-1.0, -2.0, 0.5, 1.5], [0.5, 1 + 2j, 1 - 2j, -0.3],
                   twelve_frequency_vectors()[1], [-1, -1, -1], [0, 0, 0])
        # All positive, all negative, straddling 0, and hitting 0 exactly at an
        # end or (for odd counts) inside; then lo == hi on either side of 0 and at 0.
        grids = [(0.5, 7.0), (-7.0, -0.5), (-2.5, 8.0), (0.0, 4.0), (-4.0, 0.0), (-3.0, 3.0),
                 (2.0, 2.0), (-1.5, -1.5), (0.0, 0.0)]
        for entries in vectors:
            ev = build_evaluator(entries)
            max_order = len(entries)
            for lo, hi in grids:
                for count in (1, 2, 3, 64, 65, 4096):
                    grid = derivative_grid(ev, lo, hi, count, max_order)
                    table = derivative_table(ev, np.linspace(lo, hi, count), max_order)
                    assert grid.shape == table.shape and grid.dtype == np.float64
                    scale = np.abs(table).max(axis=0)
                    assert np.all(np.abs(grid - table) <= 1e-12 * scale), (entries, lo, hi, count)

    @pytest.mark.parametrize("which", [0, 1])
    def test_lowest_and_highest_orders(self, which):
        # Order 0 contracts with the single row e_0; past n the rows e_0 Z**j are full.
        entries = twelve_frequency_vectors()[which]
        ev = build_evaluator(entries)
        for max_order in (0, 2 * (len(entries) - 1) + 2):
            for count in (65, 4096):
                grid = derivative_grid(ev, -2.5, 3.0, count, max_order)
                table = derivative_table(ev, np.linspace(-2.5, 3.0, count), max_order)
                assert grid.shape == table.shape
                scale = np.abs(table).max(axis=0)
                assert np.all(np.abs(grid - table) <= 1e-12 * scale), (which, max_order, count)

    def test_orders_act_on_the_finished_product(self):
        # -7 is the offset -6.5 applied to the anchor -0.5.  Against 50-digit
        # mpmath, as a share of each order's largest value: Z**j acting on the
        # product column gives 1.6e-14, acting on the offset's first row,
        # (e_0 Z**j offset) @ anchor column, as the grid does, 1.4e-14, but
        # acting on the anchor column before the offset 1.8e-11, about three
        # digits lost.
        pairs = twelve_frequency_vectors()[1]
        grid = derivative_grid(build_evaluator(pairs), -7.0, -0.5, 2, 12)
        assert_matches_mpmath(pairs, grid, [-7.0, -0.5], 1e-13)

    def test_no_cancellation_at_the_origin(self):
        # Anchors on the far side of 0 would sum terms of both signs at the
        # 11-fold zero of Phi; with the grid split at 0 every product is one-signed.
        entries = [1.2, -1, 2.3, -2, 3.1, -3, 4.2, -4, 5.1, -5, 6.3, -6]
        xs = np.linspace(-0.16, 0.63, 4096)
        grid = derivative_grid(build_evaluator(entries), -0.16, 0.63, 4096, 10)
        for i in np.argsort(np.abs(xs))[:16]:
            for m in range(11):
                ref = eval_via_taylor(entries, m, float(xs[i])).real
                assert abs(grid[i, m] - ref) <= 1e-10 * abs(ref), (xs[i], m)

    def test_input_contract(self, monkeypatch):
        ev = build_evaluator([-1, -2])
        for lo, hi in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="finite"):
                derivative_grid(ev, lo, hi, 8, 0)
        with pytest.raises(ValueError, match="lo <= hi"):
            derivative_grid(ev, 1.0, 0.0, 8, 0)
        with pytest.raises(ValueError, match="at least one grid point"):
            derivative_grid(ev, 0.0, 1.0, 0, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            derivative_grid(ev, 0.0, 1.0, 8, -1)
        with pytest.raises(ValueError, match="not conjugate-closed; use eval_derivative_complex"):
            derivative_grid(build_evaluator([1j, 0]), 0.0, 1.0, 8, 0)
        # The endpoints +-2e17 lie past the guard.
        wide = build_evaluator([40.0, -40.0])
        for lo, hi in ((0.0, 2e17), (-2e17, 0.0)):
            with pytest.raises(ValueError, match="2\\*\\*60 guard"):
                derivative_grid(wide, lo, hi, 5, 0)
        pair = build_evaluator([-0.5 + 1.3j, -0.5 - 1.3j, 0.2])
        derivative_grid(pair, 0.3, 5.0, 50, 2)
        monkeypatch.setattr(fundamental, "REAL_PROJECTION_TOL", 0.0)
        with pytest.raises(ArithmeticError, match="material imaginary part"):
            derivative_grid(pair, 0.3, 5.0, 50, 2)

    def test_guard_covers_offset_points(self):
        # Four points on one side make one block: the anchor 0 and the offsets
        # 6.7e16 and 1.3e17 stay within 2**60, the endpoint 2e17 does not.
        wide = build_evaluator([40.0, -40.0])
        for lo, hi in ((0.0, 2e17), (-2e17, 0.0)):
            with pytest.raises(ValueError, match="2\\*\\*60 guard"):
                derivative_grid(wide, lo, hi, 4, 0)

    def test_exponential_count(self, monkeypatch):
        # Per side of 0, s = ceil(cbrt(side length)): an anchor every s*s points,
        # s - 1 fine and s - 1 coarse offsets.  4096 points on one side take
        # 16 + 15 + 15 exponentials.
        seen = []
        exponentials = fundamental._exponentials

        def counting(ev, xs):
            seen.append(len(xs))
            return exponentials(ev, xs)

        monkeypatch.setattr(fundamental, "_exponentials", counting)
        ev = build_evaluator([1.2, -1, 2.3, -2])
        for lo, hi, count, expected in ((0.0, 5.0, 4096, 46), (-5.0, -0.5, 4096, 46),
                                        (-0.16, 0.63, 4096, 70), (-1.0, 1.0, 4096, 74),
                                        (0.0, 3.0, 512, 22)):
            seen.clear()
            derivative_grid(ev, lo, hi, count, 4)
            assert sum(seen) == expected, (lo, hi, count, seen)

    def test_matches_table_at_cube_boundaries(self):
        # Side lengths at and just past s**3, and a side of 1 or 2 points (a
        # 2-point side has no coarse offset) next to a long one.  The step a is
        # a power of 2, so that linspace hits 0 exactly where it should.
        vectors = ([-1.0, -2.0, 0.5, 1.5], twelve_frequency_vectors()[1], [-1, -1, -1, 2, 2])
        a = 2.0 ** -9
        for entries in vectors:
            ev = build_evaluator(entries)
            max_order = len(entries)
            for count in (8, 9, 27, 28, 4097):
                grids = [(0.5, 7.0), (-7.0, -0.5), (-a, a * (count - 2)), (-a * (count - 2), a),
                         (-a * (count - 1.5), a / 2)]
                for lo, hi in grids:
                    grid = derivative_grid(ev, lo, hi, count, max_order)
                    table = derivative_table(ev, np.linspace(lo, hi, count), max_order)
                    scale = np.abs(table).max(axis=0)
                    assert np.all(np.abs(grid - table) <= 1e-12 * scale), (entries, lo, hi, count)

    def test_restricted_rows_match_full_grid(self):
        # _grid with the rows of orders m..m+2 only, as verify_sign calls it, against
        # the columns m.. of the full grid: real and conjugate vectors, grids left
        # of, right of and across 0, the one-point path, and every m from 0 to n+1.
        rng = np.random.default_rng(43)
        vectors = [twelve_frequency_vectors()[0], twelve_frequency_vectors()[1], [-1, -2]]
        vectors += [list(rng.uniform(-2.0, 2.0, int(rng.integers(2, 9)))) for _ in range(3)]
        vectors += [random_conjugate_closed(rng, int(rng.integers(1, 9))) for _ in range(3)]
        grids = [(0.5, 4.0, 4096), (-4.0, -0.5, 4096), (-1.5, 3.0, 4096), (-1.5, 3.0, 65),
                 (1.2, 1.2, 7), (-0.7, 2.0, 1)]
        for entries in vectors:
            ev = build_evaluator(entries)
            n = len(entries) - 1
            for lo, hi, count in grids:
                full = derivative_grid(ev, lo, hi, count, n + 3)
                scale = np.abs(full).max(axis=0)
                for m in range(n + 2):
                    rows = fundamental._order_rows(ev.diagonal, m + 2)[m:]
                    part = fundamental._grid(ev, lo, hi, count, rows)
                    assert part.shape == (count, 3) and part.dtype == np.float64
                    assert np.all(np.abs(part - full[:, m:m + 3]) <= 1e-12 * scale[m:m + 3]), \
                        (entries, lo, hi, count, m)
