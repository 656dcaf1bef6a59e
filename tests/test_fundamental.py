"""Evaluator correctness: initial data, closed forms, and oracle agreement."""

import math
import warnings

import mpmath
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
)
from expfun.frequencies import _conjugate_partners
from float_oracles import eval_via_partial_fractions, eval_via_taylor
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


def realization(ev):
    """The evaluator's matrix A: Phi^(m)(x) = (A**m expm(x A))[0, n] / cofactor."""
    mat = np.diag(ev.diagonal) + np.diag(ev.upper, 1)
    return mat if ev.lower is None else mat + np.diag(ev.lower, -1)


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

    @pytest.mark.parametrize("entries", [[-1, -2], [0, 0, 0], [1j, -1j, 0.5],
                                         [2 + 1.3j, 2 - 1.3j, -1.5 + 2.3j, 0.5, -1.5 - 2.3j]])
    def test_exact_initial_data_at_origin(self, entries):
        # expm(0 * Z) is the identity, so Phi^(j)(0) is exactly 0 for j < n and 1 for j = n.
        # The last vector's real matrix has the cofactor 1.3 * 2.3, rounded: row n of the
        # recurrence ends in the same rounded product, so the division still gives 1.
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
        # At 1e308 the product |x| |Z|_2 itself overflows.
        ev = build_evaluator([40.0, -40.0])
        for x in (1e18, 1e308, -1e308):
            with pytest.raises(ValueError, match="2\\*\\*60 guard"):
                eval_derivative(ev, 0, x)

    def test_negative_order_rejected(self):
        ev = build_evaluator([-1, -2])
        with pytest.raises(ValueError):
            eval_derivative(ev, -1, 0.0)

    # A bool order used to give a table of two columns, and a float one slicing's TypeError.
    @pytest.mark.parametrize("order", [True, 0.5, 1.0, "1"])
    def test_derivative_table_refuses_non_integer_order(self, order):
        with pytest.raises(ValueError, match="max_order must be an integer"):
            derivative_table(build_evaluator([-1, -2]), [0.5], order)

    @pytest.mark.parametrize("order", [True, 0.5, 1.0])
    def test_derivative_grid_refuses_non_integer_order(self, order):
        with pytest.raises(ValueError, match="max_order must be an integer"):
            derivative_grid(build_evaluator([-1, -2]), 0.0, 1.0, 5, order)

    @pytest.mark.parametrize("order", [True, 0.5, 1.0])
    def test_eval_derivative_refuses_non_integer_order(self, order):
        with pytest.raises(ValueError, match="m must be an integer"):
            eval_derivative(build_evaluator([-1, -2]), order, 0.5)

    @pytest.mark.parametrize("order", [True, 0.5, 1.0])
    def test_eval_derivative_complex_refuses_non_integer_order(self, order):
        with pytest.raises(ValueError, match="m must be an integer"):
            eval_derivative_complex(build_evaluator([1j, 0]), order, 0.5)

    @pytest.mark.parametrize("index", [True, 0.5, 1.0])
    def test_basis_refuses_non_integer_index(self, index):
        with pytest.raises(ValueError, match="k must be an integer"):
            basis(build_evaluator([-1, -2]), index, 0.5)

    def test_numpy_integer_orders_accepted(self):
        ev = build_evaluator([-1, -2])
        assert eval_derivative(ev, np.int64(1), 0.5) == eval_derivative(ev, 1, 0.5)
        assert basis(ev, np.int32(1), 0.5) == basis(ev, 1, 0.5)
        assert derivative_table(ev, [0.5], np.int64(2)).shape == (1, 3)

    def test_non_finite_value_refused(self):
        # e^712 overflows the last column; the contraction's 0 * inf made the value NaN.
        ev = build_evaluator([0, 1000])
        with pytest.raises(OverflowError):
            eval_derivative(ev, 0, 0.712)

    def test_squarings_quiet_only_past_depth_9(self, monkeypatch):
        # Up to depth 9 (|x| nu <= theta * 2**9 = 558.5) no squaring can overflow, and the
        # kernel enters no np.errstate; past it, it squares quietly, overflow or not.  Both
        # routes: one abscissa on Python scalars, and a batch of two whose depths need sorting.
        ev = build_evaluator([0, 1000])
        entered = []
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
        quiet = {"over": "ignore", "invalid": "ignore"}
        assert math.isfinite(eval_derivative(ev, 0, 0.55))
        assert np.isfinite(derivative_table(ev, [0.55, 0.0], 0)).all()
        assert entered == []
        assert math.isfinite(eval_derivative(ev, 0, 0.56))
        assert entered == [quiet]
        assert np.isfinite(derivative_table(ev, [0.56, 0.0], 0)).all()
        assert entered == [quiet] * 2

    def test_non_finite_complex_value_refused(self):
        # The complex variant reads the same contraction and refuses the same NaN.
        ev = build_evaluator([0, 1000])
        with pytest.raises(OverflowError, match="not finite"):
            eval_derivative_complex(ev, 0, 0.712)

    @pytest.mark.parametrize("count", [5, 64])
    def test_non_finite_grid_value_refused(self, count):
        # The grid's contraction is a BLAS product; it too must turn 0 * inf into
        # NaN and refuse it.  With 5 points the overflowing endpoint 0.712 is an
        # anchor; with 64 points (blocks of 16) the points past x = 0.70978, where
        # e^(1000 x) overflows, are offset points of the anchor 0.70914.
        ev = build_evaluator([0, 1000])
        with pytest.raises(OverflowError, match="not finite"):
            derivative_grid(ev, 0.70, 0.712, count, 0)

    def test_single_zero_frequency_at_large_abscissae(self):
        # Phi = 1 for the single frequency 0, whose Z = 0 has norm 0 and depth 0
        # everywhere; Taylor coefficients built from |x| instead of |x| nu overflowed,
        # and inf * 0 made the value NaN, from |x| of about 1e20 on.
        ev = build_evaluator([0.0])
        xs = [1e20, -1e20, 1e300, -1e308, 1.7976931348623157e308]
        assert derivative_table(ev, xs, 2).tolist() == [[1.0, 0.0, 0.0]] * len(xs)
        for x in xs:
            assert eval_derivative(ev, 0, x) == 1.0 and basis(ev, 0, x) == 1.0
        assert np.array_equal(fundamental._exponentials(ev, np.array(xs)), np.ones((len(xs), 1, 1)))
        assert np.array_equal(derivative_grid(ev, 0.0, 1e308, 64, 0), np.ones((64, 1)))
        assert np.array_equal(derivative_grid(ev, -8e307, 8e307, 64, 1), [[1.0, 0.0]] * 64)

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


#: Vectors and abscissae for orders up to 2n+2: twelve real and twelve conjugate
#: frequencies, and six real nodes of both signs.  With the last vector's nodes in
#: the given order the rows e_0 A**12 reach 2.3e4 of both signs against a value
#: of 0.23, and Phi^(12) loses seven digits; ascending modulus avoids that.
HIGH_ORDER_CASES = [
    (twelve_frequency_vectors()[0], [-2.5, 0.3, 8.0]),
    (twelve_frequency_vectors()[1], [-2.5, 0.3, 8.0]),
    ([-0.6910898018753322, -1.096578674410596, -0.6756523989493566, -2.695193814204215,
      0.32530131670639806, 0.7450062875224956], [4.948217677861194]),
]


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("which", range(len(HIGH_ORDER_CASES)))
    def test_orders_up_to_2n_plus_2(self, which):
        entries, xs = HIGH_ORDER_CASES[which]
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
    """Every entry of the kernel's expm(x*A) against 40-digit mpmath, A the evaluator's matrix.

    A is the real matrix of ``_realization``, its nodes in ascending modulus:
    bidiagonal for real vectors, with 2 x 2 blocks for conjugate pairs.  The
    grid's fine and coarse factors use whole matrices, not only the last
    column that the derivatives read.
    """

    @pytest.mark.parametrize("name", list(EXPM_VECTORS))
    def test_every_entry(self, name):
        entries = EXPM_VECTORS[name]
        ev = build_evaluator(entries)
        # x = 0 of either sign, then one abscissa of each sign at every scaling depth 0..8.
        unit = fundamental._THETA / (ev.norm or 1.0)
        xs = np.array([0.0, -0.0] + [s * unit * (0.5 if d == 0 else 0.75 * 2 ** d)
                                     for d in range(9) for s in (1, -1)])
        depths = [0, 0] + [d for d in range(9) for _ in "+-"] if ev.norm else [0] * len(xs)
        assert fundamental._squarings(ev, xs).tolist() == depths
        mats = fundamental._exponentials(ev, xs)
        assert mats.dtype == np.float64
        # The Taylor coefficients at 0 are 1, 0, 0, ...: the identity exactly.
        assert np.array_equal(mats[0], np.eye(len(entries)))
        assert np.array_equal(mats[1], np.eye(len(entries)))
        upper = np.triu_indices(len(entries))
        for x, mat in zip(xs[2:], mats[2:]):
            ref = np.array(expm_via_mpmath(realization(ev), x)).real
            err = np.abs(mat - ref)
            # Each column within 1e-12 of its largest reference entry.
            scale = np.abs(ref).max(axis=0)
            assert np.all(err <= 1e-12 * scale), (x, (err / scale).max())
            if name != "pairs":
                # Real Z: every upper entry of expm(x*Z) is nonzero, of the sign of
                # x**(j-i), and keeps its relative accuracy.
                rel = err[upper] / np.abs(ref[upper])
                assert np.all(rel <= 1e-12), (x, rel.max())

    @pytest.mark.parametrize("sign", [1, -1])
    def test_every_entry_near_the_origin(self, sign):
        # At |x| nu = theta / 2 the corner entry is about x**11 / 11!; a Taylor
        # polynomial of fixed degree 18 gives it only 8 terms, the kernel's
        # degree n + 18 gives every entry 19.
        entries = EXPM_VECTORS["real"]
        ev = build_evaluator(entries)
        x = sign * fundamental._THETA / (2 * ev.norm)
        mat = fundamental._exponentials(ev, np.array([x]))[0]
        ref = np.array(expm_via_mpmath(realization(ev), x)).real
        upper = np.triu_indices(len(entries))
        rel = np.abs(mat - ref)[upper] / np.abs(ref[upper])
        assert np.all(rel <= 1e-13), rel.max()

    @pytest.mark.parametrize("name", ["real", "pairs"])
    def test_squares_each_matrix_depth_times(self, monkeypatch, name):
        # Depths forced past the natural ones, unsorted, so that one squaring too many
        # or too few gives expm(2xZ) or expm(xZ/2): every matrix still matches mpmath
        # only if it is squared exactly its depth times, in a batch and alone.
        entries = EXPM_VECTORS[name]
        ev = build_evaluator(entries)
        xs = np.array([2.0, 0.05, -1.0, 0.0, 4.0, -0.3])
        forced = dict(zip(xs.tolist(), fundamental._squarings(ev, xs) + [0, 3, 1, 2, 0, 4]))
        monkeypatch.setattr(fundamental, "_squarings",
                            lambda ev, xs: np.array([forced[x] for x in xs.tolist()]))
        batch = fundamental._exponentials(ev, xs)
        for x, mat in zip(xs, batch):
            alone = fundamental._exponentials(ev, np.array([x]))[0]
            assert np.array_equal(alone, mat)
            ref = np.array(expm_via_mpmath(realization(ev), x)).real
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(mat - ref) <= 1e-12 * scale), x
        # A batch at depth 0 throughout is squared nowhere.
        small = np.array([0.05, -0.02, 0.0])
        forced.update({-0.02: 0, 0.05: 0})
        for x, mat in zip(small, fundamental._exponentials(ev, small)):
            ref = np.array(expm_via_mpmath(realization(ev), x)).real
            assert np.all(np.abs(mat - ref) <= 1e-12 * np.abs(ref).max(axis=0)), x

    @pytest.mark.parametrize("name", ["real", "pairs"])
    def test_batches_in_depth_order_are_not_sorted(self, name):
        # Depths that never decrease take the path without a sort: a batch rising from
        # x = 0 of either sign to depth 3, and a refinement's probe pair at depth 4.
        # Squaring every matrix to the batch's largest depth would pass the pair and
        # fail the batch.
        entries = EXPM_VECTORS[name]
        ev = build_evaluator(entries)
        unit = fundamental._THETA / ev.norm
        rising = np.array([0.0, -0.0, 0.5 * unit, -1.5 * unit, 3.0 * unit, -6.0 * unit])
        pair = 12.0 * unit + np.array([-2.5e-11, 2.5e-11])
        for xs, depths in ((rising, [0, 0, 0, 1, 2, 3]), (pair, [4, 4])):
            assert fundamental._squarings(ev, xs).tolist() == depths
            mats = fundamental._exponentials(ev, xs)
            for x, mat in zip(xs, mats):
                assert np.array_equal(fundamental._exponentials(ev, np.array([x]))[0], mat)
                ref = np.array(expm_via_mpmath(realization(ev), x)).real
                assert np.all(np.abs(mat - ref) <= 1e-12 * np.abs(ref).max(axis=0)), x
        # At x = 0 of either sign, within the batch: the identity exactly.
        assert np.array_equal(fundamental._exponentials(ev, rising)[:2], [np.eye(len(entries))] * 2)

    def test_theta_is_the_degree_18_bound(self):
        # theta_18: the largest theta with sum_k |c_k| theta**(k-1) <= 2**-53, where
        # log(exp(-x) T_18(x)) = sum_k c_k x**k.  exp(-x) T_m(x) = 1 + sum_{k>m} g_k x**k
        # with g_k = (-1)**(k+m) C(k-1, m) / k!, and the log's coefficients follow from
        # k c_k = k g_k - sum_{0<j<k} j c_j g_{k-j}.  80 terms settle all 60 digits.
        m, terms = 18, 80
        with mpmath.workdps(60):
            g = [mpmath.mpf(0)] * terms
            for k in range(m + 1, terms):
                g[k] = (-1) ** (k + m) * mpmath.binomial(k - 1, m) / mpmath.factorial(k)
            c = [mpmath.mpf(0)] * terms
            for k in range(1, terms):
                c[k] = g[k] - mpmath.fsum(j * c[j] * g[k - j] for j in range(1, k)) / k
            theta = mpmath.findroot(
                lambda th: mpmath.fsum(abs(c[k]) * th ** (k - 1) for k in range(1, terms))
                - mpmath.mpf(2) ** -53, 1.0)
            assert fundamental._THETA <= theta and theta - fundamental._THETA <= 1e-6

    def test_guard_threshold_is_exact(self):
        # The single frequency 1 has |Z|_2 = 1, so |x| nu is x itself.
        ev = build_evaluator([1.0])
        assert ev.norm == 1.0
        edge = fundamental._THETA * 2.0 ** fundamental._MAX_SQUARINGS
        assert fundamental._squarings(ev, np.array([edge, -edge])).tolist() == [60, 60]
        # One abscissa takes the Python-scalar route: the same edge, the same refusal.
        for x in (edge, -edge):
            assert fundamental._squarings(ev, np.array([x])) == (60,)
        past = np.nextafter(edge, math.inf)
        for xs in ([past], [-past], [past, 0.0], [0.0, -past]):
            with pytest.raises(ValueError, match="2\\*\\*61 scaling, beyond the 2\\*\\*60 guard"):
                fundamental._squarings(ev, np.array(xs))


class TestDerivativeTable:
    def test_rows_match_partial_fractions(self):
        # A 12-frequency grid reaching squaring depths 0..3 over several chunks.
        xs = np.linspace(-2.5, 8.0, 2 * fundamental._CHUNK_ENTRIES // 144 + 1)
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

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_single_abscissa_is_its_batch_row_exactly(self, which):
        # One abscissa takes the kernel's route on Python scalars; its row must equal,
        # bit for bit, its row in batches whose depths need sorting (one slice and
        # several), in a batch at depth 0 throughout with x = 0 of either sign, and in
        # a batch past depth 9, squared under np.errstate.  Real, paired and, through
        # eval_derivative_complex, not conjugate-closed frequencies.
        real, pairs = twelve_frequency_vectors()
        entries = (real, pairs, [v + 0.2j for v in pairs])[which]
        ev = build_evaluator(entries)
        rows = fundamental._order_rows(ev, 13)
        unit = fundamental._THETA / ev.norm
        mixed = np.array([5.0, 0.01, -3.0, 0.7, 30.0, 0.0, -0.02, 2.5])
        small = np.array([0.01, -0.02, 0.0, -0.0, 0.005])
        long = np.linspace(-20.0, 20.0, 2 * fundamental._CHUNK_ENTRIES // len(ev.diagonal) ** 2 + 1)
        deep = unit * np.array([0.6 * 2 ** 10, -0.0, -0.55 * 2 ** 10, 3.0])
        assert len(set(fundamental._squarings(ev, mixed))) >= 4
        assert not fundamental._squarings(ev, small).any()
        assert len(long) > fundamental._CHUNK_ENTRIES // len(ev.diagonal) ** 2
        assert fundamental._squarings(ev, deep).tolist() == [10, 0, 10, 2]
        single = eval_derivative if ev.realify else eval_derivative_complex
        for xs in (mixed, small, long, deep):
            batch = fundamental._table(ev, xs, rows)
            for x, row in zip(xs, batch):
                assert np.array_equal(fundamental._table(ev, [x], rows)[0], row), x
                assert single(ev, 13, x) == row[13], x

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

    def test_conjugate_closed_evaluators_are_real(self):
        # A closed vector is realized by a real matrix: tables, grids and the complex
        # variant are real, the last exactly, and they match the 50-digit reference
        # of the entries as given.
        ev = build_evaluator([-0.5 + 1.3j, -0.5 - 1.3j, 0.2])
        assert ev.realify and ev.diagonal.dtype == ev.powers.dtype == np.float64
        xs = np.linspace(0.3, 5.0, 50)
        table = derivative_table(ev, xs, 4)
        grid = derivative_grid(ev, 0.3, 5.0, 50, 4)
        assert table.dtype == grid.dtype == np.float64
        assert_matches_mpmath(ev.freq.entries, table[::7], xs[::7], 1e-14)
        assert_matches_mpmath(ev.freq.entries, grid[::7], xs[::7], 1e-14)
        value = eval_derivative_complex(ev, 3, 1.7)
        assert value.imag == 0.0 and value.real == eval_derivative(ev, 3, 1.7)

    def test_non_finite_abscissae_rejected(self):
        ev = build_evaluator([-1, -2])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                derivative_table(ev, [0.5, bad], 0)
            with pytest.raises(ValueError, match="finite"):
                eval_derivative(ev, 0, bad)
            with pytest.raises(ValueError, match="finite"):
                eval_derivative_complex(build_evaluator([1j, 0]), 0, bad)

    @pytest.mark.parametrize("entries", [[-1.0, 0.5, -2.0, 3.0], [-0.5 + 2.5j, -0.5 - 2.5j, 0.3],
                                         [1j, 0.5, -2.0, 1 + 1j]],
                             ids=["real", "pair_with_cofactor_2.5", "not_closed"])
    def test_stored_rows_are_the_leading_rows_of_any_order(self, entries):
        # The evaluator stores the rows of orders 0..n+3, read-only; a higher order runs
        # the same recurrence, whose leading rows are the stored ones bit for bit, so a
        # table up to n+4 repeats the columns of a table up to n+3 exactly.
        ev = build_evaluator(entries)
        n = ev.n
        assert ev.rows.shape == (n + 4, n + 1) and ev.rows.dtype == ev.diagonal.dtype
        assert (ev.cofactor != 1.0) == (ev.lower is not None)
        with pytest.raises(ValueError, match="read-only"):
            ev.rows[0, 0] = 2.0
        assert np.array_equal(fundamental._order_rows(ev, n + 10)[:n + 4], ev.rows)
        assert fundamental._order_rows(ev, n + 1).flags.c_contiguous
        with pytest.raises(ValueError, match="nonnegative"):
            fundamental._order_rows(ev, -1)
        xs = [-1.5, 0.0, 0.4, 2.7]
        if ev.realify:
            tables = [derivative_table(ev, xs, m) for m in (n + 3, n + 4)]
        else:
            tables = [fundamental._table(ev, xs, fundamental._order_rows(ev, m))
                      for m in (n + 3, n + 4)]
        assert np.array_equal(tables[1][:, :n + 4], tables[0])


#: Conjugate-closed vectors at the edges of the pair blocks, with abscissae: a
#: tiny and a near-underflow imaginary part, a large one at small x (depths 0 to
#: 3), a repeated pair, a real node of the pair's modulus, pairs that are
#: conjugate only to 1e-12, in the real and in the imaginary part, and a
#: repeated pair closed only to 3e-11, whose conjugate matching is the cycle
#: 0 -> 3 -> 2 -> 1 -> 0 rather than two swaps.
EDGE_PAIRS = {
    "b_1e-8": ([0.3 + 1e-8j, 0.3 - 1e-8j, -1.0], [0.5, 3.0, -2.0]),
    "b_1e-300": ([0.3 + 1e-300j, 0.3 - 1e-300j, -1.0], [0.5, 3.0, -2.0]),
    "b_1e3": ([-2 + 1e3j, -2 - 1e3j, 0.5], [1e-3, -2e-3, 5e-3]),
    "repeated_pair": ([1 + 2j, 1 - 2j, 1 + 2j, 1 - 2j, -0.5], [0.7, -1.3, 2.5]),
    "real_of_same_modulus": ([0.6 + 0.8j, 0.6 - 0.8j, -1.0, 1.0], [0.7, -1.3, 2.5]),
    "real_part_off_1e-12": ([0.4 + 1e-12 + 1.5j, 0.4 - 1.5j, -0.7], [0.7, -1.3, 2.5]),
    "imag_part_off_1e-12": ([0.4 + (1.5 + 1e-12) * 1j, 0.4 - 1.5j, -0.7], [0.7, -1.3, 6.0]),
    "repeated_pair_matched_in_a_cycle": ([1 + 1j, 1 - 1j + 3e-11, 1 + 1j + 1.8e-11, 1 - 1j + 1e-11],
                                         [0.5, 2.0, -1.0]),
}


class TestConjugateRealization:
    """The real tridiagonal matrix R that realizes a conjugate-closed vector."""

    def test_nodes_in_ascending_modulus(self):
        # Blocks of the pairs +-i (modulus 1) and 3 +- 4i (modulus 5) around the real
        # nodes 0.5 and -2; the pair blocks are [[a, beta], [-b**2/beta, a]] with
        # beta = max(b, 1), joined by ones (1/beta = 1 after the block of +-i).  freq
        # keeps the caller's order.
        entries = [3 + 4j, 0.5, 3 - 4j, -2.0, 1j, -1j]
        ev = build_evaluator(entries)
        assert ev.freq.entries == tuple(entries)
        assert ev.diagonal.tolist() == [0.5, 0.0, 0.0, -2.0, 3.0, 3.0]
        assert ev.upper.tolist() == [1.0, 1.0, 1.0, 1.0, 4.0]
        assert ev.lower.tolist() == [0.0, -1.0, 0.0, 0.0, -4.0]
        assert ev.cofactor == 4.0
        # Every vector takes that order: a real one, and one that is not closed, whose
        # nodes keep their complex values, with no pair block.
        assert build_evaluator([2.0, -1.0]).diagonal.tolist() == [-1.0, 2.0]
        ev = build_evaluator([2.0, 1j])
        assert ev.diagonal.tolist() == [1j, 2.0] and ev.diagonal.dtype == complex
        assert ev.lower is None and not ev.realify

    @pytest.mark.parametrize("name", list(EDGE_PAIRS))
    def test_edge_pairs_match_mpmath(self, name):
        # Orders 0..n+3 against the 50-digit reference of the entries as given.  The
        # vectors off by 1e-12 are closed only within the matching tolerance: the
        # reference is their complex value, whose imaginary part is of that order.
        entries, xs = EDGE_PAIRS[name]
        ev = build_evaluator(entries)
        assert ev.realify and ev.powers.dtype == np.float64
        assert_matches_mpmath(entries, derivative_table(ev, xs, len(entries) + 2), xs, 1e-13)

    def test_large_node_first_matches_mpmath(self):
        # The pair of modulus 2.88 ahead of six small real nodes: in the caller's
        # order the rows e_0 Z**j lost 5.8e-8; in ascending modulus the values of
        # orders 6..11 stay within 1e-12 of max(1, |v|) of the 40-digit reference.
        entries = [0.051883 + 2.879595j, 0.051883 - 2.879595j, -0.038215, -0.06119,
                   -0.069474, -0.069432, -0.054274, -0.057562]
        xs = np.linspace(0.5, 25.0, 60)[::5]
        table = derivative_table(build_evaluator(entries), xs, 11)[:, 6:]
        ref = np.array([[eval_via_mpmath(entries, m, x, 40).real for m in range(6, 12)]
                        for x in xs])
        err = np.abs(table - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-12, err.max()

    def test_shuffled_vectors_give_identical_tables(self):
        # The matrix depends only on the multiset of frequencies, so every shuffle of
        # an exact vector gives the same table to the bit: real vectors, conjugate
        # pairs and vectors that are not closed.
        rng = np.random.default_rng(22)
        vectors = [list(rng.uniform(-3.0, 3.0, size=7)), [-1.0, -1.0, 2.0, 0.5, -0.5],
                   random_conjugate_closed(rng, 6), twelve_frequency_vectors()[1],
                   [1j, 0.5, -2.0, 1 + 1j, -0.3 - 0.7j, 2.0]]
        xs = [-2.0, 0.4, 3.1]
        for entries in vectors:
            ev = build_evaluator(entries)
            table = fundamental._table(ev, xs, fundamental._order_rows(ev, len(entries) + 2))
            for _ in range(4):
                shuffled = build_evaluator([entries[i] for i in rng.permutation(len(entries))])
                rows = fundamental._order_rows(shuffled, len(entries) + 2)
                assert np.array_equal(fundamental._table(shuffled, xs, rows), table), entries

    def test_conjugate_matching_in_a_cycle_gives_pair_blocks(self):
        # Each entry of the cycle is paired with the next one: two blocks of 1 +- i,
        # never a non-real entry read as a real node.
        entries = EDGE_PAIRS["repeated_pair_matched_in_a_cycle"][0]
        assert _conjugate_partners(entries) == [3, 0, 1, 2]
        ev = build_evaluator(entries)
        assert ev.lower.tolist() == [-1.0, 0.0, -1.0]
        assert np.allclose(ev.diagonal, 1.0, rtol=0.0, atol=1e-10)

    def test_cofactor_past_the_float_range_is_balanced(self):
        # Every pair block is balanced: the entry after the first block is 1/beta =
        # 1e-200, so P is the last beta, 2e200, where the betas 1e200 and 2e200 alone
        # multiply past the float range.  As on the bidiagonal matrix, orders 0 and 1
        # at these abscissae underflow to the reference's 0, and order 2 overflows in
        # the rows.
        entries = [1e200j, -1e200j, 2e200j, -2e200j]
        ev = build_evaluator(entries)
        assert ev.upper.tolist() == [1e200, 1e-200, 2e200] and ev.cofactor == 2e200
        xs = [1e-201, -3e-195, 5e-183]
        assert derivative_table(ev, xs, 1).tolist() == [[0.0, 0.0]] * 3
        for x in xs:
            assert abs(eval_via_mpmath(entries, 1, x)) < 1e-300
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
            derivative_table(ev, xs, 2)


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

    def test_input_contract(self):
        ev = build_evaluator([-1, -2])
        for lo, hi in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="finite"):
                derivative_grid(ev, lo, hi, 8, 0)
        with pytest.raises(ValueError, match="lo <= hi"):
            derivative_grid(ev, 1.0, 0.0, 8, 0)
        with pytest.raises(ValueError, match="at least one grid point"):
            derivative_grid(ev, 0.0, 1.0, 0, 0)
        for count in (65.0, True, "65", None):
            with pytest.raises(ValueError, match="count must be an integer"):
                derivative_grid(ev, 0.0, 1.0, count, 0)
        assert derivative_grid(ev, 0.0, 1.0, np.int64(65), 0).shape == (65, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            derivative_grid(ev, 0.0, 1.0, 8, -1)
        with pytest.raises(ValueError, match="not conjugate-closed; use eval_derivative_complex"):
            derivative_grid(build_evaluator([1j, 0]), 0.0, 1.0, 8, 0)
        # The endpoints +-2e17 lie past the guard.
        wide = build_evaluator([40.0, -40.0])
        for lo, hi in ((0.0, 2e17), (-2e17, 0.0)):
            with pytest.raises(ValueError, match="2\\*\\*60 guard"):
                derivative_grid(wide, lo, hi, 5, 0)

    def test_overflowing_width_refused(self):
        # hi - lo overflows although both bounds are finite: refused by name before
        # linspace forms an abscissa (it would warn and then give NaN abscissae).
        ev = build_evaluator([-1, -2, 0.5])
        for lo, hi in ((-1e308, 1e308), (-1.7976931348623157e308, 1e300)):
            with pytest.raises(ValueError, match="width hi - lo overflows"):
                derivative_grid(ev, lo, hi, 64, 1)

    def test_guard_covers_offset_points(self):
        # Four points on one side make one block: the anchor 0, the offsets 6.7e16
        # and 1.3e17 and the endpoint 2e17.  With |Z|_2 = 40.5 the guard refuses
        # |x| past 3.1e16, so the offsets lie past it as well as the endpoint.
        wide = build_evaluator([40.0, -40.0])
        for lo, hi in ((0.0, 2e17), (-2e17, 0.0)):
            with pytest.raises(ValueError, match="2\\*\\*60 guard"):
                derivative_grid(wide, lo, hi, 4, 0)

    def test_exponential_count(self, monkeypatch):
        # Per side of 0, s = ceil(side length ** (1/4)): an anchor every s**3 points
        # and s offsets at each of three levels, the first the identity at offset 0.
        # 4096 points on one side take 8 + 3 * 8 exponentials.
        seen = []
        exponentials = fundamental._exponentials

        def counting(ev, xs):
            seen.append(len(xs))
            return exponentials(ev, xs)

        monkeypatch.setattr(fundamental, "_exponentials", counting)
        ev = build_evaluator([1.2, -1, 2.3, -2])
        for lo, hi, count, expected in ((0.0, 5.0, 4096, 32), (-5.0, -0.5, 4096, 32),
                                        (-0.16, 0.63, 4096, 53), (-1.0, 1.0, 4096, 54),
                                        (0.0, 3.0, 512, 20)):
            seen.clear()
            derivative_grid(ev, lo, hi, count, 4)
            assert sum(seen) == expected, (lo, hi, count, seen)

    def test_matches_table_at_cube_boundaries(self):
        # Side lengths at and just past s**3 and s**4, and a side of 1 or 2 points
        # (a 2-point side has offsets at the fine level only) next to a long one.
        # The step a is a power of 2, so that linspace hits 0 exactly where it should.
        vectors = ([-1.0, -2.0, 0.5, 1.5], twelve_frequency_vectors()[1], [-1, -1, -1, 2, 2])
        a = 2.0 ** -9
        for entries in vectors:
            ev = build_evaluator(entries)
            max_order = len(entries)
            for count in (8, 9, 16, 17, 27, 28, 81, 82, 4097):
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
        # _grid forms no abscissa; those it samples, from _abscissae, are the grid's linspace.
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
                xs = fundamental._abscissae(lo, hi, count, range(count))
                assert np.array(xs).tobytes() == np.linspace(lo, hi, count).tobytes()
                full = derivative_grid(ev, lo, hi, count, n + 3)
                scale = np.abs(full).max(axis=0)
                for m in range(n + 2):
                    rows = fundamental._order_rows(ev, m + 2)[m:]
                    part = fundamental._grid(ev, lo, hi, count, rows)
                    assert part.shape == (count, 3) and part.dtype == np.float64
                    assert np.all(np.abs(part - full[:, m:m + 3]) <= 1e-12 * scale[m:m + 3]), \
                        (entries, lo, hi, count, m)

    def test_negative_side_is_reversed_view(self):
        # A grid left of 0 returns the rows of its last product, reversed, with no copy:
        # the values still match the table on the same linspace abscissae.
        for entries in ([-1.0, -2.0, 0.5, 1.5], [0.5, 1 + 2j, 1 - 2j, -0.3],
                        twelve_frequency_vectors()[1]):
            ev = build_evaluator(entries)
            for lo, hi, count in ((-7.0, -0.5, 4096), (-3.0, -1e-3, 65), (-2.0, -1e-300, 2)):
                grid = derivative_grid(ev, lo, hi, count, len(entries))
                assert grid.base is not None and grid.strides[0] < 0
                table = derivative_table(ev, np.linspace(lo, hi, count), len(entries))
                scale = np.abs(table).max(axis=0)
                assert np.all(np.abs(grid - table) <= 1e-12 * scale), (entries, lo, hi, count)


#: Grids at the edges of numpy's linspace formula: a step that rounds to 0,
#: hi < 0, lo < 0 < hi with 0 a grid point, -0.0 bounds, equal bounds.
LINSPACE_EDGES = [(0.0, 5e-324), (-5e-324, 5e-324), (-4e-320, 7e-320), (-7.0, -0.5),
                  (-1.0, -1e-300), (-2.0 ** -9, 2.0 ** -9 * 63), (-3.0, 3.0), (-0.0, 1.0),
                  (-1.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (2.0, 2.0), (-1e-300, 1.0),
                  (-8e307, 8e307)]


class TestAbscissae:
    @pytest.mark.parametrize("count", [1, 2, 3, 64, 65, 4096])
    def test_edges_match_linspace(self, count):
        for lo, hi in LINSPACE_EDGES:
            xs = fundamental._abscissae(lo, hi, count, range(count))
            ref = np.linspace(lo, hi, count)
            assert np.array(xs).tobytes() == ref.tobytes(), (lo, hi, count)

    def test_random_grids_match_linspace(self):
        rng = np.random.default_rng(53)
        for _ in range(400):
            lo, hi = sorted(rng.uniform(-10.0, 10.0, 2) * 10.0 ** rng.integers(-8, 8))
            count = int(rng.choice([2, 3, 64, 65, 4096, rng.integers(2, 5000)]))
            ref = np.linspace(lo, hi, count)
            picks = rng.integers(0, count, 5).tolist() + [0, count - 1]
            assert np.array(fundamental._abscissae(lo, hi, count, picks)).tobytes() == \
                ref[picks].tobytes(), (lo, hi, count)

    def test_split_matches_searchsorted(self):
        rng = np.random.default_rng(59)
        grids = [(lo, hi, count) for lo, hi in LINSPACE_EDGES if lo < hi
                 for count in (2, 3, 64, 65, 4096)]
        for _ in range(300):
            lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
            grids.append((lo, hi, int(rng.integers(2, 5000))))
            grids.append((-float(rng.uniform(0.0, 1e-12)), hi + 5.0, int(rng.integers(2, 5000))))
        for lo, hi, count in grids:
            expected = int(np.searchsorted(np.linspace(lo, hi, count), 0.0))
            assert fundamental._first_nonnegative(lo, hi, count) == expected, (lo, hi, count)
