"""Predicates and origin derivative values of frequency vectors."""

import itertools
import math

import numpy as np
import pytest

from expfun import (
    FrequencyVector,
    check_necessary,
    is_conjugate_closed,
    is_symmetric,
    taylor_coefficient,
)


def homogeneous_brute_force(entries, degree):
    """Oracle: sum of all degree-d monomials, one per index multiset."""
    total = 0
    for combo in itertools.combinations_with_replacement(range(len(entries)), degree):
        prod = 1
        for i in combo:
            prod *= entries[i]
        total += prod
    return total


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FrequencyVector(())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FrequencyVector((1.0, float("inf")))

    def test_order_index(self):
        assert FrequencyVector((-1, -2)).n == 1
        assert FrequencyVector((0,)).n == 0


class TestConjugateClosed:
    def test_real_entries_self_conjugate(self):
        assert is_conjugate_closed([-1, -2], tol=0.0)

    def test_conjugate_pair(self):
        assert is_conjugate_closed([1j, -1j], tol=0.0)

    def test_missing_conjugate(self):
        assert not is_conjugate_closed([1j, 0], tol=1e-12)

    def test_tolerance_matching(self):
        assert is_conjugate_closed([1j, -1j + 1e-12], tol=1e-9)
        assert not is_conjugate_closed([1j, -1j + 1e-6], tol=1e-9)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_conjugate_closed([1.0], tol=-1.0)

    @pytest.mark.parametrize("predicate", [is_conjugate_closed, is_symmetric])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-300])
    def test_tol_must_be_finite_and_nonnegative(self, predicate, tol):
        # A NaN tol matched every pair: both predicates held for [1, 2j].
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            predicate([1.0, 2j], tol=tol)


class TestSymmetric:
    def test_unbalanced_multiset(self):
        # (-1, 1, 0, 1): the negation has two -1 entries, the original one.
        assert not is_symmetric([-1, 1, 0, 1])

    def test_symmetric_about_zero(self):
        assert is_symmetric([-1, 0, 1])

    def test_zero_vector(self):
        assert is_symmetric([0, 0, 0])

    def test_independent_of_conjugate_closure(self):
        # Symmetric but not conjugate-closed:
        v = [1 + 1j, -1 - 1j]
        assert is_symmetric(v, tol=0.0)
        assert not is_conjugate_closed(v, tol=1e-12)
        # Conjugate-closed but not symmetric:
        w = [1.0, 1.0]
        assert is_conjugate_closed(w, tol=0.0)
        assert not is_symmetric(w, tol=1e-12)


class TestTaylorCoefficient:
    def test_below_order_is_zero(self):
        assert taylor_coefficient([3, -2, 5], 0) == 0
        assert taylor_coefficient([3, -2, 5], 1) == 0

    def test_at_order_is_one(self):
        for entries in ([0.5], [1, 2, 3], [1j, -1j]):
            assert taylor_coefficient(entries, len(entries) - 1) == 1

    def test_first_above_order_is_frequency_sum(self):
        assert taylor_coefficient([-1, -2], 2) == -3
        assert taylor_coefficient([1j, -1j, 4], 3) == 4

    def test_degree_two_pair(self):
        # Enumerating (s0, s1) with s0 + s1 = 2 gives 1 + 2 + 4.
        assert taylor_coefficient([1, 2], 3) == 7

    def test_matches_brute_force_exactly_on_integer_vectors(self):
        rng = np.random.default_rng(7)
        for n in range(0, 5):
            entries = [complex(int(v)) for v in rng.integers(-3, 4, size=n + 1)]
            for k in range(n, n + 5):
                expected = homogeneous_brute_force(entries, k - n)
                assert taylor_coefficient(entries, k) == expected

    def test_matches_brute_force_on_float_vectors(self):
        rng = np.random.default_rng(8)
        for n in range(0, 5):
            entries = list(rng.uniform(-2, 2, size=n + 1))
            for k in range(n, n + 5):
                expected = homogeneous_brute_force(entries, k - n)
                got = taylor_coefficient(entries, k)
                assert abs(got - expected) <= 1e-12 * (1 + abs(expected))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        entries = list(rng.uniform(-2, 2, size=6) + 1j * rng.uniform(-2, 2, size=6))
        for k in (5, 7, 10):
            reference = taylor_coefficient(entries, k)
            for _ in range(10):
                shuffled = list(entries)
                rng.shuffle(shuffled)
                got = taylor_coefficient(shuffled, k)
                assert abs(got - reference) <= 1e-12 * (1 + abs(reference))

    def test_conjugate_closed_gives_real_values(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            reals = list(rng.uniform(-2, 2, size=3))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            entries = reals + [z, z.conjugate()]
            n = len(entries) - 1
            for k in range(n, n + 11):
                value = taylor_coefficient(entries, k)
                assert abs(value.imag) <= 1e-10 * (1 + abs(value))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            taylor_coefficient([1.0], -1)
        # A bool order returned Phi^(1)(0) = 1 and a float one raised TypeError.
        for bad in (True, 1.0):
            with pytest.raises(ValueError, match="k must be an integer"):
                taylor_coefficient([-1, -2], bad)
        assert taylor_coefficient([-1, -2], np.int64(2)) == -3


class TestCheckNecessary:
    def test_all_negative_fails(self):
        assert check_necessary([-1, -2]) is False

    def test_zero_sum_passes(self):
        assert check_necessary([-1, 0, 1]) is True

    def test_positive_sum_passes(self):
        assert check_necessary([-1, 1, 0, 1]) is True

    def test_conjugate_pair_sum_is_real(self):
        assert check_necessary([1j, -1j]) is True

    def test_nonreal_sum_rejected(self):
        with pytest.raises(ValueError):
            check_necessary([1j, 0])
