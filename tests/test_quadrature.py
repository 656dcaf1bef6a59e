"""Shared nested Fejer helper and the integrals built on it, against mpmath."""

import math

import mpmath
import numpy as np
import pytest

from expfun import Measure, PolynomialCoeffs, build_evaluator, identity_residual, transform
from expfun.fundamental import derivative_table
from expfun.quadrature import fejer_rule, nested_fejer

#: Conjugate pair 0.01 +- w i next to a decaying mode; on [0, 2] the pair
#: runs through w / pi periods.
X = 2.0
POLY = PolynomialCoeffs((1.0, -0.5, 0.25))


def oscillatory(w):
    return [complex(0.01, w), complex(0.01, -w), -0.5]


def mp_derivative(freqs, m, x):
    """Partial-fraction value of Phi^(m)(x) at 40 digits."""
    with mpmath.workdps(40):
        ls = [mpmath.mpc(f.real, f.imag) for f in freqs]
        total = mpmath.mpc(0)
        for j, lj in enumerate(ls):
            denom = mpmath.mpc(1)
            for k, lk in enumerate(ls):
                if k != j:
                    denom *= lj - lk
            total += lj**m * mpmath.exp(lj * x) / denom
        return float(total.real)


def mp_basis_sum(freqs, poly, x):
    """Reference for sum_k a_k k! Phi^(n-k)(x), the left side of the identity."""
    n = len(freqs) - 1
    return math.fsum(a * math.factorial(k) * mp_derivative(freqs, n - k, x)
                     for k, a in enumerate(poly.coeffs))


def direct_fejer_weights(order):
    """Fejer's second rule from its closed form, O(order**2) operations."""
    theta = np.arange(1, order) * math.pi / order
    k = np.arange(1, order // 2 + 1)
    return 4.0 * np.sin(theta) / order * (np.sin(np.outer(theta, 2 * k - 1)) / (2 * k - 1)).sum(axis=1)


class TestFejerRule:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_fft_weights_match_the_direct_formula(self, order):
        nodes, weights = fejer_rule(order)
        np.testing.assert_allclose(nodes, np.cos(np.arange(1, order) * math.pi / order), atol=1e-15)
        np.testing.assert_allclose(weights, direct_fejer_weights(order), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_exact_on_polynomials_to_degree_order_minus_one(self, order):
        nodes, weights = fejer_rule(order)
        for degree in range(order):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert float(weights @ nodes**degree) == pytest.approx(exact, abs=2e-16)

    def test_exponential_to_rounding(self):
        nodes, weights = fejer_rule(16)
        assert float(weights @ np.exp(nodes)) == pytest.approx(math.e - 1.0 / math.e, abs=4e-16)

    def test_polynomial_exact_at_second_rule(self):
        # Order 2 (the midpoint) is not exact on t**3; orders 4 and 8 are.
        calls = []

        def values(ts):
            calls.append(len(ts))
            return ts**3
        assert float(nested_fejer(values, 0.0, 2.0, 2, 64, 1e-13)) == pytest.approx(4.0, abs=1e-14)
        assert calls == [3, 4]

    def test_callback_sees_only_new_nodes(self):
        # A kink converges too slowly to agree, so every order up to the cap is evaluated.
        seen = []

        def values(ts):
            seen.append(ts)
            return np.abs(ts - 1.0 / 3.0)
        with pytest.raises(RuntimeError, match="did not stabilize by order 64"):
            nested_fejer(values, 0.0, 1.0, 4, 64, 1e-11)
        assert [len(ts) for ts in seen] == [7, 8, 16, 32]
        every = np.concatenate(seen)
        assert np.unique(every).size == every.size == 63
        assert 0.0 < every.min() and every.max() < 1.0

    def test_reversed_interval_is_oriented(self):
        value = nested_fejer(np.exp, 1.0, -1.0, 8, 64, 1e-13)
        assert float(value) == pytest.approx(-(math.e - 1.0 / math.e), abs=1e-13)

    def test_vector_valued_sums(self):
        value = nested_fejer(lambda ts: np.stack([ts, ts**2], axis=1), 0.0, 1.0, 4, 64, 1e-13)
        np.testing.assert_allclose(value, [0.5, 1.0 / 3.0], atol=1e-14)

    def test_cap_raises(self):
        with pytest.raises(RuntimeError, match="order 16"):
            nested_fejer(lambda ts: np.sqrt(ts), 0.0, 1.0, 2, 16, 1e-11)

    def test_rules_are_read_only_and_nested(self):
        nodes, weights = fejer_rule(8)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert float(weights.sum()) == pytest.approx(2.0, abs=1e-15)
        assert np.array_equal(fejer_rule(16)[0][1::2], nodes)


class TestOscillatoryIdentity:
    @pytest.mark.parametrize("w", [50.0, 500.0, 1000.0])
    def test_accepts_up_to_about_320_periods(self, w):
        freqs = oscillatory(w)
        ev = build_evaluator(freqs)
        lhs = mp_basis_sum(freqs, POLY, X)
        residual = identity_residual(ev, POLY, X)
        assert residual <= 1e-8 * (1 + abs(POLY(X)) + abs(lhs))
        # The identity makes lhs - R(x) the exact value of the convolution integral.
        integral = float(nested_fejer(
            lambda ts: POLY(ts) * derivative_table(ev, X - ts, 3)[:, 3],
            0.0, X, 16, 4096, 1e-11))
        assert integral == pytest.approx(lhs - POLY(X), abs=1e-9 * (1 + abs(lhs)))

    @pytest.mark.parametrize("w", [2000.0, 3000.0])
    def test_refuses_from_about_640_periods(self, w):
        # The rules of orders 2048 and 4096 truly disagree here, by 4.6e-5 and 6.2e-3.
        with pytest.raises(RuntimeError, match="did not stabilize by order 4096"):
            identity_residual(build_evaluator(oscillatory(w)), POLY, X)


class TestRuleCache:
    def test_each_order_built_once_across_density_transforms(self):
        ev = build_evaluator([-1.0, 1.0, 0.0])
        mu = Measure.from_density(lambda x: 1.0 + x * x, (0.0, 1.5))
        fejer_rule.cache_clear()
        first = transform(ev, mu)
        built = fejer_rule.cache_info().misses
        assert built >= 2
        for _ in range(3):
            assert transform(ev, mu) == first
        info = fejer_rule.cache_info()
        assert info.misses == built
        assert info.hits == 3 * built


#: Width of the Gaussian bumps, and the vector whose Phi''' they weight.
BUMP_SIGMA = 1e-3
BUMP_FREQS = [-1.0, 1.0, -2.0, 2.0]


def mp_bump_s0(centre):
    """s_0 = int_0^1 Phi'''(x) exp(-((x - centre) / sigma)**2 / 2) dx at 30 digits.

    The partial fractions of Phi''' are built once per call; ``mp_derivative``
    rebuilds them at every point and makes the 19 references seven seconds slower.
    """
    with mpmath.workdps(30):
        ls = [mpmath.mpf(f) for f in BUMP_FREQS]
        denoms = [mpmath.fprod(lj - lk for k, lk in enumerate(ls) if k != j) for j, lj in enumerate(ls)]

        def integrand(x):
            phi3 = mpmath.fsum(lj**3 * mpmath.exp(lj * x) / d for lj, d in zip(ls, denoms))
            return phi3 * mpmath.exp(-((x - centre) / BUMP_SIGMA) ** 2 / 2)
        return float(mpmath.quad(integrand, [0, centre - 10 * BUMP_SIGMA, centre,
                                             centre + 10 * BUMP_SIGMA, 1]))


class TestDensityTransform:
    @pytest.mark.parametrize("centre", [round(0.05 * k, 2) for k in range(1, 20)])
    def test_coarse_rule_resolves_a_narrow_bump(self, centre):
        # The bump is narrower than the spacing of the order-64 nodes.  The first
        # evaluation (order 128) still sees it, so the two orders disagree and the
        # order keeps doubling; starting from order 32, four centres read s_0 as 0.
        mu = Measure.from_density(lambda x: math.exp(-((x - centre) / BUMP_SIGMA) ** 2 / 2), (0.0, 1.0))
        s0 = transform(build_evaluator(BUMP_FREQS), mu).values[0]
        ref = mp_bump_s0(centre)
        assert s0 == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_kinked_density_is_refused_within_the_cap(self):
        calls = []

        def kinked(x):
            calls.append(x)
            return abs(x - 0.3)
        mu = Measure.from_density(kinked, (0.0, 1.0))
        with pytest.warns(UserWarning), pytest.raises(RuntimeError, match="did not stabilize by order 8192"):
            transform(build_evaluator([-1.0, -2.0]), mu)
        assert len(calls) <= 8191
