"""Shared Gauss-Legendre helper and the integrals built on it, against mpmath."""

import math

import mpmath
import numpy as np
import pytest

from expfun import Measure, PolynomialCoeffs, build_evaluator, identity_residual, transform
from expfun.fundamental import derivative_table
from expfun.quadrature import gauss_legendre, legendre_rule

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


class TestGaussLegendre:
    def test_polynomial_exact_at_second_rule(self):
        calls = []

        def rule_sum(ts, ws):
            calls.append(len(ts))
            return ws @ ts**3
        assert float(gauss_legendre(rule_sum, 0.0, 2.0, 4, 64, 1e-13)) == pytest.approx(4.0, abs=1e-14)
        assert calls == [4, 8]

    def test_reversed_interval_is_oriented(self):
        value = gauss_legendre(lambda ts, ws: ws @ np.exp(ts), 1.0, -1.0, 8, 64, 1e-13)
        assert float(value) == pytest.approx(-(math.e - 1.0 / math.e), abs=1e-13)

    def test_vector_valued_sums(self):
        value = gauss_legendre(lambda ts, ws: np.stack([ws @ ts, ws @ ts**2]), 0.0, 1.0, 4, 64, 1e-13)
        np.testing.assert_allclose(value, [0.5, 1.0 / 3.0], atol=1e-14)

    def test_cap_raises(self):
        with pytest.raises(RuntimeError, match="order 16"):
            gauss_legendre(lambda ts, ws: float(len(ts)), 0.0, 1.0, 2, 16, 1e-11)

    def test_rules_are_read_only(self):
        nodes, weights = legendre_rule(8)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert float(weights.sum()) == pytest.approx(2.0, abs=1e-15)


class TestOscillatoryIdentity:
    @pytest.mark.parametrize("w", [50.0, 500.0])
    def test_accepts_up_to_about_160_periods(self, w):
        freqs = oscillatory(w)
        ev = build_evaluator(freqs)
        lhs = mp_basis_sum(freqs, POLY, X)
        residual = identity_residual(ev, POLY, X)
        assert residual <= 1e-8 * (1 + abs(POLY(X)) + abs(lhs))
        # The identity makes lhs - R(x) the exact value of the convolution integral.
        integral = float(gauss_legendre(
            lambda ts, ws: ws @ (POLY(ts) * derivative_table(ev, X - ts, 3)[:, 3]),
            0.0, X, 16, 4096, 1e-11))
        assert integral == pytest.approx(lhs - POLY(X), abs=1e-9 * (1 + abs(lhs)))

    @pytest.mark.parametrize("w", [1000.0, 2000.0])
    def test_refuses_from_about_320_periods(self, w):
        with pytest.raises(RuntimeError, match="did not stabilize by order 4096"):
            identity_residual(build_evaluator(oscillatory(w)), POLY, X)


class TestRuleCache:
    def test_each_order_built_once_across_density_transforms(self):
        ev = build_evaluator([-1.0, 1.0, 0.0])
        mu = Measure.from_density(lambda x: 1.0 + x * x, (0.0, 1.5))
        legendre_rule.cache_clear()
        first = transform(ev, mu)
        built = legendre_rule.cache_info().misses
        assert built >= 2
        for _ in range(3):
            assert transform(ev, mu) == first
        info = legendre_rule.cache_info()
        assert info.misses == built
        assert info.hits == 3 * built
