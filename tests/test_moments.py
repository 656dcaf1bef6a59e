"""Basis transform of measures, interval moment conditions, and recovery."""

import math

import numpy as np
import pytest

from expfun import (
    Measure,
    MomentSequence,
    basis,
    build_evaluator,
    hausdorff_check,
    recover_measure,
    riesz_functional,
    transform,
)
from expfun.moments import _gauss_from_moments, _psd_conditions


def random_symmetric(rng, count, scale=1.2):
    entries = []
    for _ in range(count // 2):
        a = rng.uniform(0.3, scale)
        entries += [a, -a]
    if count % 2:
        entries.append(0.0)
    rng.shuffle(entries)
    return entries


def ordinary_moments(atoms, origin, howmany):
    return [sum(w * (x - origin) ** k for x, w in atoms) for k in range(howmany)]


class TestMeasure:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Measure.from_atoms([(0.5, -1.0)], (0, 1))

    def test_atom_outside_support_rejected(self):
        with pytest.raises(ValueError):
            Measure.from_atoms([(2.0, 1.0)], (0, 1))

    @pytest.mark.parametrize("support", [(0, 1, 7), (0,), ()])
    def test_support_needs_exactly_two_bounds(self, support):
        with pytest.raises(ValueError, match="two bounds"):
            Measure.from_atoms([(0.5, 1.0)], support)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Measure(kind="spectral", support=(0, 1))

    @pytest.mark.parametrize("build", [
        lambda: Measure.from_density(lambda x: 1.0, (0.0, math.inf)),
        lambda: Measure.from_atoms([(0.5, 1.0)], (-math.inf, 1.0)),
        lambda: Measure.from_atoms([(0.5, math.nan)], (0.0, 1.0)),
        lambda: Measure.from_atoms([(0.5, math.inf)], (0.0, 1.0)),
    ], ids=["density_support_inf", "atoms_support_-inf", "weight_nan", "weight_inf"])
    def test_non_finite_support_or_weight_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


class TestMomentSequence:
    @pytest.mark.parametrize("length, origin", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (-0.5, 0.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ], ids=["length_nan", "length_inf", "length_-inf", "length_negative",
            "origin_nan", "origin_inf", "origin_-inf"])
    def test_unusable_geometry_rejected(self, length, origin):
        with pytest.raises(ValueError):
            MomentSequence((1.0, 0.5, 0.3), support_length=length, origin=origin)

    def test_point_support_accepted(self):
        s = MomentSequence((1.0, 0.0, 0.0), support_length=0.0, origin=-2.0)
        assert hausdorff_check(s).passed


class TestTransform:
    def test_unit_atom_at_left_endpoint(self):
        ev = build_evaluator([0.3, -1.2, 0.9])
        mu = Measure.from_atoms([(2.0, 1.0)], (2.0, 3.5))
        s = transform(ev, mu)
        assert s.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(s.values[1:], 0.0, atol=1e-12)
        assert s.origin == 2.0 and s.support_length == 1.5

    def test_polynomial_case_gives_ordinary_moments(self):
        ev = build_evaluator([0, 0, 0])
        atoms = [(0.3, 0.5), (1.1, 2.0), (2.0, 0.25)]
        mu = Measure.from_atoms(atoms, (0.0, 2.0))
        s = transform(ev, mu)
        assert np.allclose(s.values, ordinary_moments(atoms, 0.0, 3), atol=1e-12)

    def test_shifted_cosh_unit_atom(self):
        ev = build_evaluator([0, 1, -1])
        s = transform(ev, Measure.from_atoms([(1.0, 1.0)], (0.0, 1.0)))
        expected = (math.cosh(1), math.sinh(1), 2 * math.cosh(1) - 2)
        assert np.allclose(s.values, expected, atol=1e-12)
        assert s.hypothesis_certified

    def test_uniform_density_polynomial_case(self):
        ev = build_evaluator([0, 0, 0, 0, 0])
        s = transform(ev, Measure.from_density(lambda x: 1.0, (0.0, 1.0)))
        assert np.allclose(s.values, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5], atol=1e-10)

    def test_density_receives_python_floats(self):
        # The density's contract is Callable[[float], float]: nodes arrive as Python floats.
        seen = set()

        def density(x):
            seen.add(type(x))
            return math.exp(-x)

        transform(build_evaluator([0, 1, -1]), Measure.from_density(density, (0.0, 1.0)))
        assert seen == {float}

    def test_linearity_in_atoms(self):
        rng = np.random.default_rng(51)
        ev = build_evaluator(random_symmetric(rng, 4))
        atoms_a = [(0.2, 0.7), (1.4, 0.1)]
        atoms_b = [(0.9, 1.3)]
        support = (0.0, 2.0)
        sa = np.array(transform(ev, Measure.from_atoms(atoms_a, support)).values)
        sb = np.array(transform(ev, Measure.from_atoms(atoms_b, support)).values)
        sab = np.array(transform(ev, Measure.from_atoms(atoms_a + atoms_b, support)).values)
        assert np.allclose(sab, sa + sb, rtol=1e-12, atol=1e-12)
        doubled = [(x, 2 * w) for x, w in atoms_a]
        s2 = np.array(transform(ev, Measure.from_atoms(doubled, support)).values)
        assert np.allclose(s2, 2 * sa, rtol=1e-12, atol=1e-12)

    def test_uncertified_hypothesis_warns_and_flags(self):
        ev = build_evaluator([-1, -2])
        mu = Measure.from_atoms([(1.0, 1.0)], (0.0, 1.5))
        with pytest.warns(UserWarning):
            s = transform(ev, mu)
        assert not s.hypothesis_certified

    def test_complex_output_rejected(self):
        ev = build_evaluator([1j, 0])
        with pytest.raises(ValueError):
            transform(ev, Measure.from_atoms([(0.5, 1.0)], (0.0, 1.0)))

    def test_overflowing_basis_value_refused(self):
        # A symmetric vector needs no hypothesis scan; the basis values at 0.01 pass e^3000,
        # and the squarings' overflow must reach the caller as an OverflowError, not as
        # numpy's RuntimeWarning.
        ev = build_evaluator([3e5, -3e5])
        with pytest.raises(OverflowError, match="not finite"):
            transform(ev, Measure.from_atoms([(0.01, 1.0)], (0.0, 1e13)))

    def test_negative_density_rejected(self):
        ev = build_evaluator([0, 1, -1])
        with pytest.raises(ValueError):
            transform(ev, Measure.from_density(lambda x: x - 0.5, (0.0, 1.0)))


class TestRieszFunctional:
    def test_constant_polynomial(self):
        s = MomentSequence((2.5, 0.3, 0.1), support_length=1.0, origin=0.0)
        assert riesz_functional(s, [1.0]) == 2.5

    def test_unit_atom_sequence(self):
        s = MomentSequence((1.0, 0.0, 0.0), support_length=1.0, origin=0.0)
        assert riesz_functional(s, [1.0, 1.0, 1.0]) == 1.0

    def test_consistency_with_direct_integration(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            ev = build_evaluator(random_symmetric(rng, int(rng.integers(3, 6))))
            n = ev.n
            atoms = [(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 1))) for _ in range(3)]
            mu = Measure.from_atoms(atoms, (0.0, 2.0))
            s = transform(ev, mu)
            coeffs = list(rng.uniform(-1, 1, size=n + 1))
            direct = sum(
                w * sum(c * basis(ev, k, x) for k, c in enumerate(coeffs))
                for x, w in atoms
            )
            assert riesz_functional(s, coeffs) == pytest.approx(direct, abs=1e-9, rel=1e-9)

    def test_nonnegative_on_nonnegative_polynomials(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            ev = build_evaluator(random_symmetric(rng, 5))
            atoms = [(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 1))) for _ in range(3)]
            s = transform(ev, Measure.from_atoms(atoms, (0.0, 2.0)))
            half = rng.uniform(-1, 1, size=3)
            square = np.convolve(half, half)  # degree 4 <= n = 4
            assert riesz_functional(s, list(square)) >= -1e-12

    def test_degree_cap(self):
        s = MomentSequence((1.0, 0.0), support_length=1.0, origin=0.0)
        with pytest.raises(ValueError):
            riesz_functional(s, [0.0, 0.0, 1.0])


class TestHausdorffCheck:
    def test_unit_mass_at_origin_passes(self):
        s = MomentSequence((1.0, 0.0, 0.0, 0.0), support_length=1.0, origin=0.0)
        assert hausdorff_check(s).passed

    def test_classical_uniform_moments_pass(self):
        s = MomentSequence((1, 1 / 2, 1 / 3, 1 / 4, 1 / 5), support_length=1.0, origin=0.0)
        report = hausdorff_check(s)
        assert report.passed
        # Independent check of the same matrices by direct eigencomputation.
        big = np.array([[1, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]])
        assert np.linalg.eigvalsh(big)[0] > 0
        labels = {c.label for c in report.conditions}
        assert labels == {"moments", "t_times_b_minus_t"}

    def test_mass_escaping_interval_fails(self):
        # s_1 > b * s_0 cannot happen for a measure on [0, 1].
        s = MomentSequence((1.0, 2.0, 0.0, 0.0, 0.0), support_length=1.0, origin=0.0)
        assert not hausdorff_check(s).passed

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # tol=inf passed a sequence that no measure on [0, 1] has.
        s = MomentSequence((1.0, 2.0, 0.0, 0.0, 0.0), support_length=1.0, origin=0.0)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            hausdorff_check(s, tol)

    def test_two_moment_conditions(self):
        ok = MomentSequence((1.0, 0.4), support_length=1.0, origin=0.0)
        assert hausdorff_check(ok).passed
        bad = MomentSequence((1.0, -0.1), support_length=1.0, origin=0.0)
        assert not hausdorff_check(bad).passed
        escaping = MomentSequence((1.0, 1.2), support_length=1.0, origin=0.0)
        assert not hausdorff_check(escaping).passed

    def test_default_threshold_is_spectral_norm(self):
        rng = np.random.default_rng(61)
        for n in range(1, 9):
            s = MomentSequence(tuple(rng.uniform(-3, 5, size=n + 1) * 10.0 ** rng.integers(-4, 5)),
                               support_length=1.3, origin=0.0)
            mats = [mat for _, mat in _psd_conditions(s) if mat.size]
            for check, mat in zip(hausdorff_check(s).conditions, mats):
                norm = max(1.0, np.linalg.norm(mat, 2))
                assert check.threshold == pytest.approx(1e-10 * norm, rel=1e-12)

    @pytest.mark.parametrize("n", range(6))
    def test_condition_matrices(self, n):
        # Nonempty localized blocks, built entry by entry; hausdorff_check skips empty ones.
        rng = np.random.default_rng(60 + n)
        s = MomentSequence(tuple(rng.uniform(-1, 2, size=n + 1)), support_length=1.7, origin=0.3)
        v, b, m = s.values, s.support_length, n // 2

        def block(size, entry):
            return np.array([[entry(i + j) for j in range(size)] for i in range(size)]).reshape(size, size)

        if n % 2 == 0:
            expected = [("moments", block(m + 1, lambda i: v[i])),
                        ("t_times_b_minus_t", block(m, lambda i: b * v[i + 1] - v[i + 2]))]
        else:
            expected = [("t", block(m + 1, lambda i: v[i + 1])),
                        ("b_minus_t", block(m + 1, lambda i: b * v[i] - v[i + 1]))]
        expected = [(label, mat) for label, mat in expected if mat.size]
        got = [(label, mat) for label, mat in _psd_conditions(s) if mat.size]
        assert [label for label, _ in got] == [label for label, _ in expected]
        assert [c.label for c in hausdorff_check(s).conditions] == [label for label, _ in expected]
        for (_, mat), (_, want) in zip(got, expected):
            assert mat.shape == want.shape
            assert np.array_equal(mat, want)

    def test_transformed_atom_measure_passes(self):
        ev = build_evaluator([0, 1, -1])
        s = transform(ev, Measure.from_atoms([(1.0, 1.0)], (0.0, 1.0)))
        assert hausdorff_check(s).passed


class TestRecoverMeasure:
    def test_unit_mass_at_origin(self):
        for values, atoms in [
            ((1.0, 0.0, 0.0), ((0.0, 1.0),)),
            ((2.0,), ((0.0, 2.0),)),
            ((3.0, 0.0, 0.0, 0.0, 0.0), ((0.0, 3.0),)),
            # Shifted nodes within 1e-8 of the endpoint merge into the endpoint atom.
            ((1e6, 1e-9, 1e-18), ((0.0, 1e6),)),
            ((1.0, 1e-9, 1e-18), ((0.0, 1.0),)),
            # A small interior mass is kept beside the endpoint atom.
            ((1e6, 1e-9, 1e-9), ((0.0, 1e6 - 1e-9), (1.0, 1e-9))),
        ]:
            s = MomentSequence(values, support_length=1.0, origin=0.0)
            nu = recover_measure(s)
            assert nu.atoms == atoms, values

    def test_polynomial_case_uniform_density(self):
        ev = build_evaluator([0, 0, 0, 0, 0])
        s = transform(ev, Measure.from_density(lambda x: 1.0, (0.0, 1.0)))
        nu = recover_measure(s)
        got = ordinary_moments(nu.atoms, 0.0, 5)
        assert np.allclose(got, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5], atol=1e-8)
        assert all(-1e-8 <= x <= 1 + 1e-8 for x, _ in nu.atoms)

    def test_shifted_cosh_unit_atom(self):
        ev = build_evaluator([0, 1, -1])
        s = transform(ev, Measure.from_atoms([(1.0, 1.0)], (0.0, 1.0)))
        assert hausdorff_check(s).passed
        nu = recover_measure(s)
        got = ordinary_moments(nu.atoms, 0.0, 3)
        assert np.allclose(got, s.values, atol=1e-8)
        assert all(-1e-8 <= x <= 1 + 1e-8 for x, _ in nu.atoms)
        assert all(w >= 0 for _, w in nu.atoms)

    def test_odd_length_sequence_exact_recovery(self):
        # Four moments of two atoms: recovery must return those atoms.
        atoms = [(0.25, 0.5), (0.75, 1.5)]
        values = tuple(ordinary_moments(atoms, 0.0, 4))
        s = MomentSequence(values, support_length=1.0, origin=0.0)
        nu = recover_measure(s)
        got = sorted(nu.atoms)
        assert np.allclose(got, sorted(atoms), atol=1e-10)

    def test_uniform_moments_give_shifted_legendre_rule(self):
        # Even length: the K-point Gauss rule of dt on [0, 1] is leggauss shifted.
        K = 4
        gx, gw = np.polynomial.legendre.leggauss(K)
        values = np.array([1.0 / (k + 1) for k in range(2 * K)])
        nodes, weights = _gauss_from_moments(values, 1e-12)
        order = np.argsort(nodes)
        np.testing.assert_allclose(nodes[order], (gx + 1) / 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights[order], gw / 2, rtol=0, atol=1e-12)
        nu = recover_measure(MomentSequence(tuple(values), support_length=1.0, origin=0.0))
        np.testing.assert_allclose(sorted(nu.atoms), np.column_stack(((gx + 1) / 2, gw / 2)),
                                   rtol=0, atol=1e-12)

    def test_odd_length_endpoint_atom_over_legendre_rule(self):
        # Odd length: s_k = 1/k for k >= 1 shifts to the uniform moments, so the
        # interior atoms are the shifted leggauss nodes carrying weights w/t,
        # and s_0 minus their mass sits at the left endpoint.
        K = 4
        gx, gw = np.polynomial.legendre.leggauss(K)
        ts, ws = (gx + 1) / 2, gw / 2 / ((gx + 1) / 2)
        values = (10.0,) + tuple(1.0 / k for k in range(1, 2 * K + 1))
        nu = recover_measure(MomentSequence(values, support_length=1.0, origin=0.0))
        expected = np.column_stack((np.concatenate(([0.0], ts)),
                                    np.concatenate(([10.0 - ws.sum()], ws))))
        np.testing.assert_allclose(sorted(nu.atoms), expected, rtol=0, atol=1e-12)

    def test_shifted_origin(self):
        atoms = [(2.3, 0.5), (3.1, 1.5)]
        values = tuple(ordinary_moments(atoms, 2.0, 4))
        s = MomentSequence(values, support_length=1.5, origin=2.0)
        nu = recover_measure(s)
        assert np.allclose(sorted(nu.atoms), sorted(atoms), atol=1e-10)
        assert nu.support == (2.0, 3.5)

    def test_rank_deficient_sequence_truncates(self):
        # A single atom seen through a length-4 sequence: the full-size
        # orthogonal-polynomial recurrence does not exist, the one-point
        # rule does.
        atoms = [(0.5, 2.0)]
        values = tuple(ordinary_moments(atoms, 0.0, 4))
        s = MomentSequence(values, support_length=1.0, origin=0.0)
        nu = recover_measure(s)
        assert np.allclose(nu.atoms, [(0.5, 2.0)], atol=1e-9)

    def test_invalid_sequence_rejected(self):
        s = MomentSequence((1.0, 2.0, 0.0, 0.0, 0.0), support_length=1.0, origin=0.0)
        with pytest.raises(ValueError):
            recover_measure(s)

    def test_truncated_rule_must_reproduce_every_moment(self):
        # The 2 x 2 block of (s_1, s_2, s_3) loses rank at the 1e-12 pivot
        # floor, so the one-point rule matches s_0..s_2 only and misses s_3.
        s = MomentSequence((1.0, 1.0, 1 + 1e-13, 1 + 1e-6), support_length=1e7, origin=0.0)
        assert hausdorff_check(s).passed
        with pytest.raises(ArithmeticError, match=r"moment 3 is .*, expected 1\.000001;"):
            recover_measure(s)

    @pytest.mark.parametrize("seed", range(10))
    def test_recovery_verifies_every_moment(self, seed):
        # 22 frequencies uniform in [0, 1] and 40 atoms on [0, 10]: the Gauss
        # rule loses rank, and a rule that misses a moment must be refused.
        size = 22
        rng = np.random.default_rng(1000 * size + seed)
        freqs = rng.uniform(0, 1, size)
        atoms = list(zip(rng.uniform(0, 10, 40), rng.uniform(0.1, 1, 40)))
        s = transform(build_evaluator(list(freqs)), Measure.from_atoms(atoms, (0.0, 10.0)))
        try:
            nu = recover_measure(s)
        except (ValueError, ArithmeticError):
            return
        got = ordinary_moments(nu.atoms, 0.0, s.n + 1)
        for k, (g, want) in enumerate(zip(got, s.values)):
            assert abs(g - want) <= 1e-8 * (1 + abs(want)), (k, g, want)

    def test_zero_sequence_recovers_zero_measure(self):
        for values in ((0.0,), (0.0, 0.0), (0.0, 0.0, 0.0)):
            s = MomentSequence(values, support_length=1.0, origin=0.0)
            nu = recover_measure(s)
            assert sum(w for _, w in nu.atoms) == 0.0

    def test_end_to_end_random_symmetric(self):
        rng = np.random.default_rng(54)
        for _ in range(15):
            count = int(rng.integers(3, 8))
            ev = build_evaluator(random_symmetric(rng, count))
            n = count - 1
            a = float(rng.uniform(-1, 1))
            length = float(rng.uniform(0.5, 3.0))
            natoms = n // 2 + 2
            atoms = [
                (float(rng.uniform(a, a + length)), float(rng.uniform(0.2, 1.0)))
                for _ in range(natoms)
            ]
            mu = Measure.from_atoms(atoms, (a, a + length))
            s = transform(ev, mu)
            assert s.hypothesis_certified
            assert hausdorff_check(s).passed
            nu = recover_measure(s)
            got = ordinary_moments(nu.atoms, a, n + 1)
            for k, (g, want) in enumerate(zip(got, s.values)):
                assert abs(g - want) <= 1e-8 * (1 + abs(want)), (k, g, want)
            assert all(a - 1e-8 <= x <= a + length + 1e-8 for x, _ in nu.atoms)
            assert all(w >= 0 for _, w in nu.atoms)

    def test_negative_control_search_finds_failing_measure(self):
        # With both frequencies negative the sign hypothesis fails, and some
        # unit atom produces a sequence that is certifiably not a moment
        # sequence for the interval.
        ev = build_evaluator([-1, -2])
        witness = None
        with pytest.warns(UserWarning):
            for spot in np.linspace(0.05, 1.5, 30):
                mu = Measure.from_atoms([(float(spot), 1.0)], (0.0, 1.5))
                s = transform(ev, mu)
                report = hausdorff_check(s)
                if not report.passed:
                    witness = (float(spot), s.values, report)
                    break
        assert witness is not None, "every unit atom produced a valid sequence"
        spot, values, report = witness
        print(f"failing unit atom at x={spot}: sequence {values}")
        # The failure is genuine, not a tolerance artifact.
        worst = min(c.min_eigenvalue for c in report.conditions)
        assert worst < -1e-3
