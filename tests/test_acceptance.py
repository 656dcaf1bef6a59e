"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured-output section).  Expected total runtime is well under a minute.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from expfun import (
    CertificateKind,
    Measure,
    PolynomialCoeffs,
    build_evaluator,
    check_necessary,
    eval_derivative,
    hankel_matrix,
    hausdorff_check,
    is_positive_definite,
    monotonicity_certificate,
    recover_measure,
    taylor_coefficient,
    transform,
    turan_ratio,
    verify_sign,
)
from expfun.cli import main as cli_main
from float_oracles import eval_via_partial_fractions, eval_via_taylor


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def random_symmetric(rng, count, scale=1.2):
    entries = []
    for _ in range(count // 2):
        a = rng.uniform(0.3, scale)
        entries += [a, -a]
    if count % 2:
        entries.append(0.0)
    rng.shuffle(entries)
    return entries


def random_conjugate_closed(rng, n):
    count = n + 1
    entries = []
    while len(entries) < count - 1:
        if rng.random() < 0.5:
            z = complex(rng.uniform(-1.25, 1.25), rng.uniform(0.1, 1.25))
            entries += [z, z.conjugate()]
        else:
            entries.append(complex(rng.uniform(-1.25, 1.25)))
    while len(entries) < count:
        entries.append(complex(rng.uniform(-1.25, 1.25)))
    rng.shuffle(entries)
    return entries


def random_distinct_real(rng, n, min_gap=0.1, scale=1.5):
    while True:
        entries = np.sort(rng.uniform(-scale, scale, size=n + 1))
        if n == 0 or np.diff(entries).min() >= min_gap:
            return list(entries)


def homogeneous_brute_force(entries, degree):
    import itertools

    total = 0
    for combo in itertools.combinations_with_replacement(range(len(entries)), degree):
        prod = 1
        for i in combo:
            prod *= entries[i]
        total += prod
    return total


def run_cli_json(tmp_path, command, payload):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / f"{command}_out.json"
    code = cli_main([command, "--config", str(cfg), "--format", "json", "--out", str(out)])
    assert code == 0, f"{command} exited {code}"
    return json.loads(out.read_text())


def test_criterion_1_two_frequency_fixtures(tmp_path):
    with criterion(1, "two-frequency sign-change fixtures"):
        hankel_report = run_cli_json(tmp_path, "hankel", {
            "frequencies": [-1, -2], "k": 1, "interval": [0, 3], "samples": 257,
        })
        (det_flip,) = hankel_report["sign_changes"]
        assert abs(det_flip - math.log(3 + math.sqrt(5))) <= 1e-9
        assert abs(det_flip - 1.6556) <= 5e-5

        verify_report = run_cli_json(tmp_path, "verify", {
            "frequencies": [-1, -2], "m": 2, "interval": [0, 3],
        })
        assert verify_report["status"] == "violated"
        boundary = verify_report["boundary"]
        assert abs(boundary - 2 * math.log(2)) <= 1e-9
        assert abs(boundary - 1.3863) <= 5e-5


def test_criterion_2_mixed_vector_ratio_band():
    with criterion(2, "ratio band of the mixed four-frequency vector"):
        ev = build_evaluator([-1, 1, 0, 1])
        assert abs(turan_ratio(ev, -0.6) - 1.5387) <= 5e-4
        for x in np.linspace(4.0 / 64, 4.0, 64):
            ratio = turan_ratio(ev, float(x))
            assert 1.0 <= ratio < 1.5 + 1e-9, (x, ratio)
        negative_axis = [turan_ratio(ev, float(x)) for x in np.linspace(-1.0, -1.0 / 64, 64)]
        assert max(negative_axis) > 1.5
        assert verify_sign(ev, 4, 0.0, 4.0).status == "nonnegative"


def test_criterion_3_identity_suite():
    with criterion(3, "convolution identity, 200 randomized cases"):
        from expfun import basis, identity_residual

        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(0, 7))
            ev = build_evaluator(list(rng.uniform(-1.5, 1.5, size=n + 1)))
            coeffs = list(rng.uniform(-1, 1, size=n + 1))
            poly = PolynomialCoeffs(tuple(coeffs))
            x = float(rng.uniform(-2, 2))
            lhs = sum(a * basis(ev, k, x) for k, a in enumerate(coeffs))
            residual = identity_residual(ev, poly, x)
            assert residual <= 1e-8 * (1 + abs(poly(x)) + abs(lhs))


def test_criterion_4_origin_derivative_oracle():
    with criterion(4, "origin derivatives against the symmetric-function recurrence"):
        rng = np.random.default_rng(102)
        for _ in range(50):
            n = int(rng.integers(0, 7))
            entries = random_conjugate_closed(rng, n)
            ev = build_evaluator(entries)
            for k in range(0, n + 7):
                expected = taylor_coefficient(entries, k)
                assert abs(expected.imag if isinstance(expected, complex) else 0.0) <= 1e-10 * (
                    1 + abs(expected)
                )
                got = eval_derivative(ev, k, 0.0)
                want = expected.real if isinstance(expected, complex) else float(expected)
                assert abs(got - want) <= 1e-10, (entries, k)
        for _ in range(20):
            n = int(rng.integers(0, 5))
            entries = [complex(int(v)) for v in rng.integers(-3, 4, size=n + 1)]
            for k in range(n, n + 5):
                assert taylor_coefficient(entries, k) == homogeneous_brute_force(entries, k - n)


def test_criterion_5_definiteness_suite():
    with criterion(5, "Hankel definiteness with quadratic-form floor, 20 symmetric vectors"):
        rng = np.random.default_rng(103)
        xs = np.linspace(0.5, 3.0, 32)
        for _ in range(20):
            count = int(rng.integers(3, 10))
            entries = random_symmetric(rng, count)
            n = count - 1
            ev = build_evaluator(entries)
            assert monotonicity_certificate(entries).kind is CertificateKind.SYMMETRIC
            assert verify_sign(ev, n + 1, 0.0, 3.0, grid=512).status == "nonnegative"
            for x in xs:
                for k in range(0, n // 2 + 1):
                    h = hankel_matrix(ev, k, float(x))
                    assert is_positive_definite(h, 0.0), (entries, k, x)
                    for _ in range(10):
                        p = rng.standard_normal(k + 1)
                        quad_form = float(p @ h.entries @ p)
                        poly_val = float(np.polyval(p[::-1], x))
                        assert quad_form > poly_val**2 - 1e-9, (entries, k, x)


def test_criterion_6_moment_transform_end_to_end():
    with criterion(6, "measure transform, verification and recovery"):
        ev = build_evaluator([0, 1, -1])
        cases = [
            Measure.from_atoms([(1.0, 1.0)], (0.0, 1.0)),
            Measure.from_density(lambda x: 1.0, (0.0, 1.0)),
        ]
        for mu in cases:
            s = transform(ev, mu)
            assert s.hypothesis_certified
            assert hausdorff_check(s).passed
            nu = recover_measure(s)
            assert all(-1e-8 <= x <= 1 + 1e-8 for x, _ in nu.atoms)
            assert all(w >= 0 for _, w in nu.atoms)
            for k, want in enumerate(s.values):
                got = sum(w * x**k for x, w in nu.atoms)
                assert abs(got - want) <= 1e-8, (mu.kind, k)


def test_criterion_7_negative_controls():
    with criterion(7, "negative controls for the decaying two-frequency vector"):
        entries = [-1, -2]
        assert check_necessary(entries) is False

        cert = monotonicity_certificate(entries)
        assert cert.kind is CertificateKind.NONE
        assert cert.derivative_zero is not None
        ev = build_evaluator(entries)
        assert abs(eval_derivative(ev, 1, cert.derivative_zero)) <= 1e-9

        assert not is_positive_definite(hankel_matrix(ev, 1, 1.0))

        witness = None
        with pytest.warns(UserWarning):
            for spot in np.linspace(0.05, 1.5, 30):
                mu = Measure.from_atoms([(float(spot), 1.0)], (0.0, 1.5))
                if not hausdorff_check(transform(ev, mu)).passed:
                    witness = float(spot)
                    break
        assert witness is not None
        print(f"  recorded failing unit atom at x={witness}")


def test_criterion_8_oracle_equivalence():
    with criterion(8, "evaluator versus independent oracles, 100 vectors"):
        rng = np.random.default_rng(104)
        for _ in range(100):
            n = int(rng.integers(0, 7))
            entries = random_distinct_real(rng, n)
            ev = build_evaluator(entries)
            for m in range(0, n + 4):
                for x in rng.uniform(-3, 3, size=2):
                    direct = eval_derivative(ev, m, float(x))
                    pf = eval_via_partial_fractions(entries, m, float(x))
                    assert abs(direct - pf.real) <= 1e-9 * (1 + max(abs(direct), abs(pf)))
            for m in range(0, n + 2):
                x = float(rng.uniform(-0.2, 0.2))
                ts = eval_via_taylor(entries, m, x, terms=80)
                assert abs(eval_derivative(ev, m, x) - ts.real) <= 1e-10
