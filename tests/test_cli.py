"""Command-line interface: formats, determinism, exit codes."""

import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expfun
import expfun.cli
from expfun.cli import main
from expfun.inequalities import BISECTION_XTOL, DEFAULT_GRID


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_single_point_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "m": 0, "interval": [1, 1], "samples": 1,
        })
        code, out, _ = run(capsys, ["eval", "--config", cfg])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "value"]
        assert float(rows[1][1]) == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-12)

    def test_polynomial_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [0, 0], "interval": [0.5, 0.5], "samples": 1,
        })
        code, out, _ = run(capsys, ["eval", "--config", cfg])
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_vector_point(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, 1, 0, 1], "interval": [1, 1], "samples": 1,
        })
        code, out, _ = run(capsys, ["eval", "--config", cfg])
        expected = 0.5 * (math.exp(1) * (1 - 2) + math.sinh(1) + 2)
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(expected, abs=1e-12)

    def test_complex_pair_syntax(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [[0, 1], [0, -1]], "interval": [1, 1], "samples": 1,
        })
        code, out, _ = run(capsys, ["eval", "--config", cfg])
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(math.sin(1), abs=1e-12)


class TestVerify:
    def test_report_fields(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "m": 2, "interval": [0, 3],
        })
        code, out, _ = run(capsys, ["verify", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "violated"
        assert report["witness"] == 0.0
        assert report["boundary"] == pytest.approx(2 * math.log(2), abs=1e-9)
        assert report["samples"] == 4096

    def test_assert_mode_raises_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "m": 2, "interval": [0, 3],
        })
        code, _, _ = run(capsys, ["verify", "--config", cfg, "--assert"])
        assert code == 1

    def test_nonnegative_case(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, 1, 0, 1], "m": 4, "interval": [0, 4],
        })
        code, out, _ = run(capsys, ["verify", "--config", cfg, "--assert", "--format", "json"])
        assert code == 0
        assert json.loads(out)["status"] == "nonnegative"

    def test_default_grid_is_the_library_default(self):
        grid = inspect.signature(expfun.cli._cmd_verify).parameters["grid"].default
        assert grid == DEFAULT_GRID


class TestHankel:
    def test_sign_change_location(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "k": 1, "interval": [0, 3], "samples": 257,
        })
        code, out, _ = run(capsys, ["hankel", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert len(report["sign_changes"]) == 1
        assert report["sign_changes"][0] == pytest.approx(math.log(3 + math.sqrt(5)), abs=1e-9)

    def test_sign_change_takes_fewer_calls_than_bisection(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = expfun.cli.derivative_table
        monkeypatch.setattr(expfun.cli, "derivative_table",
                            lambda ev, xs, m: calls.append(xs) or original(ev, xs, m))
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "k": 1, "interval": [0, 3], "samples": 257,
        })
        code, out, _ = run(capsys, ["hankel", "--config", cfg, "--format", "json"])
        assert code == 0
        (flip,) = json.loads(out)["sign_changes"]
        assert flip == pytest.approx(math.log(3 + math.sqrt(5)), abs=BISECTION_XTOL)
        # Bisection halves the 3/256 cell down to the tolerance in 27 steps.
        bisection_steps = math.ceil(math.log2(3 / 256 / BISECTION_XTOL))
        assert 0 < len(calls) < bisection_steps

    def test_assert_mode_on_indefinite_samples(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "k": 1, "interval": [0.5, 1.0], "samples": 5,
        })
        code, _, _ = run(capsys, ["hankel", "--config", cfg, "--assert"])
        assert code == 1

    def test_half_order_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "k": 2, "interval": [0, 1], "samples": 5,
        })
        code, _, err = run(capsys, ["hankel", "--config", cfg])
        assert code == 2 and "k=2" in err

    def test_polynomial_case_is_singular_everywhere(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [0, 0, 0, 0, 0], "k": 2, "interval": [1, 1], "samples": 1,
        })
        code, out, _ = run(capsys, ["hankel", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        ((_, det, definite),) = report["rows"]
        assert abs(det) <= 1e-12 and definite is False
        assert report["sign_changes"] == []


class TestTuran:
    def test_probe_below_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, 1, 0, 1], "interval": [-0.6, -0.6], "samples": 1,
        })
        code, out, _ = run(capsys, ["turan", "--config", cfg])
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1.5387, abs=5e-4)
        assert float(row[2]) == 1.0
        assert float(row[3]) == pytest.approx(1.5)

    def test_band_scan_positive_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, 1, 0, 1], "interval": [0.0625, 3], "samples": 48,
        })
        code, out, _ = run(capsys, ["turan", "--config", cfg, "--assert"])
        assert code == 0
        for line in out.splitlines()[1:]:
            x, ratio, lower, upper = map(float, line.split(","))
            assert lower - 1e-9 <= ratio < upper + 1e-9

    def test_band_breaks_on_negative_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, 1, 0, 1], "interval": [-1, -0.015625], "samples": 64,
        })
        code, out, _ = run(capsys, ["turan", "--config", cfg])
        assert code == 0
        ratios = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert max(ratios) > 1.5

    def test_needs_three_frequencies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "interval": [1, 1], "samples": 1,
        })
        code, _, _ = run(capsys, ["turan", "--config", cfg])
        assert code == 2

    def test_undefined_ratio_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [0, 0, 0], "interval": [0, 1], "samples": 5,
        })
        code, _, err = run(capsys, ["turan", "--config", cfg])
        assert code == 3
        assert "numerical failure" in err


class TestMoments:
    def test_atom_measure_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [0, 1, -1],
            "measure": {"kind": "atoms", "support": [0, 1], "atoms": [[1.0, 1.0]]},
        })
        code, out, _ = run(capsys, ["moments", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["recovered"]
        assert report["sequence"][0] == pytest.approx(math.cosh(1), abs=1e-12)
        assert max(report["residuals"]) <= 1e-8

    def test_builtin_densities(self, tmp_path, capsys):
        for expr in ("uniform", "truncexp(1.5)", "poly(1,0.5)"):
            cfg = write_config(tmp_path, {
                "frequencies": [0, 1, -1],
                "measure": {"kind": "density", "support": [0, 1], "expr": expr},
            })
            code, out, _ = run(capsys, ["moments", "--config", cfg, "--format", "json"])
            assert code == 0, expr
            assert json.loads(out)["passed"], expr

    def test_density_expressions_are_origin_relative(self, tmp_path, capsys):
        # Identical measures on [0, 1] and on [2, 3] give identical sequences.
        results = []
        for support in ([0, 1], [2, 3]):
            cfg = write_config(tmp_path, {
                "frequencies": [0, 1, -1],
                "measure": {"kind": "density", "support": support, "expr": "truncexp(2.0)"},
            })
            code, out, _ = run(capsys, ["moments", "--config", cfg, "--format", "json"])
            assert code == 0
            results.append(json.loads(out)["sequence"])
        assert results[0] == pytest.approx(results[1], abs=1e-12)

    def test_failing_sequence_reported_not_fatal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2],
            "measure": {"kind": "atoms", "support": [0, 1.5], "atoms": [[1.0, 1.0]]},
        })
        code, out, _ = run(capsys, ["moments", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert not report["passed"]
        assert not report["hypothesis_certified"]
        code, _, _ = run(capsys, ["moments", "--config", cfg, "--assert"])
        assert code == 1

    def test_recovered_only_when_every_residual_is_small(self, tmp_path, capsys):
        # Zero frequencies give s_k = 10**(k+1) / (k+1) for the uniform density
        # on [0, 10]; the Gauss rule of these 18 moments loses rank and misses.
        cfg = write_config(tmp_path, {
            "frequencies": [0] * 18,
            "measure": {"kind": "density", "support": [0, 10], "expr": "uniform"},
        })
        code, out, _ = run(capsys, ["moments", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["sequence"] == pytest.approx([10.0 ** (k + 1) / (k + 1) for k in range(18)],
                                                   rel=1e-12)
        assert report["passed"] and not report["recovered"]
        assert report["atoms"] is None and report["residuals"] is None

    def test_extra_support_bound_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [0, 1, -1],
            "measure": {"kind": "atoms", "support": [0, 1, 7], "atoms": [[0.5, 1.0]]},
        })
        code, out, err = run(capsys, ["moments", "--config", cfg])
        assert code == 2 and out == "" and "two bounds" in err

    def test_unknown_density_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [0, 1, -1],
            "measure": {"kind": "density", "support": [0, 1], "expr": "gaussian"},
        })
        code, _, _ = run(capsys, ["moments", "--config", cfg])
        assert code == 2


class TestCertify:
    def test_negative_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"frequencies": [-1, -2]})
        code, out, _ = run(capsys, ["certify", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "none"
        assert report["necessary"] is False
        assert report["derivative_zero"] == pytest.approx(math.log(2), abs=1e-9)
        code, _, _ = run(capsys, ["certify", "--config", cfg, "--assert"])
        assert code == 1

    def test_symmetric_vector(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"frequencies": [-1, 0, 1]})
        code, out, _ = run(capsys, ["certify", "--config", cfg, "--assert", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "symmetric" and report["necessary"] is True

    def test_pair_chain_vector(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"frequencies": [-1, 3, -2]})
        code, out, _ = run(capsys, ["certify", "--config", cfg, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "pair_chain"
        assert report["rounds"] == 1
        ((i, j),) = report["pairs"]
        assert [-1, 3, -2][i] + [-1, 3, -2][j] >= 0


class TestHarness:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"frequencies": [-1, -2], "bogus": 1})
        code, _, err = run(capsys, ["certify", "--config", cfg])
        assert code == 2 and "bogus" in err

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, ["certify", "--config", "/nonexistent.json"])
        assert code == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["certify", "--config", str(path)])
        assert code == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # Non-conjugate-closed frequencies have no real-valued evaluation.
        cfg = write_config(tmp_path, {
            "frequencies": [[0, 1], [0, 0]], "interval": [1, 1], "samples": 1,
        })
        code, _, err = run(capsys, ["eval", "--config", cfg])
        assert code == 3 and "numerical failure" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_values_exit_code(self, tmp_path, capsys, fmt):
        # Values past the float range are a numerical failure, never printed as nan.
        cfg = write_config(tmp_path, {
            "frequencies": [0, 1000], "interval": [0.70, 0.712], "samples": 5,
        })
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, ["eval", "--config", cfg, "--format", fmt])
        assert code == 3 and "numerical failure" in err
        assert out == ""

    def test_overflow_prints_one_line(self, tmp_path):
        # A fresh interpreter with default warning filters: numpy's overflow
        # warning must not reach stderr ahead of the refusal.
        cfg = write_config(tmp_path, {
            "frequencies": [0, 1000], "interval": [0.70, 0.712], "samples": 5,
        })
        src = str(Path(expfun.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "expfun.cli", "eval", "--config", cfg],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == ("expfun: numerical failure: a derivative value is not finite "
                               "(inf or nan): past the float range\n")

    def test_non_finite_abscissa_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "interval": [math.nan, 1.0], "samples": 3,
        })
        code, _, err = run(capsys, ["eval", "--config", cfg])
        assert code == 2 and "finite" in err

    @pytest.mark.parametrize("command, config", [
        ("eval", {"frequencies": [-1, -2], "interval": [0.0, math.inf], "samples": 3}),
        ("verify", {"frequencies": [-1, -2], "m": 2, "interval": [-math.inf, 3.0], "grid": 64}),
        ("hankel", {"frequencies": [-1, -2], "k": 1, "interval": [0.0, math.nan]}),
        ("turan", {"frequencies": [-1, -2, -3], "interval": [-math.inf, math.inf]}),
    ], ids=["eval", "verify", "hankel", "turan"])
    def test_non_finite_interval_is_config_error(self, tmp_path, capsys, command, config):
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, config)])
        assert code == 2 and out == "" and "config error" in err and "finite" in err

    @pytest.mark.parametrize("command, config", [
        ("eval", {"frequencies": [-1, -2], "interval": [-1e308, 1e308], "samples": 3}),
        ("verify", {"frequencies": [-1, -2], "m": 2, "interval": [-1.7976931348623157e308, 1e300]}),
    ], ids=["eval", "verify"])
    def test_overflowing_interval_width_is_config_error(self, tmp_path, capsys, command, config):
        # Both ends are finite but hi - lo is not: a config error (exit 2), not a
        # numerical failure (exit 3) from the grid.
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, config)])
        assert code == 2 and out == "" and "config error" in err and "width" in err

    @pytest.mark.parametrize("command, config", [
        ("verify", {"frequencies": [-1, -2], "m": 2, "interval": [0, 3], "tol": math.nan}),
        ("verify", {"frequencies": [-1, -2], "m": 2, "interval": [0, 3], "tol": True}),
        ("eval", {"frequencies": [-1, -2], "interval": [False, True], "samples": 3}),
        ("certify", {"frequencies": [True, -1]}),
        ("hankel", {"frequencies": [-1, -2], "k": 1, "interval": [0, 3], "tol": -1}),
        ("moments", {"frequencies": [0, 1, -1],
                     "measure": {"kind": "density", "support": [0, math.inf], "expr": "uniform"}}),
        ("moments", {"frequencies": [0, 1, -1],
                     "measure": {"kind": "atoms", "support": [0, 1], "atoms": [[0.5, math.nan]]}}),
    ], ids=["tol_nan", "tol_bool", "interval_bool", "frequency_bool", "hankel_tol_negative",
            "support_inf", "weight_nan"])
    def test_config_numbers_are_finite_and_not_booleans(self, tmp_path, capsys, command, config):
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, config)])
        assert code == 2 and out == "" and "config error" in err

    def test_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "k": 1, "interval": [0, 3], "samples": 33,
        })
        outputs = set()
        for fmt in ("csv", "json"):
            runs = []
            for _ in range(2):
                code, out, _ = run(capsys, ["hankel", "--config", cfg, "--format", fmt])
                assert code == 0
                runs.append(out)
            assert runs[0] == runs[1]
            outputs.add(runs[0])
        assert len(outputs) == 2

    def test_json_reports_reparse(self, tmp_path, capsys):
        configs = {
            "eval": {"frequencies": [-1, -2], "interval": [0, 1], "samples": 3},
            "verify": {"frequencies": [-1, -2], "m": 2, "interval": [0, 3], "grid": 64},
            "hankel": {"frequencies": [-1, -2], "k": 1, "interval": [0, 2], "samples": 5},
            "turan": {"frequencies": [-1, 1, 0, 1], "interval": [1, 2], "samples": 3},
            "moments": {
                "frequencies": [0, 1, -1],
                "measure": {"kind": "atoms", "support": [0, 1], "atoms": [[0.5, 1.0]]},
            },
            "certify": {"frequencies": [-1, 0, 1]},
        }
        for command, payload in configs.items():
            cfg = write_config(tmp_path, payload, name=f"{command}.json")
            code, out, _ = run(capsys, [command, "--config", cfg, "--format", "json"])
            assert code == 0, command
            assert next(iter(json.loads(out).items())) == ("command", command)

    def test_csv_is_rfc4180(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "frequencies": [-1, -2], "interval": [0, 1], "samples": 3,
        })
        code, out, _ = run(capsys, ["eval", "--config", cfg])
        assert code == 0
        assert "\r\n" in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "value"]
        assert all(len(r) == 2 for r in rows[1:])

    def test_output_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"frequencies": [-1, 0, 1]})
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, [
            "certify", "--config", cfg, "--format", "json", "--out", str(target),
        ])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["kind"] == "symmetric"

    @pytest.mark.parametrize("output", [
        {"path": 7}, {"path": ""}, {"path": None}, {"format": "xml"}, {"format": None}, [],
        {"path": "x.csv", "mode": "w"},
    ], ids=["path_int", "path_empty", "path_null", "format_xml", "format_null", "not_object",
            "unknown_key"])
    def test_bad_output_is_config_error_before_the_command_runs(self, tmp_path, capsys, output):
        # Without the output object this config is a numerical failure (exit 3):
        # the vector is not conjugate-closed.
        cfg = write_config(tmp_path, {
            "frequencies": [[0, 1], [0, 0]], "interval": [1, 1], "samples": 1, "output": output,
        })
        code, out, err = run(capsys, ["eval", "--config", cfg])
        assert code == 2 and out == "" and "config error" in err and "output" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_output_settings_from_config(self, tmp_path, capsys):
        target = tmp_path / "from_config.json"
        cfg = write_config(tmp_path, {
            "frequencies": [-1, 0, 1],
            "output": {"path": str(target), "format": "json"},
        })
        code, out, _ = run(capsys, ["certify", "--config", cfg])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["command"] == "certify"


class TestImportGraph:
    def test_cli_import_loads_no_scipy(self):
        # A fresh interpreter, with the package directory first on PYTHONPATH.
        src = str(Path(expfun.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        probe = ("import sys, expfun.cli; "
                 "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_package_reexports_each_layer_all(self):
        layers = [expfun.frequencies, expfun.fundamental, expfun.inequalities, expfun.moments]
        expected = [name for layer in layers for name in layer.__all__] + ["__version__"]
        assert expfun.__all__ == expected
        assert len(set(expected)) == len(expected)
        for layer in layers:
            for name in layer.__all__:
                assert getattr(expfun, name) is getattr(layer, name), name
        namespace = {}
        exec("from expfun import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(expfun.__all__)

    def test_package_surface(self, monkeypatch):
        assert set(expfun.__all__) <= set(dir(expfun))
        assert expfun.quadrature is sys.modules["expfun.quadrature"]
        assert expfun.cli is sys.modules["expfun.cli"]
        assert not hasattr(expfun, "no_such_name")
        # A public name is looked up in its layer on every access, not cached at the first.
        assert expfun.build_evaluator is expfun.fundamental.build_evaluator
        monkeypatch.setattr(expfun.fundamental, "build_evaluator", None)
        assert expfun.build_evaluator is None

    def test_package_follows_a_layer_all(self, monkeypatch):
        # A name that leaves its layer's __all__ leaves the package, also after a first read.
        assert expfun.transform is expfun.moments.transform
        monkeypatch.setattr(expfun.moments, "__all__",
                            [name for name in expfun.moments.__all__ if name != "transform"])
        with pytest.raises(AttributeError):
            expfun.transform
        assert "transform" not in expfun.__all__


#: Configs of the six commands, small enough to run in a fresh interpreter each.
COMMAND_CONFIGS = {
    "eval": {"frequencies": [-1, -2, 0.5], "m": 1, "interval": [-2, 3], "samples": 9},
    "verify": {"frequencies": [-1, -2], "m": 0, "interval": [0, 3]},
    "hankel": {"frequencies": [-1, -2], "k": 1, "interval": [0, 3], "samples": 9},
    "turan": {"frequencies": [-1, -2, 0.5], "interval": [0.5, 2], "samples": 9},
    "certify": {"frequencies": [-1, 1]},
    "moments": {"frequencies": [-1, 0, 1], "measure": {
        "kind": "density", "support": [0, 1], "expr": "truncexp(2)"}},
}

BASE = ["frequencies", "fundamental"]


def loaded_layers(code: str) -> list:
    """The expfun submodules a fresh interpreter has loaded after running ``code``."""
    src = str(Path(expfun.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = code + ("\nimport sys\n"
                    "print(*sorted(m[7:] for m in sys.modules if m.startswith('expfun.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("code, layers", [
    ("import expfun", []),
    ("import expfun; expfun.build_evaluator", BASE),
    ("import expfun; expfun.quadrature", ["quadrature"]),
    ("import expfun; expfun.cli", ["cli", *BASE]),
    ("import expfun.cli", ["cli", *BASE]),
], ids=["package", "fundamental_name", "quadrature_attribute", "cli_attribute", "cli"])
def test_import_loads_only_what_it_names(code, layers):
    assert loaded_layers(code) == layers


@pytest.mark.parametrize("command, layers", [
    ("eval", ["cli", *BASE]),
    ("verify", ["cli", *BASE, "inequalities"]),
    ("hankel", ["cli", *BASE, "inequalities"]),
    ("turan", ["cli", *BASE, "inequalities"]),
    ("certify", ["cli", *BASE, "inequalities"]),
    ("moments", ["cli", *BASE, "inequalities", "moments", "quadrature"]),
])
def test_each_command_loads_only_the_layers_it_runs(tmp_path, command, layers):
    cfg = write_config(tmp_path, COMMAND_CONFIGS[command])
    out = str(tmp_path / "out.csv")
    code = f"from expfun.cli import main; assert main([{command!r}, '--config', {cfg!r}, " \
           f"'--out', {out!r}]) == 0"
    assert loaded_layers(code) == layers
