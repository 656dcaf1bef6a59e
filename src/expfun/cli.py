"""Command-line front end.

``expfun <eval|verify|hankel|turan|moments|certify> --config <path>`` reads a
single JSON configuration, runs the corresponding library routine, and writes
a CSV table (default) or a JSON report to stdout or ``--out``.  Floats are
printed in their shortest round-trip form, so identical configurations give
byte-identical output.

Exit codes: 0 success (negative findings included), 1 a check failed under
``--assert``, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from .frequencies import FrequencyVector, check_necessary
from .fundamental import build_evaluator, derivative_grid
from .inequalities import (
    CertificateKind,
    DEFAULT_GRID,
    _bisect_predicate,
    hankel_matrix,
    is_positive_definite,
    monotonicity_certificate,
    turan_ratio,
    verify_sign,
)
from .moments import Measure, hausdorff_check, recover_measure, transform

__all__ = ["main", "console_main"]


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configurations."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_frequencies(raw) -> FrequencyVector:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'frequencies' must be a nonempty list")
    entries = []
    for item in raw:
        if isinstance(item, (int, float)):
            entries.append(complex(item))
        elif (isinstance(item, list) and len(item) == 2
              and all(isinstance(c, (int, float)) for c in item)):
            entries.append(complex(item[0], item[1]))
        else:
            raise ConfigError(f"frequency entry {item!r} is neither a real nor a [re, im] pair")
    try:
        return FrequencyVector(tuple(entries))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require_keys(config: dict, required: set, optional: set) -> None:
    keys = set(config)
    missing = required - keys
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _interval(config, lo_lt_hi=False):
    iv = config["interval"]
    if (not isinstance(iv, list) or len(iv) != 2
            or not all(isinstance(v, (int, float)) for v in iv)):
        raise ConfigError("'interval' must be [lo, hi]")
    lo, hi = float(iv[0]), float(iv[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"interval bounds must be finite, got [{lo}, {hi}]")
    if lo > hi or (lo_lt_hi and not lo < hi):
        raise ConfigError(f"bad interval [{lo}, {hi}]")
    return lo, hi


def _positive_int(config, key, default):
    value = config.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"'{key}' must be a positive integer")
    return value


def _default_grid() -> int:
    raw = os.environ.get("EXPFUN_GRID")
    if raw is None:
        return DEFAULT_GRID
    try:
        grid = int(raw)
    except ValueError as exc:
        raise ConfigError(f"EXPFUN_GRID={raw!r} is not an integer") from exc
    if grid < 64:
        raise ConfigError("EXPFUN_GRID must be at least 64")
    return grid


def _parse_measure(raw) -> Measure:
    if not isinstance(raw, dict):
        raise ConfigError("'measure' must be an object")
    keys = set(raw)
    if raw.get("kind") == "atoms":
        if keys != {"kind", "support", "atoms"}:
            raise ConfigError("atomic measure needs exactly kind/support/atoms")
        try:
            return Measure.from_atoms([(x, w) for x, w in raw["atoms"]], tuple(raw["support"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad atomic measure: {exc}") from exc
    if raw.get("kind") == "density":
        if keys != {"kind", "support", "expr"}:
            raise ConfigError("density measure needs exactly kind/support/expr")
        try:
            support = tuple(raw["support"])
            density = _builtin_density(raw["expr"], float(support[0]))
            return Measure.from_density(density, support)
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad density measure: {exc}") from exc
    raise ConfigError("measure 'kind' must be 'atoms' or 'density'")


def _builtin_density(expr, origin):
    """Named densities in t = x - origin: uniform, truncexp(rate), poly(c0,c1,...)."""
    if not isinstance(expr, str):
        raise ConfigError("'expr' must be a string")
    name = expr.strip()
    if name == "uniform":
        return lambda x: 1.0
    if name.startswith("truncexp(") and name.endswith(")"):
        rate = float(name[len("truncexp("):-1])
        return lambda x, r=rate, a=origin: math.exp(-r * (x - a))
    if name.startswith("poly(") and name.endswith(")"):
        coeffs = [float(c) for c in name[len("poly("):-1].split(",")]
        if not coeffs:
            raise ConfigError("poly density needs coefficients")

        def density(x, cs=tuple(coeffs), a=origin):
            acc = 0.0
            for c in reversed(cs):
                acc = acc * (x - a) + c
            return acc

        return density
    raise ConfigError(f"unknown density expression {expr!r}; "
                      "use uniform, truncexp(rate) or poly(c0,c1,...)")


# ---------------------------------------------------------------------------
# Commands.  Each returns (payload, violated) where payload carries either
# "columns"/"rows" (table) or report fields, and violated drives --assert.
# ---------------------------------------------------------------------------

_COMMON_OPTIONAL = {"output"}


def _cmd_eval(config):
    _require_keys(config, {"frequencies", "interval"}, {"m", "samples"} | _COMMON_OPTIONAL)
    freq = _parse_frequencies(config["frequencies"])
    m = config.get("m", 0)
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ConfigError("'m' must be a nonnegative integer")
    lo, hi = _interval(config)
    samples = _positive_int(config, "samples", 65)
    ev = build_evaluator(freq)
    xs = np.linspace(lo, hi, samples)
    values = derivative_grid(ev, lo, hi, samples, m)[:, m]
    rows = [[float(x), float(v)] for x, v in zip(xs, values)]
    payload = {
        "command": "eval",
        "m": m,
        "columns": ["x", "value"],
        "rows": rows,
    }
    return payload, False


def _cmd_verify(config):
    _require_keys(config, {"frequencies", "m", "interval"},
                  {"grid", "tol", "sign"} | _COMMON_OPTIONAL)
    freq = _parse_frequencies(config["frequencies"])
    m = config["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ConfigError("'m' must be a nonnegative integer")
    lo, hi = _interval(config, lo_lt_hi=True)
    grid = config.get("grid", _default_grid())
    if not isinstance(grid, int) or isinstance(grid, bool) or grid < 64:
        raise ConfigError("'grid' must be an integer >= 64")
    tol = config.get("tol", 1e-10)
    if not isinstance(tol, (int, float)) or tol < 0:
        raise ConfigError("'tol' must be a nonnegative number")
    sign = config.get("sign", 1)
    if sign not in (1, -1):
        raise ConfigError("'sign' must be 1 or -1")
    ev = build_evaluator(freq)
    rep = verify_sign(ev, m, lo, hi, grid=grid, tol=float(tol), sign=sign)
    payload = {
        "command": "verify",
        "m": m,
        "interval": [lo, hi],
        "sign": sign,
        "status": rep.status,
        "witness": rep.witness,
        "boundary": rep.boundary,
        "samples": rep.samples,
    }
    return payload, rep.status == "violated"


def _cmd_hankel(config):
    _require_keys(config, {"frequencies", "k", "interval"},
                  {"samples", "tol"} | _COMMON_OPTIONAL)
    freq = _parse_frequencies(config["frequencies"])
    k = config["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ConfigError("'k' must be a nonnegative integer")
    if 2 * k > freq.n + 1:
        raise ConfigError(f"k={k} too large for {freq.n + 1} frequencies (need 2k <= n + 1)")
    lo, hi = _interval(config)
    samples = _positive_int(config, "samples", 129)
    tol = config.get("tol", 0.0)
    if not isinstance(tol, (int, float)):
        raise ConfigError("'tol' must be a number")
    ev = build_evaluator(freq)
    xs = np.linspace(lo, hi, samples)
    rows = []
    dets = []
    for x in xs:
        h = hankel_matrix(ev, k, float(x))
        det = float(np.linalg.det(h.entries))
        dets.append(det)
        rows.append([float(x), det, is_positive_definite(h, float(tol))])

    # Bisection-refined abscissae where the determinant changes sign.
    sign_changes = []
    det_negative = lambda x: float(np.linalg.det(hankel_matrix(ev, k, x).entries)) < 0.0
    for i in range(1, len(xs)):
        a, b = dets[i - 1], dets[i]
        if (a < 0.0) != (b < 0.0):
            sign_changes.append(
                _bisect_predicate(det_negative, float(xs[i - 1]), float(xs[i]), a < 0.0)
            )
    payload = {
        "command": "hankel",
        "k": k,
        "columns": ["x", "det", "positive_definite"],
        "rows": rows,
        "sign_changes": sign_changes,
    }
    return payload, any(not row[2] for row in rows)


def _cmd_turan(config):
    _require_keys(config, {"frequencies", "interval"}, {"samples"} | _COMMON_OPTIONAL)
    freq = _parse_frequencies(config["frequencies"])
    if freq.n < 2:
        raise ConfigError("ratio bounds need at least three frequencies (n >= 2)")
    lo, hi = _interval(config)
    samples = _positive_int(config, "samples", 65)
    ev = build_evaluator(freq)
    upper = freq.n / (freq.n - 1)
    xs = np.linspace(lo, hi, samples)
    rows = [[float(x), turan_ratio(ev, float(x)), 1.0, upper] for x in xs]
    violated = any(
        x > 0 and not (1.0 - 1e-9 <= ratio < upper + 1e-9) for x, ratio, _, _ in rows
    )
    payload = {
        "command": "turan",
        "columns": ["x", "ratio", "lower", "upper"],
        "rows": rows,
    }
    return payload, violated


def _cmd_moments(config):
    _require_keys(config, {"frequencies", "measure"}, {"tol"} | _COMMON_OPTIONAL)
    freq = _parse_frequencies(config["frequencies"])
    mu = _parse_measure(config["measure"])
    tol = config.get("tol")
    if tol is not None and (not isinstance(tol, (int, float)) or tol < 0):
        raise ConfigError("'tol' must be a nonnegative number")
    ev = build_evaluator(freq)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = transform(ev, mu)
    report = hausdorff_check(seq, tol)

    atoms = None
    residuals = None
    recovered = False
    if report.passed:
        try:
            nu = recover_measure(seq)
            recovered = True
            atoms = [[x, w] for x, w in nu.atoms]
            residuals = []
            for kk, sk in enumerate(seq.values):
                got = sum(w * (x - seq.origin) ** kk for x, w in nu.atoms)
                residuals.append(abs(got - sk))
        except (ValueError, ArithmeticError):
            recovered = False
    payload = {
        "command": "moments",
        "sequence": list(seq.values),
        "support": [seq.origin, seq.origin + seq.support_length],
        "hypothesis_certified": seq.hypothesis_certified,
        "conditions": [
            {
                "label": c.label,
                "min_eigenvalue": c.min_eigenvalue,
                "threshold": c.threshold,
                "passed": c.passed,
            }
            for c in report.conditions
        ],
        "passed": report.passed,
        "recovered": recovered,
        "atoms": atoms,
        "residuals": residuals,
    }
    violated = not report.passed or (report.passed and not recovered)
    return payload, violated


def _cmd_certify(config):
    _require_keys(config, {"frequencies"}, _COMMON_OPTIONAL)
    freq = _parse_frequencies(config["frequencies"])
    cert = monotonicity_certificate(freq)
    necessary = check_necessary(freq)
    payload = {
        "command": "certify",
        "kind": cert.kind.value,
        "rounds": cert.rounds,
        "pairs": [list(p) for p in cert.pairs],
        "nonnegative_index": cert.nonnegative_index,
        "derivative_zero": cert.derivative_zero,
        "frequency_sum": sum(v.real for v in freq.entries),
        "necessary": necessary,
    }
    violated = cert.kind is CertificateKind.NONE or not necessary
    return payload, violated


_COMMANDS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "hankel": _cmd_hankel,
    "turan": _cmd_turan,
    "moments": _cmd_moments,
    "certify": _cmd_certify,
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _render_csv(payload: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    if "rows" in payload and "columns" in payload:
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_fmt(v) for v in row])
    elif payload["command"] == "verify":
        writer.writerow(["status", "witness", "boundary", "samples"])
        writer.writerow([_fmt(payload[k]) for k in ("status", "witness", "boundary", "samples")])
    elif payload["command"] == "certify":
        writer.writerow(["kind", "rounds", "pairs", "nonnegative_index",
                         "derivative_zero", "frequency_sum", "necessary"])
        pairs = ";".join(f"{i}-{j}" for i, j in payload["pairs"])
        writer.writerow([
            payload["kind"], _fmt(payload["rounds"]), pairs,
            _fmt(payload["nonnegative_index"]), _fmt(payload["derivative_zero"]),
            _fmt(payload["frequency_sum"]), _fmt(payload["necessary"]),
        ])
    elif payload["command"] == "moments":
        writer.writerow(["record", "index", "value"])
        for k, v in enumerate(payload["sequence"]):
            writer.writerow(["moment", str(k), _fmt(v)])
        writer.writerow(["hypothesis_certified", "", _fmt(payload["hypothesis_certified"])])
        for cond in payload["conditions"]:
            writer.writerow(["condition", cond["label"], _fmt(cond["passed"])])
        writer.writerow(["passed", "", _fmt(payload["passed"])])
        writer.writerow(["recovered", "", _fmt(payload["recovered"])])
        if payload["atoms"]:
            for i, (x, w) in enumerate(payload["atoms"]):
                writer.writerow(["atom_location", str(i), _fmt(x)])
                writer.writerow(["atom_weight", str(i), _fmt(w)])
            for k, r in enumerate(payload["residuals"]):
                writer.writerow(["residual", str(k), _fmt(r)])
    else:  # pragma: no cover - every command is handled above
        raise ValueError(f"no CSV renderer for {payload['command']!r}")
    return out.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expfun",
        description="Evaluate fundamental solutions of constant-coefficient ODE "
                    "operators and verify their inequalities.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--assert", dest="assert_mode", action="store_true",
                        help="exit 1 when the command reports a violation")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="output format (default csv)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        output_cfg = config.get("output", {})
        if output_cfg and (not isinstance(output_cfg, dict)
                           or not set(output_cfg) <= {"path", "format"}):
            raise ConfigError("'output' must be an object with keys path/format")
        payload, violated = _COMMANDS[args.command](config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"expfun: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"expfun: numerical failure: {exc}", file=sys.stderr)
        return 3

    fmt = args.format or output_cfg.get("format") or "csv"
    if fmt not in ("csv", "json"):
        print(f"expfun: config error: unknown format {fmt!r}", file=sys.stderr)
        return 2
    text = _render_json(payload) if fmt == "json" else _render_csv(payload)

    path = args.out or output_cfg.get("path")
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.assert_mode and violated:
        return 1
    return 0


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
