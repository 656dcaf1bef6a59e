"""Command-line front end.

``expfun <eval|verify|hankel|turan|moments|certify> --config <path>`` reads a
single JSON configuration, runs the corresponding library routine, and writes
a CSV table (default) or a JSON report to stdout or ``--out``.  Floats are
printed in their shortest round-trip form, so identical configurations give
byte-identical output.

Each command is a ``_cmd_*`` function whose parameters are its config keys:
a parameter without a default is a required key, one with a default an
optional key.  ``_KEYS`` maps every key to the parser that checks its JSON
value, and ``_arguments`` checks a configuration against a command and calls
it.

Layers load on first use.  The module imports only ``frequencies`` and
``fundamental``, all that ``eval`` runs; each command and config parser
imports the library names it calls.  So ``inequalities`` loads for
``verify``, ``hankel``, ``turan``, ``certify`` and ``moments``, and
``moments`` and ``quadrature`` load for ``moments`` alone.

Exit codes: 0 success (negative findings included), 1 a check failed under
``--assert``, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import io
import json
import math
import sys
import warnings

import numpy as np

from .frequencies import FrequencyVector, check_necessary
from .fundamental import build_evaluator, derivative_grid, derivative_table

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
    if isinstance(value, list):  # certificate pairs [[i, j], ...] as "i-j;..."
        return ";".join(f"{i}-{j}" for i, j in value)
    return str(value)


def _number(raw):
    """A finite JSON number, not a bool, kept as written."""
    if type(raw) not in (int, float) or not abs(raw) <= sys.float_info.max:
        raise ConfigError(f"{raw!r} is not a finite number")
    return raw


def _integer(least: int):
    def parse(raw) -> int:
        if type(raw) is not int or raw < least:
            raise ConfigError(f"must be an integer >= {least}")
        return raw
    return parse


def _sign(raw) -> int:
    if type(raw) is not int or raw not in (1, -1):
        raise ConfigError("must be 1 or -1")
    return raw


def _frequencies(raw) -> FrequencyVector:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("must be a nonempty list of reals and [re, im] pairs")
    entries = [complex(*map(_number, v)) if isinstance(v, list) and len(v) == 2
               else complex(_number(v)) for v in raw]
    try:
        return FrequencyVector(tuple(entries))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _interval(raw) -> tuple:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError("must be [lo, hi]")
    lo, hi = (float(_number(v)) for v in raw)
    if lo > hi:
        raise ConfigError(f"bad interval [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"width hi - lo overflows the float range, got [{lo}, {hi}]")
    return lo, hi


def _measure(raw) -> Measure:
    from .moments import Measure

    if not isinstance(raw, dict) or raw.get("kind") not in ("atoms", "density"):
        raise ConfigError("must be an object whose 'kind' is 'atoms' or 'density'")
    field = "atoms" if raw["kind"] == "atoms" else "expr"
    if set(raw) != {"kind", "support", field}:
        raise ConfigError(f"{raw['kind']} measure needs exactly kind/support/{field}")
    try:
        support = tuple(map(_number, raw["support"]))
        if field == "atoms":
            return Measure.from_atoms([(_number(x), _number(w)) for x, w in raw["atoms"]], support)
        return Measure.from_density(_builtin_density(raw["expr"], float(support[0])), support)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad {raw['kind']} measure: {exc}") from exc


def _builtin_density(expr, origin):
    """Named densities in t = x - origin: uniform, truncexp(rate), poly(c0,c1,...)."""
    from .inequalities import PolynomialCoeffs

    if not isinstance(expr, str):
        raise ConfigError("'expr' must be a string")
    name = expr.strip()
    if name == "uniform":
        return lambda x: 1.0
    if name.startswith("truncexp(") and name.endswith(")"):
        rate = _number(float(name[len("truncexp("):-1]))
        return lambda x, r=rate, a=origin: math.exp(-r * (x - a))
    if name.startswith("poly(") and name.endswith(")"):
        poly = PolynomialCoeffs([_number(float(c)) for c in name[len("poly("):-1].split(",")])
        return lambda x: poly(x - origin)
    raise ConfigError(f"unknown density expression {expr!r}; "
                      "use uniform, truncexp(rate) or poly(c0,c1,...)")


_KEYS = {
    "frequencies": _frequencies,
    "interval": _interval,
    "m": _integer(0),
    "k": _integer(0),
    "samples": _integer(1),
    "grid": _integer(64),
    "sign": _sign,
    "measure": _measure,
}


def _arguments(command, config: dict):
    """Check the config keys against the command's parameters, parse them, call it."""
    params = inspect.signature(command).parameters
    missing = {key for key, p in params.items() if p.default is p.empty} - set(config)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    unknown = set(config) - set(params)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, raw in config.items():
        try:
            kwargs[key] = _KEYS[key](raw)
        except ConfigError as exc:
            raise ConfigError(f"'{key}': {exc}") from None
    return command(**kwargs)


# ---------------------------------------------------------------------------
# Commands.  Parameters are config keys, already parsed.  Each returns
# (payload, violated) where payload carries either "columns"/"rows" (table)
# or report fields, and violated drives --assert; ``main`` puts the command's
# name first.
# ---------------------------------------------------------------------------

def _cmd_eval(frequencies, interval, m=0, samples=65):
    lo, hi = interval
    ev = build_evaluator(frequencies)
    xs = np.linspace(lo, hi, samples)
    values = derivative_grid(ev, lo, hi, samples, m)[:, m]
    rows = [[float(x), float(v)] for x, v in zip(xs, values)]
    payload = {
        "m": m,
        "columns": ["x", "value"],
        "rows": rows,
    }
    return payload, False


# grid=4096 is inequalities.DEFAULT_GRID, written out because a default is evaluated at import.
def _cmd_verify(frequencies, m, interval, grid=4096, sign=1):
    from .inequalities import verify_sign

    lo, hi = interval
    if not lo < hi:
        raise ConfigError(f"bad interval [{lo}, {hi}]")
    ev = build_evaluator(frequencies)
    rep = verify_sign(ev, m, lo, hi, grid=grid, sign=sign)
    payload = {
        "m": m,
        "interval": [lo, hi],
        "sign": sign,
        "status": rep.status,
        "witness": rep.witness,
        "boundary": rep.boundary,
        "samples": rep.samples,
    }
    return payload, rep.status == "violated"


def _cmd_hankel(frequencies, k, interval, samples=129):
    if 2 * k > frequencies.n + 1:
        raise ConfigError(f"k={k} too large for {frequencies.n + 1} frequencies (need 2k <= n + 1)")
    from .inequalities import _hankel, _refine_sign_change, _scaled, is_positive_definite

    lo, hi = interval
    ev = build_evaluator(frequencies)
    xs = np.linspace(lo, hi, samples)
    top = max(frequencies.n, 2 * k)
    mats = _hankel(_scaled(derivative_grid(ev, lo, hi, samples, top)), k + 1)
    rows = [[float(x), float(det), is_positive_definite(h)]
            for x, det, h in zip(xs, np.linalg.det(mats), mats)]

    # Refined abscissae where the determinant changes sign, by secant steps from the cell
    # ends; a probe returns one determinant per abscissa.
    det_at = lambda ts: np.linalg.det(
        _hankel(_scaled(derivative_table(ev, ts, top)), k + 1))[:, None]
    sign_changes = [_refine_sign_change(det_at, x0, x1, (d0,), (d1,))
                    for (x0, d0, _), (x1, d1, _) in zip(rows, rows[1:])
                    if (d0 < 0.0) != (d1 < 0.0)]
    payload = {
        "k": k,
        "columns": ["x", "det", "positive_definite"],
        "rows": rows,
        "sign_changes": sign_changes,
    }
    return payload, any(not row[2] for row in rows)


def _cmd_turan(frequencies, interval, samples=65):
    if frequencies.n < 2:
        raise ConfigError("ratio bounds need at least three frequencies (n >= 2)")
    from .inequalities import _turan_ratios

    lo, hi = interval
    ev = build_evaluator(frequencies)
    upper = frequencies.n / (frequencies.n - 1)
    xs = np.linspace(lo, hi, samples)
    ratios = _turan_ratios(derivative_grid(ev, lo, hi, samples, 2), xs)
    rows = [[float(x), float(ratio), 1.0, upper] for x, ratio in zip(xs, ratios)]
    violated = any(
        x > 0 and not (1.0 - 1e-9 <= ratio < upper + 1e-9) for x, ratio, _, _ in rows
    )
    payload = {
        "columns": ["x", "ratio", "lower", "upper"],
        "rows": rows,
    }
    return payload, violated


def _cmd_moments(frequencies, measure):
    from .moments import hausdorff_check, recover_measure, transform

    ev = build_evaluator(frequencies)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = transform(ev, measure)
    report = hausdorff_check(seq)

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
            pass
    payload = {
        "sequence": list(seq.values),
        "support": [seq.origin, seq.origin + seq.support_length],
        "hypothesis_certified": seq.hypothesis_certified,
        "conditions": [dataclasses.asdict(c) for c in report.conditions],
        "passed": report.passed,
        "recovered": recovered,
        "atoms": atoms,
        "residuals": residuals,
    }
    return payload, not recovered  # recovery runs only on a passed check


def _cmd_certify(frequencies):
    from .inequalities import CertificateKind, monotonicity_certificate

    cert = monotonicity_certificate(frequencies)
    necessary = check_necessary(frequencies)
    payload = {
        "kind": cert.kind.value,
        "rounds": cert.rounds,
        "pairs": [list(p) for p in cert.pairs],
        "nonnegative_index": cert.nonnegative_index,
        "derivative_zero": cert.derivative_zero,
        "frequency_sum": sum(v.real for v in frequencies.entries),
        "necessary": necessary,
    }
    return payload, cert.kind is CertificateKind.NONE or not necessary


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

#: CSV header, and the payload fields of its one row, of the report commands.
_CSV_REPORTS = {
    "verify": ["status", "witness", "boundary", "samples"],
    "certify": ["kind", "rounds", "pairs", "nonnegative_index",
                "derivative_zero", "frequency_sum", "necessary"],
}


def _moment_records(payload: dict) -> list:
    rows = [["moment", k, v] for k, v in enumerate(payload["sequence"])]
    rows.append(["hypothesis_certified", "", payload["hypothesis_certified"]])
    rows += [["condition", c["label"], c["passed"]] for c in payload["conditions"]]
    rows += [["passed", "", payload["passed"]], ["recovered", "", payload["recovered"]]]
    if payload["atoms"]:
        for i, (x, w) in enumerate(payload["atoms"]):
            rows += [["atom_location", i, x], ["atom_weight", i, w]]
        rows += [["residual", k, r] for k, r in enumerate(payload["residuals"])]
    return rows


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _render_csv(payload: dict) -> str:
    import csv

    if "rows" in payload:
        header, rows = payload["columns"], payload["rows"]
    elif payload["command"] in _CSV_REPORTS:
        header = _CSV_REPORTS[payload["command"]]
        rows = [[payload[key] for key in header]]
    else:
        header, rows = ["record", "index", "value"], _moment_records(payload)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
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
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
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
        # Overflow surfaces as the library's OverflowError; numpy's warning would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            payload, violated = _arguments(_COMMANDS[args.command], config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"expfun: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"expfun: numerical failure: {exc}", file=sys.stderr)
        return 3

    payload = {"command": args.command, **payload}
    text = _render_json(payload) if args.format == "json" else _render_csv(payload)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
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
