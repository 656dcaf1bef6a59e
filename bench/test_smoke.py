"""Smoke test of the benchmark: every workload, its reference check and its traced run.

Runs at tiny sizes (``--smoke``: small pools, a 64-point sign grid, one
set-up probe), so it finishes in well under a minute:

    python -m pytest bench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ["bench/run.py", "--seed", "1", "--seconds", "0.5"]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(RUN + ["--workload", workload, "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(RUN + ["--workload", "scan", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _ok_or(verdict, defect):
    return verdict == "ok" or verdict.startswith(f"known:{defect}:")


def test_checks_flag_wrong_results_and_known_defects():
    import workloads as W

    # Documented defects may be fixed later; their tasks must then check OK.
    scan = W.SignScan([-5.0, -10.0, -15.0], 1, 5.0, 12.0, 1)
    scan.bind()
    assert _ok_or(scan.check(scan.run(), None), "sign_abs_tol")
    positive = W.SignScan([-5.0, -10.0, -15.0], 0, 5.0, 12.0, 1)
    assert positive.check_fields("nonnegative", None, None, 4096) == W.OK
    assert positive.check_fields("violated", 5.0, None, 4096).startswith("fail")

    ratio = W.TuranQuery([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0], 0.05)
    ratio.bind()
    try:
        value, error = ratio.run(), None
    except ArithmeticError as exc:
        value, error = None, exc
    assert _ok_or(ratio.check(value, error), "ratio_guard")
    refusal = ArithmeticError("value (1+1e-6j) has a material imaginary part although ...")
    assert W.raised(refusal).startswith("known:real_projection")
    assert W.raised(ValueError("other")).startswith("fail")

    point = W.EvalQuery([-1.0, -2.0], 1, 0.7)
    point.bind()
    value = point.run()
    assert point.check(value, None) == W.OK
    assert point.check(value * (1 + 1e-7), None).startswith("fail")


def test_tracing_rebinds_imported_copies():
    import expfun.inequalities
    import spans

    original = expfun.inequalities.eval_derivative
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert expfun.inequalities.eval_derivative is not original
        expfun.inequalities.verify_sign(expfun.build_evaluator([-1.0, -2.0]), 2, 0.0, 3.0, grid=64)
    finally:
        uninstall()
    assert expfun.inequalities.eval_derivative is original
    edges = {(p, c): n for p, c, n in tracer.snapshot()["edges"]}
    assert edges[("inequalities.verify_sign", "fundamental.eval_derivative")] >= 64


def test_statistics_count_slots_not_executions():
    import hostspeed
    import run

    class Slot:
        kind = "probe"

        def __init__(self, verdicts):
            self.verdicts = iter(verdicts)

        def check(self, value, error):
            return next(self.verdicts)

    a, b = Slot(["ok"] * 3), Slot(["ok", "known:sign_abs_tol: below tol"])
    loop = run.Loop()
    loop.outcomes = [(t, None, None) for t in (a, b, a, b, a)]
    loop.durations = [1.0, 4.0, 3.0, 6.0, 2.0]
    counts, failures = run.check_all([loop])
    assert dict(counts) == {"ok": 1, "known:sign_abs_tol": 1} and failures == []
    assert run.slot_medians(loop.durations, loop.outcomes) == [2.0, 5.0]
    times = run.task_times(loop.durations, loop)
    assert times["task_s_p50"] == 3.5 and times["tasks_per_s"] == 2 / 7
    # 5 tasks: the tail is beyond p20, i.e. the top 1.6 slots' worth
    assert times["task_s_tail"] == pytest.approx((5.0 + 0.6 * 2.0) / 1.6)
    assert hostspeed.scales([2.0, 4.0], [0, 1], 3.0) == [1.0, 0.75]
