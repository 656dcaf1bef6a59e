"""Benchmark harness for expfun.

    python3 bench/run.py --workload {scan,pointwise,cli} --seed N --seconds S --trace {0,1}

One single-threaded closed-loop caller runs the workload's task pool in order
for S seconds, and for at least one pass over the pool: the next task starts
when the previous one has finished.  Inputs come from the seed; references
for them are computed before any timing starts, and every result is checked
after the loop.  Set-up time is measured in fresh interpreters that import
``expfun.cli`` and build the workload's evaluators.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs half the time untraced and then the same tasks with tracing wrappers
installed (see ``spans``), and reports the per-layer metrics.  A report goes
to stdout first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the pool's
task slots (every execution of a slot is checked) and ``failed`` the slots
with an execution that disagrees with the reference, including the documented
library defects; both depend on the seed alone, not on how many tasks fit in
the time.  ``correct`` is false when any disagreement is not one of those
defects.

Task times are scaled to a reference host speed (see ``hostspeed``) and
reduced to one median per slot; the statistics weigh every slot equally, so
a partial last pass does not tilt them towards the head of the pool.

The repository's ``src`` is put on the path of this process and of every
child; without it the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("scan", "pointwise", "cli")

#: Fresh interpreters timed for setup_s, after one untimed warm-up start.
SETUP_PROBES = 5

#: Share of the run spent warming the in-process workloads before timing.
WARMUP_SHARE = 0.08

#: A child that takes longer than this is killed and its task fails.
CHILD_TIMEOUT_S = 60.0

#: BLAS thread settings applied to this process and every child unless the
#: caller sets them: the workloads' matrices are at most 13 x 13, and with
#: the default threads a fixed evaluation loop on a 2-core host ran up to a
#: quarter slower at the median and half slower at the 90th percentile.
BLAS_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: BLAS and OpenMP thread settings recorded with each result.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Child:
    """A finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, code, out, err, wall_s, maxrss_kb):
        self.code, self.out, self.err, self.wall_s, self.maxrss_kb = code, out, err, wall_s, maxrss_kb


def child_env() -> dict:
    """Environment for children: the working tree's src first, no EXPFUN_GRID."""
    env = dict(os.environ)
    env.pop("EXPFUN_GRID", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args, workdir: Path, env: dict) -> Child:
    """Run ``python <args>`` to completion; wait4 gives this child's own peak RSS."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     wall, usage.ru_maxrss)


def check_expfun_file(path: str) -> None:
    if Path(path).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"expfun was imported from {path}, not from {SRC}")


def bare_start(workdir: Path, env: dict) -> float:
    """Wall time of a bare ``python -c pass``: the calibration step of children."""
    return run_child(["-c", "pass"], workdir, env).wall_s


def setup_probes(tasks, workdir: Path, env: dict, probes: int) -> dict:
    """Median wall time of fresh interpreters importing expfun.cli and building
    evaluators, scaled to the reference host speed by bare starts around each."""
    import hostspeed

    vectors = [[[v.real, v.imag] for v in t.freqs] for t in tasks if t.freqs]
    spec = workdir / "setup.json"
    spec.write_text(json.dumps(vectors), encoding="utf-8")
    samples, starts = [], [bare_start(workdir, env)]
    for i in range(probes + 1):
        child = run_child([str(BENCH / "child.py"), "setup", str(spec)], workdir, env)
        starts.append(bare_start(workdir, env))
        if child.code != 0:
            raise SystemExit(f"set-up probe failed ({child.code}): {child.err}")
        info = json.loads(child.out.strip().splitlines()[-1])
        check_expfun_file(info["expfun_file"])
        if i > 0:  # the first start warms the file cache and writes bytecode
            scale, = hostspeed.scales(starts, [i], hostspeed.START_REFERENCE_S)
            samples.append((child.wall_s, info, scale))
    return {
        "setup_s": statistics.median(w * f for w, _, f in samples),
        "setup_s_unscaled": statistics.median(w for w, _, _ in samples),
        "import_numpy_s": statistics.median(i["import_numpy_s"] for _, i, _ in samples),
        "import_expfun_s": statistics.median(i["import_expfun_s"] for _, i, _ in samples),
        "expfun_file": samples[0][1]["expfun_file"],
        "evaluators": len(vectors),
    }


def interpreter_start(workdir: Path, env: dict, probes: int) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return statistics.median(bare_start(workdir, env) for _ in range(probes))


# ---------------------------------------------------------------------------
# Closed loops
# ---------------------------------------------------------------------------

class Loop:
    """Outcomes and timings of one closed-loop phase."""

    def __init__(self):
        self.durations, self.outcomes, self.maxrss_kb = [], [], 0
        self.scales = []            # host-speed factor of each task
        self.steps = []             # calibration step times
        self.wall_s = 0.0
        self.snapshot = {"stats": {}, "edges": []}   # traced cli children only
        self.grid_samples = 0


def run_in_process(pool, seconds: float, count=None, min_count=0) -> Loop:
    """Run tasks in pool order until ``seconds`` have passed and ``min_count``
    tasks have run, or until ``count`` tasks have run.

    A calibration chunk (see ``hostspeed``) runs before the first task, after
    the last, and between tasks at least every ``hostspeed.EVERY_S`` seconds.
    """
    import hostspeed

    loop = Loop()
    start = perf_counter()
    deadline = start + seconds
    loop.steps.append(hostspeed.chunk())
    last_chunk = perf_counter()
    before = []
    i = 0
    while True:
        task = pool[i % len(pool)]
        t0 = perf_counter()
        try:
            value, error = task.run(), None
        except Exception as exc:  # a raising task is a result to check, not a crash
            value, error = None, exc
        t1 = perf_counter()
        loop.durations.append(t1 - t0)
        loop.outcomes.append((task, value, error))
        before.append(len(loop.steps) - 1)
        i += 1
        done = (count is None and t1 >= deadline and i >= min_count) or i == count
        if done or t1 - last_chunk >= hostspeed.EVERY_S:
            loop.steps.append(hostspeed.chunk())
            last_chunk = perf_counter()
        if done:
            break
    loop.wall_s = perf_counter() - start
    loop.scales = hostspeed.scales(loop.steps, before, hostspeed.CHUNK_REFERENCE_S)
    return loop


def run_cli(pool, seconds: float, workdir: Path, env: dict, count=None,
            min_count=0, traced=False) -> Loop:
    """Run CLI tasks as children; traced runs go through child.py and collect spans.

    A bare interpreter start runs before every child and after the last; it
    is the calibration step of ``hostspeed`` for children.
    """
    import hostspeed
    import spans

    loop = Loop()
    span_file = workdir / "spans.json"
    start = perf_counter()
    deadline = start + seconds
    loop.steps.append(bare_start(workdir, env))
    i = 0
    while True:
        task = pool[i % len(pool)]
        args = task.argv()
        if traced:
            args = [str(BENCH / "child.py"), "cli", str(span_file)] + args[2:]
        child = run_child(args, workdir, env)
        loop.steps.append(bare_start(workdir, env))
        loop.durations.append(child.wall_s)
        loop.outcomes.append((task, (child.code, child.out, child.err), None))
        loop.maxrss_kb = max(loop.maxrss_kb, child.maxrss_kb)
        if traced and span_file.exists():
            info = json.loads(span_file.read_text(encoding="utf-8"))
            check_expfun_file(info["expfun_file"])
            spans.merge(loop.snapshot, info["snapshot"])
            loop.grid_samples += info["grid_samples"]
            span_file.unlink()
        i += 1
        if (count is None and perf_counter() >= deadline and i >= min_count) or i == count:
            break
    loop.wall_s = perf_counter() - start
    loop.scales = hostspeed.scales(loop.steps, range(len(loop.durations)),
                                   hostspeed.START_REFERENCE_S)
    return loop


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def slot_medians(durations: list, outcomes: list) -> list:
    """Median wall time of each pool slot over its executions."""
    by_slot = {}
    for d, (task, _, _) in zip(durations, outcomes):
        by_slot.setdefault(id(task), []).append(d)
    return [statistics.median(ds) for ds in by_slot.values()]


def upper_mean(values: list, q: float) -> float:
    """Mean of the largest share 1 - q of the values, at least one value's worth.

    The value on the boundary counts with its fractional share, so the mean
    moves smoothly with q instead of jumping when a whole value enters.
    """
    mass = max((1.0 - q) * len(values), 1.0)
    total, left = 0.0, mass
    for v in sorted(values, reverse=True):
        w = min(1.0, left)
        total += w * v
        left -= w
        if left <= 0.0:
            break
    return total / mass


def tail_percentile(tasks: int) -> float:
    """Highest percentile with at least ten tasks beyond it."""
    return 100.0 * max(1, tasks - 10) / tasks


def task_times(durations: list, loop: Loop) -> dict:
    """Task-time metrics from the slot medians, each slot weighted equally.

    A slot's median over its executions drops the ones that a slow spell of
    the host stretched, as long as such spells cover less than half the run.
    The tail is the mean of the slot medians beyond the tail percentile, so
    that it does not rest on a single slot.
    """
    medians = slot_medians(durations, loop.outcomes)
    return {
        "task_s_p50": statistics.median(medians),
        "task_s_tail": upper_mean(medians, tail_percentile(len(durations)) / 100.0),
        "tasks_per_s": len(medians) / sum(medians),
    }


def scaled_durations(loop: Loop) -> list:
    """Task times at the reference host speed."""
    return [d * f for d, f in zip(loop.durations, loop.scales)]


def end_to_end(loop: Loop, setup: dict, in_process: bool) -> dict:
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = loop.maxrss_kb
    return {
        **task_times(scaled_durations(loop), loop),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(snapshot: dict, tasks: int, extras: dict) -> dict:
    """Per-layer metrics from span aggregates; calls and self_s are per task."""
    stats = snapshot["stats"]
    edges = {(p, c): n for p, c, n in snapshot["edges"]}

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def children(parent, child):
        return edges.get((parent, child), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in ("frequencies", "fundamental", "inequalities", "moments"):
        names = [n for n in stats if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(calls(n) for n in names) / tasks
        out[f"{layer}.self_s"] = sum(own(n) for n in names) / tasks
    for name in ("fundamental.eval_derivative", "fundamental.basis", "fundamental.build_evaluator"):
        out[f"{name}.calls"] = calls(name) / tasks
        out[f"{name}.self_s"] = own(name) / tasks
    out["fundamental.eval_derivative.us_per_call"] = 1e6 * ratio(
        own("fundamental.eval_derivative"), calls("fundamental.eval_derivative"))
    for name in ("verify_sign", "identity_residual", "hankel_matrix", "is_positive_definite",
                 "turan_ratio", "monotonicity_certificate"):
        out[f"inequalities.{name}.self_s"] = own(f"inequalities.{name}") / tasks
    sign_evals = children("inequalities.verify_sign", "fundamental.eval_derivative")
    out["inequalities.verify_sign.evals_per_call"] = ratio(sign_evals, calls("inequalities.verify_sign"))
    out["inequalities.verify_sign.refine_share"] = ratio(sign_evals - extras["grid_samples"], sign_evals)
    out["inequalities.identity_residual.evals_per_call"] = ratio(
        children("inequalities.identity_residual", "fundamental.eval_derivative"),
        calls("inequalities.identity_residual"))
    for name in ("transform", "hausdorff_check", "recover_measure"):
        out[f"moments.{name}.self_s"] = own(f"moments.{name}") / tasks
    out["moments.transform.density_evals_per_call"] = ratio(extras["density_evals"],
                                                            calls("moments.transform"))
    out["cli.interpreter_s"] = extras["interpreter_s"]
    out["cli.import_numpy_s"] = extras["import_numpy_s"]
    out["cli.import_expfun_s"] = extras["import_expfun_s"]
    out["cli.main.self_s"] = own("cli.main") / tasks
    out["trace.overhead_ratio"] = extras["overhead_ratio"]
    return out


def environment(seed: int, expfun_file: str) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "expfun_file": expfun_file,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_pool(workload: str, seed: int, smoke: bool):
    import workloads

    return {"scan": workloads.scan_pool, "pointwise": workloads.pointwise_pool,
            "cli": workloads.cli_pool}[workload](seed, smoke)


#: Order of verdicts when a slot's executions disagree: the worst one counts.
SEVERITY = {"ok": 0, "known": 1, "fail": 2}


def check_all(loops):
    """Per-slot verdict counts ('ok', 'known:<defect>', 'fail') and the first few failures.

    Every execution is checked; a slot takes the worst verdict of its executions.
    """
    worst = {}
    for loop in loops:
        for task, value, error in loop.outcomes:
            verdict = task.check(value, error)
            key = ":".join(verdict.split(":")[:2]) if verdict.startswith("known:") else verdict[:4]
            held = worst.get(id(task))
            if held is None or SEVERITY[key.split(":")[0]] > SEVERITY[held[0].split(":")[0]]:
                worst[id(task)] = (key, f"{task.kind}: {verdict}")
    counts = Counter(key for key, _ in worst.values())
    failures = [detail for key, detail in worst.values() if key == "fail"][:5]
    return counts, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload: the result fields, its metrics and an ``info`` record."""
    import expfun

    check_expfun_file(expfun.__file__)
    env = child_env()
    in_process = workload != "cli"
    probes = 1 if smoke else SETUP_PROBES
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH) as tmp:
        workdir = Path(tmp)
        pool = load_pool(workload, seed, smoke)
        setup = setup_probes(pool, workdir, env, probes)
        if in_process:
            for task in pool:
                task.bind()
            if not smoke:
                run_in_process(pool, WARMUP_SHARE * seconds)
        else:
            for i, task in enumerate(pool):
                task.write_config(workdir / f"config-{i}.json")

        def measure(span, count=None, traced=False):
            if in_process:
                return run_in_process(pool, span, count, len(pool))
            return run_cli(pool, span, workdir, env, count, len(pool), traced)

        if not trace:
            loop = measure(seconds)
            loops = [loop]
            metrics = end_to_end(loop, setup, in_process)
        else:
            import spans

            plain = measure(seconds / 2)
            count = len(plain.durations)
            density_before = sum(t.density.calls for t in pool if getattr(t, "density", None))
            if in_process:
                tracer = spans.Tracer()
                grid_samples = spans.count_grid_samples(tracer)
                uninstall = spans.install(tracer)
                try:
                    for task in pool[:count]:
                        task.bind()
                    traced = measure(math.inf, count)
                finally:
                    uninstall()
                snapshot = tracer.snapshot()
                grid_total = sum(grid_samples)
            else:
                traced = measure(math.inf, count, traced=True)
                snapshot = traced.snapshot
                grid_total = traced.grid_samples
            density_evals = sum(t.density.calls for t in pool if getattr(t, "density", None))
            extras = {
                "grid_samples": grid_total,
                "density_evals": density_evals - density_before,
                "interpreter_s": interpreter_start(workdir, env, probes),
                "import_numpy_s": setup["import_numpy_s"],
                "import_expfun_s": setup["import_expfun_s"],
                "overhead_ratio": sum(scaled_durations(traced)) / sum(scaled_durations(plain)),
            }
            loops = [plain, traced]
            loop = plain
            metrics = per_layer(snapshot, count, extras)
    counts, failures = check_all(loops)
    attempted = sum(counts.values())
    failed = attempted - counts["ok"]
    pct = tail_percentile(len(loop.durations))
    info = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "tasks": len(loop.durations),
        "loop_wall_s": loop.wall_s,
        "unscaled": task_times(loop.durations, loop),
        "slot_medians_s": slot_medians(scaled_durations(loop), loop.outcomes),
        "calibration_step_s_p50": statistics.median(loop.steps),
        "setup_s_unscaled": setup["setup_s_unscaled"],
        "pool": len(pool),
        "task_s_tail_percentile": pct,
        "fail_frac": failed / attempted,
        "verdicts": dict(counts),
        "failures": failures,
        "evaluators_built_in_setup": setup["evaluators"],
        "environment": environment(seed, setup["expfun_file"]),
    }
    return {"correct": counts["fail"] == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def select(metrics: dict, spec: list) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and a single set-up probe, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "expfun" / "__init__.py").is_file():
        print(f"bench: no expfun sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for name, value in BLAS_DEFAULTS.items():
        os.environ.setdefault(name, value)
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    info = result["info"]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select(result["metrics"], section)
    print(f"workload={info['workload']} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} tasks={info['tasks']} pool={info['pool']}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'task_s_tail percentile':48s} p{info['task_s_tail_percentile']:.1f} "
          f"of {info['tasks']} tasks")
    print(f"  {'fail_frac':48s} {info['fail_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} slots: {info['verdicts']})")
    for line in info["failures"]:
        print(f"  unexplained failure: {line}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
