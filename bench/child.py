"""Child processes of the benchmark: set-up probes and traced CLI runs.

    python bench/child.py setup <spec.json>
    python bench/child.py cli <spans.json> <expfun command and options...>

``setup`` times ``import numpy``, then ``import expfun.cli``, then builds an
evaluator for every frequency vector in the spec, and prints the timings as
JSON.  ``cli`` imports the same way, installs the tracing wrappers, runs
``expfun.cli.main`` on the remaining arguments and writes the span aggregates
to <spans.json>; its stdout is the CLI's own output.  The parent puts the
repository's ``src`` on PYTHONPATH and checks the ``expfun_file`` reported.
"""

import json
import sys
from time import perf_counter


def _import_expfun():
    t0 = perf_counter()
    import numpy  # noqa: F401
    t1 = perf_counter()
    import expfun.cli
    t2 = perf_counter()
    timings = {"expfun_file": sys.modules["expfun"].__file__,
               "import_numpy_s": t1 - t0, "import_expfun_s": t2 - t1}
    return expfun.cli, timings


def main(argv) -> int:
    mode = argv[1]
    cli, info = _import_expfun()
    if mode == "setup":
        from expfun.fundamental import build_evaluator

        with open(argv[2], encoding="utf-8") as fh:
            vectors = json.load(fh)
        t0 = perf_counter()
        for vec in vectors:
            build_evaluator([complex(re, im) for re, im in vec])
        info["build_s"] = perf_counter() - t0
        print(json.dumps(info))
        return 0
    if mode == "cli":
        import spans

        tracer = spans.Tracer()
        grid_samples = spans.count_grid_samples(tracer)
        spans.install(tracer)
        code = cli.main(argv[3:])
        info["snapshot"] = tracer.snapshot()
        info["grid_samples"] = sum(grid_samples)
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(info, fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
