"""Tracing from outside the program: wrappers around every public expfun function.

``install`` wraps each function listed in the ``__all__`` of the layer
modules (frequencies, fundamental, inequalities, moments, cli), then rebinds
every reference to it held by an expfun module, including the copies that
``from .x import y`` leaves in inequalities, moments, cli and the package.  A
new public entry point is therefore traced without editing the benchmark.

Each call opens a span.  Spans are aggregated as they close: per function the
call count, total time and self time (span time minus the time of its child
spans), and per (parent, child) pair the number of direct child calls.  Only
these aggregates are kept, so memory does not grow with the run.

Limitation: work reached through private helpers counts as the caller's self
time until tracing inside the program lands.  Examples are
``_derivative_values`` as called from ``hankel_matrix``, ``turan_ratio`` and
``transform``, and scipy's ``quad`` inside ``identity_residual``.  Classes in
``__all__`` are not wrapped, because a wrapper would break ``isinstance``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("frequencies", "fundamental", "inequalities", "moments", "cli")


class Tracer:
    """Span aggregates for one traced pass."""

    def __init__(self):
        self._stack = []      # open spans: [name, start, child seconds]
        self.stats = {}       # name -> [calls, total seconds, self seconds]
        self.edges = {}       # (parent, child) -> direct child calls
        self.results = {}     # name -> hook applied to each return value

    def wrap(self, name, fn):
        stack, stats, edges = self._stack, self.stats, self.edges
        hook = self.results.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                row = stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                    key = (stack[-1][0], name)
                    edges[key] = edges.get(key, 0) + 1
            if hook is not None:
                hook(result)
            return result

        return traced

    def snapshot(self) -> dict:
        """JSON-ready copy of the aggregates."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "edges": [[p, c, n] for (p, c), n in self.edges.items()]}


def count_grid_samples(tracer: Tracer) -> list:
    """Collect the grid size of every verify_sign call, the base of its refine share."""
    samples = []
    tracer.results["inequalities.verify_sign"] = lambda report: samples.append(report.samples)
    return samples


def install(tracer: Tracer):
    """Wrap the public functions of every layer; returns a function that undoes it."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"expfun.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "expfun" and not modname.startswith("expfun."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))

    def uninstall():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return uninstall


def merge(total: dict, part: dict) -> None:
    """Add one snapshot's aggregates into another (cli children)."""
    for name, (calls, span, own) in part["stats"].items():
        row = total["stats"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += span
        row[2] += own
    edges = {(p, c): n for p, c, n in total["edges"]}
    for p, c, n in part["edges"]:
        edges[(p, c)] = edges.get((p, c), 0) + n
    total["edges"] = [[p, c, n] for (p, c), n in edges.items()]
