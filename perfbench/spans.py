"""Per-layer spans for the traced run.

The benchmark wraps each module's public functions from outside,
replacing them in every geocalc module namespace that binds them, so
that calls between modules are seen too.  A span's self time is its
duration minus the time of the spans it encloses.  Spans are summed per
name in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the wrapped function
FUNCTIONS = {
    "numcore.normalize": ("geocalc.numcore", "normalize"),
    "numcore.to_text": ("geocalc.numcore", "to_text"),
    "cascade.power": ("geocalc.cascade", "power"),
    "cascade.build_cascade": ("geocalc.cascade", "build_cascade"),
    "cascade.multiply": ("geocalc.cascade", "multiply"),
    "cascade.divide": ("geocalc.cascade", "divide"),
    "cascade.geometric_mean": ("geocalc.cascade", "geometric_mean"),
    "cascade.reciprocal": ("geocalc.cascade", "reciprocal"),
    "roots.nth_root": ("geocalc.roots", "nth_root"),
    "roots.solve_cos_power": ("geocalc.roots", "solve_cos_power"),
    "roots.rational_power": ("geocalc.roots", "rational_power"),
    "exponents.recover_rational_exponent":
        ("geocalc.exponents", "recover_rational_exponent"),
    "exponents.solve_integer_exponent":
        ("geocalc.exponents", "solve_integer_exponent"),
    "euler.approximate_e": ("geocalc.euler", "approximate_e"),
    "euler.natural_log": ("geocalc.euler", "natural_log"),
    "euler.antilog": ("geocalc.euler", "antilog"),
    "mechsim.assemble": ("geocalc.mechsim", "assemble"),
    "mechsim.run_op": ("geocalc.mechsim", "run_op"),
    "trace.parse_trace": ("geocalc.trace", "parse_trace"),
    "diagram.render_svg": ("geocalc.diagram", "render_svg"),
}
# span name -> (module, class, methods)
METHODS = {
    "mechsim.quantize": ("geocalc.mechsim", "MeasurementModel",
                         ("quantize",)),
    "trace.record": ("geocalc.trace", "TraceRecorder",
                     ("angle", "drop", "bisect", "rotate", "measure")),
    "trace.dumps": ("geocalc.trace", "TraceRecorder", ("dumps",)),
}
DEVICE_OPS = ("pow", "mul", "div", "gmean", "recip", "root", "cf")


class Spans:
    """Call counts and inclusive and self nanoseconds per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.out_bytes = defaultdict(int)
        self._open = [0]   # time of closed child spans, per open span

    def reset(self):
        for table in (self.calls, self.total_ns, self.self_ns, self.out_bytes):
            table.clear()

    def wrap(self, name: str, fn, key_of=None, size_of=None):
        calls, total, own, sizes = (self.calls, self.total_ns, self.self_ns,
                                    self.out_bytes)
        stack, clock = self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                total[name] += dt
                own[name] += dt - children
                if key_of is not None:
                    sub = key_of(args)
                    calls[sub] += 1
                    total[sub] += dt
            if size_of is not None:
                sizes[name] += size_of(result)
            return result
        return span

    def install(self):
        """Wrap every listed function and method of the imported geocalc
        modules, wherever a geocalc module binds it."""
        mods = [m for n, m in sys.modules.items()
                if n == "geocalc" or n.startswith("geocalc.")]
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            extra = {}
            if name == "mechsim.run_op":
                extra["key_of"] = lambda args: f"mechsim.op.{args[0]}"
            if name == "diagram.render_svg":
                extra["size_of"] = len
            wrapped = self.wrap(name, original, **extra)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for name, (mod, cls, methods) in METHODS.items():
            klass = getattr(sys.modules[mod], cls)
            for meth in methods:
                setattr(klass, meth, self.wrap(name, getattr(klass, meth)))

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns),
                "out_bytes": dict(self.out_bytes)}


def merge(snapshots) -> dict:
    """Sum span snapshots, such as those of several child processes."""
    out = {"calls": {}, "total_ns": {}, "self_ns": {}, "out_bytes": {}}
    for snap in snapshots:
        for table, values in out.items():
            for name, v in snap[table].items():
                values[name] = values.get(name, 0) + v
    return out


def write(path: str, payload: dict):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def layer_metrics(snap: dict, rounds: int, factor: float,
                  internal_e_misses: int) -> dict:
    """Every per-layer metric but the cli ones: counts and self times per
    round, times normalised by `factor`.  `internal_e_misses` counts the
    timed rounds.  A layer that does not run on a workload reads 0."""
    calls, self_ns = snap["calls"], snap["self_ns"]
    total_ns, out_bytes = snap["total_ns"], snap["out_bytes"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in list(FUNCTIONS) + list(METHODS):
        m[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
        m[f"{name}.self_ms"] = (
            self_ns.get(name, 0) * 1e-6 * factor / rounds, "ms")
    m["roots.searches_per_root"] = (
        ratio(calls.get("roots.solve_cos_power", 0),
              calls.get("roots.nth_root", 0)), "count")
    m["mechsim.quantize_per_op"] = (
        ratio(calls.get("mechsim.quantize", 0),
              calls.get("mechsim.run_op", 0)), "count")
    for op in DEVICE_OPS:
        key = f"mechsim.op.{op}"
        m[f"{key}.ms"] = (ratio(total_ns.get(key, 0) * 1e-6 * factor,
                                calls.get(key, 0)), "ms")
    m["diagram.svg_kb"] = (
        ratio(out_bytes.get("diagram.render_svg", 0) / 1024,
              calls.get("diagram.render_svg", 0)), "KB")
    m["euler.internal_e.misses"] = (internal_e_misses / rounds, "count")
    return {k: v for k, v in m.items() if k in PER_LAYER}


# The per-layer metrics BENCHMARK.json lists, in its order.
PER_LAYER = [
    "numcore.normalize.calls", "numcore.normalize.self_ms",
    "numcore.to_text.self_ms",
    "cascade.power.calls", "cascade.power.self_ms",
    "cascade.build_cascade.self_ms", "cascade.multiply.self_ms",
    "cascade.divide.self_ms", "cascade.geometric_mean.self_ms",
    "cascade.reciprocal.self_ms",
    "roots.nth_root.calls", "roots.nth_root.self_ms",
    "roots.solve_cos_power.calls", "roots.solve_cos_power.self_ms",
    "roots.searches_per_root", "roots.rational_power.self_ms",
    "exponents.recover_rational_exponent.calls",
    "exponents.recover_rational_exponent.self_ms",
    "exponents.solve_integer_exponent.self_ms",
    "euler.approximate_e.self_ms", "euler.natural_log.self_ms",
    "euler.antilog.self_ms", "euler.internal_e.misses",
    "mechsim.quantize.calls", "mechsim.quantize.self_ms",
    "mechsim.quantize_per_op", "mechsim.assemble.self_ms",
    "mechsim.run_op.calls", "mechsim.run_op.self_ms",
    "mechsim.op.pow.ms", "mechsim.op.mul.ms", "mechsim.op.div.ms",
    "mechsim.op.gmean.ms", "mechsim.op.recip.ms", "mechsim.op.root.ms",
    "mechsim.op.cf.ms",
    "trace.record.calls", "trace.record.self_ms", "trace.dumps.self_ms",
    "trace.parse_trace.self_ms",
    "diagram.render_svg.calls", "diagram.render_svg.self_ms",
    "diagram.svg_kb",
    "cli.interpreter_ms", "cli.import_ms", "cli.main_ms",
]
