"""The geocalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Prints a few `# ` lines of raw
figures, then one JSON object as the last line: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import spans  # noqa: E402

IN_PROCESS = {"engine-mix": "engine", "device-ladder": "device",
              "traced-draw": "draw"}
WORKLOADS = tuple(IN_PROCESS) + ("cli-oneshot",)
# Highest percentile with at least ten samples beyond it in the
# shortest runs (see README).
TAIL = {"engine-mix": 99.5, "device-ladder": 99.5, "traced-draw": 99.5,
        "cli-oneshot": 85.0}
SETUP_REPEATS = 5
OUT = os.path.join("perfbench", "out")


def _module(workload: str):
    import importlib
    return importlib.import_module(IN_PROCESS.get(workload, "oneshot"))


def build_inputs(workload: str, seed: int):
    """What a run needs before its first operation: geocalc imported and
    the inputs generated."""
    import geocalc as g
    mod = _module(workload)
    if workload == "cli-oneshot":
        return mod.prepare(seed)
    return [mod.make_op(g, s) for s in mod.specs(seed)]


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median normalised time from a fresh interpreter to the inputs
    built, over SETUP_REPEATS children after one untimed one."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--setup-only", "--workload", workload, "--seed", str(seed)]
    harness.run_child(argv, env, ROOT)   # warm-up: compile the modules
    results, norm, _ = harness.normalised_children([argv] * SETUP_REPEATS,
                                                   env, ROOT)
    for res in results:
        if res.status != 0:
            sys.stderr.write(res.stderr.decode(errors="replace"))
            raise SystemExit("set-up child failed")
    return median(norm)


def _raised(out) -> str | None:
    if isinstance(out, tuple) and out and out[0] == "raised":
        return f"raised {out[1]}: {out[2]}"
    return None


def tally(specs, outcome, problem_of, is_fault):
    """(failed, unexpected problems) over all timed rounds."""
    failed, unexpected = 0, []
    for i, spec in enumerate(specs):
        problem = _raised(outcome.first[i]) or problem_of(spec,
                                                          outcome.first[i])
        if problem:
            failed += outcome.rounds
            if not is_fault(spec):
                unexpected.append(f"{spec}: {problem}")
        elif outcome.mismatches[i]:
            failed += outcome.mismatches[i]
            unexpected.append(f"{spec}: output changed between rounds")
    return failed, unexpected


def end_to_end(workload: str, outcome, setup_s: float, peak_kb: int) -> dict:
    lat = sorted(outcome.latencies_ms)
    return {
        "ops_per_s": (median(outcome.ops_per_s), "1/s"),
        "latency_p50_ms": (harness.percentile(lat, 50), "ms"),
        "latency_tail_ms": (harness.percentile(lat, TAIL[workload]), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def run_in_process(workload: str, seed: int, seconds: float, trace: bool):
    import geocalc as g
    mod = _module(workload)
    recorder, warm_misses = None, []

    def after_warmup():
        recorder.reset()
        warm_misses.append(g.euler.internal_e.cache_info().misses)

    if trace:
        recorder = spans.Spans()
        recorder.install()
    specs = mod.specs(seed)
    ops = [mod.make_op(g, s) for s in specs]
    outcome = harness.run_rounds(ops, seconds,
                                 after_warmup if trace else None)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    snap = recorder.snapshot() if recorder else None
    failed, unexpected = tally(specs, outcome,
                               lambda s, o: mod.check(g, s, o), mod.is_fault)
    extra = {}
    if trace:
        misses = g.euler.internal_e.cache_info().misses - warm_misses[0]
        extra = spans.layer_metrics(snap, outcome.rounds,
                                    median(outcome.factors), misses)
        extra.update({k: (0.0, "ms") for k in
                      ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms")})
        spans.write(os.path.join(OUT, f"spans-{workload}-{seed}.json"),
                    {**snap, "rounds": outcome.rounds})
    return outcome, peak_kb, failed, unexpected, extra


def run_cli(seed: int, seconds: float, trace: bool, env: dict):
    mod = _module("cli-oneshot")
    cmds, stdins = mod.prepare(seed)
    if trace:
        prefix = [sys.executable, os.path.join("perfbench", "clichild.py")]
        env = dict(env, PERFBENCH_SPANS_DIR=mod.OUT)
    else:
        prefix = [sys.executable, "-m", "geocalc.cli"]
    argvs = [prefix + argv for argv, _kind, _detail in cmds]
    for argv, _kind, _detail in cmds[:3]:   # warm-up: compile the CLI
        harness.run_child([sys.executable, "-m", "geocalc.cli"] + argv, env,
                          ROOT)
    outcome = harness.Outcome(len(cmds))
    peak_kb, snaps, child_ns = 0, [], {"interpreter_ns": [], "import_ns": [],
                                       "main_ns": []}
    t_end = time.perf_counter() + seconds
    while True:
        results, norm, factors = harness.normalised_children(argvs, env,
                                                             ROOT, stdins)
        outputs = [(r.status, r.stdout.decode("ascii", "replace"))
                   for r in results]
        outcome.absorb([s * 1e3 for s in norm], sum(norm),
                       sum(r.seconds for r in results),
                       median(factors), outputs)
        peak_kb = max([peak_kb] + [r.maxrss_kb for r in results])
        if trace:
            for res, factor in zip(results, factors):
                path = os.path.join(mod.OUT, f"spans-{res.pid}.json")
                with open(path, encoding="ascii") as fh:
                    snap = json.load(fh)
                os.remove(path)
                snaps.append(snap)
                for key in child_ns:
                    child_ns[key].append(snap[key] * factor)
        if time.perf_counter() >= t_end:
            break
    import geocalc.cli
    schema = geocalc.cli.RESULT_SCHEMA
    failed, unexpected = tally(
        cmds, outcome, lambda c, o: mod.check(geocalc, schema, c, *o),
        lambda c: False)
    extra = {}
    if trace:
        merged = spans.merge(snaps)
        extra = spans.layer_metrics(
            merged, outcome.rounds, median(outcome.factors),
            sum(s["internal_e_misses"] for s in snaps))
        for key, values in child_ns.items():
            name = "cli." + key.replace("_ns", "_ms")
            extra[name] = (sum(values) / len(values) * 1e-6, "ms")
        spans.write(os.path.join(OUT, f"spans-cli-oneshot-{seed}.json"),
                    {**merged, "rounds": outcome.rounds})
    return outcome, peak_kb, failed, unexpected, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "geocalc", "__init__.py")):
        print(f"no geocalc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        build_inputs(args.workload, args.seed)
        return 0
    os.makedirs(OUT, exist_ok=True)
    env = harness.child_env(ROOT)
    trace = bool(args.trace)
    setup_s = None if trace else measure_setup(args.workload, args.seed, env)
    if args.workload == "cli-oneshot":
        res = run_cli(args.seed, args.seconds, trace, env)
    else:
        res = run_in_process(args.workload, args.seed, args.seconds, trace)
    outcome, peak_kb, failed, unexpected, layer = res
    for problem in unexpected:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    e2e = end_to_end(args.workload, outcome, setup_s or 0.0, peak_kb)
    lat = sorted(outcome.latencies_ms)
    print(f"# rounds {outcome.rounds}  samples {len(lat)}  tail "
          f"p{TAIL[args.workload]:g}  " + "  ".join(
              f"p{q:g} {harness.percentile(lat, q):.4g}"
              for q in (85, 90, 99, 99.5, 99.9)))
    print(f"# ops_per_s normalised {e2e['ops_per_s'][0]:.2f}  raw "
          f"{median(outcome.raw_ops_per_s):.2f}  "
          f"factor {median(outcome.factors):.4f}")
    metrics = {k: layer[k] for k in spans.PER_LAYER} if trace else e2e
    print(json.dumps({
        "correct": not unexpected,
        "attempted": outcome.rounds * outcome.n_ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
