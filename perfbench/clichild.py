"""Traced stand-in for `python -m geocalc.cli`, used by cli-oneshot's
traced run: times the interpreter start, the import and main(), records
the per-layer spans, and writes them to spans-<pid>.json in the
directory PERFBENCH_SPANS_DIR names.

Usage: PERFBENCH_SPANS_DIR=dir PERFBENCH_SPAWN_NS=<perf_counter_ns at
spawn> python perfbench/clichild.py <geocalc arguments>
"""

import os
import sys
import time

started = time.perf_counter_ns()

import spans  # noqa: E402  (after the start time is taken)

t0 = time.perf_counter_ns()
import geocalc.cli  # noqa: E402

imported = time.perf_counter_ns()
recorder = spans.Spans()
recorder.install()
t1 = time.perf_counter_ns()
try:
    status = geocalc.cli.main(sys.argv[1:])
finally:
    ended = time.perf_counter_ns()
    spans.write(os.path.join(os.environ["PERFBENCH_SPANS_DIR"],
                             f"spans-{os.getpid()}.json"), {
        **recorder.snapshot(),
        "interpreter_ns": started - int(os.environ["PERFBENCH_SPAWN_NS"]),
        "import_ns": imported - t0,
        "main_ns": ended - t1,
        "internal_e_misses": geocalc.euler.internal_e.cache_info().misses,
    })
sys.exit(status)
