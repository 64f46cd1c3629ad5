"""The benchmark's span wrappers and workloads call geocalc as it is.

perfbench/spans.py wraps functions by module and attribute name from
outside the package, and each in-process workload calls the library
with its own argument shapes, so a rename or a removed parameter would
only surface as a crash of a benchmark run.  These tests load the
benchmark's files without changing them, resolve every wrapped name,
and run one operation of each kind the workloads time.
"""

import importlib
import importlib.util
from pathlib import Path

import geocalc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_function_resolves():
    spans = _spans()
    assert spans.FUNCTIONS
    for name, (mod, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(mod), attr)), name


def test_every_wrapped_method_exists():
    spans = _spans()
    assert spans.METHODS
    for name, (mod, cls, methods) in spans.METHODS.items():
        klass = getattr(importlib.import_module(mod), cls)
        for meth in methods:
            assert callable(getattr(klass, meth)), (name, meth)


def test_internal_e_cache_is_inspectable():
    # the traced run reads euler.internal_e.misses from its cache_info
    assert geocalc.euler.internal_e.cache_info().misses >= 0


def test_every_device_op_is_a_script():
    # a renamed script would leave its mechsim.op.*.ms metric reading 0
    assert set(_spans().DEVICE_OPS) <= set(geocalc.mechsim.SCRIPTS)


def test_one_op_of_each_kind_runs_as_the_workloads_call_it(monkeypatch):
    # engine and draw specs start with their op kind, device specs with
    # the graduation; an op marked as a known fault may return anything
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for workload, at in (("engine", 0), ("device", 1), ("draw", 0)):
        mod = importlib.import_module(workload)
        first = {}
        for spec in mod.specs(1):
            first.setdefault(spec[at], spec)
        for spec in first.values():
            out = mod.make_op(geocalc, spec)()
            if not mod.is_fault(spec):
                assert mod.check(geocalc, spec, out) is None, (workload, spec)
