"""The benchmark's span wrappers name geocalc functions and methods.

perfbench/spans.py wraps them by module and attribute name from outside
the package, so a rename would only surface as a crash of the traced
benchmark run.  This test loads that file by path and resolves every
name it lists.
"""

import importlib
import importlib.util
from pathlib import Path

import geocalc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
