"""The benchmark's tracer wraps package functions by the module attribute
their caller looks them up under (perfbench/tracing.py, PATCHES).  A rename
in the package must fail here instead of only breaking a traced benchmark
run.  The tracer is loaded from its file without writing bytecode."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracing_patches_resolve_on_the_package():
    tracing = _load_tracing()
    assert tracing.PATCHES
    for module, attr, span, _ in tracing.PATCHES:
        home, name = span.split(".")
        defined = getattr(importlib.import_module(f"rmaccess.{home}"), name, None)
        assert callable(defined), f"{span} is not a function of the package"
        # the caller's name must be the function the span is named after
        assert getattr(module, attr, None) is defined, f"{module.__name__}.{attr} is not {span}"
