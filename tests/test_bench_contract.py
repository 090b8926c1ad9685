"""The benchmark's tracer wraps functions and methods of this package by
name; each must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracer = _load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for modname, attr in tracer.FUNCTIONS:
        module = importlib.import_module(f"tieralloc.{modname}")
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
    for modname, clsname, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"tieralloc.{modname}"), clsname,
                      None)
        assert cls is not None, f"{modname}.{clsname}"
        assert callable(getattr(cls, attr, None)), f"{clsname}.{attr}"
