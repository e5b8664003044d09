"""The benchmark tracer's boundaries must name functions that exist."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("layer,module,attr", tracing.SPAN_FUNCTIONS)
def test_traced_function_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("layer,module,cls,method", tracing.SPAN_METHODS)
def test_traced_method_resolves(layer, module, cls, method):
    # the tracer rebinds the method on the class that defines it
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])
