"""perfbench/spans.py names the spacct functions a traced benchmark run
wraps, as strings; a function renamed or deleted in spacct would only show
when `--trace 1` installs the tracer. This checks the names without
installing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


@pytest.mark.parametrize("layer, name", [(layer, name)
                                         for layer, names in layer_functions().items()
                                         for name in names])
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"spacct.{layer}"), name, None))
