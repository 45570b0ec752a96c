"""perfbench/spans.py names the spacct functions a traced benchmark run
wraps, as strings; a function renamed or deleted in spacct would only show
when `--trace 1` installs the tracer. This checks the names without
installing it, then installs it in a subprocess and runs a few commands
through it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
import spacct.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        codes.append(spacct.cli.main(argv))
print(json.dumps({"codes": codes, "counts": tracer.summary()["counts"]}))
"""

README_SCENARIO = {
    "schema_version": 1, "n": 6,
    "entry_model": {"kind": "explicit", "probs": [0.2, 0.8, 0.5, 0.5, 0.3, 0.7]},
    "critical_index": 3, "format": [2, 2],
    "queries": {"mode": "nonadaptive",
                "list": [{"attribute": 0}, {"attribute": 0, "negate": True}]},
    "epsilons": [0.0, 0.1, 1.0], "mode": "enumerate", "seed": 0,
}


def test_traced_commands_run(tmp_path):
    """Calls the traced wrappers make (their signatures and what their
    counters read of the results) only show when the tracer is installed:
    this installs it in a fresh interpreter and runs three commands."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(README_SCENARIO))
    argvs = [["compose", "--scenario", str(scenario), "--verify"],
             ["curve", "--n", "1000", "--p", "0.5", "--sample-size", "100", "--known", "50",
              "--eps", "0.1"],
             ["dp-compare", "--eps", "0.5", "--delta", "0.01", "--sigma", "0.05", "--n", "1000"]]
    src = str(SPANS.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(SPANS), json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["counts"].get("partition.templates", 0) > 0
    assert result["counts"].get("compose.block_terms", 0) > 0
