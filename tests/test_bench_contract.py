"""What the benchmark under perfbench/ reads from greenlight, checked here so a rename fails in the test suite.

``perfbench/spans.py`` is loaded by file path and only read: its ``TRACED`` table names every function the traced
run wraps, and ``perfbench/job.py`` loads its fixture weights onto ``single.xn`` before it runs a job.
"""

import importlib
import types

import numpy as np
import pytest

from conftest import REPO, SCENARIOS
from greenlight import harness, netmodel

_SPANS = REPO / "perfbench" / "spans.py"
spans = types.ModuleType("perfbench_spans")  # executed from its text, so nothing is written next to it
exec(compile(_SPANS.read_text(encoding="utf-8"), str(_SPANS), "exec"), vars(spans))


@pytest.mark.parametrize("name, module_name, attr", spans.TRACED, ids=[name for name, _, _ in spans.TRACED])
def test_every_traced_path_resolves_to_a_callable(name, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_the_fixture_weights_load_onto_single_as_the_benchmark_loads_them():
    scenario = netmodel.load_scenario((SCENARIOS / "single.xn").read_text(encoding="utf-8"))
    text = (REPO / "perfbench" / "inputs" / "single-seed7-ep200.weights.json").read_text(encoding="utf-8")
    nets = harness.load_weights(text, harness._junction_infos(scenario))
    assert list(nets) == ["c"]
    assert all(np.isfinite(a).all() for a in (*nets["c"].weights, *nets["c"].biases))
