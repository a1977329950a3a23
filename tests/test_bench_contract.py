"""What the benchmark under perfbench/ reads from greenlight, checked here so a rename fails in the test suite.

``perfbench/spans.py`` is loaded by file path and only read: its ``TRACED`` table names every function the traced
run wraps, and ``perfbench/job.py`` loads its fixture weights onto ``single.xn`` before it runs a job and counts an
episode's vehicle-steps when the next ``Simulation`` is built.
"""

import importlib
import json
import math
import types

import numpy as np
import pytest

from conftest import REPO, SCENARIOS, count_scenario_loads
from greenlight import cli, harness, netmodel, qnet, simcore
from greenlight.harness import EvalConfig, TrainConfig

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


def test_each_episode_runs_to_the_scenario_end_before_the_next_simulation_is_built(monkeypatch):
    """The benchmark's episode probe closes a ``Simulation`` when the next one is constructed and counts its
    vehicle-steps then, so training and evaluation must run their episodes one after another, each to its end."""
    doc = json.loads((SCENARIOS / "grid2x2.xn").read_text(encoding="utf-8"))
    doc["duration"] = 60.0  # short, and four junctions, so the stacked learner and policy run
    doc["train"] = {"warmup": 8}  # low enough that the learner updates in the first episodes
    scenario = netmodel.load_scenario(json.dumps(doc))
    built = []
    init = simcore.Simulation.__init__

    def watched(sim, *args, **kwargs):
        if built:
            assert built[-1].clock == built[-1].scenario.duration, "a Simulation was built before the last one ended"
        init(sim, *args, **kwargs)
        built.append(sim)

    monkeypatch.setattr(simcore.Simulation, "__init__", watched)
    result = harness.train(TrainConfig(scenario=scenario, episodes=3, seed=0))
    assert not np.isnan(result.curve[-1]["mean_loss"])  # the learner updated during the episodes
    harness.evaluate(EvalConfig(scenario=scenario, controller="fixed", seeds=[1, 2, 3]))
    harness.evaluate(EvalConfig(scenario=scenario, controller="dqn", seeds=[4, 5], weights=result.weights_doc))
    assert len(built) == 3 + 3 + 2
    assert built[-1].clock == doc["duration"]


def test_acting_calls_qnet_forward_once_per_decision(monkeypatch):
    """The traced run times acting as the ``qnet.forward`` span, so every decision, for all junctions at once, must
    be exactly one call of it, in training and in evaluation alike."""
    doc = json.loads((SCENARIOS / "grid2x2.xn").read_text(encoding="utf-8"))
    doc["duration"] = 62.0  # not a whole number of decision intervals, so the last one is cut short
    doc["train"] = {"warmup": 8}
    scenario = netmodel.load_scenario(json.dumps(doc))
    decisions_per_episode = math.ceil(doc["duration"] / netmodel.Hyperparams().decision_interval)
    calls = []  # the states' shape at each call
    forward = qnet.forward

    def counted(net, xs, *rest):
        calls.append(xs.shape)
        return forward(net, xs, *rest)

    monkeypatch.setattr(qnet, "forward", counted)

    result = harness.train(TrainConfig(scenario=scenario, episodes=2, seed=0))
    assert calls == [(4, 10)] * 2 * decisions_per_episode
    calls.clear()
    harness.evaluate(EvalConfig(scenario=scenario, controller="dqn", seeds=[4, 5, 6], weights=result.weights_doc))
    assert calls == [(4, 10)] * 3 * decisions_per_episode


def test_each_command_loads_its_scenario_once(tmp_path, monkeypatch, capsys):
    """The traced run's ``ROLLOUT`` spans include ``netmodel.load_scenario``, so ``train`` and ``eval`` with either
    controller must each call it, and no more than once."""
    doc = json.loads((SCENARIOS / "single.xn").read_text(encoding="utf-8"))
    doc["duration"] = 60.0
    path, weights, report = (str(tmp_path / name) for name in ("short.xn", "w.json", "r.json"))
    (tmp_path / "short.xn").write_text(json.dumps(doc), encoding="utf-8")
    loads = count_scenario_loads(monkeypatch)
    for argv in (["train", "--episodes", "1", "--seed", "0", "--weights-out", weights],
                 ["eval", "--controller", "fixed", "--seeds", "1", "--out", report],
                 ["eval", "--controller", "dqn", "--weights", weights, "--seeds", "1", "--out", report]):
        loads.clear()
        assert cli.main([*argv, "--scenario", path]) == 0, capsys.readouterr().err
        assert len(loads) == 1, argv[:3]
