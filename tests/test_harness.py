import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import MIXED_SCENARIO, REPO, SCENARIOS, make_rng, scenario_at
from greenlight import cli, dqn, harness, metrics, netmodel, qnet, simcore
from greenlight.harness import EvalConfig, TrainConfig, WeightsMismatchError
from greenlight.metrics import RunReport, StatSummary, Summaries, Vehicles
from greenlight.netmodel import Hyperparams


@pytest.fixture(scope="module")
def short_scenario(tmp_path_factory) -> str:
    """single.xn shortened to 120 s so training tests stay fast."""
    doc = json.loads((SCENARIOS / "single.xn").read_text())
    doc["duration"] = 120.0
    path = tmp_path_factory.mktemp("scen") / "short.xn"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def short_with_train(tmp_path_factory, short_scenario):
    """Writes ``short_scenario`` with the given ``train`` block to a fresh file and returns its path."""
    def write(train: dict) -> str:
        doc = json.loads(Path(short_scenario).read_text())
        doc["train"] = train
        path = tmp_path_factory.mktemp("scen") / "short_train.xn"
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def _hp(train: dict) -> Hyperparams:
    """The hyperparameters of single.xn with ``train`` as its train block."""
    scenario = netmodel.load_scenario((SCENARIOS / "single.xn").read_text())
    return replace(scenario, train=train).hyperparams


def test_hyperparams_overrides_and_unknown_keys():
    hp = _hp({"lr": 0.01, "hidden": [32, 32]})
    assert hp.lr == 0.01 and hp.hidden == (32, 32)
    scenario = netmodel.load_scenario(MIXED_SCENARIO.read_text())
    hp = scenario.hyperparams
    assert (hp.warmup, hp.buffer_capacity, hp.target_sync, hp.lr) == (100, 200, 50, Hyperparams().lr)
    assert scenario.train == {"warmup": 100, "buffer_capacity": 200, "target_sync": 50}  # still partial, as read
    with pytest.raises(ValueError):
        _hp({"learning_rate": 0.01})


def test_hyperparams_decision_interval_must_be_whole_steps(tmp_path, single_text):
    for bad in (2.5, 0.0, -5.0):
        with pytest.raises(ValueError, match="decision_interval"):
            _hp({"decision_interval": bad})
    assert _hp({"decision_interval": 3}).decision_interval == 3
    doc = json.loads(single_text)
    doc["train"] = {"decision_interval": 2.5}
    path = tmp_path / "bad_interval.xn"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="decision_interval"):
        harness.train(TrainConfig(scenario=scenario_at(path), episodes=1, seed=0))


def test_hyperparams_non_numeric_value_names_the_key(tmp_path, short_with_train, capsys):
    with pytest.raises(ValueError, match="lr"):
        _hp({"lr": "abc"})
    with pytest.raises(ValueError, match="warmup"):
        _hp({"warmup": True})
    rc = cli.main(["train", "--scenario", short_with_train({"lr": "abc"}), "--episodes", "1", "--seed", "0",
                   "--weights-out", str(tmp_path / "w.json")])
    assert rc == 1
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert "lr" in error and "abc" in error
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("bad", [[64.5, 32.9], [True, 2], [64, 0], [-8], ["64"], 64, "64,64"])
def test_hyperparams_hidden_must_be_positive_integers(bad):
    with pytest.raises(ValueError, match="hidden"):
        _hp({"hidden": bad})


def test_hyperparams_integral_values_become_ints():
    """Whole floats in integer hyperparameters no longer become ints: they are rejected, as in every other record."""
    with pytest.raises(ValueError, match=r"^hyperparameters: 'hidden\[0\]' must be an integer, got 64\.0$"):
        _hp({"hidden": [64.0, 32], "batch_size": 16})
    with pytest.raises(ValueError, match=r"^hyperparameters: 'buffer_capacity' must be an integer, got 100\.0$"):
        _hp({"buffer_capacity": 100.0, "batch_size": 16})


@pytest.mark.parametrize("key, bad", [("buffer_capacity", 100.5), ("batch_size", 0), ("target_sync", True)])
def test_hyperparams_counts_must_be_positive_integers(key, bad):
    with pytest.raises(ValueError, match=key):
        _hp({key: bad})


@pytest.mark.parametrize(
    "key, bad",
    [("gamma", -3), ("gamma", 1.5), ("gamma", math.nan), ("eps_start", 7), ("eps_final", -0.1),
     ("eps_fraction", 1.01), ("eps_fraction", math.inf), ("lr", math.nan), ("lr", 0.0), ("lr", -1e-3),
     ("lr", math.inf), ("warmup", -2.5), ("warmup", -1), ("warmup", 2.5)],
)
def test_hyperparams_out_of_range_names_the_key(key, bad):
    with pytest.raises(ValueError, match=key):
        _hp({key: bad})


def test_hyperparams_range_bounds_are_accepted_unrounded():
    hp = _hp({"gamma": 1, "eps_start": 0.0, "eps_final": 0, "eps_fraction": 1.0, "lr": 1e-9, "warmup": 0})
    assert (hp.gamma, hp.eps_start, hp.eps_final, hp.eps_fraction, hp.lr, hp.warmup) == (1, 0.0, 0, 1.0, 1e-9, 0)
    with pytest.raises(ValueError, match=r"^hyperparameters: 'warmup' must be an integer, got 20\.0$"):
        _hp({"warmup": 20.0})


@pytest.mark.parametrize(
    "key, bad, message",
    [("gamma", -3, "'gamma' must be in [0, 1], got -3.0"), ("lr", 0, "'lr' must be above 0, got 0.0"),
     ("batch_size", 0, "'batch_size' must be at least 1, got 0"), ("warmup", -1, "'warmup' must be at least 0, got -1"),
     ("hidden", [64, 0], "'hidden' must be widths of at least 1, got (64, 0)"),
     ("decision_interval", 2.5, "'decision_interval' must be a positive multiple of 1.0 s, got 2.5")],
)
def test_hyperparams_range_faults_have_one_message_form(key, bad, message):
    with pytest.raises(ValueError) as err:
        _hp({key: bad})
    assert str(err.value) == f"hyperparameters: {message}"


@pytest.mark.parametrize(
    "overrides, message",
    [({"buffer_capacity": 100}, "'warmup' must be at most 'buffer_capacity' (100), got 500"),
     ({"buffer_capacity": 16, "warmup": 0}, "'batch_size' must be at most 'buffer_capacity' (16), got 32")],
)
def test_a_buffer_that_never_fills_a_warmup_or_a_batch_is_rejected(overrides, message):
    """The buffer never holds more than its capacity, so training under these would take no gradient step."""
    with pytest.raises(ValueError) as err:
        _hp(overrides)
    assert str(err.value) == f"hyperparameters: {message}"


@pytest.mark.parametrize("key, value", [
    pytest.param("lr", "abc", id="lr-abc-abc"), pytest.param("warmup", 20.0, id="warmup-20.0-20.0"),
    pytest.param("gamma", -3, id="gamma--3--3"), pytest.param("hidden", [16, 0], id="hidden-16,0-value3"),
    pytest.param("hidden", "a,b", id="hidden-a,b-a,b")])
def test_a_bad_value_in_the_train_block_and_in_hp_gives_one_message(tmp_path, single_text, key, value):
    """Training on a scenario file and reading its block into a ``Hyperparams`` record give the same message."""
    doc = json.loads(single_text)
    doc["train"] = {key: value}
    path = tmp_path / "bad_train.xn"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as from_block:
        harness.train(TrainConfig(scenario=scenario_at(path), episodes=1, seed=0))
    with pytest.raises(ValueError) as from_hp:
        _hp({key: value})
    assert str(from_block.value) == str(from_hp.value)
    assert str(from_block.value).startswith(f"hyperparameters: '{key}")


def test_cli_out_of_range_override_names_the_key(tmp_path, short_with_train, capsys):
    """train and eval, with either controller, read the block as they load the scenario and fail on it alike."""
    scenario, weights = short_with_train({"gamma": -3}), tmp_path / "in.json"
    weights.write_text("{}")  # never parsed: the scenario fails to load first
    for command in (["train", "--episodes", "1", "--seed", "0", "--weights-out", str(tmp_path / "out" / "w.json")],
                    ["eval", "--controller", "fixed", "--seeds", "1", "--out", str(tmp_path / "out" / "r.json")],
                    ["eval", "--controller", "dqn", "--weights", str(weights), "--seeds", "1",
                     "--out", str(tmp_path / "out" / "r.json")]):
        assert cli.main([*command, "--scenario", scenario]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "hyperparameters: 'gamma' must be in [0, 1], got -3.0", "kind": "ValueError"}
        assert not (tmp_path / "out").exists()


def test_fractional_hidden_in_train_block_is_rejected(tmp_path, single_text):
    doc = json.loads(single_text)
    doc["train"] = {"hidden": [64.5, 32.9]}
    path = tmp_path / "fractional_hidden.xn"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="hidden"):
        harness.train(TrainConfig(scenario=scenario_at(path), episodes=1, seed=0))


def test_cli_hidden_override_sets_the_architecture(tmp_path, short_with_train):
    out = tmp_path / "w.json"
    rc = cli.main(["train", "--scenario", short_with_train({"hidden": [16, 8], "warmup": 10000}),
                   "--episodes", "1", "--seed", "0", "--weights-out", str(out)])
    assert rc == 0
    assert qnet.deserialize(out.read_text()).sizes == (harness.dqn.state_dim(4), 16, 8, 3)


@pytest.mark.parametrize("seed", [-3, True, 2.5, 2.0])
def test_train_config_rejects_a_seed_numpy_cannot_use(single_scenario, seed):
    with pytest.raises(ValueError, match=rf"^seed: expected an integer of at least 0, got {seed}$"):
        TrainConfig(scenario=single_scenario, episodes=1, seed=seed)


@pytest.mark.parametrize("episodes", [0, True, 2.5, 2.0, "3"])
def test_train_config_rejects_episodes_that_are_not_a_positive_integer(single_scenario, episodes):
    with pytest.raises(ValueError, match=rf"^episodes: expected an integer of at least 1, got {episodes!r}$"):
        TrainConfig(scenario=single_scenario, episodes=episodes, seed=0)


@pytest.mark.parametrize(
    "seeds, message",
    [
        ([1, -1], r"^seeds: expected an integer of at least 0, got -1$"),
        ([4, 1, 4], r"^seeds: 4 is listed more than once"),
        ([2, 3, 3, 2], r"^seeds: 3 is listed more than once"),
        ([1, 2.0], r"^seeds: expected an integer of at least 0, got 2\.0$"),
        ([], r"^at least one evaluation seed is required$"),
    ],
)
def test_eval_config_rejects_negative_and_repeated_seeds(single_scenario, seeds, message):
    with pytest.raises(ValueError, match=message):
        EvalConfig(scenario=single_scenario, controller="fixed", seeds=seeds)


def test_eval_config_rejects_an_unknown_controller(single_scenario):
    with pytest.raises(ValueError, match="^unknown controller 'random'$"):
        EvalConfig(scenario=single_scenario, controller="random", seeds=[1])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--episodes", "1", "--seed", "-3", "--weights-out", "w.json"], "seed: .* got -3"),
        (["eval", "--controller", "fixed", "--seeds", "-1", "--out", "r.json"], "seeds: .* got -1"),
        (["eval", "--controller", "fixed", "--seeds", "1,1", "--out", "r.json"], "seeds: 1 is listed more than once"),
        *((["eval", "--controller", "fixed", "--seeds", raw, "--out", "r.json"],  # an empty entry is no seed
           rf"--seeds expects comma-separated integers, got {re.escape(repr(raw))}$")
          for raw in ("1,,2", "1,2,", ",1", "")),
    ],
)
def test_cli_bad_seeds_name_the_key(tmp_path, short_scenario, capsys, argv, message):
    argv = [*argv[:1], "--scenario", short_scenario, *(str(tmp_path / a) if a.endswith(".json") else a for a in argv[1:])]
    assert cli.main(argv) == 1
    error = json.loads(capsys.readouterr().err.strip())
    assert error["kind"] == "ValueError" and re.match(message, error["error"])
    assert list(tmp_path.iterdir()) == []


def test_train_without_updates_keeps_initial_weights(short_with_train):
    config = TrainConfig(
        scenario=scenario_at(short_with_train({"warmup": 10_000})),  # larger than all transitions of the episode
        episodes=1,
        seed=11,
    )
    result = harness.train(config)
    init = qnet.init_network(
        (harness.dqn.state_dim(4), 64, 64, 3), harness._generator(11, harness._NS_NET, 0)
    )
    assert result.weights_doc == qnet.serialize(init)
    assert len(result.curve) == 1
    assert math.isnan(result.curve[0]["mean_loss"])


def test_train_is_deterministic(short_with_train):
    config = dict(
        scenario=scenario_at(short_with_train({"warmup": 20})),  # low enough that gradient steps actually run
        episodes=2,
        seed=3,
    )
    a = harness.train(TrainConfig(**config))
    b = harness.train(TrainConfig(**config))
    assert a.weights_doc == b.weights_doc
    assert harness.curve_csv(a.curve) == harness.curve_csv(b.curve)
    assert not math.isnan(a.curve[-1]["mean_loss"])


def test_curve_epsilon_is_the_schedule_at_each_episode_first_decision(short_with_train):
    """120 s at interval 5 is 24 decisions an episode; 4 episodes decay over the first 48."""
    scenario = scenario_at(short_with_train({"eps_fraction": 0.5}))
    result = harness.train(TrainConfig(scenario=scenario, episodes=4, seed=2))
    assert [row["episode"] for row in result.curve] == [0, 1, 2, 3]
    assert [row["epsilon"] for row in result.curve] == pytest.approx([1.0, 0.525, 0.05, 0.05])


def test_epsilon_at_every_decision_is_the_linear_schedule(monkeypatch, short_with_train):
    """At interval 7, 120 s is ceil(120 / 7) = 18 decisions an episode, so 3 episodes are 54 decisions and epsilon
    decays from 1.0 to 0.05 over the first 27; each decision acts with the value at its index in the run."""
    epsilons = []

    class RecordingAgent(harness._TrainingAgent):
        def act(self, obs):
            super().act(obs)
            epsilons.append(self.epsilon)

    monkeypatch.setattr(harness, "_TrainingAgent", RecordingAgent)
    path = short_with_train({"eps_fraction": 0.5, "decision_interval": 7})
    result = harness.train(TrainConfig(scenario=scenario_at(path), episodes=3, seed=2))
    expected = [1.0 + (0.05 - 1.0) * min(1.0, d / 27.0) for d in range(54)]
    assert epsilons == expected
    assert [row["epsilon"] for row in result.curve] == expected[::18]


def test_train_literal_reward_mode_runs(short_with_train):
    base = dict(scenario=scenario_at(short_with_train({"warmup": 20})), episodes=1, seed=4)
    literal = harness.train(TrainConfig(reward_mode="literal", **base))
    balanced = harness.train(TrainConfig(reward_mode="balanced", **base))
    assert literal.curve[0]["return"] != balanced.curve[0]["return"]
    with pytest.raises(ValueError):
        TrainConfig(reward_mode="bogus", **base)


# --- the stacked learner ------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([4, 7]),
    count=st.integers(1, 4),
    spare=st.integers(0, 4),
    pushes=st.integers(1, 30),
    batch=st.integers(1, 5),
    warmup=st.integers(0, 6),
    target_sync=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_learner_matches_independent_learners(d, count, spare, pushes, batch, warmup, target_sync, seed):
    capacity = max(batch, warmup) + spare  # a smaller buffer is rejected: it could never fill a batch or the warmup
    hp = Hyperparams(buffer_capacity=capacity, batch_size=batch, warmup=warmup, target_sync=target_sync,
                     hidden=(5,), lr=0.05)
    rng = make_rng(seed)
    initial = [qnet.init_network((d, 5, 3), rng) for _ in range(count)]
    learner = harness._Learner([qnet.clone(net) for net in initial], hp)
    independent = [oracles.IndependentLearner(qnet.clone(net), capacity) for net in initial]
    stacked_rng, oracle_rng = make_rng(seed + 1), make_rng(seed + 1)
    for _ in range(pushes):  # the ring wraps whenever pushes > capacity
        terminal = bool(rng.random() < 0.3)
        batch_of = [oracles.Transition(rng.normal(size=d), int(rng.integers(0, 3)), float(rng.normal()),
                                       rng.normal(size=d), terminal) for _ in range(count)]
        learner.buffer.push([t.state for t in batch_of], [t.action for t in batch_of],
                            [t.reward for t in batch_of], [t.next_state for t in batch_of], terminal)
        for ln, t in zip(independent, batch_of):
            ln.buffer.push(t)
        losses = learner.update(stacked_rng)
        assert losses.tolist() == oracles.independent_updates(independent, hp, oracle_rng)
    for k, ln in enumerate(independent):
        assert np.array_equal(learner.params.flat[k], ln.net.flat)
        assert np.array_equal(learner.target.flat[k], ln.target.flat)


def test_learner_params_rows_are_the_initial_networks_and_the_target_a_copy():
    rng = make_rng(4)
    initial = [qnet.init_network((7, 5, 3), rng) for _ in range(3)]
    learner = harness._Learner(initial, Hyperparams(hidden=(5,)))
    assert learner.params.sizes == initial[0].sizes
    assert learner.params.flat.shape == (3, initial[0].flat.size)
    assert learner.buffer.states.shape == (3, Hyperparams().buffer_capacity, 7)
    for row, init in zip(learner.params.flat, initial):
        assert np.array_equal(row, init.flat)
        assert not np.shares_memory(row, init.flat)  # the learner trains its own stack, not the initial networks
    assert np.array_equal(learner.target.flat, learner.params.flat)
    assert not np.shares_memory(learner.target.flat, learner.params.flat)


def test_learner_update_allocates_no_per_layer_arrays():
    """Five grid2x2-shaped updates (4 networks of 10-64-64-3, batch 32) stay below two (4, 32, 64) activations
    of traced memory: the online and target passes write into the learner's workspaces."""
    rng = make_rng(5)
    hp = Hyperparams(warmup=32)
    learner = harness._Learner([qnet.init_network((10, 64, 64, 3), rng) for _ in range(4)], hp)
    for _ in range(64):
        learner.buffer.push(rng.uniform(size=(4, 10)), rng.integers(0, 3, size=4), rng.normal(size=4),
                            rng.uniform(size=(4, 10)), bool(rng.random() < 0.1))
    sample_rng = make_rng(6)
    tracemalloc.start()
    try:
        for _ in range(5):
            assert learner.update(sample_rng).shape == (4,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4 * 32 * 64 * 8, peak


def test_training_policy_acts_with_the_learner_params():
    scenario = scenario_at(MIXED_SCENARIO)
    config = TrainConfig(scenario=scenario, episodes=1, seed=2)
    layout = harness._junction_infos(scenario)
    hp = scenario.hyperparams
    initial = [qnet.init_network((layout.width, 5, 3), make_rng(k)) for k in range(len(layout.junctions))]
    learner = harness._Learner(initial, hp)
    agent = harness._TrainingAgent(layout, learner, config, decisions=10)
    assert agent.net is learner.params and agent.net.flat.shape[0] == len(layout.junctions)


def test_a_padded_lane_slot_keeps_its_initial_weights_through_training():
    """mixed.xn's junction e has 2 lanes padded to w's 3 lane slots.  Its third slot always reads 0, so the
    first-layer weights that read it get a zero gradient and a zero Adam step, and keep their initial bits."""
    scenario = netmodel.load_scenario(MIXED_SCENARIO.read_text())
    layout = harness._junction_infos(scenario)
    k = [junction.id for junction in layout.junctions].index("e")
    assert layout.rows[k] == slice(3, 5) and layout.width == dqn.state_dim(3)
    initial = qnet.init_network((layout.width, *scenario.hyperparams.hidden, 3),
                                harness._generator(7, harness._NS_NET, k))
    result = harness.train(TrainConfig(scenario=scenario_at(MIXED_SCENARIO), episodes=4, seed=7))
    trained = qnet.deserialize(result.weights_doc)["e"]
    assert not math.isnan(result.curve[-1]["mean_loss"])  # the learner did take steps
    lanes, padded = slice(0, 6), slice(6, 9)
    assert trained.weights[0][:, padded].tobytes() == initial.weights[0][:, padded].tobytes()
    assert not np.array_equal(trained.weights[0][:, lanes], initial.weights[0][:, lanes])


def _count_lane_walks(monkeypatch) -> list:
    """Replace ``harness.junction_view`` with a wrapper that records the clock of each call."""
    clocks, real = [], harness.junction_view

    def counting(sim, lanes):
        clocks.append(sim.clock)
        return real(sim, lanes)

    monkeypatch.setattr(harness, "junction_view", counting)
    return clocks


def test_fixed_time_rollout_computes_no_lane_statistics(monkeypatch):
    clocks = _count_lane_walks(monkeypatch)
    report = harness.evaluate(EvalConfig(scenario=scenario_at(MIXED_SCENARIO), controller="fixed", seeds=[1, 2]))
    assert report.vehicles.id and clocks == []


def test_training_walks_the_lanes_once_per_clock(monkeypatch):
    """The array computed for the reward after a step is the one the next decision reads."""
    clocks = _count_lane_walks(monkeypatch)
    harness.train(TrainConfig(scenario=scenario_at(MIXED_SCENARIO), episodes=2, seed=1))
    steps = int(netmodel.load_scenario(MIXED_SCENARIO.read_text()).duration)
    assert clocks == 2 * [float(t) for t in range(steps + 1)]


def test_dqn_eval_walks_the_lanes_once_per_decision(monkeypatch, tmp_path):
    weights = harness.train(TrainConfig(scenario=scenario_at(MIXED_SCENARIO), episodes=1, seed=1)).weights_doc
    clocks = _count_lane_walks(monkeypatch)
    harness.evaluate(EvalConfig(scenario_at(MIXED_SCENARIO), "dqn", [4], weights=weights))
    assert clocks == [float(t) for t in range(0, 400, 5)]


def test_decisions_restart_at_clock_0_in_every_episode(monkeypatch, tmp_path):
    """At interval 7, which does not divide mixed.xn's 400 s, an episode's last decision is at 399 s; each
    following episode, in training and at evaluation alike, still decides at 0, 7, 14, ..."""
    doc = json.loads(MIXED_SCENARIO.read_text())
    doc["train"]["decision_interval"] = 7
    path = tmp_path / "interval7.xn"
    path.write_text(json.dumps(doc))
    decided = []

    class RecordingAgent(harness._TrainingAgent):
        def decide(self, clock, lane_stats, states):
            self.clock = clock
            return super().decide(clock, lane_stats, states)

        def act(self, obs):
            decided.append(self.clock)
            super().act(obs)

    monkeypatch.setattr(harness, "_TrainingAgent", RecordingAgent)
    weights = harness.train(TrainConfig(scenario=scenario_at(path), episodes=2, seed=1)).weights_doc
    expected = 2 * [float(t) for t in range(0, 400, 7)]
    assert decided == expected
    clocks = _count_lane_walks(monkeypatch)
    harness.evaluate(EvalConfig(scenario_at(path), "dqn", [4, 5], weights=weights))
    assert clocks == expected


def test_rollout_features_and_rewards_equal_the_oracle_path(monkeypatch):
    """On mixed.xn (junctions with 3 and 2 lanes) the array path gives, at every
    decision, the features of the per-junction lane walk, and at every step its
    rewards; the terminal features and each interval's reward sums match too."""
    scenario = netmodel.load_scenario(MIXED_SCENARIO.read_text())
    junctions = harness._junction_infos(scenario).junctions
    assert [len(junction.incoming_signal_edges) for junction in junctions] == [3, 2]
    vehicle = scenario.vehicle
    capacities = [
        [scenario.network.edge(eid).capacity(vehicle.length, vehicle.min_gap)
         for eid in junction.axis_a + junction.axis_b]
        for junction in junctions
    ]
    sims = []
    checked = {"decisions": 0, "steps": 0, "terminal": 0, "waiting": 0}

    class RecordingSimulation(harness.Simulation):
        def __init__(self, *args):
            super().__init__(*args)
            sims.append(self)

    class CheckedAgent(harness._TrainingAgent):
        def __init__(self, *args):
            super().__init__(*args)
            self.oracle_sums = [0.0] * len(self.layout.junctions)

        def decide(self, clock, lane_stats, states):
            self.states = states
            return super().decide(clock, lane_stats, states)

        def check_features(self, obs):
            for k, junction in enumerate(self.layout.junctions):
                view = oracles.junction_view(sims[-1], junction, capacities[k], self.states[k])
                assert obs[k].tobytes() == oracles.featurize(view, 3).tobytes()  # junction e's lanes padded to 3
                checked["waiting"] += any(view.lane_waits)

        def act(self, obs):
            self.check_features(obs)
            checked["decisions"] += 1
            super().act(obs)

        def on_step(self, sim, lane_stats, states, done):
            self.states = states
            for k, junction in enumerate(self.layout.junctions):
                self.oracle_sums[k] += oracles.step_reward(sim, junction, mode)
            checked["steps"] += 1
            super().on_step(sim, lane_stats, states, done)
            if not done:  # each step's lookup adds the oracle's reward to the same sum
                assert self.reward_sums == self.oracle_sums

        def _close_interval(self, next_obs, terminal):
            assert self.reward_sums == self.oracle_sums
            self.oracle_sums = [0.0] * len(self.layout.junctions)
            if terminal:
                self.check_features(next_obs)
                checked["terminal"] += 1
            super()._close_interval(next_obs, terminal)

    monkeypatch.setattr(harness, "Simulation", RecordingSimulation)
    monkeypatch.setattr(harness, "_TrainingAgent", CheckedAgent)
    for mode in dqn.REWARD_MODES:  # read by CheckedAgent.on_step
        harness.train(TrainConfig(scenario=scenario_at(MIXED_SCENARIO), episodes=2, seed=5, reward_mode=mode))
    assert checked["decisions"] == 2 * 2 * 80 and checked["steps"] == 2 * 2 * 400 and checked["terminal"] == 4
    assert checked["waiting"] > 0  # some decisions saw queued vehicles


def test_balanced_reward_prefers_holding_the_wrong_green_to_switching():
    """Once the mean wait reaches 5 s, the waiting term is -1 under either green and so is the reward; the only
    difference a switch makes is its yellow, whose red-only axes cost 0.4 per step.  Holding serve_b while axis
    A queues therefore beats switching to serve_a, which is how a trained agent locks into the wrong green."""
    junction = netmodel.Junction("c", signalized=True, axis_a=("n", "s"), axis_b=("e", "w"), yellow=3.0,
                                 min_green=5.0)
    stats = np.array([[9.0, 9.0, 14.0], [7.0, 7.0, 10.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # axis A waits
    assert stats[:, 2].mean() >= 5.0
    heavy = dqn.waiting_level(sum(stats[:, 2].tolist()) / 4)
    phase_rewards = dqn.phase_rewards(junction, "balanced")

    def rewards(request, steps=10):
        state = harness.SignalAssignment("serve_b", -20.0, "serve_b")  # past min-green, free to switch
        out = []
        for clock in range(steps):
            state = harness.apply_interlock(request, state, junction, float(clock))
            out.append(phase_rewards[state.phase][heavy])
        return out, state.phase

    held, held_phase = rewards("serve_b")
    switched, switched_phase = rewards("serve_a")
    assert (held_phase, switched_phase) == ("serve_b", "serve_a")
    assert held == [-1.0] * 10
    assert switched == [-1.4] * 3 + [-1.0] * 7
    assert sum(held) - sum(switched) == pytest.approx(1.2, abs=1e-12)


def test_divergence_names_the_junction(monkeypatch):
    real_init = qnet.init_network
    made = []

    def init_network(sizes, rng):
        net = real_init(sizes, rng)
        if made:  # the second junction, "e", gets weights whose q-values overflow
            net.flat *= 1e200
        made.append(net)
        return net

    monkeypatch.setattr(harness.qnet, "init_network", init_network)
    config = TrainConfig(scenario=scenario_at(MIXED_SCENARIO), episodes=2, seed=1)
    with np.errstate(all="ignore"), pytest.raises(harness.TrainingDivergedError, match="junction e: non-finite"):
        harness.train(config)


def test_eval_is_deterministic(short_scenario):
    config = EvalConfig(scenario=scenario_at(short_scenario), controller="fixed", seeds=[5, 6])
    a = harness.evaluate(config)
    b = harness.evaluate(config)
    assert metrics.report_to_json(a) == metrics.report_to_json(b)
    assert metrics.report_csv(a) == metrics.report_csv(b)


def test_eval_seed_order_changes_layout_not_results(short_scenario):
    fwd = harness.evaluate(EvalConfig(scenario=scenario_at(short_scenario), controller="fixed", seeds=[5, 6]))
    rev = harness.evaluate(EvalConfig(scenario=scenario_at(short_scenario), controller="fixed", seeds=[6, 5]))
    by_seed_fwd = {ep.seed: ep.emergency_stops for ep in fwd.episodes}
    by_seed_rev = {ep.seed: ep.emergency_stops for ep in rev.episodes}
    assert by_seed_fwd == by_seed_rev
    assert fwd.summaries.wt.mean == pytest.approx(rev.summaries.wt.mean)


def test_dqn_eval_seed_order_changes_layout_not_results():
    """One policy runs every seed, so a seed's vehicles do not depend on the seeds run before it."""
    weights = (REPO / "perfbench" / "inputs" / "single-seed7-ep200.weights.json").read_text()
    columns = ("id", "route", "wt", "tl", "es", "dd", "never_departed")

    def rows_by_seed(seeds):
        report = harness.evaluate(EvalConfig(scenario_at(SCENARIOS / "single.xn"), "dqn", seeds, weights=weights))
        v = report.vehicles
        return {seed: [tuple(getattr(v, key)[i] for key in columns) for i in range(len(v.id)) if v.seed[i] == seed]
                for seed in seeds}

    fwd, rev = rows_by_seed([1003, 1014]), rows_by_seed([1014, 1003])
    assert fwd == rev and all(fwd.values())


def test_eval_rows_carry_their_own_episode(short_scenario):
    report = harness.evaluate(EvalConfig(scenario=scenario_at(short_scenario), controller="fixed", seeds=[6, 5]))
    assert [(ep.seed, ep.episode) for ep in report.episodes] == [(6, 0), (5, 1)]
    expected = [(ep.seed, ep.episode) for ep in report.episodes for _ in range(ep.spawned)]
    assert list(zip(report.vehicles.seed, report.vehicles.episode)) == expected
    rows = metrics.report_csv(report).strip().split("\n")[1:]
    assert [tuple(int(c) for c in row.split(",")[-2:]) for row in rows] == expected


def test_eval_route_column_is_the_spawn_schedule_route(single_scenario):
    report = harness.evaluate(EvalConfig(scenario=scenario_at(SCENARIOS / "single.xn"), controller="fixed", seeds=[5]))
    schedule = simcore.spawn_schedule(single_scenario, harness._generator(5))
    assert report.vehicles.route == [route for _, route in schedule]
    assert set(report.vehicles.route) == set(range(len(single_scenario.routes)))


def test_trimmed_report_with_more_seeds_than_episodes_is_rejected(single_scenario):
    """A 2-seed fixed-time report cut to 3 seeds, its first episode and 5 rows, its summaries left as they were."""
    report = harness.evaluate(EvalConfig(scenario=single_scenario, controller="fixed", seeds=[1, 2]))
    doc = json.loads(metrics.report_to_json(report))
    doc["seeds"] = [1, 2, 3]
    doc["episodes"] = doc["episodes"][:1]
    doc["vehicles"] = {key: column[:5] for key, column in doc["vehicles"].items()}
    assert doc["summaries"]["wt"]["n"] == 398
    with pytest.raises(metrics.ReportFormatError, match="report: 'episodes' has 1 entries for 3 'seeds'"):
        metrics.report_from_json(json.dumps(doc))


def test_eval_empty_demand_reports_zeroes(tmp_path, single_text):
    doc = json.loads(single_text)
    for r in doc["routes"]:
        r["rate"] = 0.0
    path = tmp_path / "empty.xn"
    path.write_text(json.dumps(doc))
    report = harness.evaluate(EvalConfig(scenario=scenario_at(path), controller="fixed", seeds=[1]))
    for key in metrics.METRIC_KEYS:
        s = getattr(report.summaries, key)
        assert (s.mean, s.sd, s.vmin, s.vmax, s.n) == (0.0, 0.0, 0.0, 0.0, 0)
    assert report.es_per_episode.mean == 0.0


def test_trained_dqn_evaluates_and_weights_file_untouched(tmp_path, short_scenario):
    result = harness.train(
        TrainConfig(scenario=scenario_at(short_scenario), episodes=2, seed=9)
    )
    weights = tmp_path / "w.json"
    weights.write_text(result.weights_doc)
    digest_before = hashlib.sha256(weights.read_bytes()).hexdigest()
    rc = cli.main(
        ["eval", "--scenario", short_scenario, "--controller", "dqn",
         "--weights", str(weights), "--seeds", "1,2", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 0
    assert hashlib.sha256(weights.read_bytes()).hexdigest() == digest_before
    report = metrics.report_from_json((tmp_path / "r.json").read_text())
    assert report.controller == "dqn"
    assert len(report.episodes) == 2


def test_dqn_weights_junction_mismatch(short_with_train):
    result = harness.train(TrainConfig(scenario=scenario_at(short_with_train({"warmup": 10_000})), episodes=1, seed=9))
    with pytest.raises(WeightsMismatchError):
        harness.evaluate(
            EvalConfig(
                scenario=scenario_at(SCENARIOS / "grid2x2.xn"),
                controller="dqn",
                seeds=[1],
                weights=result.weights_doc,
            )
        )


def test_dqn_weights_dimension_mismatch(short_scenario):
    wrong = qnet.serialize(qnet.init_network((7, 8, 3), harness._generator(0)))
    with pytest.raises(WeightsMismatchError) as err:
        harness.evaluate(
            EvalConfig(scenario=scenario_at(short_scenario), controller="dqn", seeds=[1], weights=wrong)
        )
    assert "dimension" in str(err.value)


@pytest.mark.parametrize("outputs", [2, 5])
def test_dqn_weights_output_width_must_match_the_requests(single_scenario, outputs):
    layout = harness._junction_infos(single_scenario)
    jid, d_in = layout.junctions[0].id, dqn.state_dim(len(layout.lanes))
    net = qnet.init_network((d_in, 8, outputs), harness._generator(0))
    with pytest.raises(WeightsMismatchError) as err:
        harness.load_weights(qnet.serialize(net), layout)
    assert str(err.value) == (
        f"junction {jid}: weights map input dimension {d_in} to {outputs} outputs, the scenario needs {d_in} to 3"
    )


def test_dqn_weights_entry_for_an_unknown_junction_is_rejected(single_scenario):
    layout = harness._junction_infos(single_scenario)
    net = qnet.init_network((dqn.state_dim(len(layout.lanes)), 8, 3), harness._generator(0))
    text = qnet.serialize({layout.junctions[0].id: net, "zz": net})
    with pytest.raises(WeightsMismatchError, match="'zz'"):
        harness.load_weights(text, layout)


def test_dqn_weights_sized_to_a_junction_own_lanes_are_rejected():
    """mixed.xn's 2-lane junction e takes the 13-wide state of the 3-lane junction w, not a 10-wide one."""
    layout = harness._junction_infos(netmodel.load_scenario(MIXED_SCENARIO.read_text()))
    nets = {"w": qnet.init_network((13, 8, 3), harness._generator(0)),
            "e": qnet.init_network((10, 8, 3), harness._generator(1))}
    with pytest.raises(WeightsMismatchError) as err:
        harness.load_weights(qnet.serialize(nets), layout)
    assert str(err.value) == "junction e: weights map input dimension 10 to 3 outputs, the scenario needs 13 to 3"


def test_dqn_weights_without_a_junction_entry_are_rejected():
    """A ``multi`` document for mixed.xn that holds junction w's network but not junction e's."""
    layout = harness._junction_infos(netmodel.load_scenario(MIXED_SCENARIO.read_text()))
    text = qnet.serialize({"w": qnet.init_network((13, 8, 3), harness._generator(0))})
    with pytest.raises(WeightsMismatchError) as err:
        harness.load_weights(text, layout)
    assert str(err.value) == "weights document has no entry for junction e"


def test_dqn_weights_of_two_shapes_are_rejected():
    """The policy acts with every junction's network stacked as one, so their hidden widths must agree too."""
    layout = harness._junction_infos(netmodel.load_scenario(MIXED_SCENARIO.read_text()))
    nets = {"w": qnet.init_network((13, 8, 3), harness._generator(0)),
            "e": qnet.init_network((13, 4, 3), harness._generator(1))}
    with pytest.raises(WeightsMismatchError) as err:
        harness.load_weights(qnet.serialize(nets), layout)
    assert str(err.value) == ("junction e: layer widths [13, 4, 3] differ from junction w's [13, 8, 3]; every "
                              "junction's network needs the same")


def test_the_junction_layout_of_mixed():
    """mixed.xn's junctions w (3 lanes) and e (2 lanes): their lanes, rows, one state width and statistic scales."""
    scenario = netmodel.load_scenario(MIXED_SCENARIO.read_text())
    layout = harness._junction_infos(scenario)
    assert [junction.id for junction in layout.junctions] == ["w", "e"]
    assert layout.lanes == ["n0_in", "s0_in", "west_in", "n1_in", "link"]  # junction by junction, axis A then B
    assert layout.rows == [slice(0, 3), slice(3, 5)]
    assert layout.width == dqn.state_dim(3)
    assert layout.slots.tolist() == [*range(0, 9), *range(13, 19)]  # junction e's third lane slot stays empty
    vehicle = scenario.vehicle
    capacities = [scenario.network.edge(lane).capacity(vehicle.length, vehicle.min_gap) for lane in layout.lanes]
    assert layout.scale[:, 0].tolist() == capacities and layout.scale[:, 1].tolist() == capacities
    assert layout.scale[:, 2].tolist() == [dqn.WAIT_CAP] * len(capacities)


def test_a_scenario_without_signals_has_an_empty_layout_and_runs_fixed_time(no_signal_scenario):
    layout = harness._junction_infos(netmodel.load_scenario(Path(no_signal_scenario).read_text()))
    assert (layout.junctions, layout.lanes, layout.rows) == ((), [], [])
    assert layout.slots.size == 0 and layout.scale.shape == (0, 3)
    report = harness.evaluate(EvalConfig(scenario_at(no_signal_scenario), "fixed", [1, 2]))
    assert len(report.episodes) == 2 and report.vehicles.id


@pytest.mark.parametrize("multi", [False, True], ids=["single", "multi"])
def test_cli_eval_dqn_on_a_scenario_without_signals_fails_cleanly(tmp_path, no_signal_scenario, capsys, multi):
    weights = tmp_path / "w.json"
    net = qnet.init_network((dqn.state_dim(4), 8, 3), harness._generator(0))
    weights.write_text(json.dumps({"format_version": 1, "multi": {}}) if multi else qnet.serialize(net))
    argv = ["eval", "--scenario", no_signal_scenario, "--controller", "dqn", "--weights", str(weights),
            "--seeds", "1", "--out", str(tmp_path / "out" / "r.json")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one JSON error line
    assert json.loads(err) == {"error": "scenario has no signalized junction to control",
                               "kind": "WeightsMismatchError"}
    assert not (tmp_path / "out").exists()


def test_train_on_a_scenario_without_signals_fails_cleanly(no_signal_scenario):
    scenario = scenario_at(no_signal_scenario)
    with pytest.raises(ValueError, match="^scenario has no signalized junction to control$"):
        TrainConfig(scenario=scenario, episodes=1, seed=0)


def _report_with_means(controller, es_mean, dd_mean, es_episode_mean):
    summary = lambda m: StatSummary(mean=m, sd=0.0, vmin=m, vmax=m, n=4)  # noqa: E731
    return RunReport(
        controller=controller,
        scenario_id="same",
        seeds=[1, 2],
        summaries=Summaries(wt=summary(10.0), tl=summary(20.0), es=summary(es_mean), dd=summary(dd_mean)),
        es_per_episode=summary(es_episode_mean),
        episodes=[],
        vehicles=Vehicles.empty(),
    )


def test_compare_reference_reduction_values():
    """The paper's reduction reads negative, an increase positive, and a zero baseline gives a change of None."""
    for before, after, change in ((165.5, 92.4091, -44.1637), (100.0, 150.0, 50.0), (0.0, 1.0, None)):
        base = _report_with_means("fixed", before, 4.3436, before)
        cand = _report_with_means("dqn", after, 4.2464, after)
        doc = harness.compare(base, cand)
        expected = None if change is None else pytest.approx(change, abs=1e-4)
        assert doc["metrics"]["es"]["change_pct"] == expected
        assert doc["metrics"]["dd"]["change_pct"] == pytest.approx(-2.238, abs=1e-3)
        assert doc["es_per_episode"]["change_pct"] == expected
        assert doc["baseline"] == "fixed" and doc["candidate"] == "dqn"


def test_compare_totals_never_departed_over_episodes():
    def episodes(*never):
        return [
            metrics.EpisodeTotals(seed=k, episode=k, spawned=50, departed=50 - n, arrived=40, never_departed=n,
                                  emergency_stops=0)
            for k, n in enumerate(never)
        ]

    base = replace(_report_with_means("fixed", 3.0, 1.0, 3.0), episodes=episodes(0, 2))
    cand = replace(_report_with_means("dqn", 3.0, 1.0, 3.0), episodes=episodes(7, 0))
    assert harness.compare(base, cand)["never_departed"] == {"baseline": 2, "candidate": 7}


def test_compare_identical_reports_zero_change():
    a = _report_with_means("fixed", 3.0, 1.0, 3.0)
    b = _report_with_means("dqn", 3.0, 1.0, 3.0)
    text = json.dumps(harness.compare(a, b))
    # four metrics and es_per_episode, each +0.0: -0.0 == 0.0 too, so the check reads the written text
    assert text.count('"change_pct": 0.0') == 5 and "-0.0" not in text


def test_compare_rejects_mismatched_runs():
    a = _report_with_means("fixed", 3.0, 1.0, 3.0)
    b = _report_with_means("dqn", 3.0, 1.0, 3.0)
    b.scenario_id = "other"
    with pytest.raises(ValueError):
        harness.compare(a, b)
    b.scenario_id = "same"
    b.seeds = [9]
    with pytest.raises(ValueError):
        harness.compare(a, b)


def test_curve_csv_layout():
    text = harness.curve_csv([{"episode": 0, "return": -1.5, "epsilon": 1.0, "mean_loss": 0.25}])
    lines = text.strip().split("\n")
    assert lines[0] == "episode,return,epsilon,mean_loss"
    assert lines[1] == "0,-1.5,1.0,0.25"


# --- CLI ------------------------------------------------------------------------


def test_cli_train_eval_compare_round_trip(tmp_path, short_with_train, capsys):
    short_scenario = short_with_train({"warmup": 50})
    weights = tmp_path / "w.json"
    assert (
        cli.main(
            [
                "train",
                "--scenario", short_scenario,
                "--episodes", "2",
                "--seed", "3",
                "--weights-out", str(weights),
            ]
        )
        == 0
    )
    assert weights.exists()
    assert (tmp_path / "w.curve.csv").exists()

    fixed_out = tmp_path / "fixed.json"
    dqn_out = tmp_path / "dqn.json"
    for controller, out in (("fixed", fixed_out), ("dqn", dqn_out)):
        args = [
            "eval",
            "--scenario", short_scenario,
            "--controller", controller,
            "--seeds", "5,6",
            "--out", str(out),
        ]
        if controller == "dqn":
            args += ["--weights", str(weights)]
        assert cli.main(args) == 0
        assert out.exists()
        assert (tmp_path / f"{out.stem}.report.csv").exists()
        assert (tmp_path / f"{out.stem}.summary.csv").exists()

    cmp_out = tmp_path / "cmp.json"
    assert cli.main(["compare", str(fixed_out), str(dqn_out), "--out", str(cmp_out)]) == 0
    doc = json.loads(cmp_out.read_text())
    assert doc["baseline"] == "fixed" and doc["candidate"] == "dqn"
    summary = (tmp_path / "cmp.summary.csv").read_text().strip().split("\n")
    assert summary[0].startswith("statistic,fixed_wt")
    capsys.readouterr()


def test_cli_eval_dqn_without_weights_fails(tmp_path, short_scenario, capsys):
    rc = cli.main(
        ["eval", "--scenario", short_scenario, "--controller", "dqn", "--seeds", "1", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert json.loads(err)["kind"]  # machine-readable error line


@pytest.mark.parametrize(
    "controller, weights, message",
    [("dqn", False, "the dqn controller needs a weights document"),
     ("fixed", True, "the fixed controller takes no weights document")],
)
def test_cli_eval_weights_must_match_the_controller(tmp_path, short_scenario, capsys, controller, weights, message):
    argv = ["eval", "--scenario", short_scenario, "--controller", controller, "--seeds", "1",
            "--out", str(tmp_path / "out" / "r.json")]
    if weights:
        path = tmp_path / "w.json"
        config = TrainConfig(scenario=scenario_at(short_scenario), episodes=1, seed=1)
        path.write_text(harness.train(config).weights_doc)
        argv += ["--weights", str(path)]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {"error": message, "kind": "ValueError"}
    assert not (tmp_path / "out").exists()


def test_cli_bad_scenario_path_fails_cleanly(tmp_path, capsys):
    rc = cli.main(
        ["eval", "--scenario", str(tmp_path / "missing.xn"), "--controller", "fixed", "--seeds", "1",
         "--out", str(tmp_path / "r.json")]
    )
    assert rc == 1
    assert "error" in json.loads(capsys.readouterr().err.strip())


@pytest.mark.parametrize("argv", [
    ["train", "--scenario", "", "--episodes", "1", "--seed", "0", "--weights-out", "out/w.json"],
    ["eval", "--scenario", "", "--controller", "fixed", "--seeds", "1", "--out", "out/r.json"],
    ["eval", "--scenario", "single.xn", "--controller", "dqn", "--weights", "", "--seeds", "1", "--out", "out/r.json"],
    ["compare", "", "b.json", "--out", "out/c.json"],
    ["run_comparison.py", "--scenario", "", "--episodes", "1", "--eval-seeds", "1-1", "--out-dir", "out"],
], ids=["train --scenario", "eval --scenario", "eval --weights", "compare", "run_comparison.py --scenario"])
def test_an_empty_path_is_reported_as_no_such_file(tmp_path, short_scenario, capsys, argv):
    """``Path("")`` is the current directory, so every input file is opened by the name the user gave."""
    report = harness.evaluate(EvalConfig(scenario=scenario_at(short_scenario), controller="fixed", seeds=[1]))
    (tmp_path / "b.json").write_text(metrics.report_to_json(report))
    names = {"single.xn": str(SCENARIOS / "single.xn"), "b.json": str(tmp_path / "b.json")}
    argv = [names.get(a, str(tmp_path / a) if a.startswith("out") else a) for a in argv]
    message = "[Errno 2] No such file or directory: ''"
    if argv[0] == "run_comparison.py":
        done = subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]], capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 2 and done.stderr.endswith(f"error: {message}\n") and not done.stdout
    else:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err) == {"error": message, "kind": "FileNotFoundError"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json"]


def test_cli_usage_error_is_machine_readable(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--scenario"])
    assert exc.value.code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())
