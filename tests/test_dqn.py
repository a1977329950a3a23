import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_net, make_rng
from oracles import Transition, reward_from_counts, td_target
from greenlight import dqn, harness, netmodel, qnet, simcore
from greenlight.controllers import SignalAssignment
from greenlight.dqn import (
    ReplayBuffer,
    featurize,
    select_action,
    state_dim,
)


PHASES = ("serve_a", "serve_b", "all_red", "yellow_a", "yellow_b")


def _features(counts, caps, halted, waits, phase="serve_a", t=0.0, padding=0):
    """``featurize``'s row for a junction whose lanes hold the given statistics, ``t`` s into its phase; a second
    junction of ``len(counts) + padding`` empty lanes sets the width, so ``padding`` lane slots lie past its lanes."""
    n, wide = len(counts), len(counts) + padding
    stats = np.zeros((n + wide, 3))
    stats[:n] = np.column_stack([counts, halted, waits])
    lanes = [f"l{i}" for i in range(n + wide)]
    junctions = [netmodel.Junction("j0", signalized=True, axis_a=tuple(lanes[:n])),
                 netmodel.Junction("j1", signalized=True, axis_a=tuple(lanes[n:]))]
    layout = dqn.StateLayout(junctions, dict(zip(lanes, list(caps) + [1.0] * wide)).__getitem__)
    return featurize(stats, layout, [SignalAssignment(phase)] * 2, t)[0]  # phase since clock 0


def _view(counts, caps, halted, waits, phase="serve_a", t=0.0):
    state = SignalAssignment(phase=phase)
    return oracles.JunctionView(
        lane_counts=tuple(counts),
        lane_capacities=tuple(caps),
        lane_halted=tuple(halted),
        lane_waits=tuple(waits),
        phase_onehot=state.phase_onehot(),
        time_in_phase=t,
    )


# --- featurization ------------------------------------------------------------


def test_featurize_empty_junction_serving_a():
    vec = _features([0, 0], [10, 10], [0, 0], [0.0, 0.0])
    assert vec.shape == (state_dim(2),)
    assert vec == pytest.approx([0, 0, 0, 0, 0, 0, 1, 0, 0, 0])


def test_featurize_saturated_lane_clamps_to_one():
    vec = _features([25], [12], [25], [9999.0], phase="all_red", t=600.0)
    assert vec == pytest.approx([1, 1, 1, 0, 0, 1, 1])


def test_featurize_counts_from_scripted_mini_scenario(single_scenario):
    # a 90 m lane holds floor(90 / 7.5) = 12 vehicles; 3 present, 2 halted 10 s each
    doc = netmodel.serialize_scenario(single_scenario)
    sc = netmodel.load_scenario(doc.replace('"length": 200.0', '"length": 90.0'))
    assert sc.network.edge("n_in").capacity(5.0, 2.5) == 12
    sim = simcore.Simulation(
        netmodel.Scenario(sc.network, (), sc.duration, sc.vehicle, sc.seed), make_rng(0)
    )
    route = (sc.network.edge("n_in"), sc.network.edge("s_out"))
    for vid, (pos, speed, wait) in enumerate([(80.0, 0.0, 10.0), (70.0, 0.0, 10.0), (50.0, 5.0, 0.0)]):
        veh = simcore.Vehicle(vid, route, 0.0, 0)
        veh.position, veh.speed, veh.waiting_time = pos, speed, wait
        veh.actual_depart = 0.0
        sim.vehicles.append(veh)
        sim.vehicles_on["n_in"].append(veh)
        sim.inserted_count += 1
    layout = harness._junction_infos(sc)
    stats = harness.junction_view(sim, layout.lanes)
    [vec] = featurize(stats, layout, [SignalAssignment()], 0.0)
    lane = layout.lanes.index("n_in")
    assert stats[lane].tolist() == [3.0, 2.0, 20.0]
    assert vec[3 * lane + 0] == pytest.approx(0.25)  # density 3/12
    assert vec[3 * lane + 1] == pytest.approx(2.0 / 12.0)  # queue
    assert vec[3 * lane + 2] == pytest.approx(20.0 / 300.0)  # summed halt wait
    assert vec[-4:-1].tolist() == [1.0, 0.0, 0.0]  # axis A serving


@settings(max_examples=100, deadline=None)
@given(
    caps=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    data=st.data(),
)
def test_featurize_components_stay_in_unit_interval(caps, data):
    n = len(caps)
    counts = [data.draw(st.integers(0, 3 * c)) for c in caps]
    halted = [data.draw(st.integers(0, counts[i])) for i in range(n)]
    waits = [data.draw(st.floats(0, 2000)) for _ in range(n)]
    phase = data.draw(st.sampled_from(PHASES))
    t = data.draw(st.floats(0, 500))
    vec = _features(counts, caps, halted, waits, phase, t)
    assert vec.shape == (state_dim(n),)
    assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


@settings(max_examples=300, deadline=None)
@given(
    caps=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    padding=st.integers(0, 3),
    data=st.data(),
)
def test_featurize_equals_the_view_oracle_bit_for_bit(caps, padding, data):
    n = len(caps)
    counts = [data.draw(st.integers(0, 3 * c)) for c in caps]
    halted = [data.draw(st.integers(0, counts[i])) for i in range(n)]
    waits = [data.draw(st.one_of(st.integers(0, 2000).map(float), st.floats(0, 2000))) for _ in range(n)]
    phase = data.draw(st.sampled_from(PHASES))
    t = data.draw(st.one_of(st.integers(0, 200).map(float), st.floats(0, 500)))
    vec = _features(counts, caps, halted, waits, phase, t, padding)
    expected = oracles.featurize(_view(counts, caps, halted, waits, phase, t), n + padding)
    assert vec.dtype == expected.dtype and vec.tobytes() == expected.tobytes()
    # whatever the lanes hold, the padded slots read exactly +0.0, so the weights that read them get no gradient
    assert vec[3 * n : 3 * (n + padding)].tobytes() == bytes(3 * padding * vec.itemsize)


# --- reward --------------------------------------------------------------------


def test_reward_balanced_signals_and_no_wait_is_zero():
    for mode in ("literal", "balanced"):
        assert reward_from_counts(2, 2, 0.0, mode) == 0.0


def test_reward_imbalance_of_five():
    assert reward_from_counts(5, 0, 0.0, "literal") == pytest.approx(1.0)  # 0.2*sqrt(25)
    assert reward_from_counts(5, 0, 0.0, "balanced") == pytest.approx(-1.0)


def test_reward_heavy_wait_hits_clamp():
    # balanced counts with w_t = 7: literal radicand is 0 + (-1) -> clamped to 0
    assert reward_from_counts(3, 3, 7.0, "literal") == 0.0
    assert reward_from_counts(3, 3, 7.0, "balanced") == pytest.approx(-1.0)


def test_reward_wait_branches():
    assert oracles.waiting_penalty(0.0) == 0.0
    assert oracles.waiting_penalty(4.9) == -0.5
    assert oracles.waiting_penalty(5.0) == -1.0  # closed upper branch at the boundary
    assert oracles.waiting_penalty(7.0) == -1.0


def test_reward_unknown_mode_rejected():
    with pytest.raises(ValueError):
        reward_from_counts(1, 1, 0.0, "quadratic")


def _axes(greens, reds):
    """A junction of ``greens`` axis-A lanes and ``reds`` axis-B lanes, so its serve_a phase shows that many of each."""
    ids = [f"e{i}" for i in range(greens + reds)]
    return netmodel.Junction("c", signalized=True, axis_a=tuple(ids[:greens]), axis_b=tuple(ids[greens:]))


def test_reward_from_view_counts_lanes():
    def step_reward(n_a, n_b, phase):
        junction = _axes(n_a, n_b)
        ids = junction.incoming_signal_edges
        network = netmodel.Network(junctions=(junction,), edges=())
        sim = types.SimpleNamespace(colors=(SignalAssignment(phase).colors(),),
                                    scenario=types.SimpleNamespace(network=network),
                                    vehicles_on={eid: [] for eid in ids})
        mean_wait = sum(harness.junction_view(sim, ids)[:, 2].tolist()) / (n_a + n_b)
        reward = dqn.phase_rewards(junction, "balanced")[phase][dqn.waiting_level(mean_wait)]
        assert reward == oracles.step_reward(sim, junction, "balanced")
        return reward

    # 2 green vs 1 red, no waiting
    assert step_reward(2, 1, "serve_a") == pytest.approx(-0.2)
    # yellow counts in neither sum
    assert step_reward(1, 1, "yellow_a") == pytest.approx(-0.2)


def test_level_rewards_are_the_rewards_at_each_waiting_level():
    assert [dqn.waiting_level(wait) for wait in (0.0, 4.9, 5.0, 7.0)] == [0, 1, 2, 2]  # none, light, heavy
    formulas = {"balanced": lambda d, w: -0.2 * abs(d) + w,
                "literal": lambda d, w: 0.2 * math.sqrt(max(0.0, d * d + w))}
    for n_a in range(5):
        for n_b in range(5):
            # Σgreen − Σred of each phase: yellow counts in neither sum, and all-red scores every lane as red
            diffs = {"serve_a": n_a - n_b, "serve_b": n_b - n_a, "all_red": -(n_a + n_b), "yellow_a": -n_b,
                     "yellow_b": -n_a}
            for mode, formula in formulas.items():
                expected = {phase: tuple(formula(d, w) for w in (0.0, -0.5, -1.0)) for phase, d in diffs.items()}
                assert dqn.phase_rewards(_axes(n_a, n_b), mode) == expected


@settings(max_examples=200, deadline=None)
@given(greens=st.integers(0, 8), reds=st.integers(0, 8), wait=st.floats(0, 100))
def test_reward_ranges_and_maximum(greens, reds, wait):
    lanes = greens + reds
    literal = reward_from_counts(greens, reds, wait, "literal")
    balanced = reward_from_counts(greens, reds, wait, "balanced")
    assert 0.0 <= literal <= 0.2 * max(lanes, 1) + 1e-12
    assert -0.2 * lanes - 1.0 - 1e-12 <= balanced <= 0.0
    if balanced == 0.0:
        assert greens == reds and wait == 0.0
    if greens == reds and wait == 0.0:
        assert balanced == 0.0
    for mode, reward in (("literal", literal), ("balanced", balanced)):  # the table training looks rewards up in
        assert dqn.phase_rewards(_axes(greens, reds), mode)["serve_a"][dqn.waiting_level(wait)] == reward


# --- action selection -----------------------------------------------------------


def test_select_action_greedy_argmax():
    assert select_action(np.array([[1.0, 3.0, 2.0], [0.0, 0.0, 4.0]]), 0.0, None) == [1, 2]


def test_select_action_tie_breaks_low_index():
    assert select_action(np.array([[2.0, 2.0, 0.0], [0.0, 1.0, 1.0]]), 0.0, None) == [0, 1]


def test_select_action_greedy_invariant_under_affine_scaling():
    rng = make_rng(3)
    for _ in range(50):
        q = rng.normal(size=(4, 3))
        actions = select_action(q, 0.0, None)
        assert select_action(3.5 * q + 11.0, 0.0, None) == actions


def test_select_action_uniform_at_epsilon_one():
    rng = make_rng(2024)
    counts = np.zeros(3, dtype=int)
    n = 30_000
    for _ in range(n // 3):
        for action in select_action(np.array([[9.0, 0.0, 0.0]] * 3), 1.0, rng):
            counts[action] += 1
    sigma = math.sqrt(n * (1.0 / 3.0) * (2.0 / 3.0))
    for c in counts:
        assert abs(c - n / 3.0) <= 3.0 * sigma


# --- replay buffer ---------------------------------------------------------------


def _push(buf, i):
    buf.push([np.array([float(i)])], [0], [float(i)], [np.array([float(i)])], False)


def test_buffer_fifo_eviction_capacity_three():
    buf = ReplayBuffer(3, 1)
    for i in (1, 2, 3, 4):
        _push(buf, i)
    assert list(buf.rewards[0, oracles.buffer_rows_oldest_first(buf)]) == [2.0, 3.0, 4.0]
    assert len(buf) == 3


def test_buffer_sample_single():
    buf = ReplayBuffer(8, 1)
    _push(buf, 42)
    states, actions, rewards, next_states, nonterminal = buf.sample(1, make_rng(0))
    assert rewards.shape == actions.shape == nonterminal.shape == (1, 1) and rewards[0, 0] == 42.0
    assert states.shape == next_states.shape == (1, 1, 1) and states[0, 0, 0] == next_states[0, 0, 0] == 42.0


def test_buffer_capacity_below_1_is_rejected():
    with pytest.raises(ValueError, match="^capacity must be at least 1$"):
        ReplayBuffer(0, 1)


def test_buffer_underfilled_sampling_errors():
    buf = ReplayBuffer(8, 1)
    _push(buf, 1)
    with pytest.raises(ValueError):
        buf.sample(2, make_rng(0))


def test_buffer_sampling_is_with_replacement():
    buf = ReplayBuffer(4, 1)
    for i in range(3):
        _push(buf, i)
    # P(all distinct) = 2/9 per draw; over 20 seeded batches a duplicate is certain
    saw_duplicate = False
    rng = make_rng(1)
    for _ in range(20):
        rewards = list(buf.sample(3, rng)[2][0])
        saw_duplicate = saw_duplicate or len(set(rewards)) < 3
    assert saw_duplicate


@settings(max_examples=50, deadline=None)
@given(capacity=st.integers(1, 20), extra=st.integers(0, 30))
def test_buffer_never_exceeds_capacity_and_drops_oldest(capacity, extra):
    buf = ReplayBuffer(capacity, 1)
    total = capacity + extra
    for i in range(total):
        _push(buf, i)
        assert len(buf) <= capacity
    kept = list(buf.rewards[0, oracles.buffer_rows_oldest_first(buf)])
    assert kept == [float(i) for i in range(extra, total)]


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 12),
    pushes=st.integers(1, 40),
    batch=st.integers(1, 12),
    agents=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ring_buffer_matches_list_oracle(capacity, pushes, batch, agents, seed):
    """Agent k's columns of a ring sample are what a list of agent k's transitions samples, the agents drawing in
    order from one generator; each agent's TD targets under its row of a stacked target network are the oracle's."""
    rng = make_rng(seed)
    nets = [qnet.init_network((3, 5, 3), rng) for _ in range(agents)]
    stacked = qnet.QNetwork(nets[0].sizes, np.stack([net.flat for net in nets]))
    ring, lists = ReplayBuffer(capacity, 3, agents), [oracles.ReplayBuffer(capacity) for _ in range(agents)]
    for _ in range(pushes):  # wraps around whenever pushes > capacity
        terminal = bool(rng.random() < 0.3)
        ts = [Transition(rng.normal(size=3), int(rng.integers(0, 3)), float(rng.normal()), rng.normal(size=3),
                         terminal) for _ in range(agents)]
        ring.push([t.state for t in ts], [t.action for t in ts], [t.reward for t in ts], [t.next_state for t in ts],
                  terminal)
        for oracle, t in zip(lists, ts):
            oracle.push(t)
    assert len(ring) == len(lists[0])
    for k, oracle in enumerate(lists):
        assert list(ring.rewards[k, oracles.buffer_rows_oldest_first(ring)]) == [t.reward for t in oracle.contents()]
    batch = min(batch, len(ring))
    states, actions, rewards, next_states, nonterminal = ring.sample(batch, make_rng(seed + 1))
    oracle_rng = make_rng(seed + 1)
    targets = dqn.td_targets_batch(rewards, next_states, nonterminal, stacked, 0.9)
    for k, (oracle, net) in enumerate(zip(lists, nets)):
        sampled = oracle.sample(batch, oracle_rng)
        assert np.array_equal(states[k], np.stack([t.state for t in sampled]))
        assert list(actions[k]) == [t.action for t in sampled]
        assert list(rewards[k]) == [t.reward for t in sampled]
        assert np.array_equal(next_states[k], np.stack([t.next_state for t in sampled]))
        assert list(nonterminal[k]) == [0.0 if t.terminal else 1.0 for t in sampled]
        assert targets[k] == pytest.approx([td_target(t, net, 0.9) for t in sampled], abs=1e-12)


# --- TD targets -------------------------------------------------------------------


def _const_net(outputs):
    # zero weights, biases = outputs: forward() returns the biases for any input
    return make_net([np.zeros((len(outputs), 1))], [outputs])


def test_td_target_terminal_is_reward():
    net = _const_net([5.0, 9.0])
    t = Transition(np.array([0.0]), 0, -1.0, np.array([0.0]), True)
    assert td_target(t, net, 0.95) == -1.0


def test_td_target_gamma_zero_is_reward():
    net = _const_net([5.0, 9.0])
    t = Transition(np.array([0.0]), 0, 0.25, np.array([0.0]), False)
    assert td_target(t, net, 0.0) == 0.25


def test_td_target_bootstraps_max():
    net = _const_net([1.0, 2.0])
    t = Transition(np.array([0.0]), 0, 0.0, np.array([0.0]), False)
    assert td_target(t, net, 0.95) == pytest.approx(1.9)


def test_td_targets_batch_matches_scalar():
    rng = make_rng(5)
    net = qnet.init_network((3, 6, 3), rng)
    batch = [
        Transition(rng.normal(size=3), int(rng.integers(0, 3)), float(rng.normal()), rng.normal(size=3), bool(i % 2))
        for i in range(6)
    ]
    buf = ReplayBuffer(6, 3)
    for t in batch:
        buf.push([t.state], [t.action], [t.reward], [t.next_state], t.terminal)
    vec = dqn.td_targets_batch(buf.rewards[0], buf.next_states[0], buf.nonterminal[0], net, 0.9)  # rows in order
    for i, t in enumerate(batch):
        assert vec[i] == pytest.approx(td_target(t, net, 0.9), abs=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("count", [1, 4, 36])
def test_select_action_over_junctions_equals_one_oracle_call_per_junction(count, epsilon):
    """The (K, 3) call returns the actions of K scalar calls in junction order and leaves the generator where they
    leave it: junction k draws its ``random``, and its ``integers`` if it explores, before junction k + 1."""
    qs = np.round(make_rng(count).normal(size=(40, count, 3)))  # rounded, so greedy ties come up
    rng, oracle_rng = make_rng(11), make_rng(11)
    for q in qs:
        actions = select_action(q, epsilon, rng)
        assert actions == [oracles.select_action(row, epsilon, oracle_rng) for row in q]
        assert all(type(action) is int for action in actions)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
