"""Training loop, evaluation protocol, seeding, and report emission.

Everything here is deterministic in (scenario, seed, config): per-episode
generators are split off the master seed with a counter scheme, evaluation
seeds are used verbatim, and no output embeds wall-clock state.  No file is
opened here: a config holds the loaded scenario, and one that builds can run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dqn, metrics, qnet
from .controllers import REQUESTS, FixedTimeController, SignalAssignment, apply_interlock
from .dqn import ReplayBuffer
from .netmodel import DT, HALT_SPEED, Hyperparams, Scenario
from .simcore import Simulation


class TrainingDivergedError(RuntimeError):
    """A gradient step produced a non-finite loss."""


class WeightsMismatchError(ValueError):
    """Loaded weights do not fit the scenario's junctions or state dimension."""


# seed-derivation namespaces (SeedSequence entropy tuples)
_NS_EPISODE = 1
_NS_NET = 2
_NS_ACTION = 3
_NS_SAMPLE = 4

#: Evaluation controllers: the fixed-time baseline, then the trained DQN.
CONTROLLERS = ("fixed", "dqn")

_NO_JUNCTION = "scenario has no signalized junction to control"


def integer_at_least(value, minimum: int, what: str) -> int:
    """``value``, an int of at least ``minimum``; anything else, bools and whole floats too, raises ValueError."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{what}: expected an integer of at least {minimum}, got {value!r}")
    return value


def _generator(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass
class TrainConfig:
    """One training run; a config that builds is a run that can start."""

    scenario: Scenario
    episodes: int
    seed: int
    reward_mode: str = "balanced"

    def __post_init__(self):
        self.episodes = integer_at_least(self.episodes, 1, "episodes")
        if self.reward_mode not in dqn.REWARD_MODES:
            raise ValueError(f"unknown reward mode {self.reward_mode!r}")
        self.seed = integer_at_least(self.seed, 0, "seed")
        if not _junction_infos(self.scenario).junctions:
            raise ValueError(_NO_JUNCTION)


@dataclass
class EvalConfig:
    """One evaluation run; a config that builds is a run that can start, its weights checked when it does."""

    scenario: Scenario
    controller: str  # one of CONTROLLERS
    seeds: list[int]
    weights: str | None = None  # weights document text; the dqn controller needs one, the fixed takes none

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if not self.seeds:
            raise ValueError("at least one evaluation seed is required")
        self.seeds = [integer_at_least(seed, 0, "seeds") for seed in self.seeds]
        repeated = [seed for i, seed in enumerate(self.seeds) if seed in self.seeds[:i]]
        if repeated:
            raise ValueError(f"seeds: {repeated[0]} is listed more than once; each episode needs its own seed")
        if self.controller == "dqn" and self.weights is None:
            raise ValueError("the dqn controller needs a weights document")
        if self.controller == "fixed" and self.weights is not None:
            raise ValueError("the fixed controller takes no weights document")


def _junction_infos(scenario: Scenario) -> dqn.StateLayout:
    """The scenario's one junction layout, which ``rollout``, both policies, the learner and ``load_weights`` read."""
    network, vehicle = scenario.network, scenario.vehicle
    return dqn.StateLayout(network.signalized_junctions(),
                           lambda lane: network.edge(lane).capacity(vehicle.length, vehicle.min_gap))


def junction_view(sim: Simulation, lanes: list[str]) -> np.ndarray:
    """The lane-statistics array at the current clock, one row per lane of ``lanes``.

    Columns: vehicle count, halted count (speed below ``netmodel.HALT_SPEED``) and summed ``waiting_time``.
    """
    flat = []
    for lane in lanes:
        vehicles = sim.vehicles_on[lane]
        halted, wait = 0, 0.0
        for v in vehicles:
            halted += v.speed < HALT_SPEED
            wait += v.waiting_time
        flat += (len(vehicles), halted, wait)
    return np.array(flat, dtype=float).reshape(-1, 3)


def rollout(scenario: Scenario, layout: dqn.StateLayout, controller, rng, on_step=None) -> Simulation:
    """Run one episode under ``controller``; this is the only per-step loop.

    ``controller.decide(clock, lane_stats, states)`` runs before each step and ``on_step(sim, lane_stats, states,
    done)``, if given, after it; its requests and ``states`` are lists in the order of ``layout.junctions``.
    ``lane_stats()`` is the clock's ``junction_view`` array over ``layout.lanes``, computed at most once and shared
    by every caller at that clock, so none may write to it.  A junction's colors are looked up again only when its
    signal state changes.
    """
    sim = Simulation(scenario, rng)
    junctions, lanes = layout.junctions, layout.lanes
    states = [SignalAssignment()] * len(junctions)
    colors = [state.colors() for state in states]
    stats_at = functools.lru_cache(maxsize=1)(lambda clock: junction_view(sim, lanes))
    lane_stats = lambda: stats_at(sim.clock)  # noqa: E731

    total_steps = int(round(scenario.duration / DT))
    for step in range(1, total_steps + 1):
        clock = sim.clock
        requests = controller.decide(clock, lane_stats, states)
        for k, (request, state, junction) in enumerate(zip(requests, states, junctions)):
            new = apply_interlock(request, state, junction, clock)
            if new is not state:
                states[k], colors[k] = new, new.colors()
        sim.step(colors)
        if on_step is not None:
            on_step(sim, lane_stats, states, step == total_steps)
    return sim


class _Learner:
    """One independent DQN learner per junction, all stacked together.

    Every junction's network has the same sizes, so all of them are one (K, P) QNetwork ``params``, which the policy
    acts with, with one Adam, one target copy and one gradient buffer; row k of ``params.flat`` is junction k's
    network.  All junctions share one replay ring.  An update trains every junction's network on its own sample in one
    batched pass, ``buffer.sample``, ``dqn.td_targets_batch``, ``qnet.backward_batch`` then ``opt.step``, the middle
    two writing into preallocated target and online workspaces, so it allocates no per-layer arrays.
    """

    def __init__(self, initial: list[qnet.QNetwork], hp: Hyperparams):
        self.params = qnet.QNetwork(initial[0].sizes, np.stack([net.flat for net in initial]))
        self.target = qnet.clone(self.params)
        self.grads = qnet.QNetwork(self.params.sizes, np.zeros_like(self.params.flat))
        shape = (self.params.sizes, (len(initial), hp.batch_size))
        self.online_work, self.target_work = qnet.Workspace(*shape), qnet.Workspace(*shape)
        self.opt = qnet.Adam(self.params)
        self.buffer = ReplayBuffer(hp.buffer_capacity, self.params.d_in, len(initial))
        self.hp = hp

    def update(self, rng) -> np.ndarray:
        """One gradient step for every junction once the replay warmup is filled.

        Returns the junctions' losses in junction order; before warmup, no losses.
        """
        hp = self.hp
        if len(self.buffer) < max(hp.warmup, hp.batch_size):
            return np.empty(0)
        states, actions, rewards, next_states, nonterminal = self.buffer.sample(hp.batch_size, rng)
        targets = dqn.td_targets_batch(rewards, next_states, nonterminal, self.target, hp.gamma, self.target_work)
        losses = qnet.backward_batch(self.params, states, targets, actions, self.grads, self.online_work)
        self.opt.step(self.params, self.grads, hp.lr)
        if self.opt.t % hp.target_sync == 0:
            self.target.flat[...] = self.params.flat
        return losses


class _TrainingAgent(dqn.GreedyPolicy):
    """The DQN controller while it learns, with epsilon decaying linearly over the run's ``decisions``.

    Each decision, and the episode's end, closes the interval just ended with
    one push, so ``learner.buffer.pushes`` counts the earlier decisions: every
    junction stores its transition, rewarded with the interval's mean per-step
    reward, then every junction takes one gradient step once the replay warmup
    is filled.  The episode's end also appends its row to ``curve`` and leaves
    the agent ready for the next episode, so ``train`` only calls ``rollout``.
    """

    def __init__(self, layout: dqn.StateLayout, learner: _Learner, config: TrainConfig, decisions: int):
        hp = self.hp = learner.hp
        super().__init__(learner.params, hp.decision_interval, layout)
        self.learner = learner
        # per junction: its rows, its lane count and dqn.phase_rewards' table, which on_step only looks up
        self.step_rewards = [(rows, rows.stop - rows.start, dqn.phase_rewards(junction, config.reward_mode))
                             for rows, junction in zip(layout.rows, layout.junctions)]
        self.rng = _generator(config.seed, _NS_ACTION)
        self.sample_rng = _generator(config.seed, _NS_SAMPLE)
        self.decay = max(1.0, hp.eps_fraction * decisions)  # epsilon reaches eps_final after this many decisions
        self.steps = 0  # in the current decision interval
        self.reward_sums = [0.0] * len(layout.junctions)  # per junction, over the current decision interval
        self.curve: list[dict] = []  # per episode: episode, return, epsilon, mean_loss
        self._reset_episode()

    def _reset_episode(self) -> None:
        """Ready for the next episode, whose epsilon is the one at its first decision."""
        self.obs, self.episode_return, self.losses, self.first_decision = None, 0.0, [], self.learner.buffer.pushes

    def _epsilon(self, decision: int) -> float:
        """Epsilon at the run's ``decision``-th decision, counted from 0."""
        hp = self.hp
        return hp.eps_start + (hp.eps_final - hp.eps_start) * min(1.0, decision / self.decay)

    def act(self, obs: np.ndarray) -> None:
        if self.obs is not None:
            self._close_interval(obs, terminal=False)
        self.epsilon = self._epsilon(self.learner.buffer.pushes)
        super().act(obs)
        self.obs = obs

    def on_step(self, sim: Simulation, lane_stats, states: list, done: bool) -> None:
        stats, sums = lane_stats(), self.reward_sums
        waits = stats[:, 2].tolist()  # summed in Python: a numpy sum and numpy scalars cost more than the few lanes
        for k, ((rows, n_lanes, rewards), state) in enumerate(zip(self.step_rewards, states)):
            sums[k] += rewards[state.phase][dqn.waiting_level(sum(waits[rows]) / n_lanes)]
        self.steps += 1
        if done:
            self._close_interval(dqn.featurize(stats, self.layout, states, sim.clock), terminal=True)
            losses = self.losses
            self.curve.append({"episode": len(self.curve), "return": self.episode_return,
                               "epsilon": self._epsilon(self.first_decision),
                               "mean_loss": sum(losses) / len(losses) if losses else float("nan")})
            self._reset_episode()

    def _close_interval(self, next_obs: np.ndarray, terminal: bool) -> None:
        rewards = [total / self.steps for total in self.reward_sums]
        self.learner.buffer.push(self.obs, self.actions, rewards, next_obs, terminal)
        self.reward_sums = [0.0] * len(rewards)
        self.episode_return += sum(rewards) / len(rewards)
        self.steps = 0
        losses = self.learner.update(self.sample_rng)
        diverged = np.flatnonzero(~np.isfinite(losses))
        if diverged.size:
            k = diverged[0]
            raise TrainingDivergedError(f"junction {self.layout.junctions[k].id}: non-finite loss at episode "
                                        f"{len(self.curve)}, decision {self.learner.buffer.pushes}: {losses[k]}")
        self.losses.extend(losses.tolist())


@dataclass
class TrainResult:
    weights_doc: str
    curve: list[dict]  # per episode: episode, return, epsilon, mean_loss


def train(config: TrainConfig) -> TrainResult:
    """Train one DQN agent per signalized junction through ``rollout``; return weights and curve rows."""
    scenario = config.scenario
    hp = scenario.hyperparams
    layout = _junction_infos(scenario)

    sizes = (layout.width, *hp.hidden, len(REQUESTS))
    initial = [qnet.init_network(sizes, _generator(config.seed, _NS_NET, k)) for k in range(len(layout.junctions))]
    decisions = config.episodes * math.ceil(scenario.duration / hp.decision_interval)
    agent = _TrainingAgent(layout, _Learner(initial, hp), config, decisions)

    for episode in range(config.episodes):
        rollout(scenario, layout, agent, _generator(config.seed, _NS_EPISODE, episode), agent.on_step)
    nets = [qnet.QNetwork(agent.learner.params.sizes, row) for row in agent.learner.params.flat]
    # one junction's network is written as a plain single-network document
    weights = nets[0] if len(nets) == 1 else {junction.id: net for junction, net in zip(layout.junctions, nets)}
    return TrainResult(weights_doc=qnet.serialize(weights), curve=agent.curve)


def load_weights(text: str, layout: dqn.StateLayout) -> dict[str, qnet.QNetwork]:
    """Map a weights document onto the scenario's junctions, checking ids and every network against the state width."""
    if not layout.junctions:
        raise WeightsMismatchError(_NO_JUNCTION)
    loaded = qnet.deserialize(text)
    if isinstance(loaded, qnet.QNetwork):
        if len(layout.junctions) != 1:
            raise WeightsMismatchError(f"weights hold one network; the scenario has {len(layout.junctions)} "
                                       "signalized junctions")
        loaded = {layout.junctions[0].id: loaded}
    nets: dict[str, qnet.QNetwork] = {}
    for junction in layout.junctions:
        jid = junction.id
        if jid not in loaded:
            raise WeightsMismatchError(f"weights document has no entry for junction {jid}")
        nets[jid] = net = loaded.pop(jid)
        if (net.d_in, net.d_out) != (layout.width, len(REQUESTS)):
            raise WeightsMismatchError(
                f"junction {jid}: weights map input dimension {net.d_in} to {net.d_out} outputs, "
                f"the scenario needs {layout.width} to {len(REQUESTS)}"
            )
        first_id, first = next(iter(nets.items()))
        if net.sizes != first.sizes:  # the policy acts with all of them stacked as one
            raise WeightsMismatchError(f"junction {jid}: layer widths {list(net.sizes)} differ from junction "
                                       f"{first_id}'s {list(first.sizes)}; every junction's network needs the same")
    if loaded:
        raise WeightsMismatchError(f"weights have an entry for {next(iter(loaded))!r}, not a signalized junction")
    return nets


def evaluate(config: EvalConfig) -> metrics.RunReport:
    """Run one full simulation per seed, all under one controller, and pool the results, Table-1 shaped."""
    scenario = config.scenario
    layout = _junction_infos(scenario)

    if config.controller == "fixed":
        controller = FixedTimeController(layout.junctions)
    else:
        nets = list(load_weights(config.weights, layout).values())  # in the order of layout.junctions
        net = qnet.QNetwork(nets[0].sizes, np.stack([one.flat for one in nets]))
        controller = dqn.GreedyPolicy(net, scenario.hyperparams.decision_interval, layout)

    arrived: list[int] = []
    vehicles = metrics.Vehicles.empty()
    for episode, seed in enumerate(config.seeds):
        sim = rollout(scenario, layout, controller, _generator(seed))
        metrics.finalize(sim.vehicles, scenario.duration, seed, episode, vehicles)
        arrived.append(sim.arrived_count)
    return metrics.build_report(config.controller, scenario.content_id(), config.seeds, arrived, vehicles)


def compare(baseline: metrics.RunReport, candidate: metrics.RunReport) -> dict:
    """Side-by-side means with the signed percent change per metric.

    Negative change means the candidate reduced the metric.  Vehicles that
    never departed are left out of the means, so their totals over the
    episodes are listed next to them.
    """
    if baseline.scenario_id != candidate.scenario_id:
        raise ValueError(
            f"reports cover different scenarios ({baseline.scenario_id} vs {candidate.scenario_id})"
        )
    if baseline.seeds != candidate.seeds:
        raise ValueError("reports cover different evaluation seeds")

    def change_entry(before: float, after: float) -> dict:
        entry = {"baseline_mean": before, "candidate_mean": after}
        entry["change_pct"] = None if before == 0 else 100.0 * (after - before) / before
        return entry

    return {
        "scenario_id": baseline.scenario_id,
        "seeds": baseline.seeds,
        "baseline": baseline.controller,
        "candidate": candidate.controller,
        "metrics": {
            key: change_entry(getattr(baseline.summaries, key).mean, getattr(candidate.summaries, key).mean)
            for key in metrics.METRIC_KEYS
        },
        "es_per_episode": change_entry(baseline.es_per_episode.mean, candidate.es_per_episode.mean),
        "never_departed": {
            "baseline": sum(ep.never_departed for ep in baseline.episodes),
            "candidate": sum(ep.never_departed for ep in candidate.episodes),
        },
    }


def curve_csv(curve: list[dict]) -> str:
    lines = ["episode,return,epsilon,mean_loss"]
    for row in curve:
        lines.append(f"{row['episode']},{row['return']!r},{row['epsilon']!r},{row['mean_loss']!r}")
    return "\n".join(lines) + "\n"
