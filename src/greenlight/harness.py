"""Training loop, evaluation protocol, seeding, and report emission.

Everything here is deterministic in (scenario, seed, config): per-episode
generators are split off the master seed with a counter scheme, evaluation
seeds are used verbatim, and no output embeds wall-clock state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dqn, metrics, qnet
from .controllers import REQUESTS, FixedTimeController, FixedTimePlan, SignalAssignment, apply_interlock
from .dqn import JunctionView, ReplayBuffer
from .netmodel import DT, GREEN, RED, Junction, Scenario, is_whole_steps, load_scenario
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


def _generator(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class Hyperparams:
    gamma: float = 0.95
    buffer_capacity: int = 10_000
    batch_size: int = 32
    lr: float = 1e-3
    eps_start: float = 1.0
    eps_final: float = 0.05
    eps_fraction: float = 0.7
    target_sync: int = 500
    warmup: int = 500
    decision_interval: float = 5.0
    hidden: tuple[int, ...] = (64, 64)
    _COUNTS = ("buffer_capacity", "batch_size", "target_sync")  # must be positive integers

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "hidden":
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"hyperparameter hidden: expected a list of layer widths, got {value!r}")
                value = tuple(qnet.positive_int(h, "hyperparameter hidden") for h in value)
            elif f.name in self._COUNTS:
                value = qnet.positive_int(value, f"hyperparameter {f.name}")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"hyperparameter {f.name}: expected a number, got {value!r}")
            object.__setattr__(self, f.name, value)
        if not is_whole_steps(self.decision_interval):
            raise ValueError(
                f"hyperparameter decision_interval: {self.decision_interval} is not a positive multiple of {DT} s"
            )

    def with_overrides(self, overrides: dict) -> "Hyperparams":
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
        return replace(self, **overrides)


def resolve_hyperparams(scenario: Scenario, overrides: dict | None = None) -> Hyperparams:
    """Defaults, overlaid by the scenario's train block, then CLI overrides."""
    hp = Hyperparams().with_overrides(scenario.train)
    if overrides:
        hp = hp.with_overrides(overrides)
    return hp


@dataclass
class TrainConfig:
    scenario_path: str
    episodes: int
    seed: int
    reward_mode: str = "balanced"
    hp_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be ≥ 1")
        if not self.scenario_path:
            raise ValueError("scenario path must be non-empty")
        if self.reward_mode not in dqn.REWARD_MODES:
            raise ValueError(f"unknown reward mode {self.reward_mode!r}")


@dataclass
class EvalConfig:
    scenario_path: str
    controller: str  # one of CONTROLLERS
    seeds: list[int]
    weights: str | None = None  # weights document text for the dqn controller

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if not self.seeds:
            raise ValueError("at least one evaluation seed is required")
        if self.controller == "dqn" and self.weights is None:
            raise ValueError("the dqn controller needs a weights document")


@dataclass
class _JunctionInfo:
    """Per-junction constants shared by featurization and reward."""

    junction: Junction
    lane_edges: list  # Edge objects, axis A then axis B
    n_axis_a: int
    capacities: list[int]


def _junction_infos(scenario: Scenario) -> list[_JunctionInfo]:
    infos = []
    for j in scenario.network.signalized_junctions():
        edges = [scenario.network.edge(eid) for eid in j.axis_a + j.axis_b]
        caps = [e.capacity(scenario.vehicle.length, scenario.vehicle.min_gap) for e in edges]
        infos.append(_JunctionInfo(j, edges, len(j.axis_a), caps))
    return infos


def junction_view(sim: Simulation, info: _JunctionInfo, state: SignalAssignment) -> JunctionView:
    counts, halted, waits = [], [], []
    for edge in info.lane_edges:
        lane = sim.vehicles_on[edge.id]
        counts.append(len(lane))
        halted.append(sum(1 for v in lane if v.speed < metrics.HALT_SPEED))
        waits.append(sum(v.waiting_time for v in lane))
    return JunctionView(
        lane_counts=tuple(counts),
        lane_capacities=tuple(info.capacities),
        lane_halted=tuple(halted),
        lane_waits=tuple(waits),
        phase_onehot=state.phase_onehot(),
        time_in_phase=state.time_in_phase,
    )


def _step_reward(sim: Simulation, info: _JunctionInfo, mode: str) -> float:
    color_a, color_b = sim.assignment[info.junction.id]
    n_a, n_b = info.n_axis_a, len(info.lane_edges) - info.n_axis_a
    greens = (n_a if color_a == GREEN else 0) + (n_b if color_b == GREEN else 0)
    reds = (n_a if color_a == RED else 0) + (n_b if color_b == RED else 0)
    total_wait = 0.0
    for edge in info.lane_edges:
        for v in sim.vehicles_on[edge.id]:
            total_wait += v.waiting_time
    return dqn.reward_from_counts(greens, reds, total_wait / len(info.lane_edges), mode)


def rollout(scenario: Scenario, infos: list[_JunctionInfo], controller, rng, on_step=None) -> Simulation:
    """Run one episode under ``controller``; this is the only per-step loop.

    ``on_step(sim, make_views, done)``, if given, runs after every step.
    """
    sim = Simulation(scenario, rng)
    states = {info.junction.id: SignalAssignment() for info in infos}

    def make_views() -> dict[str, JunctionView]:
        return {info.junction.id: junction_view(sim, info, states[info.junction.id]) for info in infos}

    total_steps = int(round(scenario.duration / DT))
    for step in range(1, total_steps + 1):
        requests = controller.decide(sim.clock, make_views)
        assignment = {}
        for info in infos:
            jid = info.junction.id
            states[jid] = apply_interlock(requests[jid], states[jid], info.junction)
            assignment[jid] = states[jid].colors()
        sim.step(assignment)
        if on_step is not None:
            on_step(sim, make_views, step == total_steps)
    return sim


@dataclass
class _Learner:
    info: _JunctionInfo
    net: qnet.QNetwork
    target: qnet.QNetwork
    buffer: ReplayBuffer
    opt: qnet.Adam
    updates: int = 0
    reward_sum: float = 0.0  # over the current decision interval


class _TrainingAgent(dqn.GreedyPolicy):
    """The DQN controller while it learns, with epsilon from the schedule.

    Each decision, and the episode's end, closes the interval just ended: every
    junction stores its transition, rewarded with the interval's mean per-step
    reward, then takes one gradient step once the replay warmup is filled.
    """

    def __init__(self, learners: list[_Learner], hp: Hyperparams, config: TrainConfig, decisions: int):
        super().__init__({ln.info.junction.id: ln.net for ln in learners}, hp.decision_interval)
        self.learners = learners
        self.hp = hp
        self.reward_mode = config.reward_mode
        self.rng = _generator(config.seed, _NS_ACTION)
        self.sample_rng = _generator(config.seed, _NS_SAMPLE)
        self.schedule = dqn.EpsilonSchedule(hp.eps_start, hp.eps_final, decisions, hp.eps_fraction)
        self.decisions = 0
        self.steps = 0  # in the current decision interval

    def start_episode(self, episode: int) -> None:
        self.episode = episode
        self.next_decision = 0.0
        self.obs = None
        self.episode_return = 0.0
        self.losses: list[float] = []

    def act(self, obs: dict) -> None:
        if self.obs is not None:
            self._close_interval(obs, terminal=False)
        self.epsilon = self.schedule.value(self.decisions)
        super().act(obs)
        self.obs = obs

    def on_step(self, sim: Simulation, make_views, done: bool) -> None:
        for ln in self.learners:
            ln.reward_sum += _step_reward(sim, ln.info, self.reward_mode)
        self.steps += 1
        if done:
            self._close_interval(dqn.observe(make_views), terminal=True)

    def _close_interval(self, next_obs: dict, terminal: bool) -> None:
        rewards = []
        for ln in self.learners:
            jid = ln.info.junction.id
            rewards.append(ln.reward_sum / self.steps)
            ln.buffer.push(self.obs[jid], self.actions[jid], rewards[-1], next_obs[jid], terminal)
            ln.reward_sum = 0.0
        self.episode_return += sum(rewards) / len(rewards)
        self.steps = 0
        self.decisions += 1
        hp = self.hp
        for ln in self.learners:
            if len(ln.buffer) < max(hp.warmup, hp.batch_size):
                continue
            rows = ln.buffer.sample(hp.batch_size, self.sample_rng)
            targets = dqn.td_targets_batch(ln.buffer, rows, ln.target, hp.gamma)
            loss, grads = qnet.backward_batch(ln.net, ln.buffer.states[rows], targets, ln.buffer.actions[rows])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at episode {self.episode}, decision {self.decisions}: {loss}"
                )
            ln.opt.step(ln.net, grads, hp.lr)
            ln.updates += 1
            self.losses.append(loss)
            if ln.updates % hp.target_sync == 0:
                ln.target = qnet.clone(ln.net)


@dataclass
class TrainResult:
    weights_doc: str
    curve: list[dict]  # per episode: episode, return, epsilon, mean_loss


def train(config: TrainConfig) -> TrainResult:
    """Train one DQN agent per signalized junction through ``rollout``; return weights and curve rows."""
    with open(config.scenario_path, encoding="utf-8") as fh:
        scenario = load_scenario(fh.read())
    hp = resolve_hyperparams(scenario, config.hp_overrides)
    infos = _junction_infos(scenario)
    if not infos:
        raise ValueError("scenario has no signalized junction to control")

    learners = []
    for idx, info in enumerate(infos):
        d_in = dqn.state_dim(len(info.lane_edges))
        net = qnet.init_network((d_in, *hp.hidden, len(REQUESTS)), _generator(config.seed, _NS_NET, idx))
        learners.append(_Learner(info, net, qnet.clone(net), ReplayBuffer(hp.buffer_capacity, d_in), qnet.Adam(net)))
    agent = _TrainingAgent(learners, hp, config, config.episodes * math.ceil(scenario.duration / hp.decision_interval))

    curve: list[dict] = []
    for episode in range(config.episodes):
        agent.start_episode(episode)
        epsilon = agent.schedule.value(agent.decisions)
        rollout(scenario, infos, agent, _generator(config.seed, _NS_EPISODE, episode), agent.on_step)
        losses = agent.losses
        curve.append(
            {
                "episode": episode,
                "return": agent.episode_return,
                "epsilon": epsilon,
                "mean_loss": (sum(losses) / len(losses)) if losses else float("nan"),
            }
        )
    return TrainResult(weights_doc=_weights_doc(learners), curve=curve)


def _weights_doc(learners: list[_Learner]) -> str:
    if len(learners) == 1:
        return qnet.serialize(learners[0].net)
    doc = {
        "format_version": qnet.FORMAT_VERSION,
        "multi": {ln.info.junction.id: json.loads(qnet.serialize(ln.net)) for ln in learners},
    }
    return json.dumps(doc, sort_keys=True)


def load_weights(text: str, infos: list[_JunctionInfo]) -> dict[str, qnet.QNetwork]:
    """Map a weights document onto the scenario's junctions, checking shapes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise qnet.WeightsFormatError(f"weights document is not valid JSON: {exc}") from exc
    nets: dict[str, qnet.QNetwork] = {}
    if isinstance(doc, dict) and "multi" in doc:
        per_junction = doc["multi"]
        for info in infos:
            jid = info.junction.id
            if jid not in per_junction:
                raise WeightsMismatchError(f"weights document has no entry for junction {jid}")
            nets[jid] = qnet.deserialize(json.dumps(per_junction[jid]))
    else:
        if len(infos) != 1:
            raise WeightsMismatchError(
                f"single-network weights document but scenario has {len(infos)} signalized junctions"
            )
        nets[infos[0].junction.id] = qnet.deserialize(text)
    for info in infos:
        expected = dqn.state_dim(len(info.lane_edges))
        got = nets[info.junction.id].d_in
        if got != expected:
            raise WeightsMismatchError(
                f"junction {info.junction.id}: weights expect input dimension {got}, scenario produces {expected}"
            )
    return nets


def evaluate(config: EvalConfig) -> metrics.RunReport:
    """Run one full simulation per seed and pool the results, Table-1 shaped."""
    with open(config.scenario_path, encoding="utf-8") as fh:
        scenario = load_scenario(fh.read())
    infos = _junction_infos(scenario)
    hp = resolve_hyperparams(scenario)

    if config.controller == "fixed":
        plans = {info.junction.id: FixedTimePlan.for_junction(info.junction) for info in infos}
        make_controller = lambda: FixedTimeController(plans)  # noqa: E731
    else:
        nets = load_weights(config.weights, infos)
        make_controller = lambda: dqn.GreedyPolicy(nets, hp.decision_interval)  # noqa: E731

    episodes: list[metrics.EpisodeTotals] = []
    vehicles: list[metrics.VehicleMetrics] = []
    for episode_idx, seed in enumerate(config.seeds):
        # fresh controller per seed so no decision state leaks across episodes
        sim = rollout(scenario, infos, make_controller(), _generator(seed))
        finalized = [metrics.finalize(v, scenario.duration) for v in sim.vehicles]
        vehicles.extend(finalized)
        episodes.append(
            metrics.EpisodeTotals(
                seed=seed,
                episode=episode_idx,
                spawned=len(sim.vehicles),
                departed=sim.inserted_count,
                arrived=sim.arrived_count,
                never_departed=len(sim.vehicles) - sim.inserted_count,
                emergency_stops=sum(v.emergency_stops for v in sim.vehicles),
            )
        )

    return metrics.build_report(
        controller=config.controller,
        scenario_id=scenario.content_id(),
        seeds=config.seeds,
        episodes=episodes,
        vehicles=vehicles,
    )


def compare(baseline: metrics.RunReport, candidate: metrics.RunReport) -> dict:
    """Side-by-side means with the signed percent change per metric.

    Negative change means the candidate reduced the metric.
    """
    if baseline.scenario_id != candidate.scenario_id:
        raise ValueError(
            f"reports cover different scenarios ({baseline.scenario_id} vs {candidate.scenario_id})"
        )
    if baseline.seeds != candidate.seeds:
        raise ValueError("reports cover different evaluation seeds")

    def change_entry(before: float, after: float) -> dict:
        entry = {"baseline_mean": before, "candidate_mean": after}
        entry["change_pct"] = None if before == 0 else -metrics.percent_change(before, after)
        return entry

    doc = {
        "scenario_id": baseline.scenario_id,
        "seeds": baseline.seeds,
        "baseline": baseline.controller,
        "candidate": candidate.controller,
        "metrics": {
            key: change_entry(baseline.summaries[key].mean, candidate.summaries[key].mean)
            for key in metrics.METRIC_KEYS
        },
        "es_per_episode": change_entry(baseline.es_per_episode.mean, candidate.es_per_episode.mean),
    }
    return doc


def curve_csv(curve: list[dict]) -> str:
    lines = ["episode,return,epsilon,mean_loss"]
    for row in curve:
        lines.append(f"{row['episode']},{row['return']!r},{row['epsilon']!r},{row['mean_loss']!r}")
    return "\n".join(lines) + "\n"
