"""DQN agent pieces: junction featurization, reward, policy, replay, targets.

The agent sees one junction at a time.  Its three actions request which axis
to serve (or an all-red clearance); the safety interlock in ``controllers``
turns those requests into legal signal transitions, so yellow never appears as
a raw agent action.
"""

from __future__ import annotations

import math

import numpy as np

from . import qnet
from .controllers import REQUESTS
from .qnet import QNetwork

#: Saturation constants for the normalized state components.
WAIT_CAP = 300.0  # s of summed per-lane halt time
PHASE_TIME_CAP = 60.0  # s in current phase

REWARD_MODES = ("literal", "balanced")


def state_dim(n_lanes: int) -> int:
    """Three features per incoming lane plus phase one-hot and phase time."""
    return 3 * n_lanes + 4


def state_width(rows: list[slice]) -> int:
    """Every junction's state dimension, given each junction's rows: ``state_dim`` of the most lanes of any junction.

    A junction with fewer lanes leaves its remaining lane slots at 0, so all of a scenario's networks have one shape.
    """
    return state_dim(max(r.stop - r.start for r in rows))


class StateLayout:
    """Where the lane statistics of junctions with lane rows ``rows`` go in their (K, ``width``) states.

    The rows tile the lane-statistics array in junction order.  ``slots`` holds each statistic's flat index into
    the states: lane i of junction k fills slots 3i to 3i + 2 of row k.  ``scale`` divides each statistic: its
    lane's capacity for the count and halted count, WAIT_CAP for the summed wait.
    """

    def __init__(self, rows: list[slice], capacities: np.ndarray):
        self.width = state_width(rows)
        self.slots = np.concatenate([k * self.width + np.arange(3 * (r.stop - r.start)) for k, r in enumerate(rows)])
        self.scale = np.column_stack([capacities, capacities, np.full(len(capacities), WAIT_CAP)])


def featurize(stats: np.ndarray, layout: StateLayout, states, clock: float) -> np.ndarray:
    """Every junction's state vector at ``clock``, one row per signal state of ``states``; all components in [0, 1].

    Per lane min(1, count/cap), min(1, halted/cap) and min(1, wait/WAIT_CAP) = min(wait, WAIT_CAP)/WAIT_CAP, in the
    first lane slots; the slots past a junction's lanes stay 0.  Then the phase one-hot and the phase time
    ``clock - since``, capped at PHASE_TIME_CAP and scaled by it.
    """
    x = np.zeros((len(states), layout.width))
    lanes = stats / layout.scale
    np.minimum(lanes, 1.0, out=lanes)
    x.ravel()[layout.slots] = lanes.ravel()
    x[:, -4:-1] = [state.phase_onehot() for state in states]
    x[:, -1] = [min(clock - state.since, PHASE_TIME_CAP) / PHASE_TIME_CAP for state in states]
    return x


#: The waiting term of each waiting level: none (no vehicle waits), light and heavy.
WAITING_PENALTIES = (0.0, -0.5, -1.0)


def waiting_level(mean_wait: float) -> int:
    """The index into WAITING_PENALTIES of a mean per-lane waiting time: heavy from 5 s on."""
    return 0 if mean_wait == 0.0 else 1 if mean_wait < 5.0 else 2


def waiting_penalty(mean_wait: float) -> float:
    """Coarse waiting term: 0 when idle-free, -0.5 for light, -1 for heavy."""
    return WAITING_PENALTIES[waiting_level(mean_wait)]


def level_rewards(greens: int, reds: int, mode: str = "balanced") -> tuple[float, ...]:
    """The reward from signal counts at each waiting level, in the order of WAITING_PENALTIES.

    ``balanced`` (the default) penalizes green/red imbalance and waiting.
    ``literal`` is the square-root variant 0.2*sqrt((greens-reds)^2 + W); it
    rewards imbalance instead, and its radicand is clamped at 0 where a
    negative waiting term would otherwise make it undefined.  Kept behind a
    flag for comparison experiments.
    """
    if mode not in REWARD_MODES:
        raise ValueError(f"unknown reward mode {mode!r}")
    diff = greens - reds
    if mode == "literal":
        return tuple(0.2 * math.sqrt(max(0.0, diff * diff + w)) for w in WAITING_PENALTIES)
    return tuple(-0.2 * abs(diff) + w for w in WAITING_PENALTIES)


def reward_from_counts(greens: int, reds: int, mean_wait: float, mode: str = "balanced") -> float:
    """Reward from signal counts and the mean per-lane waiting time: ``level_rewards`` at its waiting level."""
    return level_rewards(greens, reds, mode)[waiting_level(mean_wait)]


def select_action(q: np.ndarray, epsilon: float, rng) -> list[int]:
    """Epsilon-greedy over each row of the (K, n) q-values; greedy ties break to the lowest index.

    At ``epsilon`` above 0, junction k draws ``rng.random()``, and ``rng.integers`` if it explores, before
    junction k + 1 draws.
    """
    actions = q.argmax(axis=1).tolist()
    if epsilon > 0.0:
        for k in range(len(actions)):
            if rng.random() < epsilon:
                actions[k] = int(rng.integers(0, q.shape[1]))
    return actions


class ReplayBuffer:
    """FIFO ring of transitions in preallocated arrays; uniform sampling with replacement.

    ``agents`` agents that act together share the ring: row ``i`` holds one
    transition per agent, ``states[k, i]`` being agent k's state.
    """

    def __init__(self, capacity: int, state_dim: int, agents: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.agents = agents
        self.states = np.zeros((agents, capacity, state_dim))
        self.actions = np.zeros((agents, capacity), dtype=np.intp)
        self.rewards = np.zeros((agents, capacity))
        self.next_states = np.zeros((agents, capacity, state_dim))
        self.nonterminal = np.zeros((agents, capacity))
        self.pushes = 0  # row pushes % capacity is written next, and once full is the oldest

    def __len__(self) -> int:
        return min(self.pushes, self.capacity)

    def push(self, states, actions, rewards, next_states, terminal: bool) -> None:
        """One transition per agent: sequences of ``agents`` states, actions, rewards and next states."""
        i = self.pushes % self.capacity
        self.states[:, i] = states
        self.next_states[:, i] = next_states
        self.actions[:, i] = actions
        self.rewards[:, i] = rewards
        self.nonterminal[:, i] = 0.0 if terminal else 1.0
        self.pushes += 1

    def sample(self, batch_size: int, rng) -> np.ndarray:
        """(agents, batch_size) row indices, drawn uniformly for agent 0, then agent 1, ..."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from a buffer of size {len(self)}")
        return rng.integers(0, len(self), size=(self.agents, batch_size))


def td_targets_batch(buffer: ReplayBuffer, agents, rows: np.ndarray, target_net: QNetwork, gamma: float,
                     out: qnet.Workspace | None = None) -> np.ndarray:
    """Bootstrapped targets of buffer rows ``rows`` of agents ``agents`` under the target network.

    ``agents`` broadcasts against ``rows``: an agent index with (n,) rows and a
    (P,) network, or a (K, 1) column of agents with (K, n) rows and a (K, P)
    network holding agent k's target network in row k.  ``out`` is passed to ``qnet.forward_batch``.
    """
    best = qnet.forward_batch(target_net, buffer.next_states[agents, rows], out).max(axis=-1)
    return buffer.rewards[agents, rows] + gamma * best * buffer.nonterminal[agents, rows]


class EpsilonSchedule:
    """Linear decay from start to final over the first ``fraction`` of steps."""

    def __init__(self, start: float, final: float, total_steps: int, fraction: float):
        self.start = start
        self.final = final
        self.decay_steps = max(1.0, fraction * total_steps)

    def value(self, step: int) -> float:
        frac = min(1.0, step / self.decay_steps)
        return self.start + (self.final - self.start) * frac


class GreedyPolicy:
    """Controller acting on every junction's q-values on each whole multiple of the interval, from 0 in every episode.

    It keeps no decision state between episodes, so one policy runs any number of them.  Junctions are indexed
    by position: row k of the (K, P) network ``net`` is junction k's network, ``rows[k]`` its lanes in the
    lane-statistics array and ``capacities``, and ``states[k]`` its signal state.  A decision is one pass for
    all junctions: ``featurize``, ``qnet.forward`` and ``select_action`` once each.  With ``epsilon`` 0, as at
    evaluation, each action is the argmax; training sets ``epsilon`` and ``rng`` and extends ``act``.
    """

    def __init__(self, net: QNetwork, interval: float, rows: list[slice], capacities: np.ndarray):
        self.net = net
        self.interval = interval
        self.layout = StateLayout(rows, capacities)
        self.epsilon = 0.0
        self.rng = None

    def decide(self, clock: float, lane_stats, states) -> list[str]:
        """Requests in junction order; they change only at a decision."""
        if clock % self.interval == 0.0:  # both whole steps, so exact
            self.act(featurize(lane_stats(), self.layout, states, clock))
        return self.requests

    def act(self, obs: np.ndarray) -> None:
        """Act on the (K, width) states ``obs``."""
        self.actions = select_action(qnet.forward(self.net, obs), self.epsilon, self.rng)
        self.requests = [REQUESTS[action] for action in self.actions]
