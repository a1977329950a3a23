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


def featurize(stats: np.ndarray, capacities: np.ndarray, state, width: int) -> np.ndarray:
    """One junction's ``width``-long state vector from its lane-statistics rows; every component lands in [0, 1].

    Per lane min(1, count/cap), min(1, halted/cap) and min(1, wait/WAIT_CAP) = min(wait, WAIT_CAP)/WAIT_CAP, in the
    first lane slots; the slots past the junction's lanes stay 0.
    """
    x = np.zeros(width)
    lanes = x[: 3 * len(stats)].reshape(-1, 3)
    np.divide(stats, capacities[:, None], out=lanes)
    lanes[:, 2] = stats[:, 2] / WAIT_CAP
    np.minimum(lanes, 1.0, out=lanes)
    x[-4:-1] = state.phase_onehot()
    x[-1] = min(state.time_in_phase, PHASE_TIME_CAP) / PHASE_TIME_CAP
    return x


def waiting_penalty(mean_wait: float) -> float:
    """Coarse waiting term: 0 when idle-free, -0.5 for light, -1 for heavy."""
    if mean_wait == 0.0:
        return 0.0
    if mean_wait < 5.0:
        return -0.5
    return -1.0


def reward_from_counts(greens: int, reds: int, mean_wait: float, mode: str = "balanced") -> float:
    """Reward from signal counts and the mean per-lane waiting time.

    ``balanced`` (the default) penalizes green/red imbalance and waiting.
    ``literal`` is the square-root variant 0.2*sqrt((greens-reds)^2 + W); it
    rewards imbalance instead, and its radicand is clamped at 0 where a
    negative waiting term would otherwise make it undefined.  Kept behind a
    flag for comparison experiments.
    """
    if mode not in REWARD_MODES:
        raise ValueError(f"unknown reward mode {mode!r}")
    diff = greens - reds
    w = waiting_penalty(mean_wait)
    if mode == "literal":
        return 0.2 * math.sqrt(max(0.0, diff * diff + w))
    return -0.2 * abs(diff) + w


def select_action(q_values, epsilon: float, rng) -> int:
    """Epsilon-greedy over the q-values; greedy ties break to the lowest index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, len(q_values)))
    return int(np.argmax(q_values))


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
    """Controller acting on each junction's q-values on each whole multiple of the interval, from 0 in every episode.

    It keeps no decision state between episodes, so one policy runs any number of them.  Junctions are indexed
    by position: ``nets[k]`` is junction k's network, ``rows[k]`` its lanes in the lane-statistics array and
    ``capacities``, and ``states[k]`` its signal state; every state vector is ``state_width(rows)`` long.
    With ``epsilon`` 0, as at evaluation, each action is the argmax; training sets ``epsilon`` and ``rng`` and
    extends ``act``.
    """

    def __init__(self, nets: list[QNetwork], interval: float, rows: list[slice], capacities: np.ndarray):
        self.nets = nets
        self.interval = interval
        self.rows = rows
        self.capacities = capacities
        self.width = state_width(rows)
        self.epsilon = 0.0
        self.rng = None

    def decide(self, clock: float, lane_stats, states) -> list[str]:
        """Requests in junction order; they change only at a decision."""
        if clock % self.interval == 0.0:  # both whole steps, so exact
            self.act(self.features(lane_stats(), states))
        return self.requests

    def features(self, stats: np.ndarray, states) -> list[np.ndarray]:
        """Every junction's state vector, in junction order."""
        width, capacities = self.width, self.capacities
        return [featurize(stats[rows], capacities[rows], state, width) for rows, state in zip(self.rows, states)]

    def act(self, obs: list[np.ndarray]) -> None:
        self.actions = [select_action(qnet.forward(net, x), self.epsilon, self.rng) for net, x in zip(self.nets, obs)]
        self.requests = [REQUESTS[action] for action in self.actions]
