"""DQN agent pieces: junction featurization, reward, policy, replay, targets.

The agent sees one junction at a time.  Its three actions request which axis
to serve (or an all-red clearance); the safety interlock in ``controllers``
turns those requests into legal signal transitions, so yellow never appears as
a raw agent action.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import qnet
from .controllers import PHASES, REQUESTS
from .netmodel import GREEN, RED, YELLOW, Junction
from .qnet import QNetwork

#: Saturation constants for the normalized state components.
WAIT_CAP = 300.0  # s of summed per-lane halt time
PHASE_TIME_CAP = 60.0  # s in current phase

REWARD_MODES = ("literal", "balanced")


def state_dim(n_lanes: int) -> int:
    """Three features per incoming lane plus phase one-hot and phase time."""
    return 3 * n_lanes + 4


class StateLayout:
    """A scenario's signalized ``junctions``, in network order, and where their lane statistics go in their states.

    ``lanes`` are the rows of the lane-statistics array: every junction's incoming lanes, junction by junction, axis
    A then axis B; ``rows[k]`` are junction k's.  Every junction's state has ``width`` components, ``state_dim`` of
    the most lanes of any junction: a junction with fewer leaves its remaining lane slots at 0, so all of a scenario's
    networks have one shape.  ``slots`` holds each statistic's flat index into the (K, ``width``) states: lane i of
    junction k fills slots 3i to 3i + 2 of row k.  ``scale`` divides each statistic: its lane's ``capacity(lane)``
    for the count and halted count, WAIT_CAP for the summed wait.
    """

    def __init__(self, junctions, capacity):
        self.junctions = junctions
        self.lanes = [lane for j in junctions for lane in j.incoming_signal_edges]
        counts = [len(j.incoming_signal_edges) for j in junctions]
        starts = [0, *accumulate(counts)]
        self.rows = [slice(start, stop) for start, stop in zip(starts, starts[1:])]
        self.width = state_dim(max(counts, default=0))
        self.slots = np.array([k * self.width + i for k, n in enumerate(counts) for i in range(3 * n)], dtype=np.intp)
        caps = [capacity(lane) for lane in self.lanes]
        self.scale = np.column_stack([caps, caps, [WAIT_CAP] * len(caps)])


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


def phase_rewards(junction: Junction, mode: str) -> dict[str, tuple[float, ...]]:
    """Each phase's step reward at each waiting level, in the order of WAITING_PENALTIES, under one of REWARD_MODES.

    A phase's difference is Σgreen − Σred, the lanes of ``junction`` its colors show green less those they show red.
    ``balanced`` penalizes that imbalance and waiting.  ``literal`` is the square-root variant
    0.2*sqrt(difference^2 + W); it rewards imbalance instead, and its radicand is clamped at 0 where a negative
    waiting term would otherwise make it undefined.
    """
    sign = {GREEN: 1, YELLOW: 0, RED: -1}
    lanes = (len(junction.axis_a), len(junction.axis_b))
    rewards = {}
    for phase, (colors, _) in PHASES.items():
        diff = sum(sign[color] * n for color, n in zip(colors, lanes))
        if mode == "literal":
            rewards[phase] = tuple(0.2 * math.sqrt(max(0.0, diff * diff + w)) for w in WAITING_PENALTIES)
        else:
            rewards[phase] = tuple(-0.2 * abs(diff) + w for w in WAITING_PENALTIES)
    return rewards


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
        self._flat = [c.reshape(agents * capacity, *c.shape[2:]) for c in  # views, so push writes through them
                      (self.states, self.actions, self.rewards, self.next_states, self.nonterminal)]
        self._offsets = np.arange(agents)[:, None] * capacity  # agent k's rows start at k * capacity in _flat

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

    def sample(self, batch_size: int, rng) -> tuple[np.ndarray, ...]:
        """(states, actions, rewards, next_states, nonterminal) of ``batch_size`` uniform draws per agent.

        Each is (agents, batch_size, ...), [k, j] being agent k's j-th draw; agent 0 draws first, then agent 1, ..."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from a buffer of size {len(self)}")
        flat = rng.integers(0, len(self), size=(self.agents, batch_size)) + self._offsets
        return tuple(column.take(flat, axis=0) for column in self._flat)


def td_targets_batch(rewards, next_states, nonterminal, target_net: QNetwork, gamma: float,
                     out: qnet.Workspace | None = None) -> np.ndarray:
    """rewards + gamma * max_a target_net(next_states)[a] * nonterminal; ``out`` is ``qnet.forward_batch``'s."""
    best = qnet.forward_batch(target_net, next_states, out).max(axis=-1)
    return rewards + gamma * best * nonterminal


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
    by their position in ``layout.junctions``: row k of the (K, P) network ``net`` is junction k's network and
    ``states[k]`` its signal state.  A decision is one pass for all junctions: ``featurize``, ``qnet.forward`` and
    ``select_action`` once each.  With ``epsilon`` 0, as at evaluation, each action is the argmax; training sets
    ``epsilon`` and ``rng`` and extends ``act``.
    """

    def __init__(self, net: QNetwork, interval: float, layout: StateLayout):
        self.net = net
        self.interval = interval
        self.layout = layout
        self.work = qnet.Workspace(net.sizes, (len(layout.junctions), 1))  # every decision's forward writes here
        self.epsilon = 0.0
        self.rng = None

    def decide(self, clock: float, lane_stats, states) -> list[str]:
        """Requests in junction order; they change only at a decision."""
        if clock % self.interval == 0.0:  # both whole steps, so exact
            self.act(featurize(lane_stats(), self.layout, states, clock))
        return self.requests

    def act(self, obs: np.ndarray) -> None:
        """Act on the (K, width) states ``obs``."""
        self.actions = select_action(qnet.forward(self.net, obs, self.work), self.epsilon, self.rng)
        self.requests = [REQUESTS[action] for action in self.actions]
