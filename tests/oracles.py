"""Independent reference implementations used as test oracles.

Everything here is deliberately written straight-line (plain loops, or the
one-sample form of a batched computation) and shares no code with what it
checks, so a bug in the implementation cannot hide in its own oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from greenlight import dqn, qnet
from greenlight.netmodel import DT, GREEN, HALT_SPEED, RED
from greenlight.simcore import InterlockViolation

EPS = 1e-9  # m: a vehicle this close to its line counts as at it


def straight_line_forward(sizes, weights, biases, x):
    """Feed-forward evaluation with explicit loops: affine + relu, linear out."""
    a = list(x)
    for layer in range(len(sizes) - 1):
        out = []
        for row in range(sizes[layer + 1]):
            total = biases[layer][row]
            for col in range(sizes[layer]):
                total += weights[layer][row][col] * a[col]
            out.append(total)
        if layer < len(sizes) - 2:
            out = [v if v > 0.0 else 0.0 for v in out]
        a = out
    return a


def forward(net, x):
    """One network's q-values for one state, layer by layer as ``w @ a + b``, rectified on hidden layers."""
    a = np.asarray(x, dtype=np.float64)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = w @ a + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a


def select_action(q_values, epsilon, rng):
    """Epsilon-greedy over one junction's q-values; greedy ties break to the lowest index."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, len(q_values)))
    return int(np.argmax(q_values))


def finite_difference_grads(net, x, td_target, action, eps, loss_fn):
    """Central-difference gradients of loss_fn w.r.t. every parameter."""
    grads_w, grads_b = [], []
    for layer in range(len(net.weights)):
        gw = [[0.0] * net.weights[layer].shape[1] for _ in range(net.weights[layer].shape[0])]
        for r in range(net.weights[layer].shape[0]):
            for c in range(net.weights[layer].shape[1]):
                orig = net.weights[layer][r, c]
                net.weights[layer][r, c] = orig + eps
                up = loss_fn(net, x, td_target, action)
                net.weights[layer][r, c] = orig - eps
                down = loss_fn(net, x, td_target, action)
                net.weights[layer][r, c] = orig
                gw[r][c] = (up - down) / (2.0 * eps)
        grads_w.append(gw)
        gb = [0.0] * net.biases[layer].shape[0]
        for r in range(net.biases[layer].shape[0]):
            orig = net.biases[layer][r]
            net.biases[layer][r] = orig + eps
            up = loss_fn(net, x, td_target, action)
            net.biases[layer][r] = orig - eps
            down = loss_fn(net, x, td_target, action)
            net.biases[layer][r] = orig
            gb[r] = (up - down) / (2.0 * eps)
        grads_b.append(gb)
    return grads_w, grads_b


def adam_reference(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam trace over a flat list of scalar parameters.

    grad_steps is a list of gradient lists (one per step); returns the
    parameter values after each step.
    """
    p = list(params)
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    trace = []
    for t, grads in enumerate(grad_steps, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            p[i] = p[i] - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(list(p))
    return trace


def naive_stats(values):
    """Two-pass mean / sample SD / min / max with plain accumulation."""
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    if n < 2:
        sd = 0.0
    else:
        ss = 0.0
        for v in values:
            ss += (v - mean) ** 2
        sd = math.sqrt(ss / (n - 1))
    lo = values[0]
    hi = values[0]
    for v in values:
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return mean, sd, lo, hi


def exponential_arrivals(uniforms, rate, duration):
    """Inverse-CDF exponential arrival times consuming a given uniform stream."""
    times = []
    t = 0.0
    for u in uniforms:
        t += -math.log(1.0 - u) / rate
        if t >= duration:
            break
        times.append(t)
    return times


def backward(net, x, td_target, action):
    """Loss (q[action] - target)^2 and its gradients for one sample.

    The single-sample form of ``qnet.backward_batch``, vector by vector.
    """
    if not 0 <= action < net.d_out:
        raise ValueError(f"action {action} out of range for {net.d_out} outputs")
    a = np.asarray(x, dtype=np.float64)
    if a.shape[-1] != net.d_in:
        raise ValueError(f"input dimension {a.shape[-1]} does not match network d_in {net.d_in}")
    activations = [a]
    pre = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        if i < last:
            pre.append(z)
            a = np.maximum(z, 0.0)
        else:
            a = z
        activations.append(a)

    error = activations[-1][action] - td_target
    loss = float(error * error)
    delta = np.zeros(net.d_out)
    delta[action] = 2.0 * error

    grads = qnet.QNetwork(net.sizes)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads.weights[layer][...] = np.outer(delta, activations[layer])
        grads.biases[layer][...] = delta
        if layer > 0:
            delta = (net.weights[layer].T @ delta) * (pre[layer - 1] > 0.0)
    return loss, grads


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class ReplayBuffer:
    """Fixed-capacity list of transitions with FIFO eviction; uniform sampling with replacement.

    The per-transition form of ``dqn.ReplayBuffer``: slot ``i`` of the list
    holds what row ``i`` of the ring holds, and sampling draws the same slots.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._items = []
        self._next = 0

    def __len__(self):
        return len(self._items)

    def push(self, transition):
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._next] = transition  # FIFO eviction
            self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size, rng):
        if batch_size > len(self._items):
            raise ValueError(f"cannot sample {batch_size} from a buffer of size {len(self._items)}")
        idx = rng.integers(0, len(self._items), size=batch_size)
        return [self._items[i] for i in idx]

    def contents(self):
        """Buffer contents oldest-first."""
        return self._items[self._next :] + self._items[: self._next]


def buffer_rows_oldest_first(buf):
    """Row indices of a ``dqn.ReplayBuffer`` ring, oldest transition first."""
    return (max(0, buf.pushes - buf.capacity) + np.arange(len(buf))) % buf.capacity


def td_target(transition, target_net, gamma):
    """Bootstrapped target of one transition: r, plus the discounted best target-net value."""
    if transition.terminal:
        return transition.reward
    return transition.reward + gamma * float(np.max(forward(target_net, transition.next_state)))


class IndependentLearner:
    """One junction's DQN learner on its own: a list replay memory, a frozen target network and an Adam.

    The per-junction form of ``harness._Learner``, which holds every
    junction's learner in one stack and updates them all in one batched step.
    """

    def __init__(self, net, capacity):
        self.net = net
        self.target = qnet.clone(net)
        self.opt = qnet.Adam(net)
        self.buffer = ReplayBuffer(capacity)
        self.updates = 0


def independent_updates(learners, hp, rng):
    """One gradient step of each learner in junction order, each on its own sample; their losses.

    Sample, TD targets, backward pass and Adam step run one learner at a time,
    all draws coming from the one generator, so learner k's batch is the k-th
    draw of ``batch_size`` indices.
    """
    if len(learners[0].buffer) < max(hp.warmup, hp.batch_size):
        return []
    losses = []
    for ln in learners:
        batch = ln.buffer.sample(hp.batch_size, rng)
        rewards = np.array([t.reward for t in batch])
        nonterminal = np.array([0.0 if t.terminal else 1.0 for t in batch])
        best = qnet.forward_batch(ln.target, np.stack([t.next_state for t in batch])).max(axis=1)
        targets = rewards + hp.gamma * best * nonterminal
        grads = qnet.QNetwork(ln.net.sizes)
        states = np.stack([t.state for t in batch])
        loss = qnet.backward_batch(ln.net, states, targets, [t.action for t in batch], grads)
        ln.opt.step(ln.net, grads, hp.lr)
        ln.updates += 1
        if ln.updates % hp.target_sync == 0:
            ln.target = qnet.clone(ln.net)
        losses.append(float(loss))
    return losses


def safe_speed(leader_speed, gap, params):
    """Krauss safe speed against a leader ``gap`` metres ahead.

    v_safe = -b*tau + sqrt((b*tau)^2 + v_leader^2 + 2*b*gap), clamped at 0.
    """
    bt = params.decel * params.tau
    v = -bt + math.sqrt(bt * bt + leader_speed * leader_speed + 2.0 * params.decel * gap)
    return v if v > 0.0 else 0.0


def required_decel(v_prev, v_target, dt, comfortable_decel):
    """Deceleration needed to hit ``v_target`` and whether it is an emergency.

    An emergency is a braking demand beyond the comfortable rate; the caller
    clamps the applied change at the physical emergency rate.
    """
    decel = (v_prev - v_target) / dt
    if decel <= 0.0:
        return 0.0, False
    return decel, decel > comfortable_decel


def record_step(tracker, speed, allowed_speed, dt):
    """Accumulate one on-network simulation step into a vehicle's counters.

    ``tracker`` needs mutable ``waiting_time`` and ``time_loss`` attributes.
    """
    if speed < HALT_SPEED:
        tracker.waiting_time += dt
    tracker.time_loss += (1.0 - speed / allowed_speed) * dt


def step(sim, colors):
    """One ``Simulation.step`` the long way: every edge snapshotted, moved and swept for transfers.

    The interlock check, then insertion, then a snapshot of every edge's last
    vehicle, then ``move_all`` against it, then a transfer sweep over every
    edge in edge order, each lane head at or past its line carried across by
    ``advance_across``.
    """
    junctions = sim.scenario.network.signalized_junctions()
    if len(colors) != len(junctions):
        raise InterlockViolation(f"{len(colors)} color pairs for {len(junctions)} signalized junctions")
    for j, (color_a, color_b) in zip(junctions, colors):
        if color_a != RED and color_b != RED:
            raise InterlockViolation(f"junction {j.id}: both axes non-red ({color_a}, {color_b})")
    sim.colors = tuple(colors)
    insert_due(sim)
    rear_snapshot = {eid: (vs[-1].position, vs[-1].speed) if vs else None for eid, vs in sim.vehicles_on.items()}
    move_all(sim, rear_snapshot)
    end_clock = sim.clock + DT
    for edge in sim.edge_order:
        lane = sim.vehicles_on[edge.id]
        while lane and lane[0].position >= edge.length - EPS:
            if not advance_across(sim, lane[0], end_clock):
                break
            lane.pop(0)
    sim.clock += DT


def insert_due(sim):
    """Insert every vehicle due by now whose entry edge has room, keeping each edge's queue in order.

    The due vehicles are those not yet departed whose scheduled depart has come, in (depart, vid) order.
    """
    due = sorted((v for v in sim.vehicles if v.actual_depart is None and v.scheduled_depart <= sim.clock),
                 key=lambda v: (v.scheduled_depart, v.vid))
    blocked = set()
    for veh in due:
        lane = sim.vehicles_on[veh.route[0].id]
        free = (lane[-1].position - sim.params.length) if lane else math.inf
        if veh.route[0].id in blocked or free < sim.params.length + sim.params.min_gap:
            blocked.add(veh.route[0].id)
            continue
        veh.actual_depart = sim.clock
        lane.append(veh)
        sim.inserted_count += 1


def advance_across(sim, veh, end_clock):
    """Carry a vehicle over every junction its displacement reaches; False if it holds at its own line."""
    moved = False
    while veh.position >= veh.route[veh.edge_index].length - EPS:
        edge = veh.route[veh.edge_index]
        if sim.edge_color(edge) != GREEN:
            hold_at_line(sim, veh)
            return moved
        if veh.edge_index + 1 == len(veh.route):
            veh.arrived_at = end_clock
            sim.arrived_count += 1
            if moved:
                sim.vehicles_on[edge.id].remove(veh)
            return True
        nxt = veh.route[veh.edge_index + 1]
        overshoot = veh.position - edge.length
        target_lane = sim.vehicles_on[nxt.id]
        if target_lane:
            max_front = target_lane[-1].position - sim.params.length
            if max_front < 0.0:
                hold_at_line(sim, veh)
                return moved
            overshoot = min(overshoot, max_front)
        if moved:
            sim.vehicles_on[edge.id].remove(veh)
        veh.edge_index += 1
        veh.position = overshoot
        veh.speed = min(veh.speed, nxt.speed_limit)
        target_lane.append(veh)
        moved = True
    return moved


def hold_at_line(sim, veh):
    """Pin a vehicle past its line at the line, standing, and pack its followers up to it."""
    edge = veh.route[veh.edge_index]
    if veh.position <= edge.length:
        return
    veh.position = edge.length
    veh.speed = 0.0
    lane = sim.vehicles_on[edge.id]
    ahead = veh
    for follower in lane[lane.index(veh) + 1 :]:
        limit = ahead.position - sim.params.length
        if follower.position <= limit:
            break
        follower.position = limit
        follower.speed = 0.0
        ahead = follower


def move_all(sim, rear_snapshot):
    """The move phase of one ``Simulation.step``, one scalar helper call at a time.

    Each edge's vehicles move front to back against the one obstacle ahead:
    the in-lane leader (already moved), a non-green stop line, or the next
    edge's last vehicle as ``rear_snapshot`` holds it from before the step.
    """
    params = sim.params
    for edge in sim.edge_order:
        lane = sim.vehicles_on[edge.id]
        if not lane:
            continue
        color = sim.edge_color(edge)
        for i, veh in enumerate(lane):
            v_prev = veh.speed
            v_target = min(edge.speed_limit, v_prev + params.accel * DT)
            gap = math.inf
            if i > 0:
                leader = lane[i - 1]
                lead_speed = leader.speed
                gap = leader.position - params.length - veh.position
            elif color != GREEN:
                lead_speed = 0.0
                gap = edge.length - veh.position
            elif veh.edge_index + 1 < len(veh.route):
                rear = rear_snapshot[veh.route[veh.edge_index + 1].id]
                if rear is not None:
                    lead_speed = rear[1]
                    gap = (edge.length - veh.position) + rear[0] - params.length
            hard_cap = math.inf
            if gap < math.inf:
                if gap < 0.0:
                    gap = 0.0
                v_target = min(v_target, safe_speed(lead_speed, gap, params))
                hard_cap = gap / DT

            decel, emergency = required_decel(v_prev, v_target, DT, params.decel)
            if emergency and not veh.in_emergency:
                veh.emergency_stops += 1
            veh.in_emergency = emergency

            v_new = v_target
            if decel > params.emergency_decel:
                v_new = v_prev - params.emergency_decel * DT
            if v_new > hard_cap:
                v_new = hard_cap
            if v_new < 0.0:
                v_new = 0.0

            veh.position += v_new * DT
            veh.speed = v_new
            record_step(veh, v_new, edge.speed_limit, DT)


def conflicting_pairs(junction):
    """All cross-axis incoming-edge pairs of a signalized junction.

    These are the pairs the safety interlock must never show simultaneously
    green/yellow.
    """
    if not junction.signalized:
        raise ValueError(f"junction {junction.id} is not signalized")
    return {(a, b) for a in junction.axis_a for b in junction.axis_b}


@dataclass(frozen=True)
class CountedAssignment:
    """An interlock state that counts the seconds its phase has been displayed, one ``DT`` per call."""

    phase: str = "serve_a"
    time_in_phase: float = 0.0
    pending: str = "serve_a"


def apply_interlock(request, state, junction):
    """Advance a ``CountedAssignment`` one second toward the requested axis: a new state on every call."""
    if request not in ("serve_a", "serve_b", "all_red"):
        raise ValueError(f"unknown request {request!r}")
    if state.phase in ("yellow_a", "yellow_b"):
        if state.time_in_phase < junction.yellow:
            return CountedAssignment(state.phase, state.time_in_phase + DT, state.pending)
        return CountedAssignment(state.pending, DT, state.pending)
    if state.phase == "all_red":
        if request == "all_red":
            return CountedAssignment(state.phase, state.time_in_phase + DT, state.pending)
        return CountedAssignment(request, DT, request)
    if request == state.phase or state.time_in_phase < junction.min_green:
        return CountedAssignment(state.phase, state.time_in_phase + DT, state.pending)
    return CountedAssignment("yellow_a" if state.phase == "serve_a" else "yellow_b", DT, request)


def fixed_time_decide(clock, plan):
    """Signal colors (axis A, axis B) of a fixed green/yellow/green/yellow cycle at a given time."""
    c = clock % (plan.green_a + plan.yellow + plan.green_b + plan.yellow)
    if c < plan.green_a:
        return ("green", "red")
    if c < plan.green_a + plan.yellow:
        return ("yellow", "red")
    if c < plan.green_a + plan.yellow + plan.green_b:
        return ("red", "green")
    return ("red", "yellow")


@dataclass(frozen=True)
class JunctionView:
    """Snapshot of one junction's incoming lanes (axis A lanes, then axis B).

    Per lane: vehicle count, capacity, halted count and summed accumulated
    halt time of the vehicles currently on it.
    """

    lane_counts: tuple[int, ...]
    lane_capacities: tuple[int, ...]
    lane_halted: tuple[int, ...]
    lane_waits: tuple[float, ...]
    phase_onehot: tuple[float, float, float]
    time_in_phase: float


def junction_view(sim, junction, capacities, state):
    """One junction's view at the simulation's clock, walking its lanes one statistic at a time."""
    counts, halted, waits = [], [], []
    for eid in junction.axis_a + junction.axis_b:
        lane = sim.vehicles_on[eid]
        counts.append(len(lane))
        halted.append(sum(1 for v in lane if v.speed < HALT_SPEED))
        waits.append(sum(v.waiting_time for v in lane))
    return JunctionView(
        lane_counts=tuple(counts),
        lane_capacities=tuple(capacities),
        lane_halted=tuple(halted),
        lane_waits=tuple(waits),
        phase_onehot=state.phase_onehot(),
        time_in_phase=sim.clock - state.since,
    )


def featurize(view, slots):
    """Normalized state vector built component by component from a view, its lanes padded with zeros to ``slots``."""
    parts = []
    for count, cap, halted, wait in zip(view.lane_counts, view.lane_capacities, view.lane_halted, view.lane_waits):
        parts.append(min(1.0, count / cap))
        parts.append(min(1.0, halted / cap))
        parts.append(min(wait, dqn.WAIT_CAP) / dqn.WAIT_CAP)
    parts.extend([0.0] * 3 * (slots - len(view.lane_counts)))
    parts.extend(view.phase_onehot)
    parts.append(min(view.time_in_phase, dqn.PHASE_TIME_CAP) / dqn.PHASE_TIME_CAP)
    return np.asarray(parts, dtype=np.float64)


def waiting_penalty(mean_wait):
    """Coarse waiting term of a mean per-lane waiting time: 0 when no vehicle waits, -0.5 below 5 s, -1 from 5 s."""
    if mean_wait == 0.0:
        return 0.0
    return -0.5 if mean_wait < 5.0 else -1.0


def reward_from_counts(greens, reds, mean_wait, mode="balanced"):
    """One junction's step reward from its green and red lane counts and its mean per-lane waiting time.

    ``balanced`` is -0.2*|greens-reds| + W; ``literal`` is 0.2*sqrt((greens-reds)^2 + W), its radicand clamped at 0.
    """
    w, diff = waiting_penalty(mean_wait), greens - reds
    if mode == "balanced":
        return -0.2 * abs(diff) + w
    if mode == "literal":
        return 0.2 * math.sqrt(max(0.0, diff * diff + w))
    raise ValueError(f"unknown reward mode {mode!r}")


def step_reward(sim, junction, mode):
    """One junction's step reward, summing the waits vehicle by vehicle over its lanes."""
    color_a, color_b = sim.colors[sim.scenario.network.signalized_junctions().index(junction)]
    n_a, n_b = len(junction.axis_a), len(junction.axis_b)
    greens = (n_a if color_a == GREEN else 0) + (n_b if color_b == GREEN else 0)
    reds = (n_a if color_a == RED else 0) + (n_b if color_b == RED else 0)
    total_wait = 0.0
    for eid in junction.axis_a + junction.axis_b:
        for v in sim.vehicles_on[eid]:
            total_wait += v.waiting_time
    return reward_from_counts(greens, reds, total_wait / (n_a + n_b), mode)
