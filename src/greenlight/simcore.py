"""Deterministic discrete-time microscopic traffic simulation.

One-second steps, Krauss-style safe-speed car following with zero driver
imperfection, single-lane edges, and stop-line handling at signalized
junctions: a non-green axis acts as a standing zero-length leader at the edge
end.  All randomness lives in the Poisson demand schedule drawn once at
construction from the supplied generator, so a (scenario, seed, controller)
triple fully determines every event the simulation emits.

Within an edge, vehicles update front to back, so followers react to their
leader's already-updated position; a hard displacement cap (you cannot move
past your leader's rear, nor past a non-green stop line) makes the update
collision-free by construction.
"""

from __future__ import annotations

import heapq
import math

from . import metrics
from .netmodel import DT, GREEN, RED, Edge, Scenario, VehicleParams

_EPS = 1e-9


class InterlockViolation(ValueError):
    """A requested assignment would show two conflicting axes non-red."""


def safe_speed(leader_speed: float, gap: float, params: VehicleParams) -> float:
    """Krauss safe speed against a leader ``gap`` metres ahead.

    v_safe = -b*tau + sqrt((b*tau)^2 + v_leader^2 + 2*b*gap), clamped at 0.
    """
    bt = params.decel * params.tau
    v = -bt + math.sqrt(bt * bt + leader_speed * leader_speed + 2.0 * params.decel * gap)
    return v if v > 0.0 else 0.0


def required_decel(v_prev: float, v_target: float, dt: float, comfortable_decel: float) -> tuple[float, bool]:
    """Deceleration needed to hit ``v_target`` and whether it is an emergency.

    An emergency is a braking demand beyond the comfortable rate; the caller
    clamps the applied change at the physical emergency rate.
    """
    decel = (v_prev - v_target) / dt
    if decel <= 0.0:
        return 0.0, False
    return decel, decel > comfortable_decel


class Vehicle:
    """A vehicle somewhere along its fixed route."""

    __slots__ = (
        "vid",
        "route",
        "edge_index",
        "position",
        "speed",
        "scheduled_depart",
        "actual_depart",
        "arrived_at",
        "waiting_time",
        "time_loss",
        "emergency_stops",
        "in_emergency",
    )

    def __init__(self, vid: int, route: tuple[Edge, ...], scheduled_depart: float):
        self.vid = vid
        self.route = route
        self.edge_index = 0
        self.position = 0.0  # m from edge start
        self.speed = 0.0
        self.scheduled_depart = scheduled_depart
        self.actual_depart: float | None = None
        self.arrived_at: float | None = None
        self.waiting_time = 0.0
        self.time_loss = 0.0
        self.emergency_stops = 0
        self.in_emergency = False

    @property
    def edge(self) -> Edge:
        return self.route[self.edge_index]


def spawn_schedule(scenario: Scenario, rng) -> list[tuple[float, int]]:
    """Poisson arrival times per route over [0, duration), merged and sorted.

    Inter-arrival gaps come from the inverse-CDF exponential transform of the
    generator's uniform stream, one route after another in file order, so a
    fixed seed pins the whole schedule.  Returns (depart time, route index).
    """
    events: list[tuple[float, int, int]] = []
    seq = 0
    for ridx, route in enumerate(scenario.routes):
        if route.rate <= 0.0:
            continue
        t = -math.log(1.0 - rng.random()) / route.rate
        while t < scenario.duration:
            events.append((t, seq, ridx))
            seq += 1
            t += -math.log(1.0 - rng.random()) / route.rate
    events.sort()
    return [(t, ridx) for (t, _, ridx) in events]


class Simulation:
    """Single-owner simulation state plus its driving operations."""

    def __init__(self, scenario: Scenario, rng):
        self.scenario = scenario
        self.params = scenario.vehicle
        self.clock = 0.0

        net = scenario.network
        self.edge_order: tuple[Edge, ...] = tuple(sorted(net.edges, key=lambda e: e.id))
        self.vehicles_on: dict[str, list[Vehicle]] = {e.id: [] for e in self.edge_order}

        # which (junction, axis) guards each signal-controlled edge end
        self._signalized = net.signalized_junctions()
        self._edge_signal: dict[str, tuple[str, int]] = {}
        for j in self._signalized:
            for eid in j.axis_a:
                self._edge_signal[eid] = (j.id, 0)
            for eid in j.axis_b:
                self._edge_signal[eid] = (j.id, 1)

        self.assignment: dict[str, tuple[str, str]] = {j.id: (GREEN, RED) for j in self._signalized}

        self.vehicles: list[Vehicle] = []
        self._pending: list[tuple[float, int]] = []  # (scheduled depart, vid)
        for vid, (depart, ridx) in enumerate(spawn_schedule(scenario, rng)):
            route = tuple(net.edge(eid) for eid in scenario.routes[ridx].edges)
            self.vehicles.append(Vehicle(vid, route, depart))
            heapq.heappush(self._pending, (depart, vid))

        self.inserted_count = 0
        self.arrived_count = 0

    # -- queries -------------------------------------------------------------

    def edge_color(self, edge: Edge) -> str:
        """Signal color guarding this edge's end; unsignalized ends are green."""
        guard = self._edge_signal.get(edge.id)
        if guard is None:
            return GREEN
        jid, axis = guard
        return self.assignment[jid][axis]

    # -- stepping --------------------------------------------------------------

    def step(self, assignment: dict[str, tuple[str, str]]) -> None:
        """Advance the world by one second under the given signal assignment."""
        self._check_interlock(assignment)
        self.assignment = dict(assignment)
        self._insert_due()
        rear_snapshot = {
            eid: (vs[-1].position, vs[-1].speed) if vs else None
            for eid, vs in self.vehicles_on.items()
        }
        self._move_all(rear_snapshot)
        self._transfer_and_arrive()
        self.clock += DT

    def _check_interlock(self, assignment: dict[str, tuple[str, str]]) -> None:
        for j in self._signalized:
            if j.id not in assignment:
                raise InterlockViolation(f"no assignment for signalized junction {j.id}")
            color_a, color_b = assignment[j.id]
            if color_a != RED and color_b != RED:
                raise InterlockViolation(
                    f"junction {j.id}: both axes non-red ({color_a}, {color_b})"
                )

    def _insert_due(self) -> None:
        blocked: set[str] = set()
        requeue: list[tuple[float, int]] = []
        min_space = self.params.length + self.params.min_gap
        while self._pending and self._pending[0][0] <= self.clock:
            depart, vid = heapq.heappop(self._pending)
            veh = self.vehicles[vid]
            entry = veh.route[0]
            lane = self.vehicles_on[entry.id]
            free = (lane[-1].position - self.params.length) if lane else math.inf
            if entry.id in blocked or free < min_space:
                blocked.add(entry.id)  # keep per-edge FIFO order
                requeue.append((depart, vid))
                continue
            veh.actual_depart = self.clock
            lane.append(veh)
            self.inserted_count += 1
        for item in requeue:
            heapq.heappush(self._pending, item)

    def _move_all(self, rear_snapshot) -> None:
        params = self.params
        for edge in self.edge_order:
            lane = self.vehicles_on[edge.id]
            if not lane:
                continue
            color = self.edge_color(edge)
            for i, veh in enumerate(lane):
                v_prev = veh.speed
                v_target = min(edge.speed_limit, v_prev + params.accel * DT)
                # the one obstacle ahead: its speed and the gap to it
                gap = math.inf
                if i > 0:
                    leader = lane[i - 1]  # already moved this step
                    lead_speed = leader.speed
                    gap = leader.position - params.length - veh.position
                elif color != GREEN:  # the stop line stands still
                    lead_speed = 0.0
                    gap = edge.length - veh.position
                elif veh.edge_index + 1 < len(veh.route):
                    rear = rear_snapshot[veh.route[veh.edge_index + 1].id]
                    if rear is not None:  # the next edge's last vehicle
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
                if v_new > hard_cap:  # the obstacle is a wall
                    v_new = hard_cap
                if v_new < 0.0:
                    v_new = 0.0

                veh.position += v_new * DT
                veh.speed = v_new
                metrics.record_step(veh, v_new, edge.speed_limit, DT)

    def _transfer_and_arrive(self) -> None:
        end_clock = self.clock + DT
        for edge in self.edge_order:
            lane = self.vehicles_on[edge.id]
            while lane and lane[0].position >= lane[0].edge.length - _EPS:
                veh = lane[0]
                if not self._advance_across(veh, end_clock):
                    break
                lane.pop(0)

    def _advance_across(self, veh: Vehicle, end_clock: float) -> bool:
        """Carry a vehicle over as many junctions as its displacement reaches.

        Returns False when the vehicle must hold at its current stop line
        (non-green axis, or no room on the target edge), True when it left
        its original edge (arrival or transfer).
        """
        moved = False
        while veh.position >= veh.edge.length - _EPS:
            edge = veh.edge
            if self.edge_color(edge) != GREEN:
                self._hold_at_line(veh)
                return moved
            if veh.edge_index + 1 == len(veh.route):
                veh.arrived_at = end_clock
                self.arrived_count += 1
                if moved:
                    self.vehicles_on[edge.id].remove(veh)
                return True
            nxt = veh.route[veh.edge_index + 1]
            overshoot = veh.position - edge.length
            target_lane = self.vehicles_on[nxt.id]
            if target_lane:
                max_front = target_lane[-1].position - self.params.length
                if max_front < 0.0:
                    self._hold_at_line(veh)
                    return moved
                if overshoot > max_front:
                    overshoot = max_front
            if moved:
                self.vehicles_on[edge.id].remove(veh)
            veh.edge_index += 1
            veh.position = overshoot
            if veh.speed > nxt.speed_limit:
                veh.speed = nxt.speed_limit
            target_lane.append(veh)
            moved = True
        return moved

    def _hold_at_line(self, veh: Vehicle) -> None:
        """Pin a vehicle at its edge end and re-pack any followers behind it.

        Positions past the line only arise through odd corners (e.g. two green
        edges feeding one target edge in the same step); re-packing never moves
        a vehicle behind its pre-step position, so positions stay monotone and
        overlap-free.
        """
        if veh.position <= veh.edge.length:
            return
        veh.position = veh.edge.length
        veh.speed = 0.0
        lane = self.vehicles_on[veh.edge.id]
        ahead = veh
        for follower in lane[lane.index(veh) + 1 :]:
            limit = ahead.position - self.params.length
            if follower.position <= limit:
                break
            follower.position = limit
            follower.speed = 0.0
            ahead = follower
