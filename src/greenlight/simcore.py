"""Deterministic discrete-time microscopic traffic simulation.

One-second steps, Krauss-style safe-speed car following with zero driver
imperfection, single-lane edges, and stop-line handling at signalized
junctions.  All randomness lives in the Poisson demand schedule drawn once at
construction from the supplied generator, so a (scenario, seed, controller)
triple fully determines every event the simulation emits.

Within an edge, vehicles update front to back in one flat loop that applies
one obstacle rule, inlined, to each vehicle.  The obstacle is the first of:
the in-lane leader at its already-updated position; a non-green stop line, a
standing zero-length leader at the edge end; the next edge's last vehicle at
its pre-step rear.  Against it the vehicle drives at no more than the Krauss
safe speed ``-b*tau + sqrt((b*tau)^2 + v_leader^2 + 2*b*gap)``; braking beyond
``b`` counts as an emergency and is clamped at ``b_emergency``; and a hard
displacement cap (you cannot move past the obstacle) makes the update
collision-free by construction.  The same pass accumulates the vehicle's
waiting time and time loss.  ``tests/oracles.py`` keeps the scalar form of
this rule as the reference it is checked against bit for bit.
"""

from __future__ import annotations

import heapq
import math

from . import metrics
from .netmodel import DT, GREEN, RED, Edge, Scenario

_EPS = 1e-9


class InterlockViolation(ValueError):
    """A requested assignment would show two conflicting axes non-red."""


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
        p = self.params
        length, accel_dv, b = p.length, p.accel * DT, p.decel
        emergency_decel, emergency_dv = p.emergency_decel, p.emergency_decel * DT
        bt = b * p.tau
        bt2, two_b = bt * bt, 2.0 * b
        halt, sqrt, inf = metrics.HALT_SPEED, math.sqrt, math.inf
        edge_signal, assignment = self._edge_signal, self.assignment
        for edge in self.edge_order:
            lane = self.vehicles_on[edge.id]
            if not lane:
                continue
            guard = edge_signal.get(edge.id)
            line_open = guard is None or assignment[guard[0]][guard[1]] == GREEN
            end, limit = edge.length, edge.speed_limit
            leader = None  # already moved this step
            for veh in lane:
                v_prev = veh.speed
                v_target = v_prev + accel_dv
                if limit < v_target:
                    v_target = limit
                # the one obstacle ahead: its speed and the gap to it
                gap = inf
                if leader is not None:
                    lead_speed = leader.speed
                    gap = leader.position - length - veh.position
                elif not line_open:  # the stop line stands still
                    lead_speed = 0.0
                    gap = end - veh.position
                elif veh.edge_index + 1 < len(veh.route):
                    rear = rear_snapshot[veh.route[veh.edge_index + 1].id]
                    if rear is not None:  # the next edge's last vehicle
                        lead_speed = rear[1]
                        gap = (end - veh.position) + rear[0] - length
                hard_cap = inf
                if gap < inf:
                    if gap < 0.0:
                        gap = 0.0
                    # the Krauss safe speed, clamped at 0 (v_target is positive here)
                    v_safe = sqrt(bt2 + lead_speed * lead_speed + two_b * gap) - bt
                    if v_safe < v_target:
                        v_target = v_safe if v_safe > 0.0 else 0.0
                    hard_cap = gap / DT

                # braking beyond b is an emergency, and is clamped at b_emergency (validated > b > 0)
                decel = (v_prev - v_target) / DT
                if decel > b:
                    if not veh.in_emergency:
                        veh.emergency_stops += 1
                        veh.in_emergency = True
                    if decel > emergency_decel:
                        v_target = v_prev - emergency_dv
                elif veh.in_emergency:
                    veh.in_emergency = False
                if v_target > hard_cap:  # the obstacle is a wall
                    v_target = hard_cap
                if v_target < 0.0:
                    v_target = 0.0

                veh.position += v_target * DT
                veh.speed = v_target
                if v_target < halt:
                    veh.waiting_time += DT
                veh.time_loss += (1.0 - v_target / limit) * DT
                leader = veh

    def _transfer_and_arrive(self) -> None:
        end_clock = self.clock + DT
        for edge in self.edge_order:
            lane = self.vehicles_on[edge.id]
            end = edge.length - _EPS
            while lane and lane[0].position >= end:
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
