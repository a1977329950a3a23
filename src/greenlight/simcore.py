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
its pre-step rear, read on demand (recorded as each lane moves).  Against it
the vehicle drives at no more than the Krauss safe speed
``-b*tau + sqrt((b*tau)^2 + v_leader^2 + 2*b*gap)``; braking beyond ``b``
counts as an emergency and is clamped at ``b_emergency``; and a hard
displacement cap (you cannot move past the obstacle) makes the update
collision-free by construction.  The same pass accumulates the vehicle's
waiting time and time loss.

Two exact fast paths run ahead of that rule, writing the bits it would:

- Cruising: a vehicle at its edge's limit whose leader's moved nose (for a
  lane head, its edge end) is at least the edge's cruise room ahead.  That
  room is the vehicle length plus the larger of the Krauss free distance
  ``((limit + b*tau)^2 - (b*tau)^2) / 2b`` and one step's travel, widened
  against rounding.  Past it, for any leader speed, neither the safe speed
  nor the hard cap is below the limit: no braking, so it moves
  ``limit * DT`` and adds no time loss.  A lane head's edge end bounds
  every obstacle it can have: its gap is ``end - pos`` to a line, and at
  least ``end - pos - length - _EPS`` to a next edge's rear, which a
  transfer leaves no farther back than ``-_EPS``.  An edge whose limit is
  below ``HALT_SPEED`` has no cruise room: there, a vehicle at the limit
  waits.
- Standing: a standing vehicle whose gap, as the rule computes it, is at
  most 0 (touching its leader's moved tail, or at or past a closed line).
  The gap clamps to 0, so the hard cap holds it at 0 whatever its leader's
  speed and whatever the safe speed rounds to: it stays put and adds ``DT``
  of waiting and time loss.

Either path also ends an emergency, as the rule does when it does not brake.

The transfer pass then visits only the lane heads at their line, each with
the edge, lane and line state the move pass listed it with, and a vehicle
crosses at most one line per step: ``netmodel.validate`` rejects any edge a
vehicle could cross in one step.  Each entry edge's vehicles wait in one
FIFO, filled at construction.  ``tests/oracles.py`` keeps the scalar step,
without the fast paths, as the reference it is checked against bit for bit.
"""

from __future__ import annotations

import math
from collections import deque

from .netmodel import DT, GREEN, HALT_SPEED, RED, YELLOW, Edge, Scenario

_EPS = 1e-9
#: Every (axis A, axis B) color pair a signalized junction may show: at least one axis red.
_LEGAL_PAIRS = frozenset((a, b) for a in (GREEN, YELLOW, RED) for b in (GREEN, YELLOW, RED) if RED in (a, b))


class InterlockViolation(ValueError):
    """Requested signal colors would show two conflicting axes non-red, or do not cover the signalized junctions."""


class Vehicle:
    """A vehicle somewhere along its fixed route."""

    __slots__ = (
        "vid",
        "route",
        "route_index",
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

    def __init__(self, vid: int, route: tuple[Edge, ...], scheduled_depart: float, route_index: int):
        self.vid = vid
        self.route = route
        self.route_index = route_index  # of the route in the scenario; the step never reads it
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


def spawn_schedule(scenario: Scenario, rng) -> list[tuple[float, int]]:
    """Poisson arrival times per route over [0, duration), merged and sorted.

    Inter-arrival gaps come from the inverse-CDF exponential transform of the
    generator's uniform stream, one route after another in file order, so a
    fixed seed pins the whole schedule.  Returns (depart time, route index).
    """
    events: list[tuple[float, int]] = []
    for ridx, route in enumerate(scenario.routes):
        if route.rate <= 0.0:
            continue
        t = -math.log(1.0 - rng.random()) / route.rate
        while t < scenario.duration:
            events.append((t, ridx))
            t += -math.log(1.0 - rng.random()) / route.rate
    events.sort(key=lambda event: event[0])  # stable: equal times keep route order
    return events


class Simulation:
    """Single-owner simulation state plus its driving operations."""

    def __init__(self, scenario: Scenario, rng):
        self.scenario = scenario
        self.params = p = scenario.vehicle
        self.clock = 0.0
        # the move rule's constants: length, a*DT, b, b_emergency, b_emergency*DT, b*tau, (b*tau)^2, 2*b
        bt = p.decel * p.tau
        self._rule = (p.length, p.accel * DT, p.decel, p.emergency_decel, p.emergency_decel * DT,
                      bt, bt * bt, 2.0 * p.decel)

        net = scenario.network
        edge_order = sorted(net.edges, key=lambda e: e.id)
        self.vehicles_on: dict[str, list[Vehicle]] = {e.id: [] for e in edge_order}

        # which (junction position, axis) guards each signal-controlled edge end, in signalized_junctions() order
        signalized = net.signalized_junctions()
        self._signal_ids = tuple(j.id for j in signalized)  # for messages only
        edge_signal: dict[str, tuple[int, int]] = {}
        for k, j in enumerate(signalized):
            for eid in j.axis_a:
                edge_signal[eid] = (k, 0)
            for eid in j.axis_b:
                edge_signal[eid] = (k, 1)
        # (edge, its lane, its guard or None, its cruise room) by edge id, in edge order
        self._lanes = {e.id: (e, self.vehicles_on[e.id], edge_signal.get(e.id), self._cruise_room(e))
                       for e in edge_order}

        self.colors: tuple[tuple[str, str], ...] = ((GREEN, RED),) * len(signalized)  # by junction position

        routes = [tuple(map(net.edge, r.edges)) for r in scenario.routes]
        self.vehicles = [Vehicle(vid, routes[r], t, r) for vid, (t, r) in enumerate(spawn_schedule(scenario, rng))]
        # not yet inserted, in departure order, by entry edge id (in route order)
        self._waiting: dict[str, deque[Vehicle]] = {r.edges[0]: deque() for r in scenario.routes}
        for veh in self.vehicles:
            self._waiting[veh.route[0].id].append(veh)

        self.inserted_count = 0
        self.arrived_count = 0

    def _cruise_room(self, edge: Edge) -> float:
        """Nose-to-obstacle distance past which no obstacle slows a vehicle at the edge's limit (module docstring)."""
        limit = edge.speed_limit
        if limit < HALT_SPEED:
            return math.inf
        length, bt, two_b = self._rule[0], self._rule[5], self._rule[7]
        free = limit * (limit + 2.0 * bt) / two_b  # ((limit + b*tau)^2 - (b*tau)^2) / 2b
        return (length + max(free, limit * DT)) * (1.0 + 1e-9) + 1e-6

    # -- stepping --------------------------------------------------------------

    def step(self, colors) -> None:
        """Advance one second under one (axis A, axis B) color pair per ``network.signalized_junctions()`` entry."""
        colors = tuple(colors)
        if colors != self.colors:  # the accepted pairs passed already, so a fault is still rejected on its first step
            self._check_interlock(colors)
            self.colors = colors
        self._insert_due()
        self._transfer_and_arrive(self._move_all())
        self.clock += DT

    def _check_interlock(self, colors) -> None:
        if len(colors) != len(self._signal_ids):
            raise InterlockViolation(f"{len(colors)} color pairs for {len(self._signal_ids)} signalized junctions")
        for jid, pair in zip(self._signal_ids, colors):
            if pair not in _LEGAL_PAIRS:
                color_a, color_b = pair
                problem = "both axes non-red" if {color_a, color_b} <= {GREEN, YELLOW} else "unknown color in"
                raise InterlockViolation(f"junction {jid}: {problem} ({color_a}, {color_b})")

    def _insert_due(self) -> None:
        """Each entry edge whose first waiting vehicle is due inserts it if the edge has room."""
        clock, length, room = self.clock, self.params.length, self.params.length + self.params.min_gap
        for eid, queue in self._waiting.items():
            if not queue or queue[0].scheduled_depart > clock:
                continue
            lane = self.vehicles_on[eid]
            if lane and lane[-1].position - length < room:
                continue  # once one is inserted, the next would stand on it: at most one per step
            veh = queue.popleft()
            veh.actual_depart = clock
            lane.append(veh)
            self.inserted_count += 1

    def _move_all(self) -> list[tuple[Edge, list[Vehicle], bool]]:
        """Move every vehicle; return each lane whose head reached its line as (edge, lane, line open), in edge order.

        An open line is reached at ``end - _EPS``, a closed one only past ``end``."""
        length, accel_dv, b, emergency_decel, emergency_dv, bt, bt2, two_b = self._rule
        dt, halt, sqrt, inf = DT, HALT_SPEED, math.sqrt, math.inf
        colors, vehicles_on = self.colors, self.vehicles_on
        rears = {}  # each moved lane's last vehicle as it was before the move: (position, speed)
        heads = []
        for eid, (edge, lane, guard, cruise_room) in self._lanes.items():
            if not lane:
                continue
            line_open = guard is None or colors[guard[0]][guard[1]] == GREEN
            end, limit = edge.length, edge.speed_limit
            lead_pos = None  # the in-lane leader's position once it has moved
            for veh in lane:
                pos, v_prev = veh.position, veh.speed
                # cruising: at the limit, with the edge end (a head) or the leader's nose at least the cruise room ahead
                if v_prev == limit and (end if lead_pos is None else lead_pos) - pos >= cruise_room:
                    veh.position = lead_pos = pos + limit * dt
                    lead_speed = limit
                    veh.in_emergency = False
                    continue
                # standing with no gap: touching the leader's moved tail, or at or past a closed line
                if v_prev == 0.0 and (lead_pos - length - pos <= 0.0 if lead_pos is not None
                                      else not line_open and end - pos <= 0.0):
                    lead_pos, lead_speed = pos, 0.0
                    veh.waiting_time += dt
                    veh.time_loss += dt
                    veh.in_emergency = False
                    continue
                v_target = v_prev + accel_dv
                if limit < v_target:
                    v_target = limit
                # the one obstacle ahead: its speed and the gap to it
                gap = inf
                if lead_pos is not None:
                    gap = lead_pos - length - pos
                elif not line_open:  # the stop line stands still
                    lead_speed = 0.0
                    gap = end - pos
                elif veh.edge_index + 1 < len(veh.route):
                    nid = veh.route[veh.edge_index + 1].id
                    rear = rears.get(nid)
                    if rear is None and vehicles_on[nid]:  # not moved yet: its last vehicle is pre-step
                        rear = (vehicles_on[nid][-1].position, vehicles_on[nid][-1].speed)
                    if rear is not None:  # the next edge's last vehicle
                        lead_speed = rear[1]
                        gap = (end - pos) + rear[0] - length
                hard_cap = inf
                if gap < inf:
                    if gap < 0.0:
                        gap = 0.0
                    # the Krauss safe speed, clamped at 0 (v_target is positive here)
                    v_safe = sqrt(bt2 + lead_speed * lead_speed + two_b * gap) - bt
                    if v_safe < v_target:
                        v_target = v_safe if v_safe > 0.0 else 0.0
                    hard_cap = gap / dt

                # braking beyond b is an emergency, and is clamped at b_emergency (validated > b > 0)
                decel = (v_prev - v_target) / dt
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

                veh.position = lead_pos = pos + v_target * dt
                veh.speed = lead_speed = v_target
                if v_target < halt:
                    veh.waiting_time += dt
                veh.time_loss += (1.0 - v_target / limit) * dt
            rears[eid] = (pos, v_prev)  # the last vehicle's, read before it moved
            head = lane[0].position
            if head > end or (line_open and head >= end - _EPS):
                heads.append((edge, lane, line_open))
        return heads

    def _transfer_and_arrive(self, heads: list[tuple[Edge, list[Vehicle], bool]]) -> None:
        """Carry the lane heads at their line across it, lane by lane in edge order (as ``_move_all`` lists them).

        A head holds at a closed line, arrives at its route's end, or lands on
        its next edge clipped to the room behind that edge's last vehicle,
        holding if there is none.  Every edge is longer than one step of
        travel from its feeders, so a transferred vehicle lands short of the
        next line.
        """
        end_clock, length, vehicles_on = self.clock + DT, self.params.length, self.vehicles_on
        for edge, lane, line_open in heads:
            if not line_open:  # listed only past its line
                self._hold_at_line(edge, lane)
                continue
            end = edge.length
            while lane and lane[0].position >= end - _EPS:
                veh = lane[0]
                if veh.edge_index + 1 == len(veh.route):
                    veh.arrived_at = end_clock
                    self.arrived_count += 1
                else:
                    nxt = veh.route[veh.edge_index + 1]
                    target_lane = vehicles_on[nxt.id]
                    position = veh.position - end
                    if target_lane:
                        room = target_lane[-1].position - length
                        if room < 0.0:
                            self._hold_at_line(edge, lane)  # no room past the line
                            break
                        if position > room:
                            position = room
                    veh.edge_index += 1
                    veh.position = position
                    if veh.speed > nxt.speed_limit:
                        veh.speed = nxt.speed_limit
                    target_lane.append(veh)
                lane.pop(0)

    def _hold_at_line(self, edge: Edge, lane: list[Vehicle]) -> None:
        """Pin the lane's head at its edge end and re-pack any followers behind it.

        A vehicle stands past its line only when another green feeder filled
        its next edge first in the same step, or when placed there by hand.
        If the head started the step at or before its line (a pin sets it to
        the line exactly), re-packing never moves a vehicle behind its
        pre-step position, so positions stay monotone and overlap-free.  In
        ``test_a_head_past_a_red_line_is_pinned_and_its_followers_repacked``
        a head placed past its line by hand moves its follower back.
        """
        head = lane[0]
        if head.position <= edge.length:
            return
        head.position = ahead = edge.length
        head.speed = 0.0
        for follower in lane[1:]:
            limit = ahead - self.params.length
            if follower.position <= limit:
                break
            follower.position = ahead = limit
            follower.speed = 0.0
