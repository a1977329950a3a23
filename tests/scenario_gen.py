"""Random-but-valid scenario construction and invariant-checked simulation runs.

The generator builds a signalized corridor with cross streets (one or two
junctions, one or two lanes per axis, randomized geometry, demand, and vehicle
kinematics), always passing model validation.  ``run_checked`` drives such a
scenario with random controller requests through the safety interlock and
asserts every simulation invariant after every step.
"""

import numpy as np

from oracles import conflicting_pairs
from greenlight import netmodel
from greenlight.controllers import REQUESTS, SignalAssignment, apply_interlock
from greenlight.netmodel import Edge, Junction, Network, Route, Scenario, VehicleParams
from greenlight.simcore import GREEN, RED, Simulation


def random_scenario(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    n_junctions = int(rng.integers(1, 3))

    def length() -> float:
        return float(rng.uniform(40.0, 250.0))

    def limit() -> float:
        return float(rng.uniform(8.0, 15.0))

    junctions = [Junction(id="m_src"), Junction(id="m_snk")]
    edges = []
    main_path = []
    prev = "m_src"
    for i in range(n_junctions):
        eid = f"main_{i}"
        edges.append(Edge(eid, prev, f"j{i}", length(), limit()))
        main_path.append(eid)
        prev = f"j{i}"
    edges.append(Edge(f"main_{n_junctions}", prev, "m_snk", length(), limit()))
    main_path.append(f"main_{n_junctions}")

    routes = [Route(tuple(main_path), float(rng.uniform(0.0, 0.10)))]
    for i in range(n_junctions):
        axis_a = [f"main_{i}"]
        if rng.random() < 0.4:  # a second main-axis feeder, merging onto the main road or turning off it
            junctions.append(Junction(id=f"a2_src_{i}"))
            edges.append(Edge(f"a2_{i}", f"a2_src_{i}", f"j{i}", length(), limit()))
            axis_a.append(f"a2_{i}")
        junctions.append(Junction(id=f"c_src_{i}"))
        junctions.append(Junction(id=f"c_snk_{i}"))
        edges.append(Edge(f"cross_in_{i}", f"c_src_{i}", f"j{i}", length(), limit()))
        edges.append(Edge(f"cross_out_{i}", f"j{i}", f"c_snk_{i}", length(), limit()))
        junctions.append(
            Junction(
                id=f"j{i}",
                signalized=True,
                axis_a=tuple(axis_a),
                axis_b=(f"cross_in_{i}",),
                yellow=float(rng.integers(1, 5)),
                min_green=float(rng.integers(2, 9)),
            )
        )
        routes.append(Route((f"cross_in_{i}", f"cross_out_{i}"), float(rng.uniform(0.0, 0.08))))
        if len(axis_a) > 1:
            routes.append(Route((f"a2_{i}", f"cross_out_{i}"), float(rng.uniform(0.0, 0.05))))
            # green with main_{i} on axis A, so the two feeders of main_{i+1} merge in one step
            routes.append(Route((f"a2_{i}", *main_path[i + 1 :]), float(rng.uniform(0.0, 0.05))))

    decel = float(rng.uniform(3.0, 5.0))
    scenario = Scenario(
        network=Network(junctions=tuple(junctions), edges=tuple(edges)),
        routes=tuple(routes),
        duration=300.0,
        vehicle=VehicleParams(
            accel=float(rng.uniform(1.5, 3.0)),
            decel=decel,
            emergency_decel=decel + float(rng.uniform(2.0, 5.0)),
            length=float(rng.uniform(4.0, 6.0)),
            min_gap=float(rng.uniform(1.0, 3.0)),
            tau=float(rng.uniform(1.0, 1.5)),
        ),
        seed=seed,
    )
    assert netmodel.validate(scenario.network) == []
    return scenario


def pending_count(sim: Simulation) -> int:
    """Vehicles scheduled but not yet inserted."""
    return len(sim._scheduled) + sum(map(len, sim._queued.values()))


def on_network_count(sim: Simulation) -> int:
    """Vehicles currently on some lane."""
    return sum(len(lane) for lane in sim.vehicles_on.values())


class InvariantChecker:
    """Per-step assertions over a running simulation and its signal streams."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.junctions = sim.scenario.network.signalized_junctions()
        self.conflicts = {j.id: conflicting_pairs(j) for j in self.junctions}
        self.prev_positions = self._positions()
        self.prev_colors = None
        self.violations = {
            "collision": 0,
            "conservation": 0,
            "interlock": 0,
            "green_without_yellow": 0,
            "red_crossing": 0,
            "position_regressed": 0,
            "speeding": 0,
            "double_arrival": 0,
        }

    def _positions(self):
        return {
            v.vid: (v.edge_index, v.position)
            for lane in self.sim.vehicles_on.values()
            for v in lane
        }

    def after_step(self, colors: list) -> None:
        """Check the state ``sim.step(colors)`` left; ``colors`` holds one pair per signalized junction, in order."""
        sim = self.sim
        params = sim.scenario.vehicle

        # each vehicle arrives once: the count is the vehicles stamped arrived,
        # and none of them is still on a lane
        arrived = {v.vid for v in sim.vehicles if v.arrived_at is not None}
        if sim.arrived_count != len(arrived):
            self.violations["double_arrival"] += 1
        if any(v.vid in arrived for lane in sim.vehicles_on.values() for v in lane):
            self.violations["double_arrival"] += 1

        spawned = len(sim.vehicles)
        on_net = on_network_count(sim)
        if sim.inserted_count != on_net + sim.arrived_count:
            self.violations["conservation"] += 1
        if spawned != sim.inserted_count + pending_count(sim):
            self.violations["conservation"] += 1

        for eid, lane in sim.vehicles_on.items():
            edge = sim.scenario.network.edge(eid)
            for veh in lane:
                if not (-1e-9 <= veh.position <= edge.length + 1e-9):
                    self.violations["position_regressed"] += 1
                if veh.speed > edge.speed_limit + 1e-9 or veh.speed < 0.0:
                    self.violations["speeding"] += 1
            for leader, follower in zip(lane, lane[1:]):
                if leader.position - params.length - follower.position < -1e-9:
                    self.violations["collision"] += 1

        for k, (j, (color_a, color_b)) in enumerate(zip(self.junctions, colors)):
            edge_color = {eid: color_a for eid in j.axis_a}
            edge_color.update({eid: color_b for eid in j.axis_b})
            for ea, eb in self.conflicts[j.id]:
                if edge_color[ea] != RED and edge_color[eb] != RED:
                    self.violations["interlock"] += 1
            if self.prev_colors is not None:
                pa, pb = self.prev_colors[k]
                if pa == GREEN and color_a == RED:
                    self.violations["green_without_yellow"] += 1
                if pb == GREEN and color_b == RED:
                    self.violations["green_without_yellow"] += 1

        positions = self._positions()
        for vid, (edge_idx, pos) in positions.items():
            prev = self.prev_positions.get(vid)
            if prev is None:
                continue
            prev_idx, prev_pos = prev
            if edge_idx == prev_idx:
                if pos < prev_pos - 1e-9:
                    self.violations["position_regressed"] += 1
            else:
                veh = sim.vehicles[vid]
                for crossed in range(prev_idx, edge_idx):
                    crossed_edge = veh.route[crossed]
                    if sim.edge_color(crossed_edge) != GREEN:
                        self.violations["red_crossing"] += 1
        self.prev_positions = positions
        self.prev_colors = list(colors)

    def assert_clean(self) -> None:
        assert all(count == 0 for count in self.violations.values()), self.violations


def run_checked(scenario: Scenario, seed: int, steps: int):
    """Drive random interlocked requests for ``steps`` steps, checking invariants.

    Returns (change log, checker) so callers can also compare runs for
    determinism.  Each step's log entry names the vehicles whose emergency
    stops, actual depart or arrival changed in it, with the new values.
    """
    sim = Simulation(
        scenario, np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 77))))
    )
    request_rng = np.random.default_rng(seed + 1)
    junctions = scenario.network.signalized_junctions()
    states = [SignalAssignment()] * len(junctions)
    checker = InvariantChecker(sim)
    log = []
    prev = [_counters(v) for v in sim.vehicles]
    for _ in range(steps):
        for k, j in enumerate(junctions):
            request = REQUESTS[int(request_rng.integers(0, len(REQUESTS)))]
            states[k] = apply_interlock(request, states[k], j, sim.clock)
        colors = [state.colors() for state in states]
        sim.step(colors)
        checker.after_step(colors)
        now = [_counters(v) for v in sim.vehicles]
        log.append(tuple((vid, c) for vid, (p, c) in enumerate(zip(prev, now)) if p != c))
        prev = now
    return log, checker


def _counters(veh) -> tuple:
    return (veh.emergency_stops, veh.actual_depart, veh.arrived_at)
