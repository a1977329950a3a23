import copy
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import required_decel, safe_speed
import scenario_gen
from conftest import make_rng
from greenlight import netmodel
from greenlight.netmodel import YELLOW, VehicleParams
from greenlight.simcore import GREEN, RED, InterlockViolation, Simulation, Vehicle, spawn_schedule

PARAMS = VehicleParams(accel=2.6, decel=4.5, emergency_decel=9.0, length=5.0, min_gap=2.5, tau=1.0)


# --- safe speed --------------------------------------------------------------


def test_safe_speed_standing_leader_zero_gap():
    assert safe_speed(0.0, 0.0, PARAMS) == 0.0


def test_safe_speed_frozen_values():
    # oracle: hand-evaluated -b*tau + sqrt((b*tau)^2 + v^2 + 2*b*gap)
    assert safe_speed(0.0, 100.0, PARAMS) == pytest.approx(-4.5 + math.sqrt(920.25), abs=1e-12)
    assert safe_speed(0.0, 100.0, PARAMS) == pytest.approx(25.835622624235025, abs=1e-9)
    assert safe_speed(10.0, 0.0, PARAMS) == pytest.approx(-4.5 + math.sqrt(120.25), abs=1e-12)
    assert safe_speed(10.0, 0.0, PARAMS) == pytest.approx(6.4658560997306544, abs=1e-9)


@given(
    leader=st.floats(0.0, 50.0),
    gap=st.floats(0.0, 1000.0),
    extra=st.floats(0.0, 100.0),
)
def test_safe_speed_nonnegative_and_monotone_in_gap(leader, gap, extra):
    v1 = safe_speed(leader, gap, PARAMS)
    v2 = safe_speed(leader, gap + extra, PARAMS)
    assert v1 >= 0.0
    assert v2 >= v1 - 1e-12


# --- required deceleration ---------------------------------------------------


def test_required_decel_emergency():
    assert required_decel(10.0, 4.0, 1.0, 4.5) == (6.0, True)


def test_required_decel_comfortable():
    assert required_decel(10.0, 8.0, 1.0, 4.5) == (2.0, False)


def test_required_decel_standing_vehicle_never_emergency():
    for target in (0.0, 1.0, 5.0):
        assert required_decel(0.0, target, 1.0, 4.5) == (0.0, False)


# --- stepping ----------------------------------------------------------------


def _empty_sim(single_scenario) -> Simulation:
    doc = netmodel.serialize_scenario(single_scenario)
    sc = netmodel.load_scenario(doc)
    sc = netmodel.Scenario(
        network=sc.network,
        routes=tuple(netmodel.Route(r.edges, 0.0) for r in sc.routes),
        duration=sc.duration,
        vehicle=sc.vehicle,
        seed=sc.seed,
        train=sc.train,
    )
    return Simulation(sc, make_rng(0))


def _place(sim: Simulation, route_eids, position=0.0, speed=0.0) -> Vehicle:
    route = tuple(sim.scenario.network.edge(eid) for eid in route_eids)
    veh = Vehicle(len(sim.vehicles), route, 0.0, 0)  # the step never reads the route index
    veh.actual_depart = 0.0
    veh.position = position
    veh.speed = speed
    sim.vehicles.append(veh)
    sim.vehicles_on[route[0].id].append(veh)
    sim.inserted_count += 1
    return veh


ALL_GREEN_A = [(GREEN, RED)]
ALL_GREEN_B = [(RED, GREEN)]


def test_step_accelerates_free_vehicle(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"])
    sim.step(ALL_GREEN_A)
    assert veh.speed == pytest.approx(2.6)
    assert veh.position == pytest.approx(2.6)


def test_step_caps_at_speed_limit(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], speed=13.0)
    sim.step(ALL_GREEN_A)
    assert veh.speed == pytest.approx(13.9)


def test_red_light_never_crossed(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], position=0.0, speed=13.9)
    for _ in range(60):
        sim.step(ALL_GREEN_B)  # axis A (n_in) is red
        assert veh.position <= 200.0 + 1e-9
        assert veh.edge_index == 0
    assert veh.position == pytest.approx(200.0)
    assert veh.speed == 0.0


def test_red_light_rejects_then_green_releases(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], position=195.0, speed=0.0)
    sim.step(ALL_GREEN_B)
    assert veh.edge_index == 0
    for _ in range(10):
        sim.step(ALL_GREEN_A)
    assert veh.edge_index == 1  # transferred onto s_out


def test_interlock_violation_rejected_state_unchanged(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], position=50.0, speed=10.0)
    with pytest.raises(InterlockViolation):
        sim.step([(GREEN, GREEN)])
    assert veh.position == 50.0 and veh.speed == 10.0 and sim.clock == 0.0
    with pytest.raises(InterlockViolation, match=r"^0 color pairs for 1 signalized junctions$"):
        sim.step([])  # no pair for the junction
    assert sim.clock == 0.0


def test_emergency_stop_emitted_on_onset_only(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], position=190.0, speed=13.9)
    sim.step(ALL_GREEN_B)  # sudden red wall 10 m ahead
    assert veh.emergency_stops == 1
    for _ in range(10):
        sim.step(ALL_GREEN_B)  # still braking, or standing: no new onset
        assert veh.emergency_stops == 1


def test_green_vehicle_brakes_for_the_rear_of_its_next_edge(single_scenario):
    sim = _empty_sim(single_scenario)
    ahead = _place(sim, ["s_out"], position=2.0, speed=0.0)  # standing just past the junction
    veh = _place(sim, ["n_in", "s_out"], position=190.0, speed=13.9)
    sim.step(ALL_GREEN_A)
    # 7 m to that rear: brake at the emergency rate short of the line, no jump to a stop
    assert veh.edge_index == 0
    assert veh.speed == pytest.approx(13.9 - PARAMS.emergency_decel)
    assert veh.position == pytest.approx(190.0 + veh.speed)
    assert veh.emergency_stops == 1
    for _ in range(10):
        v_prev = veh.speed
        sim.step(ALL_GREEN_A)
        assert v_prev - veh.speed <= PARAMS.emergency_decel + 1e-9
        lane = sim.vehicles_on["s_out"]
        for leader, follower in zip(lane, lane[1:]):
            assert leader.position - PARAMS.length - follower.position >= -1e-9
    assert veh.edge_index == 1 and sim.vehicles_on["s_out"] == [ahead, veh]


def test_queue_forms_without_collisions(single_scenario):
    sim = _empty_sim(single_scenario)
    for i in range(6):
        _place(sim, ["n_in", "s_out"], position=190.0 - 30.0 * i, speed=13.9)
    for _ in range(40):
        sim.step(ALL_GREEN_B)
        lane = sim.vehicles_on["n_in"]
        for leader, follower in zip(lane, lane[1:]):
            assert leader.position - PARAMS.length - follower.position >= -1e-9
    # queue is standing and tightly packed behind the stop line
    lane = sim.vehicles_on["n_in"]
    assert len(lane) == 6
    assert all(v.speed < 0.5 for v in lane)


def test_interlock_rejects_an_unknown_color_state_unchanged(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], position=50.0, speed=10.0)
    with pytest.raises(InterlockViolation, match=r"junction c: unknown color in \(blue, red\)"):
        sim.step([("blue", RED)])
    assert veh.position == 50.0 and veh.speed == 10.0 and sim.clock == 0.0
    assert sim.colors == ((GREEN, RED),)


def test_interlock_rejects_more_color_pairs_than_junctions_state_unchanged(single_scenario):
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], position=50.0, speed=10.0)
    with pytest.raises(InterlockViolation, match=r"^2 color pairs for 1 signalized junctions$"):
        sim.step([(GREEN, RED), (GREEN, GREEN)])
    assert veh.position == 50.0 and veh.speed == 10.0 and sim.clock == 0.0
    assert sim.colors == ((GREEN, RED),)


def test_interlock_rejects_a_fault_mid_run_after_unchanged_pairs_state_unchanged(single_scenario):
    """A repeated pair is not checked again, so a fault that follows a run of them must still be caught."""
    sim = _empty_sim(single_scenario)
    veh = _place(sim, ["n_in", "s_out"], position=20.0, speed=10.0)
    for _ in range(3):
        sim.step(ALL_GREEN_A)
    moved = (veh.position, veh.speed, sim.clock)
    with pytest.raises(InterlockViolation, match=r"junction c: both axes non-red \(green, green\)"):
        sim.step([(GREEN, GREEN)])
    with pytest.raises(InterlockViolation, match=r"^2 color pairs for 1 signalized junctions$"):
        sim.step(ALL_GREEN_A + ALL_GREEN_A)
    assert (veh.position, veh.speed, sim.clock) == moved and sim.clock == 3.0
    assert sim.colors == tuple(ALL_GREEN_A)
    sim.step(ALL_GREEN_A)  # the accepted pair still steps
    assert sim.clock == 4.0


def test_interlock_rejects_yellow_on_both_axes(single_scenario):
    sim = _empty_sim(single_scenario)
    with pytest.raises(InterlockViolation, match=r"junction c: both axes non-red \(yellow, yellow\)"):
        sim.step([(YELLOW, YELLOW)])
    assert sim.clock == 0.0


def test_simulator_reads_colors_by_network_order_not_id(grid_text):
    """grid2x2's junctions renamed so their sorted ids run against network order: each pair still lands on the
    junction at its position in ``signalized_junctions()``."""
    scenario = netmodel.load_scenario(grid_text)
    junctions = scenario.network.junctions
    new = {j.id: f"j{len(junctions) - 1 - k:02d}" for k, j in enumerate(junctions)}
    network = netmodel.Network(
        junctions=tuple(dataclasses.replace(j, id=new[j.id]) for j in junctions),
        edges=tuple(dataclasses.replace(e, from_junction=new[e.from_junction], to_junction=new[e.to_junction])
                    for e in scenario.network.edges),
    )
    sim = Simulation(dataclasses.replace(scenario, network=network), make_rng(0))
    signalized = network.signalized_junctions()
    assert [j.id for j in signalized] == sorted((j.id for j in signalized), reverse=True)
    pairs = [(GREEN, RED), (RED, GREEN), (YELLOW, RED), (RED, YELLOW)]
    sim.step(pairs)
    assert sim.colors == tuple(pairs)
    for (color_a, color_b), j in zip(pairs, signalized):
        assert [sim.edge_color(network.edge(eid)) for eid in j.axis_a] == [color_a] * len(j.axis_a)
        assert [sim.edge_color(network.edge(eid)) for eid in j.axis_b] == [color_b] * len(j.axis_b)


def test_insertion_blocked_until_gap_clears(single_scenario):
    sim = _empty_sim(single_scenario)
    blocker = _place(sim, ["n_in", "s_out"], position=6.0, speed=0.0)
    pending = Vehicle(len(sim.vehicles), blocker.route, 0.0, 0)
    sim.vehicles.append(pending)
    sim._scheduled.append(pending)
    sim.step(ALL_GREEN_B)  # blocker sits near the entry; 6.0 - 5.0 < 7.5 required
    assert pending.actual_depart is None
    for _ in range(30):
        sim.step(ALL_GREEN_A)
        if pending.actual_depart is not None:
            break
    assert pending.actual_depart is not None
    assert pending.actual_depart > 0.0  # accrued depart delay


# --- spawn schedule ----------------------------------------------------------


def test_spawn_schedule_zero_rate_empty(single_scenario):
    sc = _empty_sim(single_scenario).scenario
    assert spawn_schedule(sc, make_rng(5)) == []


def test_spawn_schedule_matches_inverse_cdf_oracle(single_text):
    sc = netmodel.load_scenario(single_text)
    one_route = netmodel.Scenario(
        network=sc.network,
        routes=(netmodel.Route(("n_in", "s_out"), 0.1),),
        duration=1000.0,
        vehicle=sc.vehicle,
        seed=sc.seed,
    )
    got = spawn_schedule(one_route, make_rng(123))
    stream = make_rng(123)  # identical generator, consumed by the oracle instead
    uniforms = [stream.random() for _ in range(500)]
    expected = oracles.exponential_arrivals(uniforms, 0.1, 1000.0)
    assert [t for t, _ in got] == pytest.approx(expected, abs=0.0)
    assert all(ridx == 0 for _, ridx in got)
    # expected count is rate*duration = 100; allow 3 sigma
    assert abs(len(got) - 100) <= 30


def test_spawn_schedule_deterministic(single_scenario):
    a = spawn_schedule(single_scenario, make_rng(9))
    b = spawn_schedule(single_scenario, make_rng(9))
    assert a == b


# --- whole-simulation properties ----------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_scenarios_keep_all_invariants(seed):
    scenario = scenario_gen.random_scenario(seed)
    _, checker = scenario_gen.run_checked(scenario, seed, steps=80)
    checker.assert_clean()


def test_identical_runs_are_bit_identical():
    scenario = scenario_gen.random_scenario(4242)
    log_a, _ = scenario_gen.run_checked(scenario, 4242, steps=120)
    log_b, _ = scenario_gen.run_checked(scenario, 4242, steps=120)
    assert log_a == log_b


#: Every (axis A, axis B) pair the interlock lets a junction show.
LEGAL_COLORS = ((GREEN, RED), (YELLOW, RED), (RED, RED), (RED, GREEN), (RED, YELLOW))


def _vehicle_states(sim):
    lanes = {eid: [v.vid for v in lane] for eid, lane in sim.vehicles_on.items()}
    fields = [
        (v.edge_index, v.position, v.speed, v.waiting_time, v.time_loss, v.emergency_stops, v.in_emergency,
         v.actual_depart, v.arrived_at)
        for v in sim.vehicles
    ]
    return lanes, fields


def _step_with_oracle_twin(sim, color_lists) -> None:
    """Step ``sim`` and a deep copy driven by ``oracles.step`` alike; they must agree bit for bit after each step."""
    twin = copy.deepcopy(sim)
    twin.step = functools.partial(oracles.step, twin)
    for colors in color_lists:
        sim.step(colors)
        twin.step(colors)
        assert _vehicle_states(sim) == _vehicle_states(twin)
        assert (sim.clock, sim.arrived_count) == (twin.clock, twin.arrived_count)


def _assert_steps_equal_the_oracle(scenario, seed, demand, switch, steps) -> None:
    """Step the scenario, its demand scaled, under random legal colors, against its ``oracles.step`` twin."""
    routes = tuple(dataclasses.replace(r, rate=r.rate * demand) for r in scenario.routes)
    sim = Simulation(dataclasses.replace(scenario, routes=routes), make_rng(seed))
    n = len(sim.scenario.network.signalized_junctions())
    rng = np.random.default_rng(seed)

    def color_lists():
        colors = [(GREEN, RED)] * n
        for _ in range(steps):
            for k in range(n):  # random legal colors, held for a random while; a green may end in red
                if rng.random() < switch:
                    colors[k] = LEGAL_COLORS[int(rng.integers(0, len(LEGAL_COLORS)))]
            yield colors

    _step_with_oracle_twin(sim, color_lists())


def _reverse_edge_ids(scenario):
    """The scenario with its edges renamed in reverse of edge order.

    ``scenario_gen``'s routes run up edge order (``main_0`` feeds ``main_1``),
    so a lane head reads a next edge that has not moved yet; renamed, it reads
    one that has moved already.
    """
    ids = sorted(e.id for e in scenario.network.edges)
    new = {eid: f"e{len(ids) - k:03d}" for k, eid in enumerate(ids)}
    network = netmodel.Network(
        junctions=tuple(
            dataclasses.replace(j, axis_a=tuple(map(new.get, j.axis_a)), axis_b=tuple(map(new.get, j.axis_b)))
            for j in scenario.network.junctions
        ),
        edges=tuple(dataclasses.replace(e, id=new[e.id]) for e in scenario.network.edges),
    )
    routes = tuple(dataclasses.replace(r, edges=tuple(map(new.get, r.edges))) for r in scenario.routes)
    return dataclasses.replace(scenario, network=network, routes=routes)


STEP_CASES = dict(
    seed=st.integers(0, 10_000),
    demand=st.floats(1.0, 8.0),
    switch=st.floats(0.05, 1.0),
    steps=st.integers(1, 200),
)


@settings(max_examples=30, deadline=None)
@given(**STEP_CASES)
def test_step_equals_the_scalar_oracle_bit_for_bit(seed, demand, switch, steps):
    """The step leaves every vehicle as the scalar whole-step oracle would, to the last bit."""
    _assert_steps_equal_the_oracle(scenario_gen.random_scenario(seed), seed, demand, switch, steps)


@settings(max_examples=30, deadline=None)
@given(**STEP_CASES)
def test_step_equals_the_scalar_oracle_when_each_next_edge_moves_first(seed, demand, switch, steps):
    """As above, with every lane head reading the pre-step rear of a lane that has already moved."""
    _assert_steps_equal_the_oracle(_reverse_edge_ids(scenario_gen.random_scenario(seed)), seed, demand, switch, steps)


def test_conservation_identity_every_step(single_scenario):
    sim = Simulation(single_scenario, make_rng(3))
    spawned = len(sim.vehicles)
    assert spawned > 0
    for _ in range(150):
        sim.step(ALL_GREEN_A)
        assert sim.inserted_count == scenario_gen.on_network_count(sim) + sim.arrived_count
        assert spawned == sim.inserted_count + scenario_gen.pending_count(sim)


# --- rare branches of the transfer pass, each checked against the whole-step oracle ---


def test_a_head_past_a_red_line_is_pinned_and_its_followers_repacked(single_scenario):
    sim = _empty_sim(single_scenario)
    head = _place(sim, ["n_in", "s_out"], position=204.0, speed=0.0)
    second = _place(sim, ["n_in", "s_out"], position=198.5, speed=3.0)
    third = _place(sim, ["n_in", "s_out"], position=192.0, speed=6.0)
    _step_with_oracle_twin(sim, [ALL_GREEN_B])  # n_in is red
    assert [(v.position, v.speed) for v in (head, second, third)] == [(200.0, 0.0), (195.0, 0.0), (190.0, 0.0)]
    _step_with_oracle_twin(sim, [ALL_GREEN_B] * 3 + [ALL_GREEN_A] * 5)
    assert head.edge_index == 1


def test_a_full_target_lane_holds_the_head_at_its_green_line(single_scenario):
    sim = _empty_sim(single_scenario)
    blocker = _place(sim, ["s_out"], position=2.0, speed=0.0)
    head = _place(sim, ["n_in", "s_out"], position=202.0, speed=0.0)
    follower = _place(sim, ["n_in", "s_out"], position=196.5, speed=0.0)
    _step_with_oracle_twin(sim, [ALL_GREEN_A])
    assert blocker.position == pytest.approx(4.6)  # 0.4 m short of room for one more vehicle
    assert (head.edge_index, head.position, head.speed) == (0, 200.0, 0.0)
    assert (follower.position, follower.speed) == (195.0, 0.0)
    _step_with_oracle_twin(sim, [ALL_GREEN_A] * 5)
    assert sim.vehicles_on["s_out"][:2] == [blocker, head]


def test_an_overshoot_is_clipped_to_the_room_behind_a_vehicle_that_merged_first(single_scenario):
    sim = _empty_sim(single_scenario)
    first = _place(sim, ["n_in", "e_out"], position=196.0, speed=12.0)  # n_in crosses before s_in
    second = _place(sim, ["s_in", "e_out"], position=199.0, speed=13.9)
    _step_with_oracle_twin(sim, [ALL_GREEN_A])  # both lines green, e_out empty before the step
    assert sim.vehicles_on["e_out"] == [first, second]
    assert first.position == pytest.approx(9.9)
    # 12.9 m past its line, clipped to the room behind the first
    assert second.position == first.position - PARAMS.length == pytest.approx(4.9)


def test_a_head_reads_the_pre_step_rear_of_a_lane_moved_before_it(single_scenario):
    sim = _empty_sim(single_scenario)
    ahead = _place(sim, ["n_out"], position=3.0, speed=5.0)  # n_out moves before s_in
    veh = _place(sim, ["s_in", "n_out"], position=195.0, speed=10.0)
    _step_with_oracle_twin(sim, [ALL_GREEN_A])
    assert ahead.position == pytest.approx(10.6)
    # 3 m to that rear as it stood before the step: the safe speed is 4 m/s, the wall caps the move at 3 m
    assert (veh.position, veh.speed, veh.emergency_stops) == (198.0, 3.0, 1)


# --- the move rule's fast paths, each at its edge and checked against the whole-step oracle ---


def _sim_like_single(single_scenario, limit=13.9, **vehicle) -> Simulation:
    """``single.xn`` without demand, every edge at ``limit``, its vehicle parameters replaced as given."""
    network = single_scenario.network
    edges = tuple(dataclasses.replace(e, speed_limit=limit) for e in network.edges)
    return _empty_sim(dataclasses.replace(
        single_scenario, network=dataclasses.replace(network, edges=edges),
        vehicle=dataclasses.replace(single_scenario.vehicle, **vehicle)))


@pytest.mark.parametrize("limit, tau", [(13.9, 1.0), (5.0, 0.2)], ids=["free_distance_binds", "one_step_binds"])
def test_a_follower_at_the_limit_at_its_cruise_room_and_one_ulp_short(single_scenario, limit, tau):
    """At the room the cruise path moves it; one ulp short, and at the unwidened room, the full rule does; all alike.

    With tau 0.2 at 5 m/s the Krauss free distance, 3.78 m, is short of one step's 5 m, so the wall, not the safe
    speed, bounds the room: a room without it would let the follower run into its leader's tail.
    """
    room = _sim_like_single(single_scenario, limit=limit, tau=tau)._lanes["n_in"][3]
    at_room = 200.0 - room
    while 200.0 - math.nextafter(at_room, math.inf) >= room:
        at_room = math.nextafter(at_room, math.inf)
    while 200.0 - at_room < room:
        at_room = math.nextafter(at_room, -math.inf)
    free = limit * (limit + 2 * 4.5 * tau) / (2 * 4.5)
    unwidened = 200.0 - PARAMS.length - max(free, limit)
    for position in (at_room, math.nextafter(at_room, math.inf), unwidened):
        sim = _sim_like_single(single_scenario, limit=limit, tau=tau)
        _place(sim, ["n_in", "s_out"], position=200.0, speed=0.0)  # standing at its red line
        follower = _place(sim, ["n_in", "s_out"], position=position, speed=limit)
        _step_with_oracle_twin(sim, [ALL_GREEN_B] * 3)
        assert follower.position <= 195.0


def test_no_cruise_path_below_the_halting_speed(single_scenario):
    """At a 0.05 m/s limit a vehicle at the limit, far from anything, still waits every step."""
    sim = _sim_like_single(single_scenario, limit=0.05)
    veh = _place(sim, ["n_in", "s_out"], position=0.0, speed=0.05)
    _step_with_oracle_twin(sim, [ALL_GREEN_A] * 3)
    assert (veh.speed, veh.waiting_time, veh.time_loss) == (0.05, 3.0, 0.0)


def test_a_vehicle_leaves_its_emergency_onto_either_fast_path(single_scenario):
    sim = _empty_sim(single_scenario)
    cruising = _place(sim, ["n_in", "s_out"], position=0.0, speed=13.9)  # line green, s_out empty
    head = _place(sim, ["e_in", "w_out"], position=200.0, speed=0.0)  # at its red line
    touching = _place(sim, ["e_in", "w_out"], position=195.0, speed=0.0)  # nose to tail behind it
    for veh in (cruising, head, touching):
        veh.in_emergency = True
    _step_with_oracle_twin(sim, [ALL_GREEN_A])
    assert [v.in_emergency for v in (cruising, head, touching)] == [False] * 3
    assert cruising.position == 13.9 and (head.waiting_time, touching.time_loss) == (1.0, 1.0)


def test_standing_heads_at_a_closed_line_past_it_and_at_an_open_line_behind_a_full_next_edge(single_scenario):
    sim = _empty_sim(single_scenario)
    at_red = _place(sim, ["e_in", "w_out"], position=200.0, speed=0.0)
    past_red = _place(sim, ["w_in", "e_out"], position=203.0, speed=0.0)
    _place(sim, ["s_out"], position=2.0, speed=0.0)
    at_green = _place(sim, ["n_in", "s_out"], position=200.0, speed=0.0)  # s_out has no room past the line
    _step_with_oracle_twin(sim, [ALL_GREEN_A])
    assert [(v.edge_index, v.position, v.speed) for v in (at_red, past_red, at_green)] == [(0, 200.0, 0.0)] * 3
    assert [v.waiting_time for v in (at_red, past_red, at_green)] == [1.0] * 3
    _step_with_oracle_twin(sim, [ALL_GREEN_A] * 4)
    assert at_green.edge_index == 1


# --- one line crossed per step -------------------------------------------------


def _corridor(lengths, limit=20.0) -> netmodel.Scenario:
    """An unsignalized corridor ``e0 -> e1 -> ...`` of the given edge lengths, j0 -> j1 -> ..., one limit, no demand."""
    network = netmodel.Network(
        junctions=tuple(netmodel.Junction(f"j{k}") for k in range(len(lengths) + 1)),
        edges=tuple(netmodel.Edge(f"e{k}", f"j{k}", f"j{k + 1}", length, limit) for k, length in enumerate(lengths)),
    )
    route = netmodel.Route(tuple(e.id for e in network.edges), 0.0)
    return netmodel.Scenario(network=network, routes=(route,), duration=100.0, vehicle=PARAMS, seed=0)


#: Corridors in which one step used to carry a vehicle across a whole 10 m edge at 20 m/s (across a second
#: junction, to an arrival, and into a lane tried again later in the step), each now rejected by edge.
CROSSED_IN_ONE_STEP = {
    "across_a_short_edge_and_a_second_junction": (
        [200.0, 10.0, 200.0], ["edge e1: 10.0 m is crossed in one 1.0 s step at 20.0 m/s"]),
    "across_a_short_last_edge_to_its_arrival": (
        [200.0, 10.0, 200.0], ["edge e1: 10.0 m is crossed in one 1.0 s step at 20.0 m/s"]),
    "held_at_a_later_lane_and_tried_again": (
        [200.0, 10.0, 10.0, 200.0], ["edge e1: 10.0 m is crossed in one 1.0 s step at 20.0 m/s",
                                     "edge e2: 10.0 m is crossed in one 1.0 s step at 20.0 m/s"]),
}


@pytest.mark.parametrize("lengths, violations", CROSSED_IN_ONE_STEP.values(), ids=CROSSED_IN_ONE_STEP)
def test_an_edge_crossed_in_one_step_is_rejected_by_name(lengths, violations):
    assert netmodel.validate(_corridor(lengths).network) == violations


def test_the_shortest_accepted_edge_is_not_crossed_in_one_step():
    one_step = netmodel.DT * 13.9
    shortest = math.nextafter(one_step + 1e-3, math.inf)
    for rejected in (one_step, one_step + 1e-3):
        assert netmodel.validate(_corridor([200.0, rejected, 200.0], limit=13.9).network) == [
            f"edge e1: {rejected} m is crossed in one 1.0 s step at 13.9 m/s"]
    scenario = _corridor([200.0, shortest, 200.0], limit=13.9)
    assert netmodel.validate(scenario.network) == []
    sim = Simulation(scenario, make_rng(0))
    veh = _place(sim, ["e0", "e1", "e2"], position=200.0, speed=13.9)  # standing on its line at the full limit
    _step_with_oracle_twin(sim, [{}])
    assert veh.edge_index == 1 and veh.speed == 13.9
    assert 13.9 - 1e-9 < veh.position < shortest - 1e-9  # a full step's travel lands short of the next line
    _step_with_oracle_twin(sim, [{}])
    assert veh.edge_index == 2
    _step_with_oracle_twin(sim, [{}] * 14)
    assert veh.arrived_at == 16.0


def test_each_entry_edge_inserts_one_due_vehicle_per_step_in_departure_order(single_scenario):
    sim = _empty_sim(single_scenario)
    entries = ["n_in", "e_in", "n_in", "e_in", "n_in"]
    departs = [0.0, 0.0, 0.0, 0.5, 0.7]
    due = []
    for entry, depart in zip(entries, departs):
        route = (sim.scenario.network.edge(entry), sim.scenario.network.edge("s_out"))
        due.append(Vehicle(len(sim.vehicles), route, depart, 0))
        sim.vehicles.append(due[-1])
        sim._scheduled.append(due[-1])
    _step_with_oracle_twin(sim, [ALL_GREEN_A])
    assert (sim.vehicles_on["n_in"], sim.vehicles_on["e_in"]) == ([due[0]], [due[1]])
    _step_with_oracle_twin(sim, [ALL_GREEN_A] * 11)
    assert (sim.vehicles_on["n_in"], sim.vehicles_on["e_in"]) == ([due[0], due[2], due[4]], [due[1], due[3]])
    assert [v.actual_depart for v in due] == [0.0, 0.0, 3.0, 3.0, 6.0]
    assert not sim._scheduled and not sim._queued
