import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO
from oracles import conflicting_pairs
from scenario_gen import random_scenario
from greenlight.netmodel import (
    Edge,
    FixedTimePlan,
    Junction,
    Network,
    ParseError,
    ValidationError,
    load_scenario,
    serialize_scenario,
    validate,
)


def test_single_scenario_shape(single_text):
    sc = load_scenario(single_text)
    assert len(sc.network.junctions) == 9
    assert len(sc.network.edges) == 8
    assert len(sc.routes) == 4
    assert [j.id for j in sc.network.junctions if j.signalized] == ["c"]
    assert validate(sc.network) == []


def test_grid_scenario_loads(grid_text):
    sc = load_scenario(grid_text)
    assert len(sc.network.signalized_junctions()) == 4
    assert validate(sc.network) == []


def test_route_with_unknown_edge_names_it(single_text):
    doc = json.loads(single_text)
    doc["routes"][0]["edges"] = ["x9"]
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert any("x9" in v for v in err.value.violations)


def test_negative_edge_length_rejected(single_text):
    doc = json.loads(single_text)
    doc["network"]["edges"][0]["length"] = -5
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert any("length ≥ 10" in v for v in err.value.violations)


def test_malformed_document():
    with pytest.raises(ParseError):
        load_scenario("{not json")
    with pytest.raises(ParseError):
        load_scenario(json.dumps({"network": {"junctions": [], "edges": []}}))  # missing keys
    with pytest.raises(ParseError):
        load_scenario(json.dumps({"network": [], "routes": [], "duration": 1, "vehicle": {}, "seed": 0}))


def _junction(doc) -> dict:
    """The signalized junction of single.xn, the one with a fixed plan."""
    return doc["network"]["junctions"][0]


BAD_INPUT = [
    ("signalized_word", lambda d: _junction(d).__setitem__("signalized", "no"),
     "network.junctions[0]: 'signalized' must be true or false, got 'no'"),
    ("signalized_number", lambda d: _junction(d).__setitem__("signalized", 1),
     "network.junctions[0]: 'signalized' must be true or false, got 1"),
    ("numeric_junction_id", lambda d: _junction(d).__setitem__("id", 5),
     "network.junctions[0]: 'id' must be a string, got 5"),
    ("misspelt_min_green", lambda d: _junction(d).__setitem__("min_gren", 4),
     "network.junctions[0]: unknown key 'min_gren'"),
    ("top_level_durations", lambda d: d.__setitem__("durations", 600.0), "scenario: unknown key 'durations'"),
    ("misspelt_tau", lambda d: d["vehicle"].__setitem__("tua", 1.0), "vehicle: unknown key 'tua'"),
    ("plan_with_cycle", lambda d: _junction(d)["fixed_plan"].__setitem__("cycle", 66.0),
     "network.junctions[0].fixed_plan: unknown key 'cycle'"),
    ("plan_without_yellow", lambda d: _junction(d)["fixed_plan"].pop("yellow"),
     "network.junctions[0].fixed_plan: missing key 'yellow'"),
    ("junctions_not_a_list", lambda d: d["network"].__setitem__("junctions", 5),
     "network: 'junctions' must be a list, got 5"),
    ("routes_not_a_list", lambda d: d.__setitem__("routes", 5), "scenario: 'routes' must be a list, got 5"),
    ("junction_not_an_object", lambda d: d["network"]["junctions"].__setitem__(1, 7),
     "network.junctions[1]: expected an object, got int"),
    ("edge_without_to", lambda d: d["network"]["edges"][2].pop("to"), "network.edges[2]: missing key 'to'"),
    ("numeric_axis_edge", lambda d: _junction(d)["axis_a"].append(3),
     "network.junctions[0]: 'axis_a[2]' must be a string, got 3"),
    ("rate_as_text", lambda d: d["routes"][1].__setitem__("rate", "0.1"),
     "routes[1]: 'rate' must be a number, got '0.1'"),
    ("fractional_seed", lambda d: d.__setitem__("seed", 1.5), "scenario: 'seed' must be an integer, got 1.5"),
    ("infinite_rate", lambda d: d["routes"][0].__setitem__("rate", float("inf")),
     "routes[0]: 'rate' must be finite, got inf"),
    ("nan_rate", lambda d: d["routes"][0].__setitem__("rate", float("nan")),
     "routes[0]: 'rate' must be finite, got nan"),
    ("rate_beyond_floats", lambda d: d["routes"][0].__setitem__("rate", 10**400),
     f"routes[0]: 'rate' must be finite, got {10**400}"),
    ("nan_min_gap", lambda d: d["vehicle"].__setitem__("min_gap", float("nan")),
     "vehicle: 'min_gap' must be finite, got nan"),
    ("infinite_min_gap", lambda d: d["vehicle"].__setitem__("min_gap", float("inf")),
     "vehicle: 'min_gap' must be finite, got inf"),
    ("train_not_an_object", lambda d: d.__setitem__("train", []), "scenario: 'train' must be an object, got []"),
]


@pytest.mark.parametrize("name,mutate,message", BAD_INPUT, ids=[case[0] for case in BAD_INPUT])
def test_bad_input_names_the_path_and_key(single_text, name, mutate, message):
    doc = json.loads(single_text)
    mutate(doc)
    with pytest.raises(ParseError) as err:
        load_scenario(json.dumps(doc))
    assert str(err.value) == message


def test_whole_numbers_read_as_floats(single_text):
    """``600`` and ``600.0`` are one scenario: equal records of floats, one content id."""

    def whole_as_int(value):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, dict):
            return {k: whole_as_int(v) for k, v in value.items()}
        if isinstance(value, list):
            return [whole_as_int(v) for v in value]
        return value

    sc = load_scenario(single_text)
    again = load_scenario(json.dumps(whole_as_int(json.loads(single_text))))
    assert again == sc
    assert again.content_id() == sc.content_id()
    assert type(again.duration) is float and type(again.network.edges[0].length) is float


def test_null_fixed_plan_reads_as_none(single_text):
    doc = json.loads(single_text)
    _junction(doc)["fixed_plan"] = None
    assert load_scenario(json.dumps(doc)).network.junctions[0].fixed_plan is None


def _intersection_network() -> Network:
    junctions = (
        Junction("c", signalized=True, axis_a=("n",), axis_b=("e",)),
        Junction("n_src"),
        Junction("e_src"),
        Junction("snk"),
    )
    edges = (
        Edge("n", "n_src", "c", 100.0, 13.9),
        Edge("e", "e_src", "c", 100.0, 13.9),
        Edge("out", "c", "snk", 100.0, 13.9),
    )
    return Network(junctions=junctions, edges=edges)


def test_validate_well_formed_intersection():
    assert validate(_intersection_network()) == []


def test_an_edge_is_judged_by_its_fastest_feeder():
    net = _intersection_network()  # n and e feed c, and out leaves it
    limits = {"n": 8.0, "e": 13.9}
    edges = tuple(replace(e, speed_limit=limits.get(e.id, e.speed_limit), length=12.0 if e.id == "out" else e.length)
                  for e in net.edges)
    assert validate(Network(net.junctions, edges)) == ["edge out: 12.0 m is crossed in one 1.0 s step at 13.9 m/s"]
    limits["e"] = 11.0
    edges = tuple(replace(e, speed_limit=limits.get(e.id, e.speed_limit)) for e in edges)
    assert validate(Network(net.junctions, edges)) == []


def test_validate_empty_axis_b():
    net = _intersection_network()
    junctions = tuple(
        Junction("c", signalized=True, axis_a=("n",), axis_b=()) if j.id == "c" else j
        for j in net.junctions
    )
    violations = validate(Network(junctions=junctions, edges=net.edges))
    assert len(violations) == 1
    assert "axis B" in violations[0]


def test_validate_duplicate_edge_id():
    net = _intersection_network()
    edges = net.edges + (Edge("n", "e_src", "c", 50.0, 10.0),)
    violations = validate(Network(junctions=net.junctions, edges=edges))
    assert len(violations) == 1
    assert "duplicate" in violations[0]


def test_conflicting_pairs_two_by_two():
    j = Junction("x", signalized=True, axis_a=("e1", "e2"), axis_b=("e3", "e4"))
    assert conflicting_pairs(j) == {("e1", "e3"), ("e1", "e4"), ("e2", "e3"), ("e2", "e4")}


def test_conflicting_pairs_one_by_one():
    j = Junction("x", signalized=True, axis_a=("e1",), axis_b=("e2",))
    assert conflicting_pairs(j) == {("e1", "e2")}


def test_conflicting_pairs_requires_signals():
    with pytest.raises(ValueError):
        conflicting_pairs(Junction("x", signalized=False))


@pytest.mark.parametrize("name", ["single.xn", "grid2x2.xn"])
def test_serialize_round_trip(name, single_text, grid_text):
    text = single_text if name == "single.xn" else grid_text
    sc = load_scenario(text)
    again = load_scenario(serialize_scenario(sc))
    assert again == sc
    assert again.content_id() == sc.content_id()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), greens=st.none() | st.tuples(st.integers(1, 90), st.integers(1, 90)))
def test_random_scenarios_round_trip(seed, greens):
    """``greens`` gives every signalized junction a fixed plan, or none keeps the default."""
    sc = random_scenario(seed)
    if greens is not None:
        junctions = tuple(
            replace(j, fixed_plan=FixedTimePlan(float(greens[0]), j.yellow, float(greens[1]))) if j.signalized else j
            for j in sc.network.junctions
        )
        sc = replace(sc, network=Network(junctions=junctions, edges=sc.network.edges))
    again = load_scenario(serialize_scenario(sc))
    assert again == sc
    assert again.content_id() == sc.content_id()


def _set_yellow(doc, seconds):
    """Junction and fixed-plan yellow together, so the two stay equal."""
    doc["network"]["junctions"][0]["yellow"] = seconds
    doc["network"]["junctions"][0]["fixed_plan"]["yellow"] = seconds


MUTATIONS = [
    ("short_edge", lambda d: d["network"]["edges"][0].__setitem__("length", 5), "length ≥ 10"),
    ("zero_speed", lambda d: d["network"]["edges"][0].__setitem__("speed_limit", 0), "speed limit"),
    ("fast_speed", lambda d: d["network"]["edges"][0].__setitem__("speed_limit", 60), "speed limit"),
    ("dangling_from", lambda d: d["network"]["edges"][0].__setitem__("from", "ghost"), "ghost"),
    ("dangling_to", lambda d: d["network"]["edges"][0].__setitem__("to", "ghost"), "ghost"),
    (
        "axis_overlap",
        lambda d: d["network"]["junctions"][0].__setitem__("axis_b", ["e_in", "n_in"]),
        "share",
    ),
    (
        "axis_not_incoming",
        lambda d: d["network"]["junctions"][0].__setitem__("axis_b", ["e_in", "n_out"]),
        "not incoming",
    ),
    ("short_yellow", lambda d: d["network"]["junctions"][0].__setitem__("yellow", 0.5), "yellow"),
    ("short_min_green", lambda d: d["network"]["junctions"][0].__setitem__("min_green", 0), "min-green"),
    ("negative_rate", lambda d: d["routes"][0].__setitem__("rate", -1), "rate"),
    ("broken_route", lambda d: d["routes"][0].__setitem__("edges", ["n_out", "s_out"]), "not connected"),
    ("zero_duration", lambda d: d.__setitem__("duration", 0), "duration"),
    ("fractional_duration", lambda d: d.__setitem__("duration", 999.5), "duration must be a positive multiple"),
    ("fractional_yellow", lambda d: _set_yellow(d, 2.5), "yellow-duration must be a positive multiple"),
    (
        "fractional_min_green",
        lambda d: d["network"]["junctions"][0].__setitem__("min_green", 4.5),
        "min-green must be a positive multiple",
    ),
    (
        "fractional_plan_green",
        lambda d: d["network"]["junctions"][0]["fixed_plan"].__setitem__("green_a", 30.5),
        "must be in positive multiples",
    ),
    (
        "plan_yellow_differs",
        lambda d: d["network"]["junctions"][0]["fixed_plan"].__setitem__("yellow", 5.0),
        "fixed plan yellow",
    ),
    (
        "edge_crossed_in_one_step",
        lambda d: _edge(d, "s_out").__setitem__("length", 10.0),
        "edge s_out: 10.0 m is crossed in one 1.0 s step at 13.9 m/s",
    ),
    ("soft_emergency", lambda d: d["vehicle"].__setitem__("b_emergency", 1.0), "emergency"),
    ("zero_accel", lambda d: d["vehicle"].__setitem__("a", 0), "accel"),
    (
        "duplicate_junction",
        lambda d: d["network"]["junctions"].append(dict(d["network"]["junctions"][0])),
        "junction c: duplicate id",
    ),
    ("empty_axis_a", lambda d: d["network"]["junctions"][0].__setitem__("axis_a", []), "axis A has no incoming"),
    (
        "axis_unknown_edge",
        lambda d: d["network"]["junctions"][0].__setitem__("axis_b", ["e_in", "ghost"]),
        "axis references unknown edge 'ghost'",
    ),
    ("empty_route", lambda d: d["routes"][0].__setitem__("edges", []), "route 0: empty edge sequence"),
    ("routes_only_unknown", lambda d: [r.__setitem__("edges", ["ghost"]) for r in d["routes"]], "unknown edge 'ghost'"),
    ("zero_decel", lambda d: d["vehicle"].__setitem__("b", 0), "decel b must be > 0"),
    ("zero_length", lambda d: d["vehicle"].__setitem__("length", 0), "length must be > 0"),
    ("negative_min_gap", lambda d: d["vehicle"].__setitem__("min_gap", -0.5), "min gap must be ≥ 0"),
    ("zero_tau", lambda d: d["vehicle"].__setitem__("tau", 0), "tau must be > 0"),
]


def _edge(doc, eid):
    return next(e for e in doc["network"]["edges"] if e["id"] == eid)


@pytest.mark.parametrize("name,mutate,needle", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_each_broken_invariant_is_caught(single_text, name, mutate, needle):
    doc = json.loads(single_text)
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert any(needle in v for v in err.value.violations), err.value.violations


def test_disconnected_route_graph_is_caught(single_text):
    doc = json.loads(single_text)
    # island: a second component with its own route
    doc["network"]["junctions"] += [{"id": "i_src"}, {"id": "i_snk"}]
    doc["network"]["edges"].append(
        {"id": "island", "from": "i_src", "to": "i_snk", "length": 100.0, "speed_limit": 10.0}
    )
    doc["routes"].append({"edges": ["island"], "rate": 0.01})
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert any("connected" in v for v in err.value.violations)


#: The train blocks whose messages docs/scenario-format.md quotes, with those messages.
BAD_TRAIN_BLOCKS = [
    ("unknown_key", {"learning_rate": 0.01}, "hyperparameters: unknown key 'learning_rate'"),
    ("lr_string", {"lr": "abc"}, "hyperparameters: 'lr' must be a number, got 'abc'"),
    ("hidden_float", {"hidden": [64.0]}, "hyperparameters: 'hidden[0]' must be an integer, got 64.0"),
    ("gamma_negative", {"gamma": -3}, "hyperparameters: 'gamma' must be in [0, 1], got -3.0"),
    ("warmup_over_capacity", {"warmup": 500, "buffer_capacity": 100},
     "hyperparameters: 'warmup' must be at most 'buffer_capacity' (100), got 500"),
]


@pytest.mark.parametrize("name,train,message", BAD_TRAIN_BLOCKS, ids=[case[0] for case in BAD_TRAIN_BLOCKS])
def test_a_bad_train_block_fails_the_load_with_the_documented_message(single_text, name, train, message):
    doc = json.loads(single_text)
    doc["train"] = train
    with pytest.raises(ValueError) as err:
        load_scenario(json.dumps(doc))
    assert type(err.value) is ValueError and str(err.value) == message
    assert f"`{message}`" in " ".join((REPO / "docs" / "scenario-format.md").read_text().split())


def test_a_network_fault_is_reported_before_a_bad_train_block(single_text):
    doc = json.loads(single_text)
    doc["train"] = {"lr": "abc"}
    doc["vehicle"]["tau"] = 0
    with pytest.raises(ValidationError) as err:
        load_scenario(json.dumps(doc))
    assert err.value.violations == ["vehicle: reaction time tau must be > 0, got 0.0"]


COMMITTED_SCENARIOS = sorted(path for folder in ("scenarios", "tests/data", "perfbench/inputs")
                             for path in (REPO / folder).glob("*.xn"))


@pytest.mark.parametrize("path", COMMITTED_SCENARIOS, ids=lambda path: str(path.relative_to(REPO)))
def test_every_committed_scenario_loads(path):
    assert validate(load_scenario(path.read_text()).network) == []


def test_the_documented_minimal_example_loads():
    text = (REPO / "docs" / "scenario-format.md").read_text()
    example = re.search(r"## Minimal example\s+```json\n(.*?)```", text, re.DOTALL).group(1)
    scenario = load_scenario(example)
    assert [e.id for e in scenario.network.edges] == ["n", "e", "out"]
