import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import record_step
from greenlight import cli, metrics
from greenlight.metrics import Vehicles, aggregate, build_report, finalize, percent_change


class Counters:
    def __init__(self):
        self.waiting_time = 0.0
        self.time_loss = 0.0


class VehicleStub:
    def __init__(self, vid, scheduled, actual, wt=0.0, tl=0.0, es=0, route_index=0):
        self.vid = vid
        self.route_index = route_index
        self.scheduled_depart = scheduled
        self.actual_depart = actual
        self.waiting_time = wt
        self.time_loss = tl
        self.emergency_stops = es


def test_record_step_crawling_counts_as_waiting():
    c = Counters()
    record_step(c, speed=0.05, allowed_speed=13.9, dt=1.0)
    assert c.waiting_time == pytest.approx(1.0)
    assert c.time_loss == pytest.approx(1.0 - 0.05 / 13.9)


def test_record_step_at_allowed_speed_loses_nothing():
    c = Counters()
    record_step(c, speed=13.9, allowed_speed=13.9, dt=1.0)
    assert c.waiting_time == 0.0
    assert c.time_loss == 0.0


def test_record_step_half_speed_loses_half():
    c = Counters()
    record_step(c, speed=6.95, allowed_speed=13.9, dt=1.0)
    assert c.waiting_time == 0.0
    assert c.time_loss == pytest.approx(0.5)


def _finalized(vehicle) -> dict:
    """The one row ``finalize`` appends for ``vehicle``, by column."""
    columns = Vehicles.empty()
    finalize([vehicle], duration=1000.0, seed=1, episode=0, into=columns)
    assert all(len(column) == 1 for column in vars(columns).values())
    return {key: column[0] for key, column in vars(columns).items()}


def test_finalize_delay_zero():
    m = _finalized(VehicleStub(1, scheduled=10.0, actual=10.0))
    assert m["dd"] == 0.0 and not m["never_departed"]


def test_finalize_delay_subtraction():
    m = _finalized(VehicleStub(1, scheduled=10.0, actual=14.0))
    assert m["dd"] == pytest.approx(4.0)


def test_finalize_never_inserted_flagged():
    m = _finalized(VehicleStub(1, scheduled=900.0, actual=None))
    assert m["never_departed"]
    assert m["dd"] == pytest.approx(100.0)
    assert m["wt"] == 0.0 and m["tl"] == 0.0 and m["es"] == 0


def test_finalize_appends_one_episode_in_vehicle_order():
    columns = Vehicles.empty()
    finalize([VehicleStub(0, 0.0, 1.0, wt=2.0)], duration=10.0, seed=5, episode=0, into=columns)
    finalize([VehicleStub(0, 1.0, None, route_index=2), VehicleStub(1, 2.0, 3.0, es=1, route_index=1)],
             duration=10.0, seed=6, episode=1, into=columns)
    assert columns == Vehicles(id=[0, 0, 1], route=[0, 2, 1], wt=[2.0, 0.0, 0.0], tl=[0.0, 0.0, 0.0], es=[0, 0, 1],
                               dd=[1.0, 9.0, 1.0], never_departed=[False, True, False], seed=[5, 6, 6],
                               episode=[0, 1, 1])


def test_aggregate_small_example():
    s = aggregate([1.0, 2.0, 3.0])
    assert (s.mean, s.sd, s.vmin, s.vmax, s.n) == (2.0, 1.0, 1.0, 3.0, 3)


def test_aggregate_single_element():
    s = aggregate([74.0688])
    assert s.mean == 74.0688 and s.sd == 0.0 and s.vmin == s.vmax == 74.0688 and s.n == 1


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_matches_naive_oracle_on_random_input():
    rng = np.random.default_rng(0)
    values = list(rng.normal(50.0, 20.0, size=1000))
    s = aggregate(values)
    mean, sd, lo, hi = oracles.naive_stats(values)
    assert s.mean == pytest.approx(mean, rel=1e-9)
    assert s.sd == pytest.approx(sd, rel=1e-9)
    assert s.vmin == lo and s.vmax == hi


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
def test_aggregate_matches_oracle_property(values):
    s = aggregate(values)
    mean, sd, lo, hi = oracles.naive_stats(values)
    assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert s.sd == pytest.approx(sd, rel=1e-9, abs=1e-6)
    assert s.vmin == lo and s.vmax == hi
    assert s.vmin <= s.mean <= s.vmax
    assert s.sd >= 0.0


def test_percent_change_reference_value():
    assert percent_change(165.5, 92.4091) == pytest.approx(44.1637, abs=1e-4)


def test_percent_change_identity_and_increase():
    assert percent_change(5.0, 5.0) == 0.0
    assert percent_change(100.0, 150.0) == pytest.approx(-50.0)


def test_percent_change_zero_baseline_errors():
    with pytest.raises(ValueError):
        percent_change(0.0, 1.0)


def _vm(vid, wt, tl, es, dd, never=False, seed=1, episode=0, route=0):
    """One vehicle's row, by column."""
    return {"id": vid, "route": route, "wt": wt, "tl": tl, "es": es, "dd": dd, "never_departed": never, "seed": seed,
            "episode": episode}


def _columns(rows: list[dict]) -> Vehicles:
    return Vehicles(*([row[f.name] for row in rows] for f in fields(Vehicles)))


def test_build_report_pools_departed_only():
    vehicles = _columns([
        _vm(0, 10.0, 12.0, 2, 0.0),
        _vm(1, 20.0, 22.0, 1, 2.0),
        _vm(0, 30.0, 32.0, 1, 4.0, seed=2, episode=1),
        _vm(1, 0.0, 0.0, 0, 50.0, never=True, seed=2, episode=1),
    ])
    report = build_report("fixed", "abc", [1, 2], [2, 1], vehicles)
    assert report.episodes == (
        metrics.EpisodeTotals(seed=1, episode=0, spawned=2, departed=2, arrived=2, never_departed=0, emergency_stops=3),
        metrics.EpisodeTotals(seed=2, episode=1, spawned=2, departed=1, arrived=1, never_departed=1, emergency_stops=1),
    )
    assert report.summaries.wt.n == 3
    assert report.summaries.wt.mean == pytest.approx(20.0)
    assert report.summaries.dd.mean == pytest.approx(2.0)
    assert report.es_per_episode.mean == pytest.approx(2.0)
    assert report.es_per_episode.n == 2


def test_report_json_round_trip():
    report = build_report("dqn", "abc", [1], [1], _columns([_vm(0, 1.5, 2.5, 2, 0.5)]))
    again = metrics.report_from_json(metrics.report_to_json(report))
    assert again == report
    assert metrics.report_to_json(again) == metrics.report_to_json(report)


_seconds = st.floats(0.0, 1e6)
_counts = st.integers(0, 10**6)


@st.composite
def _vehicle(draw, seed, episode):
    """A vehicle row as ``finalize`` writes it: a never-departed vehicle has zero counters."""
    never = draw(st.booleans())
    wt, tl, es = (0.0, 0.0, 0) if never else (draw(_seconds), draw(_seconds), draw(st.integers(0, 50)))
    return _vm(draw(_counts), wt, tl, es, draw(_seconds), never, seed, episode, route=draw(st.integers(0, 9)))


@st.composite
def _runs(draw):
    """Seeds, their arrivals and the vehicle rows of a consistent report, episode by episode."""
    seeds = draw(st.lists(_counts, unique=True, max_size=5))
    arrived, rows = [], []
    for k, seed in enumerate(seeds):
        mine = draw(st.lists(_vehicle(seed, k), max_size=8))
        departed = sum(not row["never_departed"] for row in mine)
        arrived.append(draw(st.integers(0, departed)))
        rows += mine
    return seeds, arrived, rows


@settings(max_examples=60, deadline=None)
@given(controller=st.text(max_size=8), run=_runs())
@example(
    controller="dqn",
    run=(
        [1],
        [0],
        [_vm(0, 0.0, 0.0, 0, 5.0, never=True), _vm(1, 0.0, 0.0, 0, 7.5, never=True)],
    ),
)
def test_report_json_round_trip_property(controller, run):
    seeds, arrived, rows = run
    report = build_report(controller, "abc", seeds, arrived, _columns(rows))
    text = metrics.report_to_json(report)
    again = metrics.report_from_json(text)
    assert again == report
    assert metrics.report_to_json(again) == text
    if all(row["never_departed"] for row in rows):
        assert again.summaries == metrics.Summaries(*[metrics.EMPTY_SUMMARY] * 4)


def test_report_reads_whole_numbers_as_floats():
    """A hand-written ``"wt": 1`` reads as 1.0, as whole numbers do in scenarios."""
    doc = _report_doc()
    doc["vehicles"]["wt"][0] = 1
    doc["summaries"]["wt"]["min"] = 1
    report = metrics.report_from_json(json.dumps(doc))
    assert type(report.vehicles.wt[0]) is float and report.vehicles.wt[0] == 1.0
    assert type(report.summaries.wt.vmin) is float and report.summaries.wt.vmin == 1.0


def test_report_csv_shape():
    rows = _columns([_vm(0, 1.0, 2.0, 0, 0.0, seed=7), _vm(1, 3.0, 4.0, 0, 1.0, seed=7)])
    report = build_report("fixed", "abc", [7], [2], rows)
    lines = metrics.report_csv(report).strip().split("\n")
    assert lines[0] == "vehicle_id,waiting_time,time_loss,emergency_stops,depart_delay,seed,episode"
    assert len(lines) == 3
    assert lines[1].split(",")[-2:] == ["7", "0"]


def test_summary_csv_two_controllers():
    a = build_report("fixed", "x", [1], [1], _columns([_vm(0, 1.0, 2.0, 1, 0.0)]))
    b = build_report("dqn", "x", [1], [1], _columns([_vm(0, 2.0, 1.0, 0, 0.5)]))
    lines = metrics.summary_csv([a, b]).strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "statistic",
        "fixed_wt", "fixed_tl", "fixed_es", "fixed_dd",
        "dqn_wt", "dqn_tl", "dqn_es", "dqn_dd",
    ]
    assert [row.split(",")[0] for row in lines[1:]] == ["mean", "sd", "min", "max"]


def _report_doc() -> dict:
    """A consistent report of two episodes: two vehicles under seed 1, both arrived, and one that never departed
    under seed 2."""
    rows = [_vm(0, 1.0, 2.0, 1, 0.0), _vm(1, 3.0, 4.0, 0, 1.0), _vm(0, 0.0, 0.0, 0, 9.0, never=True, seed=2, episode=1)]
    report = build_report("fixed", "abc", [1, 2], [2, 0], _columns(rows))
    return json.loads(metrics.report_to_json(report))


def test_report_is_written_on_one_line_with_its_version():
    text = metrics.report_to_json(metrics.report_from_json(json.dumps(_report_doc())))
    assert "\n" not in text
    assert json.loads(text)["format_version"] == metrics.FORMAT_VERSION == 2


def _drop(path, key):
    def mutate(doc):
        target = doc
        for step in path:
            target = target[step]
        del target[key]

    return mutate


def _set(path, key, value):
    def mutate(doc):
        target = doc
        for step in path:
            target = target[step]
        target[key] = value

    return mutate


MALFORMED = {
    "no vehicles": (_drop([], "vehicles"), "report: missing key 'vehicles'"),
    "row without dd": (lambda doc: doc["vehicles"]["dd"].pop(1), "vehicles: 'dd' has 2 entries, 'id' has 3"),
    "column without dd": (_drop(["vehicles"], "dd"), "vehicles: missing key 'dd'"),
    "row with unknown key": (lambda doc: doc["vehicles"].update(speed=[3.0] * 3), "vehicles: unknown key 'speed'"),
    "episode without seed": (_drop(["episodes", 0], "seed"), r"episodes\[0\]: missing key 'seed'"),
    "summary without min": (_drop(["summaries", "tl"], "min"), "summaries.tl: missing key 'min'"),
    "summaries without es": (_drop(["summaries"], "es"), "summaries: missing key 'es'"),
    "es_per_episode with unknown key": (
        lambda doc: doc["es_per_episode"].update(vmin=0.0),
        "es_per_episode: unknown key 'vmin'",
    ),
    "row that is not an object": (  # vehicles as rows, as reports before format_version 2 wrote them
        lambda doc: doc.update(vehicles=[dict(zip(doc["vehicles"], row)) for row in zip(*doc["vehicles"].values())]),
        "vehicles: expected an object, got list",
    ),
    "unknown top-level key": (lambda doc: doc.update(version=2), "report: unknown key 'version'"),
    "no format_version": (_drop([], "format_version"), "report: 'format_version' must be 2, got None"),
    "format_version 1": (_set([], "format_version", 1), "report: 'format_version' must be 2, got 1"),
    "format_version 3": (_set([], "format_version", 3), "report: 'format_version' must be 2, got 3"),
    "format_version as a float": (
        _set([], "format_version", 2.0),
        "report: 'format_version' must be an integer, got 2.0",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_report_from_json_names_the_bad_key(case):
    mutate, message = MALFORMED[case]
    doc = _report_doc()
    mutate(doc)
    with pytest.raises(metrics.ReportFormatError, match=message):
        metrics.report_from_json(json.dumps(doc))


WRONG_TYPES = {
    "number as a string": (_set(["summaries", "wt"], "mean", "8.5"), "summaries.wt: 'mean' must be a number, got '8.5'"),
    "missing number": (_set(["summaries", "dd"], "sd", None), "summaries.dd: 'sd' must be a number, got None"),
    "bool as a number": (_set(["vehicles", "wt"], 1, True), r"vehicles: 'wt\[1\]' must be a number, got True"),
    "bool as a count": (_set(["episodes", 0], "spawned", True), r"episodes\[0\]: 'spawned' must be an integer, got True"),
    "fraction as a count": (_set(["episodes", 0], "arrived", 1.5), r"episodes\[0\]: 'arrived' must be an integer"),
    "fractional summary size": (_set(["es_per_episode"], "n", 1.0), "es_per_episode: 'n' must be an integer, got 1.0"),
    "count as a flag": (_set(["vehicles", "never_departed"], 0, 0), r"vehicles: 'never_departed\[0\]' must be true"),
    "controller not a string": (_set([], "controller", 3), "report: 'controller' must be a string, got 3"),
    "seeds not a list": (_set([], "seeds", 5), "report: 'seeds' must be a list, got 5"),
    "seed not an integer": (_set([], "seeds", ["1"]), r"report: 'seeds\[0\]' must be an integer, got '1'"),
    "bool as a seed": (_set([], "seeds", [True]), r"report: 'seeds\[0\]' must be an integer, got True"),
    "NaN as a number": (_set(["summaries", "wt"], "mean", float("nan")), "summaries.wt: 'mean' must be finite, got nan"),
    "infinite number": (_set(["vehicles", "tl"], 0, float("inf")), r"vehicles: 'tl\[0\]' must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_report_from_json_names_the_value_of_the_wrong_type(case):
    mutate, message = WRONG_TYPES[case]
    doc = _report_doc()
    mutate(doc)
    with pytest.raises(metrics.ReportFormatError, match=message):
        metrics.report_from_json(json.dumps(doc))


def _append_row(doc):
    for column in doc["vehicles"].values():
        column.append(column[-1])


#: Reports whose keys and types are right but whose rows are out of layout or whose values are not what
#: ``build_report`` makes of the rows, each with the rule's message.
INCONSISTENT = {
    "columns of unequal length": (
        lambda doc: doc["vehicles"]["route"].pop(),
        "vehicles: 'route' has 2 entries, 'id' has 3",
    ),
    "more seeds than episodes": (lambda doc: doc["seeds"].append(3), "report: 'episodes' has 2 entries for 3 'seeds'"),
    "episodes out of seed order": (
        lambda doc: doc["seeds"].reverse(),
        r"vehicles: 'seed\[0\]' is 1, but its episode 0 ran seeds\[0\] \(2\)",
    ),
    "episodes numbered out of order": (
        _set(["episodes", 1], "episode", 0),
        r"episodes\[1\]: 'episode' is 0, its rows give 1",
    ),
    "episode under another seed": (_set(["episodes", 0], "seed", 7), r"episodes\[0\]: 'seed' is 7, its rows give 1"),
    "spawned above its rows": (_set(["episodes", 0], "spawned", 3), r"episodes\[0\]: 'spawned' is 3, its rows give 2"),
    "a row under another seed": (
        _set(["vehicles", "seed"], 1, 2),
        r"vehicles: 'seed\[1\]' is 2, but its episode 0 ran seeds\[0\] \(1\)",
    ),
    "rows out of episode order": (
        lambda doc: doc["vehicles"].update(episode=[1, 0, 1], seed=[2, 1, 2]),
        r"vehicles: 'episode\[1\]' is 0; the rows run episode by episode, so it must be 1 to 1",
    ),
    "a row beyond the last episode": (
        _set(["vehicles", "episode"], 2, 2),
        r"vehicles: 'episode\[2\]' is 2; the rows run episode by episode, so it must be 0 to 1",
    ),
    "a row before the first episode": (
        _set(["vehicles", "episode"], 0, -1),
        r"vehicles: 'episode\[0\]' is -1; the rows run episode by episode, so it must be 0 to 1",
    ),
    "rows beyond the last episode": (
        _append_row,
        r"episodes\[1\]: 'never_departed' is 1, its rows give 2",
    ),
    "never_departed unlike its rows": (
        _set(["episodes", 1], "never_departed", 0),
        r"episodes\[1\]: 'never_departed' is 0, its rows give 1",
    ),
    "summary size unlike the departed rows": (
        _set(["summaries", "tl"], "n", 398),
        "summaries.tl: 'n' is 398, its rows give 2",
    ),
    "es_per_episode size unlike the episodes": (
        _set(["es_per_episode"], "n", 3),
        "es_per_episode: 'n' is 3, its rows give 2",
    ),
    # a report whose totals and statistics contradict its rows is not read, so compare never reports them
    "departed unlike its rows": (
        _set(["episodes", 0], "departed", 5),
        r"episodes\[0\]: 'departed' is 5, its rows give 2",
    ),
    "emergency_stops unlike its rows": (
        _set(["episodes", 0], "emergency_stops", 999),
        r"episodes\[0\]: 'emergency_stops' is 999, its rows give 1",
    ),
    "a mean unlike its rows": (
        _set(["summaries", "wt"], "mean", 1.0),
        r"summaries.wt: 'mean' is 1.0, its rows give 2.0",
    ),
    "arrived above departed": (
        _set(["episodes", 1], "arrived", 1),
        r"episodes\[1\]: 'arrived' is 1, above 'departed' \(0\)",
    ),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_report_from_json_rejects_counts_that_disagree(case):
    mutate, message = INCONSISTENT[case]
    doc = _report_doc()
    metrics.report_from_json(json.dumps(doc))  # consistent as written
    mutate(doc)
    with pytest.raises(metrics.ReportFormatError, match=message):
        metrics.report_from_json(json.dumps(doc))


def test_report_from_json_rejects_invalid_json():
    with pytest.raises(metrics.ReportFormatError, match="not valid JSON"):
        metrics.report_from_json('{"controller": ')
    assert issubclass(metrics.ReportFormatError, ValueError)


def test_compare_cli_reports_the_bad_key(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_report_doc()))
    doc = _report_doc()
    del doc["vehicles"]["dd"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["compare", str(good), str(bad), "--out", str(tmp_path / "c.json")]) == 1
    error = json.loads(capsys.readouterr().err.strip())
    assert error == {"error": "vehicles: missing key 'dd'", "kind": "ReportFormatError"}


def test_compare_cli_reports_the_value_of_the_wrong_type(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_report_doc()))
    doc = _report_doc()
    doc["summaries"]["wt"]["mean"] = "8.5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["compare", str(good), str(bad), "--out", str(tmp_path / "c.json")]) == 1
    error = json.loads(capsys.readouterr().err.strip())
    assert error == {"error": "summaries.wt: 'mean' must be a number, got '8.5'", "kind": "ReportFormatError"}
