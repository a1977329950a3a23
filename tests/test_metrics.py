import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import record_step
from greenlight import cli, metrics
from greenlight.metrics import VehicleMetrics, aggregate, build_report, finalize, percent_change


class Counters:
    def __init__(self):
        self.waiting_time = 0.0
        self.time_loss = 0.0


class VehicleStub:
    def __init__(self, vid, scheduled, actual, wt=0.0, tl=0.0, es=0):
        self.vid = vid
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


def test_finalize_delay_zero():
    m = finalize(VehicleStub(1, scheduled=10.0, actual=10.0), duration=1000.0, seed=1, episode=0)
    assert m.dd == 0.0 and not m.never_departed


def test_finalize_delay_subtraction():
    m = finalize(VehicleStub(1, scheduled=10.0, actual=14.0), duration=1000.0, seed=1, episode=0)
    assert m.dd == pytest.approx(4.0)


def test_finalize_never_inserted_flagged():
    m = finalize(VehicleStub(1, scheduled=900.0, actual=None), duration=1000.0, seed=1, episode=0)
    assert m.never_departed
    assert m.dd == pytest.approx(100.0)
    assert m.wt == 0.0 and m.tl == 0.0 and m.es == 0


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


def _vm(vid, wt, tl, es, dd, never=False, seed=1, episode=0):
    return VehicleMetrics(vid, wt, tl, es, dd, never, seed, episode)


def test_build_report_pools_departed_only():
    episodes = [
        metrics.EpisodeTotals(seed=1, episode=0, spawned=2, departed=2, arrived=2, never_departed=0, emergency_stops=3),
        metrics.EpisodeTotals(seed=2, episode=1, spawned=2, departed=1, arrived=1, never_departed=1, emergency_stops=1),
    ]
    vehicles = [
        _vm(0, 10.0, 12.0, 2, 0.0),
        _vm(1, 20.0, 22.0, 1, 2.0),
        _vm(0, 30.0, 32.0, 1, 4.0),
        _vm(1, 0.0, 0.0, 0, 50.0, never=True),
    ]
    report = build_report("fixed", "abc", [1, 2], episodes, vehicles)
    assert report.summaries.wt.n == 3
    assert report.summaries.wt.mean == pytest.approx(20.0)
    assert report.summaries.dd.mean == pytest.approx(2.0)
    assert report.es_per_episode.mean == pytest.approx(2.0)
    assert report.es_per_episode.n == 2


def test_report_json_round_trip():
    episodes = [
        metrics.EpisodeTotals(seed=1, episode=0, spawned=1, departed=1, arrived=1, never_departed=0, emergency_stops=2)
    ]
    report = build_report("dqn", "abc", [1], episodes, [_vm(0, 1.5, 2.5, 2, 0.5)])
    again = metrics.report_from_json(metrics.report_to_json(report))
    assert again == report
    assert metrics.report_to_json(again) == metrics.report_to_json(report)


_seconds = st.floats(0.0, 1e6)
_counts = st.integers(0, 10**6)


@st.composite
def _vehicles(draw):
    """A vehicle row as ``finalize`` writes it: a never-departed vehicle has zero counters."""
    never = draw(st.booleans())
    wt, tl, es = (0.0, 0.0, 0) if never else (draw(_seconds), draw(_seconds), draw(st.integers(0, 50)))
    return _vm(draw(_counts), wt, tl, es, draw(_seconds), never, draw(_counts), draw(st.integers(0, 100)))


@settings(max_examples=60, deadline=None)
@given(
    controller=st.text(max_size=8),
    seeds=st.lists(_counts, unique=True, max_size=5),
    episodes=st.lists(st.builds(metrics.EpisodeTotals, *[_counts] * 7), max_size=5),
    vehicles=st.lists(_vehicles(), max_size=30),
)
@example(
    controller="dqn",
    seeds=[1],
    episodes=[metrics.EpisodeTotals(1, 0, spawned=2, departed=0, arrived=0, never_departed=2, emergency_stops=0)],
    vehicles=[_vm(0, 0.0, 0.0, 0, 5.0, never=True), _vm(1, 0.0, 0.0, 0, 7.5, never=True)],
)
def test_report_json_round_trip_property(controller, seeds, episodes, vehicles):
    report = build_report(controller, "abc", seeds, episodes, vehicles)
    text = metrics.report_to_json(report)
    again = metrics.report_from_json(text)
    assert again == report
    assert metrics.report_to_json(again) == text
    if all(v.never_departed for v in vehicles):
        assert again.summaries == metrics.Summaries(*[metrics.EMPTY_SUMMARY] * 4)


def test_report_reads_whole_numbers_as_floats():
    """A hand-written ``"wt": 2`` reads as 2.0, as whole numbers do in scenarios."""
    doc = _report_doc()
    doc["vehicles"][0]["wt"] = 2
    doc["summaries"]["wt"]["min"] = 1
    report = metrics.report_from_json(json.dumps(doc))
    assert type(report.vehicles[0].wt) is float and report.vehicles[0].wt == 2.0
    assert type(report.summaries.wt.vmin) is float and report.summaries.wt.vmin == 1.0


def test_report_csv_shape():
    episodes = [
        metrics.EpisodeTotals(seed=7, episode=0, spawned=2, departed=2, arrived=2, never_departed=0, emergency_stops=0)
    ]
    rows = [_vm(0, 1.0, 2.0, 0, 0.0, seed=7), _vm(1, 3.0, 4.0, 0, 1.0, seed=7)]
    report = build_report("fixed", "abc", [7], episodes, rows)
    lines = metrics.report_csv(report).strip().split("\n")
    assert lines[0] == "vehicle_id,waiting_time,time_loss,emergency_stops,depart_delay,seed,episode"
    assert len(lines) == 3
    assert lines[1].split(",")[-2:] == ["7", "0"]


def test_summary_csv_two_controllers():
    episodes = [
        metrics.EpisodeTotals(seed=1, episode=0, spawned=1, departed=1, arrived=1, never_departed=0, emergency_stops=1)
    ]
    a = build_report("fixed", "x", [1], episodes, [_vm(0, 1.0, 2.0, 1, 0.0)])
    b = build_report("dqn", "x", [1], episodes, [_vm(0, 2.0, 1.0, 0, 0.5)])
    lines = metrics.summary_csv([a, b]).strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "statistic",
        "fixed_wt", "fixed_tl", "fixed_es", "fixed_dd",
        "dqn_wt", "dqn_tl", "dqn_es", "dqn_dd",
    ]
    assert [row.split(",")[0] for row in lines[1:]] == ["mean", "sd", "min", "max"]


def _report_doc() -> dict:
    episodes = [
        metrics.EpisodeTotals(seed=1, episode=0, spawned=2, departed=2, arrived=2, never_departed=0, emergency_stops=1)
    ]
    report = build_report("fixed", "abc", [1], episodes, [_vm(0, 1.0, 2.0, 1, 0.0), _vm(1, 3.0, 4.0, 0, 1.0)])
    return json.loads(metrics.report_to_json(report))


def _drop(path, key):
    def mutate(doc):
        target = doc
        for step in path:
            target = target[step]
        del target[key]

    return mutate


MALFORMED = {
    "no vehicles": (_drop([], "vehicles"), "report: missing key 'vehicles'"),
    "row without dd": (_drop(["vehicles", 1], "dd"), r"vehicles\[1\]: missing key 'dd'"),
    "row with unknown key": (lambda doc: doc["vehicles"][0].update(speed=3.0), r"vehicles\[0\]: unknown key 'speed'"),
    "episode without seed": (_drop(["episodes", 0], "seed"), r"episodes\[0\]: missing key 'seed'"),
    "summary without min": (_drop(["summaries", "tl"], "min"), "summaries.tl: missing key 'min'"),
    "summaries without es": (_drop(["summaries"], "es"), "summaries: missing key 'es'"),
    "es_per_episode with unknown key": (
        lambda doc: doc["es_per_episode"].update(vmin=0.0),
        "es_per_episode: unknown key 'vmin'",
    ),
    "row that is not an object": (lambda doc: doc["vehicles"].append(5), r"vehicles\[2\]: expected an object"),
    "unknown top-level key": (lambda doc: doc.update(version=2), "report: unknown key 'version'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_report_from_json_names_the_bad_key(case):
    mutate, message = MALFORMED[case]
    doc = _report_doc()
    mutate(doc)
    with pytest.raises(metrics.ReportFormatError, match=message):
        metrics.report_from_json(json.dumps(doc))


def _set(path, key, value):
    def mutate(doc):
        target = doc
        for step in path:
            target = target[step]
        target[key] = value

    return mutate


WRONG_TYPES = {
    "number as a string": (_set(["summaries", "wt"], "mean", "8.5"), "summaries.wt: 'mean' must be a number, got '8.5'"),
    "missing number": (_set(["summaries", "dd"], "sd", None), "summaries.dd: 'sd' must be a number, got None"),
    "bool as a number": (_set(["vehicles", 1], "wt", True), r"vehicles\[1\]: 'wt' must be a number, got True"),
    "bool as a count": (_set(["episodes", 0], "spawned", True), r"episodes\[0\]: 'spawned' must be an integer, got True"),
    "fraction as a count": (_set(["episodes", 0], "arrived", 1.5), r"episodes\[0\]: 'arrived' must be an integer"),
    "fractional summary size": (_set(["es_per_episode"], "n", 1.0), "es_per_episode: 'n' must be an integer, got 1.0"),
    "count as a flag": (_set(["vehicles", 0], "never_departed", 0), r"vehicles\[0\]: 'never_departed' must be true"),
    "controller not a string": (_set([], "controller", 3), "report: 'controller' must be a string, got 3"),
    "seeds not a list": (_set([], "seeds", 5), "report: 'seeds' must be a list, got 5"),
    "seed not an integer": (_set([], "seeds", ["1"]), r"report: 'seeds\[0\]' must be an integer, got '1'"),
    "bool as a seed": (_set([], "seeds", [True]), r"report: 'seeds\[0\]' must be an integer, got True"),
    "NaN as a number": (_set(["summaries", "wt"], "mean", float("nan")), "summaries.wt: 'mean' must be finite, got nan"),
    "infinite number": (_set(["vehicles", 0], "tl", float("inf")), r"vehicles\[0\]: 'tl' must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_report_from_json_names_the_value_of_the_wrong_type(case):
    mutate, message = WRONG_TYPES[case]
    doc = _report_doc()
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
    del doc["vehicles"][0]["dd"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["compare", str(good), str(bad), "--out", str(tmp_path / "c.json")]) == 1
    error = json.loads(capsys.readouterr().err.strip())
    assert error == {"error": "vehicles[0]: missing key 'dd'", "kind": "ReportFormatError"}


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
