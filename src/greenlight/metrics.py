"""Per-vehicle metric accounting and descriptive-statistics aggregation.

Four per-vehicle metrics are tracked: waiting time (seconds below the halting
threshold), time loss (accumulated shortfall against the allowed speed),
emergency-stop count, and depart delay.  The simulator's step accumulates the
first three on each vehicle; ``finalize`` closes them out with the depart
delay into the report's columns, one list per field.  ``build_report`` counts
every episode total and aggregates each metric as mean / sample SD / min /
max from those columns, and ``report_from_json`` reads a report back by
rebuilding it from its own columns, so each number has one definition.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import compress

from .netmodel import read_record, write_record

#: The report document's version; the reader accepts no other.
FORMAT_VERSION = 2


class ReportFormatError(ValueError):
    """A report document is not JSON, or its version, keys, value types, row layout or values are not a report's."""


@dataclass(frozen=True)
class StatSummary:
    """mean / sample SD (n-1) / min / max over one metric's population."""

    mean: float
    sd: float
    vmin: float = field(metadata={"key": "min"})
    vmax: float = field(metadata={"key": "max"})
    n: int


EMPTY_SUMMARY = StatSummary(0.0, 0.0, 0.0, 0.0, 0)


@dataclass(frozen=True)
class Summaries:
    """One summary per metric over the per-vehicle population, named as the ``Vehicles`` column of the metric."""

    wt: StatSummary
    tl: StatSummary
    es: StatSummary
    dd: StatSummary


#: Metric order used everywhere a report is laid out.
METRIC_KEYS = tuple(f.name for f in fields(Summaries))


@dataclass
class EpisodeTotals:
    """Whole-run totals for one evaluation episode (one seed)."""

    seed: int
    episode: int
    spawned: int
    departed: int
    arrived: int
    never_departed: int
    emergency_stops: int


@dataclass
class Vehicles:
    """Every vehicle of a report as columns, one list per field: entry i of each list is vehicle i.

    ``id`` is the vehicle's number within its episode and ``route`` the index of
    its route in the scenario.  ``wt`` waiting time (s), ``tl`` time loss (s),
    ``es`` emergency stops and ``dd`` depart delay (s) are its metrics, and
    ``never_departed`` flags a vehicle that was never inserted.  ``seed`` and
    ``episode`` name the evaluation episode it ran in.
    """

    id: list[int]
    route: list[int]
    wt: list[float]
    tl: list[float]
    es: list[int]
    dd: list[float]
    never_departed: list[bool]
    seed: list[int]
    episode: list[int]

    @classmethod
    def empty(cls) -> Vehicles:
        return cls(*([] for _ in fields(cls)))


@dataclass
class RunReport:
    """Table-shaped evaluation result for one controller on one scenario."""

    controller: str
    scenario_id: str
    seeds: list[int]
    summaries: Summaries  # per-vehicle population
    es_per_episode: StatSummary  # emergency-stop totals, one value per episode
    episodes: tuple[EpisodeTotals, ...]
    vehicles: Vehicles
    format_version: int = FORMAT_VERSION


def finalize(vehicles: list, duration: float, seed: int, episode: int, into: Vehicles) -> None:
    """Close out one episode's vehicles at the end of its run, appending them to the columns of ``into``.

    Vehicles that never got inserted are flagged and charged the delay they
    accrued up to the end of the run; their counters are still zero, because
    only vehicles on a lane accumulate them.
    """
    departs = [v.actual_depart for v in vehicles]
    into.id.extend(v.vid for v in vehicles)
    into.route.extend(v.route_index for v in vehicles)
    into.wt.extend(v.waiting_time for v in vehicles)
    into.tl.extend(v.time_loss for v in vehicles)
    into.es.extend(v.emergency_stops for v in vehicles)
    into.dd.extend((duration if d is None else d) - v.scheduled_depart for d, v in zip(departs, vehicles))
    into.never_departed.extend(d is None for d in departs)
    into.seed.extend([seed] * len(vehicles))
    into.episode.extend([episode] * len(vehicles))


def aggregate(values) -> StatSummary:
    """Exact mean / sample SD / min / max; errors on an empty population."""
    values = list(values)
    n = len(values)
    if n == 0:
        raise ValueError("cannot aggregate an empty list of values")
    lo, hi = min(values), max(values)
    # fsum/n can land one ulp outside [lo, hi]; the true mean never does
    mean = min(max(math.fsum(values) / n, lo), hi)
    if n < 2:
        sd = 0.0
    else:
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return StatSummary(mean=mean, sd=sd, vmin=lo, vmax=hi, n=n)


# --- report assembly and CSV views -----------------------------------------


def build_report(
    controller: str,
    scenario_id: str,
    seeds: list[int],
    arrived: list[int],
    vehicles: Vehicles,
) -> RunReport:
    """Count each episode's totals and pool per-vehicle metrics across episodes into Table-1-shaped summaries.

    The rows run episode by episode, and every number of the report follows
    from them except ``arrived[k]``, the vehicles that left the network in
    episode k.  Summaries cover vehicles that actually departed; vehicles that
    never got inserted stay visible through their flagged rows and the episode totals.
    """
    departed = [not never for never in vehicles.never_departed]
    # float(): an integer es would print its min and max as 2, not 2.0
    per_metric = (list(map(float, compress(getattr(vehicles, k), departed))) for k in METRIC_KEYS)
    summaries = Summaries(*(aggregate(vals) if vals else EMPTY_SUMMARY for vals in per_metric))
    episodes, start = [], 0
    for k, (seed, arrivals) in enumerate(zip(seeds, arrived)):
        stop = bisect_right(vehicles.episode, k, start)
        never = sum(vehicles.never_departed[start:stop])
        episodes.append(EpisodeTotals(seed, k, stop - start, stop - start - never, arrivals, never,
                                      sum(vehicles.es[start:stop])))
        start = stop
    es_totals = [float(ep.emergency_stops) for ep in episodes]
    return RunReport(
        controller=controller,
        scenario_id=scenario_id,
        seeds=list(seeds),
        summaries=summaries,
        es_per_episode=aggregate(es_totals) if es_totals else EMPTY_SUMMARY,
        episodes=tuple(episodes),
        vehicles=vehicles,
    )


def report_to_json(report: RunReport) -> str:
    """The report as one line of JSON, keys sorted; without ``indent``, the C encoder writes it."""
    return json.dumps(write_record(report), sort_keys=True)


def report_from_json(text: str) -> RunReport:
    """Read a report written by ``report_to_json``, checking it by rebuilding it from its own rows.

    Raises ReportFormatError naming the key at fault and where it is: for text
    that is not JSON, another ``format_version``, a missing or unknown key, a
    value of the wrong type, columns of unequal length, episodes that are not
    one per seed, rows not laid out episode by episode under their episode's
    seed, a value other than what ``build_report`` makes of the rows, and an
    episode with more vehicles ``arrived`` than ``departed``.  As in scenarios,
    whole numbers read as floats and non-finite numbers are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"report is not valid JSON: {exc}") from exc
    # before the other keys: a report of another version fails on its version, not on its layout
    if type(doc) is dict and doc.get("format_version") != FORMAT_VERSION:
        raise ReportFormatError(f"report: 'format_version' must be {FORMAT_VERSION}, got {doc.get('format_version')!r}")
    report = read_record(RunReport, doc, "report", ReportFormatError)
    vehicles, seeds, episodes = report.vehicles, report.seeds, report.episodes
    rows = len(vehicles.id)
    for key, column in vars(vehicles).items():
        if len(column) != rows:
            raise ReportFormatError(f"vehicles: {key!r} has {len(column)} entries, 'id' has {rows}")
    if len(episodes) != len(seeds):
        raise ReportFormatError(f"report: 'episodes' has {len(episodes)} entries for {len(seeds)} 'seeds'")
    previous = 0
    for i, (k, seed) in enumerate(zip(vehicles.episode, vehicles.seed)):
        if not previous <= k < len(seeds):
            raise ReportFormatError(f"vehicles: 'episode[{i}]' is {k}; the rows run episode by episode, "
                                    f"so it must be {previous} to {len(seeds) - 1}")
        if seed != seeds[k]:
            raise ReportFormatError(f"vehicles: 'seed[{i}]' is {seed}, but its episode {k} ran seeds[{k}] ({seeds[k]})")
        previous = k
    rebuilt = build_report(report.controller, report.scenario_id, seeds, [ep.arrived for ep in episodes], vehicles)
    pairs = [  # in the order of the document's keys
        *((f"episodes[{k}]", ep, again) for k, (ep, again) in enumerate(zip(episodes, rebuilt.episodes))),
        ("es_per_episode", report.es_per_episode, rebuilt.es_per_episode),
        *((f"summaries.{k}", getattr(report.summaries, k), getattr(rebuilt.summaries, k)) for k in sorted(METRIC_KEYS)),
    ]
    for where, written, derived in pairs:
        values, expected = write_record(written), write_record(derived)
        for key in sorted(values):
            if values[key] != expected[key]:
                raise ReportFormatError(f"{where}: {key!r} is {values[key]!r}, its rows give {expected[key]!r}")
    # arrivals are the one total the rows do not hold
    for k, ep in enumerate(episodes):
        if ep.arrived > ep.departed:
            raise ReportFormatError(f"episodes[{k}]: 'arrived' is {ep.arrived}, above 'departed' ({ep.departed})")
    return report


def report_csv(report: RunReport) -> str:
    """One row per vehicle: id, wt, tl, es, dd, seed, episode."""
    v = report.vehicles
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["vehicle_id", "waiting_time", "time_loss", "emergency_stops", "depart_delay", "seed", "episode"])
    writer.writerows(zip(v.id, v.wt, v.tl, v.es, v.dd, v.seed, v.episode))
    return out.getvalue()


def summary_csv(reports: list[RunReport]) -> str:
    """Statistic-by-metric table, one column group per controller.

    Rows are mean/sd/min/max; columns are <controller>_<metric> for the four
    metrics wt, tl, es, dd.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["statistic", *(f"{r.controller}_{k}" for r in reports for k in METRIC_KEYS)])
    columns = [write_record(getattr(r.summaries, k)) for r in reports for k in METRIC_KEYS]
    for stat in ("mean", "sd", "min", "max"):
        writer.writerow([stat, *(column[stat] for column in columns)])
    return out.getvalue()
