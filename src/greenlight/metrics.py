"""Per-vehicle metric accounting and descriptive-statistics aggregation.

Four per-vehicle metrics are tracked: waiting time (seconds below the halting
threshold), time loss (accumulated shortfall against the allowed speed),
emergency-stop count, and depart delay.  The simulator's step accumulates the
first three on each vehicle; ``finalize`` closes them out with the depart
delay.  Reports aggregate them as mean / sample SD / min / max per metric for
each controller.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

from .netmodel import read_record, write_record

#: Speed below which a vehicle counts as halted (SUMO convention), m/s.
HALT_SPEED = 0.1


class ReportFormatError(ValueError):
    """A report document is not JSON, or its keys or value types do not match the report layout."""


@dataclass
class VehicleMetrics:
    """One vehicle's report row, its fields named as the report files name them.

    ``wt`` waiting time (s), ``tl`` time loss (s), ``es`` emergency stops and
    ``dd`` depart delay (s), for vehicle ``id`` of evaluation episode
    ``episode``, which ran with ``seed``.
    """

    id: int
    wt: float
    tl: float
    es: int
    dd: float
    never_departed: bool
    seed: int
    episode: int


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
    """One summary per metric over the per-vehicle population, named as ``VehicleMetrics`` names the metric."""

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
class RunReport:
    """Table-shaped evaluation result for one controller on one scenario."""

    controller: str
    scenario_id: str
    seeds: list[int]
    summaries: Summaries  # per-vehicle population
    es_per_episode: StatSummary  # emergency-stop totals, one value per episode
    episodes: list[EpisodeTotals]
    vehicles: list[VehicleMetrics]


def finalize(vehicle, duration: float, seed: int, episode: int) -> VehicleMetrics:
    """Close out a vehicle's metrics at arrival or simulation end.

    Vehicles that never got inserted are flagged and charged the delay they
    accrued up to the end of the run; their counters are still zero, because
    only vehicles on a lane accumulate them.
    """
    depart = vehicle.actual_depart
    dd = (duration if depart is None else depart) - vehicle.scheduled_depart
    # positional: keyword arguments take twice as long, and this runs once per vehicle
    return VehicleMetrics(
        vehicle.vid, vehicle.waiting_time, vehicle.time_loss, vehicle.emergency_stops, dd, depart is None, seed, episode
    )


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


def percent_change(before: float, after: float) -> float:
    """Percent decrease from ``before`` to ``after`` (positive = decreased)."""
    if before == 0:
        raise ValueError("percent change is undefined for a zero baseline")
    return 100.0 * (before - after) / before


# --- report assembly and CSV views -----------------------------------------


def build_report(
    controller: str,
    scenario_id: str,
    seeds: list[int],
    episodes: list[EpisodeTotals],
    vehicles: list[VehicleMetrics],
) -> RunReport:
    """Pool per-vehicle metrics across episodes into Table-1-shaped summaries.

    Summaries cover vehicles that actually departed; vehicles that never got
    inserted stay visible through their flagged rows and the episode totals.
    """
    departed = [v for v in vehicles if not v.never_departed]
    # float(): an integer es would print its min and max as 2, not 2.0
    per_metric = ([float(getattr(v, k)) for v in departed] for k in METRIC_KEYS)
    summaries = Summaries(*(aggregate(vals) if vals else EMPTY_SUMMARY for vals in per_metric))
    es_totals = [float(ep.emergency_stops) for ep in episodes]
    return RunReport(
        controller=controller,
        scenario_id=scenario_id,
        seeds=list(seeds),
        summaries=summaries,
        es_per_episode=aggregate(es_totals) if es_totals else EMPTY_SUMMARY,
        episodes=episodes,
        vehicles=vehicles,
    )


def report_to_json(report: RunReport) -> str:
    doc = {
        "controller": report.controller,
        "scenario_id": report.scenario_id,
        "seeds": report.seeds,
        "summaries": write_record(report.summaries),
        "es_per_episode": write_record(report.es_per_episode),
        # vars() is a row's document (no field renames its key), at a fraction of write_record's cost
        "episodes": [vars(ep) for ep in report.episodes],
        "vehicles": [vars(v) for v in report.vehicles],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def report_from_json(text: str) -> RunReport:
    """Read a report written by ``report_to_json``.

    Raises ReportFormatError for text that is not JSON, and for a missing or
    unknown key or a value of the wrong type, naming it and where it is.
    Numbers follow the scenario rules: whole numbers read as floats, and
    non-finite numbers are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"report is not valid JSON: {exc}") from exc
    return read_record(RunReport, doc, "report", ReportFormatError)


def report_csv(report: RunReport) -> str:
    """One row per vehicle: id, wt, tl, es, dd, seed, episode."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["vehicle_id", "waiting_time", "time_loss", "emergency_stops", "depart_delay", "seed", "episode"])
    writer.writerows((v.id, v.wt, v.tl, v.es, v.dd, v.seed, v.episode) for v in report.vehicles)
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
