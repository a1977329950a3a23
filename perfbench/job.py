"""One benchmark job, run in a fresh child process by ``run.py``.

    python3 perfbench/job.py '<job spec JSON>'

The job imports greenlight from the checkout's ``src/``, reads and validates
the scenario and parses any weights (set-up), then runs the spec's
``greenlight`` CLI commands through ``greenlight.cli.main`` (the job), and
finally checks the artifacts those commands wrote.  It prints one JSON object
as the last line of its standard output.  With ``"trace": true`` the public
functions listed in ``spans.TRACED`` are wrapped and the per-span totals are
returned; the raw spans go to ``spans.npz`` in the job's output directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans


class EpisodeProbe:
    """Watches ``Simulation`` construction to count and check episodes.

    Each new simulation closes the previous one, so at most one finished
    simulation is held beyond what the harness itself keeps alive.
    """

    def __init__(self, simcore):
        self.dt = simcore.DT
        self.episodes: list[dict] = []
        self._current = None
        init = simcore.Simulation.__init__

        def watched(sim, *args, **kwargs):
            self.close()
            init(sim, *args, **kwargs)
            self._current = sim

        simcore.Simulation.__init__ = watched

    def close(self) -> None:
        sim, self._current = self._current, None
        if sim is None:
            return
        departed = [v for v in sim.vehicles if v.actual_depart is not None]
        never = len(sim.vehicles) - len(departed)
        vehicle_steps = 0
        for v in departed:
            end = v.arrived_at if v.arrived_at is not None else sim.clock
            vehicle_steps += round((end - v.actual_depart) / self.dt)
        n = max(1, len(departed))
        self.episodes.append(
            {
                "vehicle_steps": vehicle_steps,
                "ok": len(sim.vehicles) == sim.inserted_count + never and sim.arrived_count <= sim.inserted_count,
                "es": sum(v.emergency_stops for v in sim.vehicles),
                "never_departed": never,
                "wt": sum(v.waiting_time for v in departed) / n,
                "tl": sum(v.time_loss for v in departed) / n,
                "dd": sum(v.actual_depart - v.scheduled_depart for v in departed) / n,
            }
        )


def _outcome(episodes: list[dict]) -> dict:
    """ES per episode, mean wt/tl/dd per episode and never-departed total."""
    n = len(episodes)
    return {
        "es_per_episode": sum(e["es"] for e in episodes) / n,
        "wt": sum(e["wt"] for e in episodes) / n,
        "tl": sum(e["tl"] for e in episodes) / n,
        "dd": sum(e["dd"] for e in episodes) / n,
        "never_departed": sum(e["never_departed"] for e in episodes),
    }


def _check_weights(text: str, infos, harness) -> None:
    nets = harness.load_weights(text, infos)
    for net in nets.values():
        if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
            raise ValueError("weights contain non-finite values")


def _check_step(step: dict, out: Path, infos, harness, metrics) -> tuple[list[str], list[int]]:
    """Problems with one command's artifacts, and the episodes failing alone."""
    n = step["episodes"]
    if step["kind"] == "train":
        try:
            _check_weights((out / step["weights"]).read_text(encoding="utf-8"), infos, harness)
        except ValueError as exc:
            return [f"{step['weights']}: {exc}"], []
        rows = (out / step["curve"]).read_text(encoding="utf-8").splitlines()[1:]
        return ([] if len(rows) == n else [f"{step['curve']} has {len(rows)} rows for {n} episodes"]), []
    text = (out / step["report"]).read_text(encoding="utf-8")
    try:
        report = metrics.report_from_json(text)
    except (ValueError, KeyError) as exc:
        return [f"{step['report']} does not parse: {exc!r}"], []
    if metrics.report_to_json(report) != text:
        return [f"{step['report']} does not round-trip"], []
    if len(report.episodes) != n:
        return [f"{step['report']} has {len(report.episodes)} episodes for {n}"], []
    bad = [
        k
        for k, ep in enumerate(report.episodes)
        if ep.spawned != ep.departed + ep.never_departed or ep.arrived > ep.departed
    ]
    return [], bad


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    out = Path(spec["out"])
    sys.path.insert(0, str(root / "src"))
    from greenlight import cli, harness, metrics, netmodel, simcore

    scenario = netmodel.load_scenario((root / spec["scenario"]).read_text(encoding="utf-8"))
    infos = harness._junction_infos(scenario)
    if spec.get("weights"):
        _check_weights((root / spec["weights"]).read_text(encoding="utf-8"), infos, harness)
    setup_s = time.monotonic() - spec["t0"]

    rec = None
    if spec["trace"]:
        rec = spans.Recorder()
        spans.install(rec)
    probe = EpisodeProbe(simcore)

    t = time.perf_counter()
    for step in spec["commands"]:
        if cli.main(step["argv"]) != 0:
            raise SystemExit(f"greenlight {step['argv'][0]} failed")
    job_s = time.perf_counter() - t
    traced = rec.arrays() if rec is not None else None  # the checks below are not part of the job
    probe.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks; an episode fails on its own check or on its artifact's
    episodes = probe.episodes
    expected = sum(step["episodes"] for step in spec["commands"])
    checks: list[str] = []
    outcome = {}
    if len(episodes) != expected:
        checks.append(f"ran {len(episodes)} episodes, expected {expected}")
        failed = [True] * max(expected, len(episodes))
    else:
        failed = [not e["ok"] for e in episodes]
        first = 0
        for step in spec["commands"]:
            n = step["episodes"]
            problems, bad = _check_step(step, out, infos, harness, metrics)
            checks.extend(problems)
            for k in range(n) if problems else bad:
                failed[first + k] = True
            mine = episodes[first : first + n]
            outcome[step["label"]] = _outcome(mine[-1:] if step["kind"] == "train" else mine)
            first += n

    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "episodes": len(episodes),
        "failed": sum(failed),
        "vehicle_steps": sum(e["vehicle_steps"] for e in episodes),
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "outcome": outcome,
        "digests": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in spec["artifacts"]
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    if traced is not None:
        np.savez(out / "spans.npz", **traced)
        result["spans"] = spans.summarize(traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
