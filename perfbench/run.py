"""greenlight benchmark: train and eval throughput, with a traced per-layer run.

    python3 perfbench/run.py --workload train-single --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --compare A.json B.json   # artifact byte-identity gate

A run repeats one job of the workload, each in a fresh single-threaded child
process (``job.py``), until ``--seconds`` have passed: a closed loop with one
client, where each job starts when the previous one ends.  A job is what one
or two ``greenlight train`` / ``greenlight eval`` invocations do, artifacts
included.  ``--seed`` picks the training seed and the held-out evaluation
seeds, and with them the Poisson demand each episode simulates.

With ``--trace 0`` the run reports the end-to-end metrics as medians over its
jobs; with ``--trace 1`` it alternates untraced and traced jobs and reports
per-layer metrics from the traced ones.  Every run checks the artifacts,
requires all jobs of the run to write identical bytes, records their sha256,
and writes a results file under ``.bench_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
episodes, and ``metrics`` holds the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
INPUTS = HERE / "inputs"
FIXTURE_WEIGHTS = "perfbench/inputs/single-seed7-ep200.weights.json"

#: Numerical libraries get one thread each: the machine has two CPUs, and
#: numpy's OpenBLAS would otherwise start one thread per CPU.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

MIN_JOBS = 3
RUN_LIMIT_S = 170.0

LEARNER = (
    "learner.update",
    "dqn.ReplayBuffer.sample",
    "dqn.td_targets_batch",
    "qnet.forward_batch",
    "qnet.backward_batch",
    "qnet.Adam.step",
)
ROLLOUT = ("netmodel.load_scenario", "simcore.Simulation.init", "simcore.step", "controllers.apply_interlock")
DECIDE = ("harness.junction_view", "dqn.featurize", "qnet.forward", "dqn.select_action")
TRAIN_SPANS = ("harness.train", *ROLLOUT, *DECIDE, *LEARNER, "dqn.ReplayBuffer.push", "qnet.serialize")
EVAL_SPANS = (
    "harness.evaluate",
    *ROLLOUT,
    "controllers.FixedTimeController.decide",
    "metrics.finalize",
    "metrics.build_report",
    "metrics.report_to_json",
    "metrics.report_csv",
)
#: The harness's own loops; their self time is time no named layer claims.
HARNESS_LOOPS = ("harness.train", "harness.evaluate")
DQN_EVAL_SPANS = ("harness.load_weights", "qnet.deserialize", "dqn.GreedyPolicy.decide", *DECIDE)

#: Per-layer time metrics: mean inclusive time per call.
PER_CALL_US = (
    "qnet.backward_batch",
    "qnet.Adam.step",
    "dqn.td_targets_batch",
    "qnet.forward_batch",
    "dqn.ReplayBuffer.sample",
    "dqn.ReplayBuffer.push",
    "learner.update",
    "simcore.step",
    "simcore.Simulation.init",
    "controllers.apply_interlock",
    "controllers.FixedTimeController.decide",
    "harness.junction_view",
    "dqn.featurize",
    "qnet.forward",
    "dqn.select_action",
    "dqn.GreedyPolicy.decide",
    "metrics.finalize",
)
PER_CALL_MS = (
    "netmodel.load_scenario",
    "qnet.deserialize",
    "metrics.build_report",
    "metrics.report_to_json",
    "metrics.report_csv",
    "qnet.serialize",
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    scenario: str  # relative to the checkout root
    size: int  # training episodes, or evaluation seeds per controller
    controllers: tuple[str, ...] = ()

    def eval_seeds(self, seed: int) -> list[int]:
        base = 1000 * (seed + 1)
        return list(range(base, base + self.size))

    def commands(self, seed: int, out: Path) -> list[dict]:
        if self.kind == "train":
            argv = ["train", "--scenario", str(ROOT / self.scenario), "--episodes", str(self.size)]
            argv += ["--seed", str(seed), "--weights-out", str(out / "weights.json")]
            return [
                {
                    "kind": "train",
                    "label": "dqn_last_training_episode",
                    "argv": argv,
                    "episodes": self.size,
                    "weights": "weights.json",
                    "curve": "weights.curve.csv",
                }
            ]
        seeds = ",".join(str(s) for s in self.eval_seeds(seed))
        steps = []
        for controller in self.controllers:
            argv = ["eval", "--scenario", str(ROOT / self.scenario), "--controller", controller]
            if controller == "dqn":
                argv += ["--weights", str(ROOT / FIXTURE_WEIGHTS)]
            argv += ["--seeds", seeds, "--out", str(out / f"{controller}.json")]
            steps.append(
                {"kind": "eval", "label": controller, "argv": argv, "episodes": self.size, "report": f"{controller}.json"}
            )
        return steps

    def artifacts(self) -> list[str]:
        if self.kind == "train":
            return ["weights.json", "weights.curve.csv"]
        return [f"{c}{ext}" for c in self.controllers for ext in (".json", ".report.csv", ".summary.csv")]

    def expected_spans(self) -> tuple[str, ...]:
        if self.kind == "train":
            return TRAIN_SPANS
        return EVAL_SPANS + (DQN_EVAL_SPANS if "dqn" in self.controllers else ())


# Each job takes a few seconds on a 2-CPU machine, so a run holds several.
# Training jobs are long enough that the replay warmup (about 2.5 episodes
# without updates) stays a small share.  eval-single uses 50 seeds because
# the fixture DQN's work per episode is heavy-tailed (some seeds queue up to
# ten times the vehicles); fewer seeds make the work per run depend on --seed.
WORKLOADS = {
    "train-single": Workload("train", "scenarios/single.xn", size=20),
    "train-grid": Workload("train", "scenarios/grid2x2.xn", size=12),
    "eval-single": Workload("eval", "scenarios/single.xn", size=50, controllers=("fixed", "dqn")),
    "eval-dense": Workload("eval", "perfbench/inputs/dense6x6.xn", size=2, controllers=("fixed",)),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    definition = json.loads(path.read_text(encoding="utf-8"))
    if {w["name"] for w in definition["workloads"]} != set(WORKLOADS):
        raise SetupError("BENCHMARK.json and run.py name different workloads")
    return definition


def verify_checkout() -> dict[str, str]:
    """Digests of every input, after checking the committed ones."""
    if not (ROOT / "src" / "greenlight" / "__init__.py").is_file():
        raise SetupError(f"no greenlight sources under {ROOT / 'src'}")
    digests = {}
    for line in (INPUTS / "SHA256SUMS").read_text(encoding="utf-8").splitlines():
        want, name = line.split()
        got = _sha256(INPUTS / name)
        if got != want:
            raise SetupError(f"input {name} has sha256 {got}, SHA256SUMS says {want}")
        digests[f"perfbench/inputs/{name}"] = got
    for workload in WORKLOADS.values():
        path = ROOT / workload.scenario
        if not path.is_file():
            raise SetupError(f"scenario {workload.scenario} is missing")
        digests[workload.scenario] = _sha256(path)
    return digests


def run_job(name: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    """One job in a fresh child; the child's result plus run bookkeeping."""
    workload = WORKLOADS[name]
    out = OUT_DIR / "jobs" / f"{name}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = {
        "root": str(ROOT),
        "out": str(out),
        "trace": traced,
        "scenario": workload.scenario,
        "weights": FIXTURE_WEIGHTS if "dqn" in workload.controllers else None,
        "commands": workload.commands(seed, out),
        "artifacts": workload.artifacts(),
    }
    attempted = sum(step["episodes"] for step in spec["commands"])
    env = dict(os.environ, **CHILD_ENV)
    try:
        spec["t0"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "ok": False, "attempted": attempted, "failed": attempted, "error": "timed out"}
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"traced": traced, "ok": False, "attempted": attempted, "failed": attempted, "error": " | ".join(tail)}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(traced=traced, ok=True, attempted=attempted)
    if traced:
        shutil.copyfile(out / "spans.npz", OUT_DIR / f"{name}-seed{seed}.spans.npz")
    shutil.rmtree(out)
    return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _rate(jobs: list[dict], key: str) -> float:
    """Work per second of job time, over all the given jobs together.

    On a shared host a job's speed depends on the process and on the moment
    it runs; a total over every job of the run varies less between runs than
    the median job does.
    """
    return sum(j[key] for j in jobs) / sum(j["job_s"] for j in jobs)


def end_to_end(jobs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": _median([j["setup_s"] for j in jobs]),
        "episodes_per_s": _rate(jobs, "episodes"),
        "vehicle_steps_per_s": _rate(jobs, "vehicle_steps"),
        "peak_rss_mb": _median([j["peak_rss_mb"] for j in jobs]),
    }


def per_layer(traced: list[dict], untraced_eps: float) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer figures from the traced jobs, and the summed span totals.

    Counts are per job.  A time per call is 0 where the span never ran.
    """
    spans: dict[str, dict] = {}
    for job in traced:
        for name, s in job["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def per_call(name: str, scale: float) -> float:
        s = spans.get(name, empty)
        return s["total_s"] * scale / s["calls"] if s["calls"] else 0.0

    n_jobs = len(traced)
    wall = sum(j["job_s"] for j in traced)
    vehicle_steps = sum(j["vehicle_steps"] for j in traced)
    steps = spans.get("simcore.step", empty)
    layer_self = sum(s["self_s"] for name, s in spans.items() if name not in HARNESS_LOOPS)
    simcore_self = steps["self_s"] + spans.get("simcore.Simulation.init", empty)["self_s"]

    metrics = {f"{name}.us": per_call(name, 1e6) for name in PER_CALL_US}
    metrics.update({f"{name}.ms": per_call(name, 1e3) for name in PER_CALL_MS})
    metrics.update(
        {
            "learner.updates": spans.get("learner.update", empty)["calls"] / n_jobs,
            "learner.share": spans.get("learner.update", empty)["total_s"] / wall,
            "simcore.step.calls": steps["calls"] / n_jobs,
            "simcore.vehicle_steps": vehicle_steps / n_jobs,
            "simcore.vehicles_per_step": vehicle_steps / steps["calls"] if steps["calls"] else 0.0,
            "simcore.us_per_vehicle_step": steps["total_s"] * 1e6 / vehicle_steps if vehicle_steps else 0.0,
            "simcore.share": simcore_self / wall,
            "controllers.apply_interlock.calls": spans.get("controllers.apply_interlock", empty)["calls"] / n_jobs,
            "harness.self_share": (wall - layer_self) / wall,
            "tracing.overhead": untraced_eps / _rate(traced, "episodes") - 1.0,
        }
    )
    return metrics, spans


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    stop_at = start + seconds
    deadline = start + RUN_LIMIT_S
    jobs: list[dict] = []
    walls: list[float] = []
    while time.monotonic() < deadline:
        begin = time.monotonic()
        # end the run at the job boundary nearest to --seconds
        if len(jobs) >= MIN_JOBS and begin + _median(walls) / 2 >= stop_at:
            break
        jobs.append(run_job(name, seed, len(jobs), trace and len(jobs) % 2 == 1, deadline))
        walls.append(time.monotonic() - begin)

    problems = [f"job {i}: {j['error']}" for i, j in enumerate(jobs) if not j["ok"]]
    ok_jobs = [j for j in jobs if j["ok"]]
    reference = ok_jobs[0]["digests"] if ok_jobs else {}
    for i, job in enumerate(jobs):
        if not job["ok"]:
            continue
        problems.extend(f"job {i}: {check}" for check in job["checks"])
        if job["digests"] != reference:
            differing = sorted(k for k in reference if job["digests"].get(k) != reference[k])
            problems.append(f"job {i}: artifacts differ from job 0: {', '.join(differing)}")
            job["failed"] = job["attempted"]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)

    untraced = [j for j in ok_jobs if not j["traced"]]
    traced = [j for j in ok_jobs if j["traced"]]
    result = {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "end_to_end": end_to_end(untraced) if untraced else {},
        "artifacts": reference,
        "outcome": {
            f"outcome.{label}.{key}": value
            for label, figures in (ok_jobs[0]["outcome"] if ok_jobs else {}).items()
            for key, value in figures.items()
        },
        "environment": ok_jobs[0]["environment"] if ok_jobs else {},
        "job_results": [{k: v for k, v in j.items() if k != "spans"} for j in jobs],
    }
    if trace:
        if traced and untraced:
            result["per_layer"], result["spans"] = per_layer(traced, result["end_to_end"]["episodes_per_s"])
            silent = [s for s in WORKLOADS[name].expected_spans() if result["spans"].get(s, {}).get("calls", 0) == 0]
            if silent:
                problems.append(f"spans with zero calls: {', '.join(silent)}")
        else:
            problems.append("the traced run needs at least one traced and one untraced job")
    result["problems"] = problems
    result["correct"] = not problems and failed == 0
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_metrics(definition: dict, result: dict, trace: bool) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    section = "per_layer" if trace else "end_to_end"
    values = result.get(section, {})
    listed = {m["name"]: m["unit"] for m in definition[section]}
    if values and set(values) != set(listed):
        raise SetupError(f"run.py and BENCHMARK.json disagree on {section}: {sorted(set(values) ^ set(listed))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in listed.items() if name in values}


def print_table(name: str, result: dict, definition: dict) -> None:
    print(f"{name}  seed {result['seed']}  {result['jobs']} jobs  {result['attempted']} episodes attempted")
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    rows = dict(result["end_to_end"])
    rows["failed_share"] = result["failed_share"]
    rows.update(result.get("per_layer", {}))
    for metric, value in rows.items():
        print(f"  {metric:<44} {_fmt(value):>12} {units.get(metric, 'ratio')}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
        "platform": sys.platform,
    }


def compare(path_a: str, path_b: str) -> int:
    """List workloads whose artifact digests differ between two results files.

    Exits 1 if any workload both files ran (with the same seed) differs, 2 if
    they share none.
    """
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    for name in sorted(set(a) ^ set(b)):
        print(f"{name}: only in {path_a if name in a else path_b}, not compared")
    common = sorted(n for n in set(a) & set(b) if a[n]["seed"] == b[n]["seed"])
    for name in sorted(set(a) & set(b)):
        if name not in common:
            print(f"{name}: seeds differ ({a[name]['seed']} vs {b[name]['seed']}), not compared")
    differing = []
    for name in common:
        da, db = a[name]["artifacts"], b[name]["artifacts"]
        changed = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
        if changed:
            print(f"{name}: artifacts differ: {', '.join(changed)}")
            differing.append(name)
    if not common:
        print("no workload to compare")
        return 2
    print(f"artifacts differ on: {', '.join(differing)}" if differing else f"identical artifacts on: {', '.join(common)}")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[*WORKLOADS, "all"])
    mode.add_argument("--compare", nargs=2, metavar="RESULTS")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="results file (default: under .bench_out/)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        definition = load_definition()
        inputs = verify_checkout()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(definition["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    results = {name: run_workload(name, args.seed, seconds, bool(args.trace)) for name in names}
    shutil.rmtree(OUT_DIR / "jobs", ignore_errors=True)
    out = Path(args.out) if args.out else OUT_DIR / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = {"environment": environment(), "inputs": inputs, "workloads": results}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    try:
        line_metrics = {}
        for name, result in results.items():
            print_table(name, result, definition)
            for metric, entry in report_metrics(definition, result, bool(args.trace)).items():
                line_metrics[metric if len(names) == 1 else f"{name}.{metric}"] = entry
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"results: {out}")
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": line_metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
