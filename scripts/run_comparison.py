#!/usr/bin/env python3
"""End-to-end experiment: train the DQN controller, evaluate it against the
fixed-time baseline on held-out seeds, and emit the comparison table.

Writes weights.json, curve.csv, per-controller reports, summary.csv (both
controllers side by side) and comparison.json into --out-dir, then prints the
summary table and per-metric changes.

Example:
    python scripts/run_comparison.py --scenario scenarios/single.xn \
        --episodes 200 --seed 7 --eval-seeds 1000-1019 --out-dir results/
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from greenlight import dqn, harness, metrics, netmodel  # noqa: E402


def parse_seed_range(raw: str) -> list[int]:
    """Seeds from ``lo-hi`` (inclusive, lo ≤ hi) or a comma-separated list; errors name ``--eval-seeds``."""
    try:
        if "-" not in raw or "," in raw:
            return [int(s) for s in raw.split(",") if s.strip()]
        lo, hi = (int(s) for s in raw.split("-", 1))
        if lo <= hi:
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise ValueError(f"--eval-seeds: expected a range lo-hi with lo ≤ hi or comma-separated seeds, got {raw!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="scenarios/single.xn")
    parser.add_argument("--episodes", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--eval-seeds", default="1000-1019")
    parser.add_argument("--reward-mode", choices=dqn.REWARD_MODES, default="balanced")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    # the scenario, its hyperparameters and both configs are checked here, before any training or output
    try:
        eval_seeds = parse_seed_range(args.eval_seeds)
        harness.resolve_hyperparams(netmodel.load_scenario(Path(args.scenario).read_text(encoding="utf-8")))
        train_config = harness.TrainConfig(
            scenario_path=args.scenario, episodes=args.episodes, seed=args.seed, reward_mode=args.reward_mode
        )
        eval_config = harness.EvalConfig(scenario_path=args.scenario, controller="fixed", seeds=eval_seeds)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    print(f"training {args.episodes} episodes (seed {args.seed}) on {args.scenario} ...")
    t0 = time.perf_counter()
    result = harness.train(train_config)
    (out / "weights.json").write_text(result.weights_doc)
    (out / "curve.csv").write_text(harness.curve_csv(result.curve))
    print(f"  done in {time.perf_counter() - t0:.1f}s; "
          f"return {result.curve[0]['return']:.1f} -> {result.curve[-1]['return']:.1f}")

    reports = {}
    for controller in harness.CONTROLLERS:
        print(f"evaluating {controller} on {len(eval_seeds)} seeds ...")
        weights = result.weights_doc if controller == "dqn" else None
        reports[controller] = harness.evaluate(replace(eval_config, controller=controller, weights=weights))
        (out / f"{controller}.json").write_text(metrics.report_to_json(reports[controller]))
        (out / f"{controller}.report.csv").write_text(metrics.report_csv(reports[controller]))

    summary = metrics.summary_csv(list(reports.values()))
    (out / "summary.csv").write_text(summary)
    comparison = harness.compare(*reports.values())
    (out / "comparison.json").write_text(json.dumps(comparison, sort_keys=True, indent=2))

    print("\nsummary (per-vehicle statistics, pooled over evaluation seeds):")
    for line in summary.strip().split("\n"):
        cells = line.split(",")
        print("  " + "".join(f"{c:>12.12}" for c in cells))

    names = {"wt": "waiting time", "tl": "time loss", "es": "emergency stops", "dd": "depart delay"}
    print("\nchange vs fixed-time baseline (negative = reduced):")
    for key, label in names.items():
        entry = comparison["metrics"][key]
        change = entry["change_pct"]
        shown = "n/a (zero baseline)" if change is None else f"{change:+.2f}%"
        print(f"  {label:>16}: {entry['baseline_mean']:9.3f} -> {entry['candidate_mean']:9.3f}   {shown}")
    es_ep = comparison["es_per_episode"]
    change = es_ep["change_pct"]
    shown = "n/a" if change is None else f"{change:+.2f}%"
    print(f"  {'ES / episode':>16}: {es_ep['baseline_mean']:9.3f} -> {es_ep['candidate_mean']:9.3f}   {shown}")
    never = comparison["never_departed"]
    print(f"  {'never departed':>16}: {never['baseline']:9d} -> {never['candidate']:9d}   (vehicles, all seeds)")
    print(f"\nartifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
