"""Command-line interface: train, eval, compare.

Every command exits 0 on success; failures print one machine-readable JSON
line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dqn, harness, metrics, netmodel


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse failures machine-readable too
        print(json.dumps({"error": message, "kind": "usage"}), file=sys.stderr)
        self.exit(2)


def _parse_seeds(raw: str) -> list[int]:
    try:
        return [int(s) for s in raw.split(",")]  # an empty entry is no integer either
    except ValueError as exc:
        raise ValueError(f"--seeds expects comma-separated integers, got {raw!r}") from exc


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:  # not Path(path): Path("") is the current directory
        return fh.read()


def _write(path: str, text: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")


def _cmd_train(args) -> int:
    config = harness.TrainConfig(scenario=netmodel.load_scenario(_read(args.scenario)), episodes=args.episodes,
                                 seed=args.seed, reward_mode=args.reward_mode)
    result = harness.train(config)
    _write(args.weights_out, result.weights_doc)
    curve_path = str(Path(args.weights_out).with_suffix("")) + ".curve.csv"
    _write(curve_path, harness.curve_csv(result.curve))
    print(f"wrote weights to {args.weights_out} and curve to {curve_path}")
    return 0


def _cmd_eval(args) -> int:
    config = harness.EvalConfig(
        scenario=netmodel.load_scenario(_read(args.scenario)),
        controller=args.controller,
        seeds=_parse_seeds(args.seeds),
        weights=None if args.weights is None else _read(args.weights),
    )
    report = harness.evaluate(config)
    _write(args.out, metrics.report_to_json(report))
    stem = str(Path(args.out).with_suffix(""))
    _write(stem + ".report.csv", metrics.report_csv(report))
    _write(stem + ".summary.csv", metrics.summary_csv([report]))
    print(f"wrote report to {args.out} (+ {stem}.report.csv, {stem}.summary.csv)")
    return 0


def _cmd_compare(args) -> int:
    report_a = metrics.report_from_json(_read(args.report_a))
    report_b = metrics.report_from_json(_read(args.report_b))
    doc = harness.compare(report_a, report_b)
    _write(args.out, json.dumps(doc, sort_keys=True, indent=2))
    stem = str(Path(args.out).with_suffix(""))
    _write(stem + ".summary.csv", metrics.summary_csv([report_a, report_b]))
    print(f"wrote comparison to {args.out} (+ {stem}.summary.csv)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="greenlight", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the DQN controller on a scenario")
    p_train.add_argument("--scenario", required=True)
    p_train.add_argument("--episodes", type=int, required=True)
    p_train.add_argument("--seed", type=int, required=True)
    p_train.add_argument("--reward-mode", choices=dqn.REWARD_MODES, default=harness.TrainConfig.reward_mode)
    p_train.add_argument("--weights-out", required=True)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a controller over held-out seeds")
    p_eval.add_argument("--scenario", required=True)
    p_eval.add_argument("--controller", choices=harness.CONTROLLERS, required=True)
    p_eval.add_argument("--weights", default=None)
    p_eval.add_argument("--seeds", required=True, help="comma-separated seed list")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="compare two evaluation reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
