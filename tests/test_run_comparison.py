"""Smoke test of the end-to-end experiment script, run as a user runs it."""

import json
import subprocess
import sys

from conftest import REPO, SCENARIOS


def test_run_comparison_writes_every_promised_artifact(tmp_path):
    argv = [sys.executable, str(REPO / "scripts" / "run_comparison.py"), "--scenario", str(SCENARIOS / "single.xn"),
            "--episodes", "1", "--eval-seeds", "1-2", "--out-dir", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # weights, curve, per-controller reports, summary and comparison, as the docstring lists them
    promised = ["weights.json", "curve.csv", "summary.csv", "comparison.json"]
    promised += [f"{c}{suffix}" for c in ("fixed", "dqn") for suffix in (".json", ".report.csv")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(promised)
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["seeds"] == [1, 2]
    reports = {c: json.loads((tmp_path / f"{c}.json").read_text()) for c in ("fixed", "dqn")}
    assert comparison["never_departed"] == {
        "baseline": sum(ep["never_departed"] for ep in reports["fixed"]["episodes"]),
        "candidate": sum(ep["never_departed"] for ep in reports["dqn"]["episodes"]),
    }
    assert "never departed" in done.stdout


def test_run_comparison_rejects_repeated_eval_seeds_before_training(tmp_path):
    out = tmp_path / "out"
    argv = [sys.executable, str(REPO / "scripts" / "run_comparison.py"), "--scenario", str(SCENARIOS / "single.xn"),
            "--episodes", "1", "--eval-seeds", "5,5", "--out-dir", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "seeds: 5 is listed more than once" in done.stderr
    assert "training" not in done.stdout and not out.exists()
