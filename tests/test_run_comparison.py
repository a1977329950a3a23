"""Smoke test of the end-to-end experiment script, run as a user runs it."""

import importlib.util
import json
import re
import subprocess
import sys

import pytest

from conftest import REPO, SCENARIOS

_SPEC = importlib.util.spec_from_file_location("run_comparison", REPO / "scripts" / "run_comparison.py")
run_comparison = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_comparison)


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
    assert done.returncode == 2  # a usage error, not a traceback
    assert "seeds: 5 is listed more than once" in done.stderr and "Traceback" not in done.stderr
    assert "training" not in done.stdout and not out.exists()


@pytest.mark.parametrize("raw, seeds", [("1000-1003", [1000, 1001, 1002, 1003]), ("5-5", [5]), ("3, 1,2", [3, 1, 2])])
def test_parse_seed_range_reads_ranges_and_lists(raw, seeds):
    assert run_comparison.parse_seed_range(raw) == seeds


@pytest.mark.parametrize("raw", ["-1", "1000-", "a-b", "5-3", "1,x"])
def test_parse_seed_range_names_the_flag_and_the_value(raw):
    with pytest.raises(ValueError, match=rf"^--eval-seeds: .*, got {re.escape(repr(raw))}$"):
        run_comparison.parse_seed_range(raw)


def test_run_comparison_rejects_a_reversed_range_before_training(tmp_path):
    out = tmp_path / "out"
    argv = [sys.executable, str(REPO / "scripts" / "run_comparison.py"), "--scenario", str(SCENARIOS / "single.xn"),
            "--episodes", "1", "--eval-seeds", "5-3", "--out-dir", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "--eval-seeds: expected a range lo-hi with lo ≤ hi or comma-separated seeds, got '5-3'" in done.stderr
    assert "training" not in done.stdout and not out.exists()


def test_run_comparison_rejects_zero_episodes_before_training(tmp_path):
    out = tmp_path / "out"
    argv = [sys.executable, str(REPO / "scripts" / "run_comparison.py"), "--scenario", str(SCENARIOS / "single.xn"),
            "--episodes", "0", "--eval-seeds", "1-2", "--out-dir", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "error: episodes: expected an integer of at least 1, got 0" in done.stderr
    assert "Traceback" not in done.stderr
    assert "training" not in done.stdout and not out.exists()


def test_run_comparison_rejects_a_missing_scenario_before_training(tmp_path):
    out, missing = tmp_path / "out", tmp_path / "nowhere.xn"
    argv = [sys.executable, str(REPO / "scripts" / "run_comparison.py"), "--scenario", str(missing),
            "--episodes", "1", "--eval-seeds", "1-2", "--out-dir", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert f"No such file or directory: {str(missing)!r}" in done.stderr and "Traceback" not in done.stderr
    assert "training" not in done.stdout and not out.exists()


def test_run_comparison_rejects_a_bad_train_value_before_training(tmp_path):
    doc = json.loads((SCENARIOS / "single.xn").read_text())
    doc["train"] = {"lr": "abc"}
    scenario, out = tmp_path / "bad_lr.xn", tmp_path / "out"
    scenario.write_text(json.dumps(doc))
    argv = [sys.executable, str(REPO / "scripts" / "run_comparison.py"), "--scenario", str(scenario),
            "--episodes", "1", "--eval-seeds", "1-2", "--out-dir", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "error: hyperparameters: 'lr' must be a number, got 'abc'" in done.stderr
    assert "Traceback" not in done.stderr
    assert "training" not in done.stdout and not out.exists()
