"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The first two criteria
share a single 200-episode training run (seed 7) on scenarios/single.xn,
evaluated on 20 held-out seeds, and must finish inside a five-minute budget.
"""

import json
import time

import numpy as np
import pytest
import scipy.stats

import oracles
import scenario_gen
from conftest import SCENARIOS, make_rng, scenario_at
from greenlight import cli, dqn, harness, metrics, qnet
from greenlight.dqn import ReplayBuffer
from greenlight.harness import EvalConfig, TrainConfig

TRAIN_SEED = 7
TRAIN_EPISODES = 200
EVAL_SEEDS = list(range(1000, 1020))  # held out: training derives its own streams from seed 7
RUNTIME_BUDGET_S = 300.0


def _ok(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="session")
def single():
    return scenario_at(SCENARIOS / "single.xn")


@pytest.fixture(scope="session")
def training_run(single):
    start = time.perf_counter()
    result = harness.train(
        TrainConfig(
            scenario=single,
            episodes=TRAIN_EPISODES,
            seed=TRAIN_SEED,
        )
    )
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def eval_reports(training_run, single):
    result, train_elapsed = training_run
    start = time.perf_counter()
    fixed = harness.evaluate(
        EvalConfig(scenario=single, controller="fixed", seeds=EVAL_SEEDS)
    )
    trained = harness.evaluate(
        EvalConfig(
            scenario=single,
            controller="dqn",
            seeds=EVAL_SEEDS,
            weights=result.weights_doc,
        )
    )
    return fixed, trained, train_elapsed + (time.perf_counter() - start)


def test_criterion_1_emergency_stop_reduction(eval_reports):
    """Trained DQN cuts mean per-episode emergency stops by at least 20%.

    The bar is directional and deliberately conservative: the absolute effect
    size depends strongly on network scale and demand asymmetry.
    """
    fixed, trained, elapsed = eval_reports
    fixed_mean = fixed.es_per_episode.mean
    dqn_mean = trained.es_per_episode.mean
    assert fixed_mean > 0, "baseline produced no emergency stops; scenario demand too low"
    change = harness.compare(fixed, trained)["es_per_episode"]["change_pct"]
    assert dqn_mean <= 0.8 * fixed_mean, (
        f"DQN mean {dqn_mean:.2f} not 20% below fixed-time mean {fixed_mean:.2f}"
    )
    assert elapsed <= RUNTIME_BUDGET_S, f"train+eval took {elapsed:.0f}s, budget {RUNTIME_BUDGET_S:.0f}s"
    _ok(
        "1 emergency-stop reduction",
        f"fixed {fixed_mean:.2f} -> dqn {dqn_mean:.2f} per episode, {change:+.1f}%, {elapsed:.0f}s",
    )


def test_criterion_2_learning_progress(training_run):
    result, _ = training_run
    returns = [row["return"] for row in result.curve]
    first = sum(returns[:20]) / 20.0
    last = sum(returns[-20:]) / 20.0
    assert last > first, f"mean return did not improve: first20={first:.2f} last20={last:.2f}"
    _ok("2 learning progress", f"first20 {first:.1f} -> last20 {last:.1f}")


def test_criterion_3_reward_unit_suite():
    cases = [
        # (greens, reds, mean wait, literal, balanced)
        (2, 2, 0.0, 0.0, 0.0),
        (5, 0, 0.0, 1.0, -1.0),
        (3, 3, 7.0, 0.0, -1.0),  # w >= 5 branch and the negative-radicand clamp
    ]
    for greens, reds, wait, literal, balanced in cases:
        assert oracles.reward_from_counts(greens, reds, wait, "literal") == pytest.approx(literal, abs=1e-12)
        assert oracles.reward_from_counts(greens, reds, wait, "balanced") == pytest.approx(balanced, abs=1e-12)
    assert oracles.waiting_penalty(5.0) == -1.0
    _ok("3 reward unit suite", "3 tabulated cases x 2 modes, boundary and clamp included")


def test_criterion_4_gradient_check():
    rng = make_rng(1234)
    worst = 0.0

    def loss_only(net, x, target, action):
        return float((qnet.forward(net, x)[action] - target) ** 2)

    for _ in range(100):
        sizes = (int(rng.integers(2, 6)), int(rng.integers(3, 10)), int(rng.integers(2, 4)))
        net = qnet.init_network(sizes, rng)
        x = rng.normal(size=sizes[0])
        target = float(rng.normal())
        action = int(rng.integers(0, sizes[-1]))
        _, grads = oracles.backward(net, x, target, action)
        fd_w, fd_b = oracles.finite_difference_grads(net, x, target, action, 1e-5, loss_only)
        for layer in range(len(net.weights)):
            diff = np.abs(grads.weights[layer] - np.asarray(fd_w[layer]))
            scale = np.maximum(1.0, np.abs(grads.weights[layer]) + np.abs(fd_w[layer]))
            worst = max(worst, float((diff / scale).max()))
            diff_b = np.abs(grads.biases[layer] - np.asarray(fd_b[layer]))
            scale_b = np.maximum(1.0, np.abs(grads.biases[layer]) + np.abs(fd_b[layer]))
            worst = max(worst, float((diff_b / scale_b).max()))
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
    _ok("4 gradient check", f"100 random nets, max relative error {worst:.2e} < 1e-4")


def test_criterion_5_simulation_invariants():
    scenarios = 0
    for seed in range(50):
        scenario = scenario_gen.random_scenario(seed)
        _, checker = scenario_gen.run_checked(scenario, seed, steps=200)
        checker.assert_clean()
        scenarios += 1
    _ok("5 simulation invariants", f"{scenarios} random scenarios x 200 steps, zero violations")


def _one_vehicle(es: float) -> metrics.Vehicles:
    return metrics.Vehicles(id=[0], route=[0], wt=[0.0], tl=[0.0], es=[es], dd=[0.0], never_departed=[False],
                            seed=[1], episode=[0])


def test_criterion_6_statistics_oracle():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        values = list(rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 50), size=n))
        s = metrics.aggregate(values)
        mean, sd, lo, hi = oracles.naive_stats(values)
        assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert s.sd == pytest.approx(sd, rel=1e-9, abs=1e-12)
        assert s.vmin == lo and s.vmax == hi
    # the paper's emergency-stop reduction, as compare reports it between two one-vehicle reports
    fixed, trained = (metrics.build_report(controller, "paper", [1], [1], _one_vehicle(es))
                      for controller, es in (("fixed", 165.5), ("dqn", 92.4091)))
    change = harness.compare(fixed, trained)["es_per_episode"]["change_pct"]
    assert change == pytest.approx(-44.1637, abs=1e-4)
    _ok("6 statistics oracle", f"1000 aggregates vs naive oracle at 1e-9; {change:.4f}% reproduced")


def test_criterion_7_determinism(tmp_path):
    scenario = str(SCENARIOS / "single.xn")
    doc = json.loads((SCENARIOS / "single.xn").read_text())
    doc["duration"] = 150.0
    doc["train"] = {"warmup": 40}
    short = tmp_path / "short.xn"
    short.write_text(json.dumps(doc))

    weight_files = []
    for name in ("a", "b"):
        out = tmp_path / f"w_{name}.json"
        rc = cli.main(
            [
                "train", "--scenario", str(short), "--episodes", "3", "--seed", "21",
                "--weights-out", str(out),
            ]
        )
        assert rc == 0
        weight_files.append(out.read_bytes())
    assert weight_files[0] == weight_files[1], "train invocations produced different weights bytes"

    report_files = []
    for name in ("a", "b"):
        out = tmp_path / f"r_{name}.json"
        rc = cli.main(
            ["eval", "--scenario", scenario, "--controller", "fixed", "--seeds", "1,2,3", "--out", str(out)]
        )
        assert rc == 0
        report_files.append(out.read_bytes())
    assert report_files[0] == report_files[1], "eval invocations produced different report bytes"
    _ok("7 determinism", "byte-identical weights and reports across repeated invocations")


def test_criterion_8_replay_buffer():
    buf = ReplayBuffer(3, 1)
    for i in (1, 2, 3, 4):
        buf.push([np.array([float(i)])], [0], [float(i)], [np.array([float(i)])], False)
    assert list(buf.rewards[0, oracles.buffer_rows_oldest_first(buf)]) == [2.0, 3.0, 4.0]

    buf = ReplayBuffer(10, 1)
    for i in range(10):
        buf.push([np.array([float(i)])], [0], [float(i)], [np.array([float(i)])], False)
    rng = make_rng(2718)
    counts = np.zeros(10, dtype=int)
    draws = 100_000
    for _ in range(draws // 10):  # sample() requires batch <= size, so draw in batches of 10
        for reward in buf.sample(10, rng)[2][0]:  # agent 0's sampled rewards
            counts[int(reward)] += 1
    stat = float(((counts - draws / 10.0) ** 2 / (draws / 10.0)).sum())
    p = float(scipy.stats.chi2.sf(stat, df=9))
    assert p > 0.001, f"chi-square p={p:.5f} rejects uniform sampling"
    _ok("8 replay buffer", f"FIFO exact; chi-square p={p:.3f} > 0.001 over {draws} draws")


def test_criterion_9_summary_table_structure(eval_reports):
    fixed, trained, _ = eval_reports
    lines = metrics.summary_csv([fixed, trained]).strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "statistic",
        "fixed_wt", "fixed_tl", "fixed_es", "fixed_dd",
        "dqn_wt", "dqn_tl", "dqn_es", "dqn_dd",
    ]
    assert [row.split(",")[0] for row in lines[1:]] == ["mean", "sd", "min", "max"]
    assert all(len(row.split(",")) == 9 for row in lines[1:])
    for row in lines[1:]:
        for cell in row.split(",")[1:]:
            float(cell)  # every table cell is a number
    _ok("9 summary table", "mean/sd/min/max x wt/tl/es/dd x two controllers")
