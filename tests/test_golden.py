"""Byte-level regression pins for the evaluation and training artifacts.

The fixed-time path runs no BLAS code: the simulator, the interlock and the
report statistics (``math.fsum``) are plain IEEE double arithmetic, so these
digests hold on any machine.  The training digests also depend on the matrix
products of the learner, so they hold for one BLAS build and CPU kernel
(recorded with OpenBLAS on x86-64, one thread); on another kernel they may
differ in the last bits.  A change that alters them on the recording
machine changes behaviour.
"""

import hashlib
import json

import pytest

from conftest import MIXED_SCENARIO, REPO, SCENARIOS, _openblas_core
from greenlight import cli, metrics, netmodel

SEEDS = "1,2,3"

GOLDEN = {
    "single": (SCENARIOS / "single.xn", {
        ".json": "290e93aca63c8a58619766c90ff1f9845e90c2795c24c3c5c832fe4e6a8d4cee",
        ".report.csv": "3ee6b1273261ad0af99c89347f2bc73fe841589da9063ab76ce47a878c33ad8b",
        ".summary.csv": "6db56b064f8e8f703abee08dd9a85a28dbdb898c32e51f3035d8d4ca1a01ab8f",
    }),
    "grid2x2": (SCENARIOS / "grid2x2.xn", {
        ".json": "fa1ade5706c302b1bc9a6fbcbdfa7528d4ca162a94f0722ff9d05dd0e2084602",
        ".report.csv": "334e661e4eead61e6e0a23ef8cc4047e65971719e0b5bc36179e5bf5acfbb757",
        ".summary.csv": "a30a6df4c7f2d79411b3590d8f75fa8c77eb6bc3724ef637b4a5beaef0354e51",
    }),
    # single.xn under a hand-set 45/3/20 s plan in place of its 30/3/30 s one, so these pin that the fixed-time
    # controller runs the scenario's fixed_plan: one that ignored it would score 23.33 ES/episode here, not 12.0
    "single-plan-45-3-20": (REPO / "tests" / "data" / "single-plan-45-3-20.xn", {
        ".json": "0793b2f510f3edbcf551da60db3ac87a3d169fe9c591428c992a248344aa7f7c",
        ".report.csv": "e816d4129f6a8c8007c02c57fd5de4c2ac75ff21dd2e89dc2fd78aa4f20f6c35",
        ".summary.csv": "a89545a073de29b6bfceb2cb7d34fbe9e48456f2cc431351436b13182d967cf6",
    }),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_fixed_time_eval_artifacts_are_pinned(tmp_path, scenario, capsys):
    path, golden = GOLDEN[scenario]
    out = tmp_path / f"{scenario}.json"
    argv = ["eval", "--scenario", str(path), "--controller", "fixed", "--seeds", SEEDS, "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {suffix: hashlib.sha256((tmp_path / f"{scenario}{suffix}").read_bytes()).hexdigest() for suffix in golden}
    assert digests == golden


#: ``eval --controller dqn`` with the 200-episode seed-7 ``single.xn`` weights
#: from the benchmark inputs; seeds 1003 and 1014 leave 1 and 35 vehicles
#: never departed, so these digests pin the flagged rows.
DQN_WEIGHTS = REPO / "perfbench" / "inputs" / "single-seed7-ep200.weights.json"
DQN_GOLDEN = {
    ".json": "f8ca6f129211d73559694f070a5849baf7633ff166f4f7a1f94b1c3859d13326",
    ".report.csv": "4fe303bb575355f707657946b71af31b51712eb55eb3078ed0926aece01bbec8",
    ".summary.csv": "7c2b55f2aa72abae68b07e6f7c38fb621c07db1f4af965c1273707e6b3550eb7",
}


def test_dqn_eval_artifacts_with_never_departed_rows_are_pinned(tmp_path, capsys):
    """The greedy forward pass runs matrix products, yet unlike the training
    digests these do not depend on the CPU kernel: recorded with OpenBLAS on
    x86-64 (SkylakeX, one thread), CI checks them under the Haswell and
    Sandybridge kernels too, with the bit-for-bit forward tests of test_qnet.
    """
    out = tmp_path / "dqn.json"
    argv = ["eval", "--scenario", str(SCENARIOS / "single.xn"), "--controller", "dqn",
            "--weights", str(DQN_WEIGHTS), "--seeds", "1003,1014", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {suffix: hashlib.sha256((tmp_path / f"dqn{suffix}").read_bytes()).hexdigest() for suffix in DQN_GOLDEN}
    assert digests == DQN_GOLDEN
    text = out.read_text()
    assert [ep["never_departed"] for ep in json.loads(text)["episodes"]] == [1, 35]
    # the reader rebuilds the report from its rows, never-departed ones included, and writes the same bytes
    assert metrics.report_to_json(metrics.report_from_json(text)) == text


#: ``greenlight train --episodes 4 --seed 7``: four episodes fill the replay
#: warmup, so the digests cover learner updates, not only the initial weights.
TRAIN_GOLDEN_KERNEL = "SkylakeX"  # the OpenBLAS kernel these digests were recorded under
TRAIN_GOLDEN = {
    "single": (
        SCENARIOS / "single.xn",
        "76e06758b5ae288ba4de122a34c0f18a7dd80a1499d5c84d8ef103a519727a1f",
        "1ab2f254c81f58a3ab51ec19186aa31e886780caeb1ec0d4b7fe0870c18cae50",
    ),
    "grid2x2": (
        SCENARIOS / "grid2x2.xn",
        "89b4749e2f8356f8d31e7633a43755ec44daa2b932ade02638cb462b03019ee6",
        "0e3540915092e22bc173cb9d47f9c820b4a97436a574bf83bf512a2601edd9af",
    ),
    "mixed": (  # junctions with 3 and 2 incoming lanes: the 2-lane junction's state is padded to 3 lane slots
        MIXED_SCENARIO,
        "efddaeb7214a14be8cfc40ec91622c7a5ef8b299a1cc43f284ac9bb7065b4613",
        "5a5ef95c684ba38b0511d0e5b3f0e75b4bbf253494ecfc3e800e8feb247da0be",
    ),
}


@pytest.mark.parametrize("scenario", sorted(TRAIN_GOLDEN))
def test_training_artifacts_are_pinned(tmp_path, scenario, capsys):
    path, weights_digest, curve_digest = TRAIN_GOLDEN[scenario]
    out = tmp_path / "w.json"
    argv = ["train", "--scenario", str(path), "--episodes", "4", "--seed", "7", "--weights-out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, tmp_path / "w.curve.csv"))
    assert digests == (weights_digest, curve_digest), (
        f"training digests were recorded under the OpenBLAS {TRAIN_GOLDEN_KERNEL} kernel and this run used "
        f"{_openblas_core()}; on another kernel the learner's matrix products may round differently "
        "(ROADMAP item 6)")


#: sha256 of each scenario's canonical text (``serialize_scenario``); its first
#: 16 hex digits are the scenario's content id, which every report carries.
SCENARIO_GOLDEN = {
    "scenarios/single.xn": "e51b6cb0547a8adf8f8682055e1ee2dfeea3aa0fb6825193d3af535d4211cb2d",
    "scenarios/grid2x2.xn": "919123f9d029677c70e39b27209fa904b7e2de357e4453386e14a2b92ada1c54",
    "tests/data/mixed.xn": "eaa7218c7e6f4c83cd3c7f89078ffaa00a01fcb23a7cdefa6bc908778280b244",
    "tests/data/single-plan-45-3-20.xn": "1304e6a0c6b60583f85352a6779725513a9fe87ea9642e097d361e593f9da044",
    "perfbench/inputs/dense6x6.xn": "e740f7ecd49777f4a91d00b2a334ff332a174bed7531b1f737452ca9f08e5464",
}


@pytest.mark.parametrize("path", sorted(SCENARIO_GOLDEN))
def test_canonical_scenario_text_is_pinned(path):
    scenario = netmodel.load_scenario((REPO / path).read_text())
    digest = hashlib.sha256(netmodel.serialize_scenario(scenario).encode()).hexdigest()
    assert digest == SCENARIO_GOLDEN[path]
    assert scenario.content_id() == digest[:16]
