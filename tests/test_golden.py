"""Byte-level regression pins for the fixed-time evaluation artifacts.

The fixed-time path runs no BLAS code: the simulator, the interlock and the
report statistics (``math.fsum``) are plain IEEE double arithmetic, so these
digests hold on any machine.  A change that alters them changes behaviour.
"""

import hashlib

import pytest

from conftest import SCENARIOS
from greenlight import cli

SEEDS = "1,2,3"

GOLDEN = {
    "single": {
        ".json": "835029ba49118be44e1fbadf87f34b847d2bec99d3bf6e1768900efd26a54811",
        ".report.csv": "3ee6b1273261ad0af99c89347f2bc73fe841589da9063ab76ce47a878c33ad8b",
        ".summary.csv": "6db56b064f8e8f703abee08dd9a85a28dbdb898c32e51f3035d8d4ca1a01ab8f",
    },
    "grid2x2": {
        ".json": "eecd5f5da15415cbf49a72ce6e46539b7f98ad3a0b8055366bf99e32e0924818",
        ".report.csv": "334e661e4eead61e6e0a23ef8cc4047e65971719e0b5bc36179e5bf5acfbb757",
        ".summary.csv": "a30a6df4c7f2d79411b3590d8f75fa8c77eb6bc3724ef637b4a5beaef0354e51",
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_fixed_time_eval_artifacts_are_pinned(tmp_path, scenario, capsys):
    out = tmp_path / f"{scenario}.json"
    argv = ["eval", "--scenario", str(SCENARIOS / f"{scenario}.xn"), "--controller", "fixed",
            "--seeds", SEEDS, "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {
        suffix: hashlib.sha256((tmp_path / f"{scenario}{suffix}").read_bytes()).hexdigest()
        for suffix in GOLDEN[scenario]
    }
    assert digests == GOLDEN[scenario]
