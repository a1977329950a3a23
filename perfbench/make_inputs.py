"""Regenerate the benchmark's committed inputs and their sha256 manifest.

    python3 perfbench/make_inputs.py

writes, byte for byte the same on every run:

- ``inputs/dense6x6.xn``: a 6x6 grid of signalized junctions with two-way
  300 m edges and one 7-edge through route per row and column direction, for
  the ``eval-dense`` workload;
- ``inputs/single-seed7-ep200.weights.json``: DQN weights trained with the
  acceptance configuration (``single.xn``, seed 7, 200 episodes), for the DQN
  half of ``eval-single``;
- ``inputs/SHA256SUMS``: the digest of each, which ``run.py`` verifies
  before every run.

Training the weights takes about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
DENSE = INPUTS / "dense6x6.xn"
WEIGHTS = INPUTS / "single-seed7-ep200.weights.json"
MANIFEST = INPUTS / "SHA256SUMS"

GRID = 6
EDGE_LENGTH = 300.0
SPEED_LIMIT = 13.9
ROUTE_RATE = 0.085  # veh/s per through route; about 450 vehicles on the network per step


def dense_grid_scenario() -> str:
    """Scenario text of the 6x6 grid; deterministic, no randomness involved.

    Junction ``g{r}{c}`` sits at row r, column c.  Each row and each column
    carries one through route per direction, entering from a boundary source
    and leaving to the opposite boundary sink across all six junctions.
    Axis A is the pair of vertical approaches, axis B the horizontal pair.
    """
    junctions: list[dict] = []
    edges: list[dict] = []
    routes: list[dict] = []
    incoming: dict[str, dict[str, list[str]]] = {}

    def add_route(prefix: str, nodes: list[str], axis: str) -> None:
        ids = []
        for k, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
            eid = f"{prefix}{k}"
            edges.append({"id": eid, "from": a, "to": b, "length": EDGE_LENGTH, "speed_limit": SPEED_LIMIT})
            if b in incoming:
                incoming[b][axis].append(eid)
            ids.append(eid)
        routes.append({"edges": ids, "rate": ROUTE_RATE})

    for r in range(GRID):
        for c in range(GRID):
            incoming[f"g{r}{c}"] = {"axis_a": [], "axis_b": []}
    for i in range(GRID):
        column = [f"g{r}{i}" for r in range(GRID)]
        row = [f"g{i}{c}" for c in range(GRID)]
        add_route(f"c{i}s", [f"top{i}", *column, f"bot{i}"], "axis_a")
        add_route(f"c{i}n", [f"bot{i}", *reversed(column), f"top{i}"], "axis_a")
        add_route(f"r{i}e", [f"left{i}", *row, f"right{i}"], "axis_b")
        add_route(f"r{i}w", [f"right{i}", *reversed(row), f"left{i}"], "axis_b")

    for jid, axes in incoming.items():
        junctions.append({"id": jid, "signalized": True, **axes})
    for i in range(GRID):
        junctions.extend({"id": f"{side}{i}"} for side in ("top", "bot", "left", "right"))

    doc = {
        "network": {"junctions": junctions, "edges": edges},
        "routes": routes,
        "duration": 1000.0,
        "vehicle": {"a": 2.6, "b": 4.5, "b_emergency": 9.0, "length": 5.0, "min_gap": 2.5, "tau": 1.0},
        "seed": 36,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def fixture_weights() -> str:
    """Weights text that ``greenlight train`` writes for the acceptance config."""
    sys.path.insert(0, str(ROOT / "src"))
    from greenlight import cli

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "weights.json"
        argv = ["train", "--scenario", str(ROOT / "scenarios" / "single.xn"), "--episodes", "200", "--seed", "7", "--weights-out", str(out)]
        if cli.main(argv) != 0:
            raise SystemExit("training the weights fixture failed")
        return out.read_text(encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    INPUTS.mkdir(exist_ok=True)
    DENSE.write_text(dense_grid_scenario(), encoding="utf-8")
    WEIGHTS.write_text(fixture_weights(), encoding="utf-8")
    MANIFEST.write_text("".join(f"{sha256(p)}  {p.name}\n" for p in (DENSE, WEIGHTS)), encoding="utf-8")
    print(MANIFEST.read_text(encoding="utf-8"), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
