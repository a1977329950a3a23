import os
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from greenlight import netmodel, qnet

REPO = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
#: Two signalized junctions with different lane counts, so two network architectures.
MIXED_SCENARIO = REPO / "tests" / "data" / "mixed.xn"

# On CI runners a failing property prints the blob that replays it (@reproduce_failure).
# Recent hypothesis releases load a profile of that name under CI on their own; this one
# extends whatever is loaded, so older releases print the blob too and nothing else changes.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def single_text() -> str:
    return (SCENARIOS / "single.xn").read_text()


@pytest.fixture(scope="session")
def grid_text() -> str:
    return (SCENARIOS / "grid2x2.xn").read_text()


@pytest.fixture()
def single_scenario(single_text) -> netmodel.Scenario:
    return netmodel.load_scenario(single_text)


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def make_net(weights, biases) -> qnet.QNetwork:
    """A network (or gradient) holding the given per-layer weights, shape (out, in), and biases."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    net = qnet.QNetwork((weights[0].shape[1], *(w.shape[0] for w in weights)))
    for view, w in zip(net.weights, weights):
        view[...] = w
    for view, b in zip(net.biases, biases):
        view[...] = b
    return net
