import ctypes
import json
import os
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import settings

from greenlight import netmodel, qnet

REPO = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
#: Two signalized junctions with different lane counts, so the one with fewer lanes has padded lane slots.
MIXED_SCENARIO = REPO / "tests" / "data" / "mixed.xn"

# On CI runners a failing property prints the blob that replays it (@reproduce_failure).
# Recent hypothesis releases load a profile of that name under CI on their own; this one
# extends whatever is loaded, so older releases print the blob too and nothing else changes.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


#: The OpenBLAS library names of the call that reports the kernel it picked for this CPU: numpy 2.x wheels
#: prefix them with ``scipy_``, 64-bit-integer builds suffix them with ``64_``.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename64_",
                     "openblas_get_corename")


def _openblas_core() -> str:
    """The OpenBLAS kernel numpy's BLAS runs on this CPU, e.g. ``SkylakeX``, or ``unknown`` when none is found."""
    package = pathlib.Path(np.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".*libs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in _CORENAME_SYMBOLS:
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def pytest_report_header(config) -> str:
    """numpy, its BLAS and the OpenBLAS kernel: the training goldens depend on the kernel's rounding."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas_name = "unknown"
    return f"numpy {np.__version__}, BLAS {blas_name}, OpenBLAS core {_openblas_core()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Under ``-q``, which hides the header, the same line closes the log."""
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def single_text() -> str:
    return (SCENARIOS / "single.xn").read_text()


@pytest.fixture(scope="session")
def grid_text() -> str:
    return (SCENARIOS / "grid2x2.xn").read_text()


@pytest.fixture()
def single_scenario(single_text) -> netmodel.Scenario:
    return netmodel.load_scenario(single_text)


@pytest.fixture()
def no_signal_scenario(tmp_path) -> str:
    """The path of a copy of single.xn whose one junction is unsignalized, so it has nothing to control."""
    doc = json.loads((SCENARIOS / "single.xn").read_text())
    doc["network"]["junctions"][0] = {"id": "c"}
    path = tmp_path / "no_signal.xn"
    path.write_text(json.dumps(doc))
    return str(path)


def scenario_at(path) -> netmodel.Scenario:
    """The scenario in the file at ``path``, loaded as the command line loads it."""
    return netmodel.load_scenario(pathlib.Path(path).read_text(encoding="utf-8"))


def count_scenario_loads(monkeypatch) -> list:
    """Wrap ``netmodel.load_scenario`` at every ``greenlight`` binding site, as ``perfbench/spans.install`` does.

    Each call appends its text to the list returned.
    """
    loads, load = [], netmodel.load_scenario

    def counted(text):
        loads.append(text)
        return load(text)

    for name, module in list(sys.modules.items()):
        if name == "greenlight" or name.startswith("greenlight."):
            for key, value in list(vars(module).items()):
                if value is load:
                    monkeypatch.setattr(module, key, counted)
    return loads


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
