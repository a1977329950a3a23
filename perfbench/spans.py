"""In-memory span recorder that wraps greenlight's public functions.

Nothing inside ``src/`` is instrumented.  Each traced function is replaced by
a wrapper at every place it is bound: in its defining module and in every
``greenlight`` module that imported it by name (``harness`` imports
``apply_interlock`` and ``load_scenario`` that way), or on its class for a
method.  A span records its name, start, end, parent span and the episode it
belongs to; episodes are numbered by ``Simulation`` construction, one per
training episode or per (seed, controller) evaluation pair.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (span name, defining module, attribute path) for every traced function.
TRACED = (
    ("harness.train", "greenlight.harness", "train"),
    ("harness.evaluate", "greenlight.harness", "evaluate"),
    ("harness.load_weights", "greenlight.harness", "load_weights"),
    ("harness.junction_view", "greenlight.harness", "junction_view"),
    ("netmodel.load_scenario", "greenlight.netmodel", "load_scenario"),
    ("simcore.Simulation.init", "greenlight.simcore", "Simulation.__init__"),
    ("simcore.step", "greenlight.simcore", "Simulation.step"),
    ("controllers.apply_interlock", "greenlight.controllers", "apply_interlock"),
    ("controllers.FixedTimeController.decide", "greenlight.controllers", "FixedTimeController.decide"),
    ("dqn.GreedyPolicy.decide", "greenlight.dqn", "GreedyPolicy.decide"),
    ("dqn.featurize", "greenlight.dqn", "featurize"),
    ("dqn.select_action", "greenlight.dqn", "select_action"),
    ("dqn.ReplayBuffer.push", "greenlight.dqn", "ReplayBuffer.push"),
    ("dqn.ReplayBuffer.sample", "greenlight.dqn", "ReplayBuffer.sample"),
    ("dqn.td_targets_batch", "greenlight.dqn", "td_targets_batch"),
    ("qnet.forward", "greenlight.qnet", "forward"),
    ("qnet.forward_batch", "greenlight.qnet", "forward_batch"),
    ("qnet.backward_batch", "greenlight.qnet", "backward_batch"),
    ("qnet.Adam.step", "greenlight.qnet", "Adam.step"),
    ("qnet.serialize", "greenlight.qnet", "serialize"),
    ("qnet.deserialize", "greenlight.qnet", "deserialize"),
    ("metrics.finalize", "greenlight.metrics", "finalize"),
    ("metrics.build_report", "greenlight.metrics", "build_report"),
    ("metrics.report_to_json", "greenlight.metrics", "report_to_json"),
    ("metrics.report_csv", "greenlight.metrics", "report_csv"),
)

#: One learner update: opened where ``ReplayBuffer.sample`` starts and closed
#: where ``Adam.step`` ends, so it also covers the harness's batch stacking.
LEARNER_UPDATE = "learner.update"
_OPENS_UPDATE = "dqn.ReplayBuffer.sample"
_CLOSES_UPDATE = "qnet.Adam.step"


class Recorder:
    """Append-only span store; a stack of open spans gives each its parent."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.episode_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.episode = 0
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_idx: int) -> int:
        i = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.episode_of.append(self.episode)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[self.name_id[i]]} closed out of order")

    def arrays(self) -> dict[str, np.ndarray]:
        """A copy of the spans recorded so far."""
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "episode": np.array(self.episode_of, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }


def _wrapper(fn, rec: Recorder, name: str):
    idx = rec.intern(name)
    new_episode = name == "simcore.Simulation.init"
    opens_update = name == _OPENS_UPDATE
    closes_update = name == _CLOSES_UPDATE
    update_idx = rec.intern(LEARNER_UPDATE) if opens_update else -1

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if new_episode:
            rec.episode += 1
        if opens_update:
            rec.open(update_idx)
        i = rec.open(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
            if closes_update:
                rec.close(rec.parent[i])

    return traced


def install(rec: Recorder) -> None:
    """Wrap every TRACED function at each of its binding sites.

    Raises if a traced name no longer exists, so a rename fails loudly rather
    than leaving a layer silently untraced.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "greenlight" or n.startswith("greenlight.")]
    for name, module_name, attr in TRACED:
        owner = sys.modules[module_name]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        traced = _wrapper(original, rec, name)
        if cls_path:
            setattr(owner, fn_name, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def summarize(arrs: dict[str, np.ndarray]) -> dict[str, dict]:
    """Calls, total inclusive seconds and total self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so children never overlap.
    """
    dur = arrs["end"] - arrs["start"]
    parent = arrs["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    out = {}
    for idx, name in enumerate(arrs["names"].tolist()):
        sel = arrs["name_id"] == idx
        out[name] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
        }
    return out
