"""Road-network, scenario and hyperparameter data model: records, validation, JSON reading and writing.

A scenario file (``*.xn``) is a single JSON document; the schema is described
in ``docs/scenario-format.md``.  The records are the schema: the reader and
writer walk their fields, so each key is named once.  ``read_record`` and
``write_record`` serve any such record, evaluation reports and weights included.
Everything here is immutable after loading and safe to share read-only
between any number of simulations.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

DT = 1.0  # s, simulation step; every scenario duration is a whole number of steps
GREEN, YELLOW, RED = "green", "yellow", "red"
#: Speed below which a vehicle counts as halted (SUMO convention), m/s.
HALT_SPEED = 0.1


class ParseError(ValueError):
    """Scenario document is not well-formed (bad JSON, missing, unknown or mistyped keys)."""


class ValidationError(ValueError):
    """Scenario parsed but violates one or more model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Edge:
    """Directed single-lane road segment."""

    id: str
    from_junction: str = field(metadata={"key": "from"})
    to_junction: str = field(metadata={"key": "to"})
    length: float  # m
    speed_limit: float  # m/s

    def capacity(self, vehicle_length: float, min_gap: float) -> int:
        """Vehicles that fit nose to tail, each claiming length + min gap."""
        return max(1, int(self.length // (vehicle_length + min_gap)))


@dataclass(frozen=True)
class FixedTimePlan:
    """Fixed signal cycle: green A, yellow, green B, yellow (s)."""

    green_a: float
    yellow: float
    green_b: float


@dataclass(frozen=True)
class Junction:
    """Node of the road graph.

    A signalized junction has exactly two conflicting axes of incoming edges,
    named A and B; at most one axis may be non-red at any time.
    """

    id: str
    signalized: bool = False
    axis_a: tuple[str, ...] = ()
    axis_b: tuple[str, ...] = ()
    yellow: float = 3.0  # s, enforced transition duration
    min_green: float = 5.0  # s, shortest green a controller may request away
    fixed_plan: FixedTimePlan | None = None

    @property
    def incoming_signal_edges(self) -> tuple[str, ...]:
        return self.axis_a + self.axis_b


@dataclass(frozen=True)
class VehicleParams:
    """Shared kinematics for every vehicle in a scenario."""

    accel: float = field(metadata={"key": "a"})  # m/s^2
    decel: float = field(metadata={"key": "b"})  # comfortable braking, m/s^2
    emergency_decel: float = field(metadata={"key": "b_emergency"})  # physical limit, m/s^2
    length: float  # m
    min_gap: float  # m; insertion waits for the last rear to be length + min_gap in, and sets lane capacity
    tau: float  # driver reaction time, s


@dataclass(frozen=True)
class Route:
    edges: tuple[str, ...]
    rate: float  # vehicles/s, Poisson arrival rate


@dataclass(frozen=True)
class Network:
    junctions: tuple[Junction, ...]
    edges: tuple[Edge, ...]
    _edge_index: dict[str, Edge] = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "_edge_index", {e.id: e for e in self.edges})

    def edge(self, eid: str) -> Edge:
        return self._edge_index[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_index

    def signalized_junctions(self) -> tuple[Junction, ...]:
        return tuple(j for j in self.junctions if j.signalized)


@dataclass(frozen=True)
class Hyperparams:
    """The DQN's training hyperparameters, read as a record; ``__post_init__`` checks only their ranges."""

    gamma: float = 0.95
    buffer_capacity: int = 10_000
    batch_size: int = 32
    lr: float = 1e-3
    eps_start: float = 1.0
    eps_final: float = 0.05
    eps_fraction: float = 0.7
    target_sync: int = 500
    warmup: int = 500
    decision_interval: float = 5.0
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        fractions = ("gamma", "eps_start", "eps_final", "eps_fraction")
        rules = [
            *((key, 0.0 <= getattr(self, key) <= 1.0, "in [0, 1]") for key in fractions),
            ("lr", self.lr > 0.0, "above 0"),
            *((key, getattr(self, key) >= 1, "at least 1") for key in ("buffer_capacity", "batch_size", "target_sync")),
            ("warmup", self.warmup >= 0, "at least 0"),
            *((key, getattr(self, key) <= self.buffer_capacity, f"at most 'buffer_capacity' ({self.buffer_capacity})")
              for key in ("batch_size", "warmup")),  # the buffer never holds more, so no update would run
            ("hidden", all(width >= 1 for width in self.hidden), "widths of at least 1"),
            ("decision_interval", is_whole_steps(self.decision_interval), f"a positive multiple of {DT} s"),
        ]
        for key, ok, rule in rules:
            if not ok:
                raise ValueError(f"hyperparameters: {key!r} must be {rule}, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class Scenario:
    network: Network
    routes: tuple[Route, ...]
    duration: float  # s
    vehicle: VehicleParams
    seed: int
    train: dict = field(default_factory=dict)  # the hyperparameters it sets, as read; the rest keep their defaults

    @functools.cached_property
    def hyperparams(self) -> Hyperparams:
        """The ``train`` block read over the defaults: the one source of a run's hyperparameters."""
        return read_record(Hyperparams, self.train, "hyperparameters", ValueError)

    def content_id(self) -> str:
        """Stable identity used to pair evaluation reports."""
        return hashlib.sha256(serialize_scenario(self).encode()).hexdigest()[:16]


def is_whole_steps(seconds: float) -> bool:
    """True for a positive whole number of simulation steps."""
    return seconds > 0 and (seconds / DT).is_integer()


def validate(network: Network) -> list[str]:
    """Check all network invariants; returns one description per violation."""
    violations: list[str] = []

    seen_j: set[str] = set()
    for j in network.junctions:
        if j.id in seen_j:
            violations.append(f"junction {j.id}: duplicate id")
        seen_j.add(j.id)

    # each junction's fastest incoming limit: a step sees one edge ahead, so no edge may be crossed in one step
    feeder_limit: dict[str, float] = {}
    for e in network.edges:
        feeder_limit[e.to_junction] = max(e.speed_limit, feeder_limit.get(e.to_junction, 0.0))
    seen_e: set[str] = set()
    for e in network.edges:
        if e.id in seen_e:
            violations.append(f"edge {e.id}: duplicate id")
        seen_e.add(e.id)
        if e.from_junction not in seen_j:
            violations.append(f"edge {e.id}: unknown from-junction {e.from_junction!r}")
        if e.to_junction not in seen_j:
            violations.append(f"edge {e.id}: unknown to-junction {e.to_junction!r}")
        if not e.length >= 10.0:
            violations.append(f"edge {e.id}: length ≥ 10 m required, got {e.length}")
        elif not e.length > DT * feeder_limit.get(e.from_junction, 0.0) + 1e-3:  # a 1 mm margin over simcore's 1e-9 m
            fastest = feeder_limit[e.from_junction]
            violations.append(f"edge {e.id}: {e.length} m is crossed in one {DT} s step at {fastest} m/s")
        if not (0.0 < e.speed_limit <= 50.0):
            violations.append(f"edge {e.id}: speed limit must be in (0, 50] m/s, got {e.speed_limit}")

    for j in network.junctions:
        if not j.signalized:
            continue
        if not j.axis_a:
            violations.append(f"junction {j.id}: axis A has no incoming edges")
        if not j.axis_b:
            violations.append(f"junction {j.id}: axis B has no incoming edges")
        overlap = set(j.axis_a) & set(j.axis_b)
        if overlap:
            violations.append(f"junction {j.id}: axes share edges {sorted(overlap)}")
        for eid in j.incoming_signal_edges:
            if not network.has_edge(eid):
                violations.append(f"junction {j.id}: axis references unknown edge {eid!r}")
            elif network.edge(eid).to_junction != j.id:
                violations.append(f"junction {j.id}: edge {eid} is not incoming to it")
        if not is_whole_steps(j.yellow):
            violations.append(f"junction {j.id}: yellow-duration must be a positive multiple of {DT} s, got {j.yellow}")
        if not is_whole_steps(j.min_green):
            violations.append(f"junction {j.id}: min-green must be a positive multiple of {DT} s, got {j.min_green}")
        plan = j.fixed_plan
        if plan is not None and not all(map(is_whole_steps, (plan.green_a, plan.yellow, plan.green_b))):
            violations.append(f"junction {j.id}: {plan} must be in positive multiples of {DT} s")
        if plan is not None and plan.yellow != j.yellow:
            violations.append(f"junction {j.id}: fixed plan yellow {plan.yellow} is not the junction's {j.yellow}")

    return violations


def _validate_scenario(sc: Scenario) -> list[str]:
    violations = validate(sc.network)

    for i, r in enumerate(sc.routes):
        if not r.edges:
            violations.append(f"route {i}: empty edge sequence")
            continue
        for eid in r.edges:
            if not sc.network.has_edge(eid):
                violations.append(f"route {i}: unknown edge {eid!r}")
        known = [eid for eid in r.edges if sc.network.has_edge(eid)]
        for prev, nxt in zip(known, known[1:]):
            if sc.network.edge(prev).to_junction != sc.network.edge(nxt).from_junction:
                violations.append(f"route {i}: edges {prev} -> {nxt} are not connected")
        if r.rate < 0:
            violations.append(f"route {i}: arrival rate must be ≥ 0, got {r.rate}")

    violations.extend(_route_connectivity(sc))

    if not is_whole_steps(sc.duration):
        violations.append(f"scenario: duration must be a positive multiple of {DT} s, got {sc.duration}")
    p = sc.vehicle
    if not p.accel > 0:
        violations.append(f"vehicle: accel a must be > 0, got {p.accel}")
    if not p.decel > 0:
        violations.append(f"vehicle: decel b must be > 0, got {p.decel}")
    if not p.emergency_decel > p.decel:
        violations.append(
            f"vehicle: emergency decel must exceed comfortable decel, got {p.emergency_decel} ≤ {p.decel}"
        )
    if not p.length > 0:
        violations.append(f"vehicle: length must be > 0, got {p.length}")
    if p.min_gap < 0:
        violations.append(f"vehicle: min gap must be ≥ 0, got {p.min_gap}")
    if not p.tau > 0:
        violations.append(f"vehicle: reaction time tau must be > 0, got {p.tau}")
    return violations


def _route_connectivity(sc: Scenario) -> list[str]:
    """The subgraph of edges used by any route must form one weak component."""
    used = [eid for r in sc.routes for eid in r.edges if sc.network.has_edge(eid)]
    if not used:
        return []
    adjacency: dict[str, set[str]] = {}
    for eid in used:
        e = sc.network.edge(eid)
        adjacency.setdefault(e.from_junction, set()).add(e.to_junction)
        adjacency.setdefault(e.to_junction, set()).add(e.from_junction)
    start = sc.network.edge(used[0]).from_junction
    seen = {start}
    stack = [start]
    while stack:
        for other in adjacency.get(stack.pop(), ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    if seen != set(adjacency):
        stranded = sorted(set(adjacency) - seen)
        return [f"network: route edges do not form a connected graph (unreachable: {stranded})"]
    return []


# --- JSON documents ----------------------------------------------------------
#
# A document mirrors its record: one JSON key per init field, named by the
# field or by its ``metadata["key"]``; fields with a default may be left out.


#: The JSON value types that fit each scalar annotation; bools are not numbers.
_VALUE_TYPES = {
    int: ("an integer", {int}),
    float: ("a number", {int, float}),
    bool: ("true or false", {bool}),
    str: ("a string", {str}),
    dict: ("an object", {dict}),
}


@functools.cache
def _record_fields(cls) -> tuple[tuple[str, str, object, bool], ...]:
    """(field name, JSON key, resolved annotation, required) for each init field of a record class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("key", f.name), hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.init
    )


@functools.cache
def _record_reader(cls, error: type[ValueError]):
    """A function building a ``cls`` from its document: (doc, where, prefix) -> record.

    ``where`` names the record in errors and ``prefix`` starts the paths of its children.
    """
    spec = [(name, key, _field_reader(hint, error)) for name, key, hint, _ in _record_fields(cls)]
    required = [key for _, key, _, needed in _record_fields(cls) if needed]
    known = {key for _, key, _ in spec}

    def read(doc, where: str, prefix: str):
        if not isinstance(doc, dict):
            raise error(f"{where}: expected an object, got {type(doc).__name__}")
        for key in required:
            if key not in doc:
                raise error(f"{where}: missing key {key!r}")
        unknown = sorted(doc.keys() - known)
        if unknown:
            raise error(f"{where}: unknown key {unknown[0]!r}")
        return cls(**{name: read_field(doc[key], where, key, prefix) for name, key, read_field in spec if key in doc})

    return read


@functools.cache
def _field_reader(tp, error: type[ValueError]):
    """A function reading one field's JSON value as ``tp``: (value, where, key, prefix) -> value.

    ``where`` and ``prefix`` are those of the record holding field ``key``.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        read_some = _field_reader(args[0], error)
        return lambda value, *at: None if value is None else read_some(value, *at)
    if origin in (tuple, list):  # tuple[X, ...] or list[X]
        read_item = _field_reader(args[0], error)

        def read_items(value, where, key, prefix):
            if type(value) is not list:
                raise error(f"{where}: {key!r} must be a list, got {value!r}")
            try:  # each item's key is formatted only to name a fault: thousands of weights would pay for it
                return origin([read_item(item, where, key, prefix) for item in value])
            except error as exc:
                fault = exc
            for i, item in enumerate(value):  # read again, naming the item at fault
                read_item(item, where, f"{key}[{i}]", prefix)
            raise fault

        return read_items
    if origin is dict:  # dict[str, X]: each entry is read as the child ``key.k``
        read_entry = _field_reader(args[1], error)

        def read_entries(value, where, key, prefix):
            if type(value) is not dict:
                raise error(f"{where}: {key!r} must be an object, got {value!r}")
            return {k: read_entry(v, where, f"{key}.{k}", prefix) for k, v in value.items()}

        return read_entries
    if is_dataclass(tp):
        read = _record_reader(tp, error)
        return lambda doc, where, key, prefix: read(doc, prefix + key, prefix + key + ".")
    expected, allowed = _VALUE_TYPES[tp]

    def read_value(value, where, key, prefix):
        if type(value) not in allowed:
            raise error(f"{where}: {key!r} must be {expected}, got {value!r}")
        if tp is not float:
            return value
        # rejects NaN (it fails every comparison) and integers too large for a float
        if not abs(value) <= sys.float_info.max:
            raise error(f"{where}: {key!r} must be finite, got {value!r}")
        return float(value)

    return read_value


def read_record(cls, doc, where: str, error: type[ValueError], prefix: str = ""):
    """Build a ``cls`` from its JSON document, raising ``error`` naming the path and key at fault.

    ``where`` names the document; its children are named by their paths from it, after ``prefix``.
    """
    return _record_reader(cls, error)(doc, where, prefix)


def write_record(value):
    """The JSON form of a record, a tuple, a dict, or a plain value; ``None`` fields are left out."""
    if isinstance(value, tuple):
        return [write_record(v) for v in value]
    if isinstance(value, dict):
        return {k: write_record(v) for k, v in value.items()}
    if is_dataclass(value):
        pairs = ((key, getattr(value, name)) for name, key, _, _ in _record_fields(type(value)))
        return {key: write_record(v) for key, v in pairs if v is not None}
    return value


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document, then read its ``train`` block, so a scenario that loads can be trained.

    Raises ParseError for malformed documents, naming the path and key at
    fault, ValidationError (with the full list of violations) when
    invariants are broken, and then ValueError naming the hyperparameter at
    fault in the ``train`` block.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    scenario = read_record(Scenario, doc, "scenario", ParseError)
    violations = _validate_scenario(scenario)
    if violations:
        raise ValidationError(violations)
    scenario.hyperparams  # noqa: B018 - read once here, and cached for every later use
    return scenario


def serialize_scenario(sc: Scenario) -> str:
    """Canonical JSON form; load_scenario(serialize_scenario(sc)) == sc."""
    return json.dumps(write_record(sc), sort_keys=True, indent=2)
