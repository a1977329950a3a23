"""Road-network and scenario data model: types, JSON loading, validation.

A scenario file (``*.xn``) is a single JSON document; the schema is described
in ``docs/scenario-format.md``.  Everything here is immutable after loading and
safe to share read-only between any number of simulations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

DT = 1.0  # s, simulation step; every scenario duration is a whole number of steps
GREEN, YELLOW, RED = "green", "yellow", "red"


class ParseError(ValueError):
    """Scenario document is not well-formed (bad JSON, missing or mistyped keys)."""


class ValidationError(ValueError):
    """Scenario parsed but violates one or more model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Edge:
    """Directed single-lane road segment."""

    id: str
    from_junction: str
    to_junction: str
    length: float  # m
    speed_limit: float  # m/s

    def capacity(self, vehicle_length: float, min_gap: float) -> int:
        """Vehicles that fit nose to tail, each claiming length + min gap."""
        return max(1, int(self.length // (vehicle_length + min_gap)))


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
    fixed_plan: tuple[float, float, float] | None = None  # (green_a, yellow, green_b)

    @property
    def incoming_signal_edges(self) -> tuple[str, ...]:
        return self.axis_a + self.axis_b


@dataclass(frozen=True)
class VehicleParams:
    """Shared kinematics for every vehicle in a scenario."""

    accel: float  # a, m/s^2
    decel: float  # comfortable braking b, m/s^2
    emergency_decel: float  # physical limit b_e, m/s^2
    length: float  # m
    min_gap: float  # m, required standing gap at insertion
    tau: float  # driver reaction time, s


@dataclass(frozen=True)
class Route:
    edges: tuple[str, ...]
    rate: float  # vehicles/s, Poisson arrival rate


@dataclass(frozen=True)
class Network:
    junctions: tuple[Junction, ...]
    edges: tuple[Edge, ...]
    _junction_index: dict[str, Junction] = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]
    _edge_index: dict[str, Edge] = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "_junction_index", {j.id: j for j in self.junctions})
        object.__setattr__(self, "_edge_index", {e.id: e for e in self.edges})

    def junction(self, jid: str) -> Junction:
        return self._junction_index[jid]

    def edge(self, eid: str) -> Edge:
        return self._edge_index[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_index

    def signalized_junctions(self) -> tuple[Junction, ...]:
        return tuple(j for j in self.junctions if j.signalized)


@dataclass(frozen=True)
class Scenario:
    network: Network
    routes: tuple[Route, ...]
    duration: float  # s
    vehicle: VehicleParams
    seed: int
    train: dict = field(default_factory=dict)  # optional hyperparameter overrides

    def content_id(self) -> str:
        """Stable identity used to pair evaluation reports."""
        return hashlib.sha256(serialize_scenario(self).encode()).hexdigest()[:16]


def conflicting_pairs(junction: Junction) -> set[tuple[str, str]]:
    """All cross-axis incoming-edge pairs of a signalized junction.

    These are the pairs the safety interlock must never show simultaneously
    green/yellow.
    """
    if not junction.signalized:
        raise ValueError(f"junction {junction.id} is not signalized")
    return {(a, b) for a in junction.axis_a for b in junction.axis_b}


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
        if j.fixed_plan is not None and not all(is_whole_steps(d) for d in j.fixed_plan):
            violations.append(f"junction {j.id}: fixed plan {j.fixed_plan} must be in positive multiples of {DT} s")
        if j.fixed_plan is not None and j.fixed_plan[1] != j.yellow:
            violations.append(f"junction {j.id}: fixed plan yellow {j.fixed_plan[1]} is not the junction's {j.yellow}")

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


# --- JSON loading ----------------------------------------------------------


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f"{where}: missing key {key!r}")
    return mapping[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _str_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where}: expected a list of edge ids")
    return tuple(value)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ParseError for malformed documents and ValidationError (with the
    full list of violations) when invariants are broken.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")

    net_doc = _require(doc, "network", "scenario")
    if not isinstance(net_doc, dict):
        raise ParseError("network: expected an object")

    junctions = []
    for jd in _require(net_doc, "junctions", "network"):
        if not isinstance(jd, dict):
            raise ParseError("network.junctions: expected objects")
        jid = _require(jd, "id", "junction")
        plan = jd.get("fixed_plan")
        if plan is not None:
            if not isinstance(plan, dict):
                raise ParseError(f"junction {jid}: fixed_plan must be an object")
            plan = (
                _number(_require(plan, "green_a", f"junction {jid} fixed_plan"), "green_a"),
                _number(_require(plan, "yellow", f"junction {jid} fixed_plan"), "yellow"),
                _number(_require(plan, "green_b", f"junction {jid} fixed_plan"), "green_b"),
            )
        junctions.append(
            Junction(
                id=str(jid),
                signalized=bool(jd.get("signalized", False)),
                axis_a=_str_list(jd.get("axis_a", []), f"junction {jid} axis_a"),
                axis_b=_str_list(jd.get("axis_b", []), f"junction {jid} axis_b"),
                yellow=_number(jd.get("yellow", 3.0), f"junction {jid} yellow"),
                min_green=_number(jd.get("min_green", 5.0), f"junction {jid} min_green"),
                fixed_plan=plan,
            )
        )

    edges = []
    for ed in _require(net_doc, "edges", "network"):
        if not isinstance(ed, dict):
            raise ParseError("network.edges: expected objects")
        eid = str(_require(ed, "id", "edge"))
        edges.append(
            Edge(
                id=eid,
                from_junction=str(_require(ed, "from", f"edge {eid}")),
                to_junction=str(_require(ed, "to", f"edge {eid}")),
                length=_number(_require(ed, "length", f"edge {eid}"), f"edge {eid} length"),
                speed_limit=_number(_require(ed, "speed_limit", f"edge {eid}"), f"edge {eid} speed_limit"),
            )
        )

    routes = []
    for i, rd in enumerate(_require(doc, "routes", "scenario")):
        if not isinstance(rd, dict):
            raise ParseError("routes: expected objects")
        routes.append(
            Route(
                edges=_str_list(_require(rd, "edges", f"route {i}"), f"route {i} edges"),
                rate=_number(_require(rd, "rate", f"route {i}"), f"route {i} rate"),
            )
        )

    vd = _require(doc, "vehicle", "scenario")
    if not isinstance(vd, dict):
        raise ParseError("vehicle: expected an object")
    vehicle = VehicleParams(
        accel=_number(_require(vd, "a", "vehicle"), "vehicle a"),
        decel=_number(_require(vd, "b", "vehicle"), "vehicle b"),
        emergency_decel=_number(_require(vd, "b_emergency", "vehicle"), "vehicle b_emergency"),
        length=_number(_require(vd, "length", "vehicle"), "vehicle length"),
        min_gap=_number(_require(vd, "min_gap", "vehicle"), "vehicle min_gap"),
        tau=_number(_require(vd, "tau", "vehicle"), "vehicle tau"),
    )

    seed = _require(doc, "seed", "scenario")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError(f"seed: expected an integer, got {seed!r}")

    train = doc.get("train", {})
    if not isinstance(train, dict):
        raise ParseError("train: expected an object")

    scenario = Scenario(
        network=Network(junctions=tuple(junctions), edges=tuple(edges)),
        routes=tuple(routes),
        duration=_number(_require(doc, "duration", "scenario"), "duration"),
        vehicle=vehicle,
        seed=seed,
        train=dict(train),
    )

    violations = _validate_scenario(scenario)
    if violations:
        raise ValidationError(violations)
    return scenario


def serialize_scenario(sc: Scenario) -> str:
    """Canonical JSON form; load_scenario(serialize_scenario(sc)) == sc."""
    doc = {
        "network": {
            "junctions": [
                {
                    "id": j.id,
                    "signalized": j.signalized,
                    "axis_a": list(j.axis_a),
                    "axis_b": list(j.axis_b),
                    "yellow": j.yellow,
                    "min_green": j.min_green,
                    **(
                        {
                            "fixed_plan": {
                                "green_a": j.fixed_plan[0],
                                "yellow": j.fixed_plan[1],
                                "green_b": j.fixed_plan[2],
                            }
                        }
                        if j.fixed_plan is not None
                        else {}
                    ),
                }
                for j in sc.network.junctions
            ],
            "edges": [
                {
                    "id": e.id,
                    "from": e.from_junction,
                    "to": e.to_junction,
                    "length": e.length,
                    "speed_limit": e.speed_limit,
                }
                for e in sc.network.edges
            ],
        },
        "routes": [{"edges": list(r.edges), "rate": r.rate} for r in sc.routes],
        "duration": sc.duration,
        "vehicle": {
            "a": sc.vehicle.accel,
            "b": sc.vehicle.decel,
            "b_emergency": sc.vehicle.emergency_decel,
            "length": sc.vehicle.length,
            "min_gap": sc.vehicle.min_gap,
            "tau": sc.vehicle.tau,
        },
        "seed": sc.seed,
        "train": sc.train,
    }
    return json.dumps(doc, sort_keys=True, indent=2)
