"""Signal controllers and the safety interlock.

Controllers only ever *request* which axis to serve; the interlock turns the
request stream into legal signal assignments, inserting the mandatory yellow
between serving changes and refusing to cut a green short of its minimum.
"""

from __future__ import annotations

from typing import NamedTuple

from .netmodel import DT, GREEN, RED, YELLOW, FixedTimePlan, Junction

#: The three requests a controller may issue, in agent-action order.
REQUESTS = ("serve_a", "serve_b", "all_red")


#: Each phase's (axis A, axis B) colors and its one-hot
#: (serving A, serving B, transition or all-red).
PHASES = {
    "serve_a": ((GREEN, RED), (1.0, 0.0, 0.0)),
    "serve_b": ((RED, GREEN), (0.0, 1.0, 0.0)),
    "all_red": ((RED, RED), (0.0, 0.0, 1.0)),
    "yellow_a": ((YELLOW, RED), (0.0, 0.0, 1.0)),
    "yellow_b": ((RED, YELLOW), (0.0, 0.0, 1.0)),
}


class SignalAssignment(NamedTuple):
    """Per-junction signal state owned by the driving loop; immutable, and cheap to make once a step.

    phase is one of ``PHASES``; time_in_phase counts the seconds the phase
    has been displayed so far.  During a yellow, ``pending`` is the committed
    target; later requests only take effect once the transition has completed.
    """

    phase: str = "serve_a"
    time_in_phase: float = 0.0
    pending: str = "serve_a"

    def colors(self) -> tuple[str, str]:
        return PHASES[self.phase][0]

    def phase_onehot(self) -> tuple[float, float, float]:
        return PHASES[self.phase][1]


def apply_interlock(request: str, state: SignalAssignment, junction: Junction) -> SignalAssignment:
    """Advance the signal one second toward the requested axis, legally.

    Serving changes pass through a yellow of exactly the junction's
    yellow-duration, and a green may not be abandoned before min-green.
    Requests that would be illegal right now are deferred, never emitted.
    """
    if request not in REQUESTS:
        raise ValueError(f"unknown request {request!r}")

    if state.phase in ("yellow_a", "yellow_b"):
        if state.time_in_phase < junction.yellow:  # both whole steps, so exact
            return SignalAssignment(state.phase, state.time_in_phase + DT, state.pending)
        # yellow fully displayed: losing axis drops to red, grant the pending target
        return SignalAssignment(phase=state.pending, time_in_phase=DT, pending=state.pending)

    if state.phase == "all_red":
        if request == "all_red":
            return SignalAssignment(state.phase, state.time_in_phase + DT, state.pending)
        return SignalAssignment(phase=request, time_in_phase=DT, pending=request)

    # currently serving one axis: keep it, or defer a switch before min-green
    if request == state.phase or state.time_in_phase < junction.min_green:
        return SignalAssignment(state.phase, state.time_in_phase + DT, state.pending)
    yellow_phase = "yellow_a" if state.phase == "serve_a" else "yellow_b"
    return SignalAssignment(phase=yellow_phase, time_in_phase=DT, pending=request)


class FixedTimeController:
    """Rule-based baseline: requests follow a predetermined cycle per junction."""

    def __init__(self, plans: dict[str, FixedTimePlan]):
        # per junction: the cycle, and the start and end of axis B's window in it
        self.windows = {jid: (p.cycle, p.green_a, p.green_a + p.yellow + p.green_b) for jid, p in plans.items()}
        self.requests: dict[str, str] = {}

    def decide(self, clock: float, lane_stats, states) -> dict[str, str]:
        """Requests per junction; the returned dict is reused between calls."""
        requests = self.requests
        for jid, (cycle, serve_b_from, serve_b_until) in self.windows.items():
            requests[jid] = "serve_b" if serve_b_from <= clock % cycle < serve_b_until else "serve_a"
        return requests
