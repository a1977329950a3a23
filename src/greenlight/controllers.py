"""Signal controllers and the safety interlock.

Controllers only ever *request* which axis to serve; the interlock turns the
request stream into legal signal assignments, inserting the mandatory yellow
between serving changes and refusing to cut a green short of its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .netmodel import DT, GREEN, RED, YELLOW, FixedTimePlan, Junction

#: The three requests a controller may issue, in agent-action order.
REQUESTS = ("serve_a", "serve_b", "all_red")


@dataclass(frozen=True)
class SignalAssignment:
    """Per-junction signal state owned by the driving loop.

    phase is one of serve_a / serve_b / all_red / yellow_a / yellow_b;
    time_in_phase counts the seconds the phase has been displayed so far.
    During a yellow, ``pending`` is the committed target; later requests only
    take effect once the transition has completed.
    """

    phase: str = "serve_a"
    time_in_phase: float = 0.0
    yellow_left: float = 0.0
    pending: str = "serve_a"

    def colors(self) -> tuple[str, str]:
        return {
            "serve_a": (GREEN, RED),
            "serve_b": (RED, GREEN),
            "all_red": (RED, RED),
            "yellow_a": (YELLOW, RED),
            "yellow_b": (RED, YELLOW),
        }[self.phase]

    def phase_onehot(self) -> tuple[float, float, float]:
        """(serving A, serving B, transition or all-red)."""
        if self.phase == "serve_a":
            return (1.0, 0.0, 0.0)
        if self.phase == "serve_b":
            return (0.0, 1.0, 0.0)
        return (0.0, 0.0, 1.0)


def apply_interlock(request: str, state: SignalAssignment, junction: Junction) -> SignalAssignment:
    """Advance the signal one second toward the requested axis, legally.

    Serving changes pass through a yellow of exactly the junction's
    yellow-duration, and a green may not be abandoned before min-green.
    Requests that would be illegal right now are deferred, never emitted.
    """
    if request not in REQUESTS:
        raise ValueError(f"unknown request {request!r}")

    if state.phase in ("yellow_a", "yellow_b"):
        if state.yellow_left > 0:
            return replace(
                state,
                time_in_phase=state.time_in_phase + DT,
                yellow_left=state.yellow_left - DT,
            )
        # yellow fully displayed: losing axis drops to red, grant the pending target
        return SignalAssignment(phase=state.pending, time_in_phase=DT, pending=state.pending)

    if state.phase == "all_red":
        if request == "all_red":
            return replace(state, time_in_phase=state.time_in_phase + DT)
        return SignalAssignment(phase=request, time_in_phase=DT, pending=request)

    # currently serving one axis
    if request == state.phase:
        return replace(state, time_in_phase=state.time_in_phase + DT)
    if state.time_in_phase < junction.min_green:
        return replace(state, time_in_phase=state.time_in_phase + DT)  # deferred
    yellow_phase = "yellow_a" if state.phase == "serve_a" else "yellow_b"
    return SignalAssignment(
        phase=yellow_phase, time_in_phase=DT, yellow_left=junction.yellow - DT, pending=request
    )


class FixedTimeController:
    """Rule-based baseline: requests follow a predetermined cycle per junction."""

    def __init__(self, plans: dict[str, FixedTimePlan]):
        self.plans = plans

    def decide(self, clock: float, lane_stats, states) -> dict[str, str]:
        requests = {}
        for jid, plan in self.plans.items():
            c = clock % plan.cycle
            serve_b_from = plan.green_a
            serve_b_until = plan.green_a + plan.yellow + plan.green_b
            requests[jid] = "serve_b" if serve_b_from <= c < serve_b_until else "serve_a"
        return requests
