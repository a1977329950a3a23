"""Signal controllers and the safety interlock.

Controllers only ever *request* which axis to serve; the interlock turns the
request stream into legal signal assignments, inserting the mandatory yellow
between serving changes and refusing to cut a green short of its minimum.
"""

from __future__ import annotations

from typing import NamedTuple

from .netmodel import GREEN, RED, YELLOW, FixedTimePlan, Junction

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
    """Per-junction signal state owned by the driving loop; immutable, and made anew only when its phase changes.

    phase is one of ``PHASES``; since is the clock of the interlock call that
    began it, so at clock t the phase has been displayed for t - since seconds.
    During a yellow, ``pending`` is the committed target; later requests only
    take effect once the transition has completed.
    """

    phase: str = "serve_a"
    since: float = 0.0
    pending: str = "serve_a"

    def colors(self) -> tuple[str, str]:
        return PHASES[self.phase][0]

    def phase_onehot(self) -> tuple[float, float, float]:
        return PHASES[self.phase][1]


def apply_interlock(request: str, state: SignalAssignment, junction: Junction, clock: float) -> SignalAssignment:
    """The signal state for the second from ``clock``, moved toward the requested axis, legally.

    Serving changes pass through a yellow of exactly the junction's
    yellow-duration, and a green may not be abandoned before min-green.
    Requests that would be illegal right now are deferred, never emitted.
    A held phase returns ``state`` itself; a new phase begins at ``clock``.
    """
    if request not in REQUESTS:
        raise ValueError(f"unknown request {request!r}")
    phase = state.phase
    if request == phase:  # all-red or a served axis, requested again
        return state
    if phase == "all_red":  # leaving all-red needs no yellow
        return SignalAssignment(request, clock, request)
    # clock and since are whole steps, so the elapsed time is exact
    if phase in ("yellow_a", "yellow_b"):
        if clock - state.since < junction.yellow:
            return state
        # yellow fully displayed: losing axis drops to red, grant the pending target
        return SignalAssignment(state.pending, clock, state.pending)
    # serving the other axis: defer a switch before min-green
    if clock - state.since < junction.min_green:
        return state
    return SignalAssignment("yellow_a" if phase == "serve_a" else "yellow_b", clock, request)


class FixedTimeController:
    """Rule-based baseline: requests follow a predetermined cycle per junction."""

    def __init__(self, plans: list[FixedTimePlan]):
        # per junction, in junction order: the cycle, and the start and end of axis B's window in it
        self.windows = [(p.cycle, p.green_a, p.green_a + p.yellow + p.green_b) for p in plans]
        self.requests = [REQUESTS[0]] * len(plans)

    def decide(self, clock: float, lane_stats, states) -> list[str]:
        """Requests in junction order; the returned list is reused between calls."""
        requests = self.requests
        for k, (cycle, serve_b_from, serve_b_until) in enumerate(self.windows):
            requests[k] = "serve_b" if serve_b_from <= clock % cycle < serve_b_until else "serve_a"
        return requests
