import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import fixed_time_decide
from greenlight.controllers import (
    GREEN,
    RED,
    REQUESTS,
    YELLOW,
    FixedTimeController,
    FixedTimePlan,
    SignalAssignment,
    apply_interlock,
)
from greenlight.netmodel import Junction

PLAN = FixedTimePlan(green_a=30.0, yellow=3.0, green_b=30.0)
JUNCTION = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=3.0, min_green=5.0)


def test_fixed_time_cycle_start_serves_a():
    assert fixed_time_decide(0.0, PLAN) == (GREEN, RED)


def test_fixed_time_yellow_window():
    assert fixed_time_decide(31.0, PLAN) == (YELLOW, RED)


def test_fixed_time_wraps_at_cycle():
    assert PLAN.cycle == 66.0
    assert fixed_time_decide(66.0, PLAN) == (GREEN, RED)


def test_fixed_time_b_green_window():
    assert fixed_time_decide(33.0, PLAN) == (RED, GREEN)
    assert fixed_time_decide(62.9, PLAN) == (RED, GREEN)
    assert fixed_time_decide(63.0, PLAN) == (RED, YELLOW)


@given(t=st.floats(0.0, 1e6, allow_nan=False), k=st.integers(1, 50))
def test_fixed_time_is_periodic(t, k):
    assert fixed_time_decide(t, PLAN) == fixed_time_decide(t + k * PLAN.cycle, PLAN)


def test_interlock_switch_after_min_green_starts_yellow():
    state = SignalAssignment(phase="serve_a", since=10.0)
    out = apply_interlock("serve_b", state, JUNCTION, 20.0)
    assert out.colors() == (YELLOW, RED)
    assert out == ("yellow_a", 20.0, "serve_b")  # the yellow begins at the call's clock


def test_interlock_defers_before_min_green():
    state = SignalAssignment(phase="serve_a", since=10.0)
    out = apply_interlock("serve_b", state, JUNCTION, 12.0)
    assert out.colors() == (GREEN, RED)
    assert out is state  # a held phase is the same state


def test_interlock_grants_pending_after_full_yellow():
    state = SignalAssignment(phase="yellow_a", since=7.0, pending="serve_b")
    out = apply_interlock("serve_b", state, JUNCTION, 10.0)
    assert out.colors() == (RED, GREEN)
    assert out == ("serve_b", 10.0, "serve_b")


def test_interlock_commits_transition_despite_changed_mind():
    state = SignalAssignment(phase="serve_a", since=-10.0)
    state = apply_interlock("serve_b", state, JUNCTION, 0.0)  # yellow begins, target committed
    for clock in (1.0, 2.0, 3.0):
        state = apply_interlock("serve_a", state, JUNCTION, clock)  # controller changes its mind
    assert state.colors() == (RED, GREEN)  # pending serve_b still granted


def test_interlock_yellow_runs_exactly_yellow_duration():
    state = SignalAssignment(phase="serve_a", since=-10.0)
    colors = []
    for clock in range(6):
        state = apply_interlock("serve_b", state, JUNCTION, float(clock))
        colors.append(state.colors())
    assert colors == [
        (YELLOW, RED),
        (YELLOW, RED),
        (YELLOW, RED),
        (RED, GREEN),
        (RED, GREEN),
        (RED, GREEN),
    ]


def test_interlock_all_red_request():
    state = SignalAssignment(phase="serve_a", since=-10.0)
    for clock in range(3):
        state = apply_interlock("all_red", state, JUNCTION, float(clock))
    state = apply_interlock("all_red", state, JUNCTION, 3.0)
    assert state.colors() == (RED, RED)
    # leaving all-red needs no yellow
    state = apply_interlock("serve_b", state, JUNCTION, 4.0)
    assert state.colors() == (RED, GREEN)


def test_interlock_rejects_unknown_request():
    with pytest.raises(ValueError):
        apply_interlock("serve_c", SignalAssignment(), JUNCTION, 0.0)


@pytest.mark.parametrize("state", [
    SignalAssignment("yellow_a", 9.0, "serve_b"),  # mid-yellow, 1 s of 3 shown
    SignalAssignment("yellow_b", 10.0, "all_red"),
    SignalAssignment("all_red", 4.0, "all_red"),
    SignalAssignment("serve_a", 0.0, "serve_a"),
    SignalAssignment("serve_b", 9.0, "serve_b"),  # before min-green
], ids=lambda state: state.phase)
@pytest.mark.parametrize("request_", ["serve_c", "yellow_a", "yellow_b", "", None])
def test_interlock_rejects_an_unknown_request_in_every_phase(state, request_):
    """Even the phase's own name, which a held phase would otherwise match, is not a request."""
    with pytest.raises(ValueError, match="unknown request"):
        apply_interlock(request_, state, JUNCTION, 10.0)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    yellow=st.integers(1, 5),
    min_green=st.integers(1, 10),
    weights=st.lists(st.integers(0, 8), min_size=3, max_size=3).filter(any),
)
def test_interlock_equals_the_counting_oracle(seed, yellow, min_green, weights):
    """At every step the phase, the time it has been shown and the pending target equal those of the interlock that
    counts its phase time, and a call that keeps the phase returns the very state it was given."""
    junction = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=float(yellow),
                        min_green=float(min_green))
    rng = np.random.default_rng(seed)
    p = np.asarray(weights, dtype=float) / sum(weights)  # some streams hold one request for long runs
    state, counted = SignalAssignment(), oracles.CountedAssignment()
    for step in range(200):
        clock = float(step)
        request = REQUESTS[int(rng.choice(3, p=p))]
        new = apply_interlock(request, state, junction, clock)
        counted = oracles.apply_interlock(request, counted, junction)
        assert (new.phase, clock + 1.0 - new.since, new.pending) == (counted.phase, counted.time_in_phase,
                                                                    counted.pending)
        if new.phase == state.phase:
            assert new is state
        state = new


def _color_runs(colors):
    """Collapse a color stream into (color, run length) pairs."""
    runs = []
    for c in colors:
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    return runs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    yellow=st.integers(1, 4),
    min_green=st.integers(1, 8),
)
def test_interlock_stream_is_always_legal(seed, yellow, min_green):
    junction = Junction(
        "c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=float(yellow), min_green=float(min_green)
    )
    rng = np.random.default_rng(seed)
    state = SignalAssignment()
    stream_a, stream_b = [], []
    for clock in range(300):
        request = REQUESTS[int(rng.integers(0, len(REQUESTS)))]
        state = apply_interlock(request, state, junction, float(clock))
        ca, cb = state.colors()
        stream_a.append(ca)
        stream_b.append(cb)
        assert not (ca != RED and cb != RED)  # interlock invariant

    for stream in (stream_a, stream_b):
        runs = _color_runs(stream)
        for i, (color, run) in enumerate(runs):
            following = runs[i + 1][0] if i + 1 < len(runs) else None
            if color == GREEN and following is not None:
                assert following == YELLOW  # no green -> red without yellow
                if i > 0:  # greens begun mid-stream honor min-green
                    assert run >= min_green
            if color == YELLOW and following is not None:
                assert run == yellow  # yellow lasts exactly yellow-duration
                assert following == RED


def test_fixed_controller_requests_match_decide_map():
    controller = FixedTimeController([PLAN])
    state = SignalAssignment()
    junction = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=3.0, min_green=5.0)
    for t in range(3 * int(PLAN.cycle)):
        [request] = controller.decide(float(t), None, None)
        state = apply_interlock(request, state, junction, float(t))
        assert state.colors() == fixed_time_decide(float(t), PLAN)


def test_plan_from_junction_prefers_scenario_plan():
    j = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=4.0, fixed_plan=FixedTimePlan(20.0, 4.0, 40.0))
    plan = FixedTimePlan.for_junction(j)
    assert (plan.green_a, plan.yellow, plan.green_b) == (20.0, 4.0, 40.0)
    bare = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=4.0)
    assert FixedTimePlan.for_junction(bare).yellow == 4.0
    assert FixedTimePlan.for_junction(bare) == FixedTimePlan(green_a=30.0, yellow=4.0, green_b=30.0)
