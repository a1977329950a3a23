import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    state = SignalAssignment(phase="serve_a", time_in_phase=10.0)
    out = apply_interlock("serve_b", state, JUNCTION)
    assert out.colors() == (YELLOW, RED)


def test_interlock_defers_before_min_green():
    state = SignalAssignment(phase="serve_a", time_in_phase=2.0)
    out = apply_interlock("serve_b", state, JUNCTION)
    assert out.colors() == (GREEN, RED)
    assert out.phase == "serve_a"


def test_interlock_grants_pending_after_full_yellow():
    state = SignalAssignment(phase="yellow_a", time_in_phase=3.0, pending="serve_b")
    out = apply_interlock("serve_b", state, JUNCTION)
    assert out.colors() == (RED, GREEN)


def test_interlock_commits_transition_despite_changed_mind():
    state = SignalAssignment(phase="serve_a", time_in_phase=10.0)
    state = apply_interlock("serve_b", state, JUNCTION)  # yellow begins, target committed
    for _ in range(3):
        state = apply_interlock("serve_a", state, JUNCTION)  # controller changes its mind
    assert state.colors() == (RED, GREEN)  # pending serve_b still granted


def test_interlock_yellow_runs_exactly_yellow_duration():
    state = SignalAssignment(phase="serve_a", time_in_phase=10.0)
    colors = []
    for _ in range(6):
        state = apply_interlock("serve_b", state, JUNCTION)
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
    state = SignalAssignment(phase="serve_a", time_in_phase=10.0)
    for _ in range(3):
        state = apply_interlock("all_red", state, JUNCTION)
    state = apply_interlock("all_red", state, JUNCTION)
    assert state.colors() == (RED, RED)
    # leaving all-red needs no yellow
    state = apply_interlock("serve_b", state, JUNCTION)
    assert state.colors() == (RED, GREEN)


def test_interlock_rejects_unknown_request():
    with pytest.raises(ValueError):
        apply_interlock("serve_c", SignalAssignment(), JUNCTION)


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
    for _ in range(300):
        request = REQUESTS[int(rng.integers(0, len(REQUESTS)))]
        state = apply_interlock(request, state, junction)
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
    controller = FixedTimeController({"c": PLAN})
    state = SignalAssignment()
    junction = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=3.0, min_green=5.0)
    for t in range(3 * int(PLAN.cycle)):
        request = controller.decide(float(t), None, None)["c"]
        state = apply_interlock(request, state, junction)
        assert state.colors() == fixed_time_decide(float(t), PLAN)


def test_plan_from_junction_prefers_scenario_plan():
    j = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=4.0, fixed_plan=FixedTimePlan(20.0, 4.0, 40.0))
    plan = FixedTimePlan.for_junction(j)
    assert (plan.green_a, plan.yellow, plan.green_b) == (20.0, 4.0, 40.0)
    bare = Junction("c", signalized=True, axis_a=("n",), axis_b=("e",), yellow=4.0)
    assert FixedTimePlan.for_junction(bare).yellow == 4.0
    assert FixedTimePlan.for_junction(bare) == FixedTimePlan(green_a=30.0, yellow=4.0, green_b=30.0)
