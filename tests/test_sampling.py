import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcrowd.sampling import (
    PidController,
    SamplingSchedule,
    feedback_error,
    next_interval,
    next_interval_plus,
)


# ----------------------------------------------------------- feedback error

def test_feedback_error_perfect_prediction():
    assert feedback_error(10.0, 10.0) == 0.0


def test_feedback_error_hand_value():
    assert feedback_error(8.0, 10.0) == pytest.approx(0.2)


def test_feedback_error_floor_guard():
    assert feedback_error(1.0, 0.0) == 1.0


# ----------------------------------------------------------- PID controller

def test_pid_pure_proportional():
    ctrl = PidController(proportional=1.0, integral=0.0, derivative=0.0)
    assert ctrl.update(0.3, t=1) == pytest.approx(0.3)


def test_pid_steady_state():
    # constant error 0.5 with gains (0.9, 0.1, 0): 0.45 + 0.05 = 0.5
    ctrl = PidController(proportional=0.9, integral=0.1, derivative=0.0, window=5)
    delta = 0.0
    for t in range(1, 8):
        delta = ctrl.update(0.5, t)
    assert delta == pytest.approx(0.5)


def test_pid_pure_derivative():
    ctrl = PidController(proportional=0.0, integral=0.0, derivative=1.0)
    ctrl.update(0.0, t=1)
    assert ctrl.update(1.0, t=3) == pytest.approx(0.5)  # jump 1 over gap 2


def test_pid_integral_window_caps_history():
    ctrl = PidController(proportional=0.0, integral=1.0, derivative=0.0, window=3)
    for t, e in enumerate([9.0, 9.0, 0.0, 0.0, 0.0], start=1):
        delta = ctrl.update(e, t)
    # only the last 3 errors (0,0,0) remain
    assert delta == 0.0


# ---------------------------------------------------------- interval laws

def test_next_interval_equilibrium():
    assert next_interval(3, 0.05, theta=2.5, xi=0.05) == 3


def test_next_interval_zero_error_grows():
    # round(2.5) away from zero = 3, so 1 -> 4
    assert next_interval(1, 0.0, theta=2.5, xi=0.05) == 4


def test_next_interval_floors_at_one():
    assert next_interval(2, 100.0, theta=1.0, xi=0.05) == 1


def test_next_interval_plus_equilibrium():
    assert next_interval_plus(5, 0.5, remaining=2.0, theta=3.0) == 5


def test_next_interval_plus_exhausted_budget():
    assert next_interval_plus(1, 0.7, remaining=0.0, theta=3.0) == 4


def test_next_interval_plus_floors():
    assert next_interval_plus(2, 5.0, remaining=1.0, theta=1.0) == 1


@given(st.integers(1, 50), st.floats(0.0, 10.0), st.floats(0.01, 5.0))
@settings(max_examples=200, deadline=None)
def test_interval_always_at_least_one(interval, delta, xi):
    assert next_interval(interval, delta, 2.5, xi) >= 1
    assert next_interval_plus(interval, delta, 1.0, 3.0) >= 1


@pytest.mark.parametrize("delta, xi", [(1.0, 1e-320), (1e300, 0.05), (math.inf, 0.05)],
                         ids=["subnormal_xi", "ratio_squared_overflows", "inf_control"])
def test_next_interval_overflowed_law_floors_at_one(delta, xi):
    # (delta / xi)^2 is inf, so the step is -inf: the interval floors at 1
    assert next_interval(7, delta, theta=2.5, xi=xi) == 1


@pytest.mark.parametrize("delta, remaining", [(math.inf, 0.5), (1e300, 1e300)],
                         ids=["inf_control", "product_overflows"])
def test_next_interval_plus_overflowed_law_floors_at_one(delta, remaining):
    assert next_interval_plus(7, delta, remaining=remaining, theta=2.5) == 1


def test_next_interval_nan_step_keeps_interval():
    # theta = 0 times an overflowed (delta / xi)^2 is 0 * -inf = NaN
    assert next_interval(7, 1.0, theta=0.0, xi=1e-320) == 7


@pytest.mark.parametrize("delta, remaining, theta, expected", [
    (math.inf, 0.0, 2.5, 3),  # a drained budget times an inf control is NaN
    (-math.inf, 0.5, 2.5, sys.maxsize),  # 1 - (-inf) is +inf
    (-math.inf, 0.5, 0.0, 3),  # 0 * inf is NaN
], ids=["inf_control_drained_budget", "minus_inf_control", "zero_theta_minus_inf_control"])
def test_next_interval_plus_non_finite_step(delta, remaining, theta, expected):
    assert next_interval_plus(3, delta, remaining=remaining, theta=theta) == expected


@given(st.integers(1, 50), st.floats(0.0, 1e150), st.floats(1e-150, 5.0),
       st.floats(0.0, 1e150), st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_interval_law_on_finite_steps(interval, delta, xi, remaining, theta):
    # finite steps keep the plain law: interval + step rounded half away from 0
    def law(step):
        rounded = math.floor(step + 0.5) if step >= 0 else math.ceil(step - 0.5)
        return max(1, interval + int(rounded))

    ratio = delta / xi
    step, step_plus = theta * (1.0 - ratio * ratio), theta * (1.0 - delta * remaining)
    if math.isfinite(step):
        assert next_interval(interval, delta, theta, xi) == law(step)
    if math.isfinite(step_plus):
        assert next_interval_plus(interval, delta, remaining, theta) == law(step_plus)


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_interval_monotone_in_delta(d1, d2):
    lo, hi = sorted([d1, d2])
    assert next_interval(5, hi, 2.5, 0.05) <= next_interval(5, lo, 2.5, 0.05)
    assert next_interval_plus(5, hi, 1.0, 3.0) <= next_interval_plus(5, lo, 1.0, 3.0)


# -------------------------------------------------------------- schedules

def test_fixed_schedule_progression():
    sched = SamplingSchedule(interval=5)
    points = []
    for t in range(1, 16):
        if sched.is_sampling_point(t):
            points.append(t)
            sched.note_sampled(t)
    assert points == [1, 6, 11]


def test_sample_cap():
    sched = SamplingSchedule(interval=1, max_samples=2)
    points = []
    for t in range(1, 10):
        if sched.is_sampling_point(t):
            points.append(t)
            sched.note_sampled(t)
    assert points == [1, 2]


def test_adaptive_schedule_uses_new_interval():
    sched = SamplingSchedule(interval=1)
    for t in range(1, 5):
        if sched.is_sampling_point(t):
            sched.note_sampled(t, interval=3 if t == 4 else 1)
    assert sched.next_sample_t == 7


def test_t1_always_samples():
    sched = SamplingSchedule(interval=7)
    assert sched.is_sampling_point(1)


def test_skip_retries_after_current_interval():
    sched = SamplingSchedule(interval=4)
    assert sched.is_sampling_point(1)
    sched.note_skipped(1)  # e.g. no budget granted
    assert not sched.is_sampling_point(2)
    assert sched.is_sampling_point(5)
    assert sched.samples_used == 0
