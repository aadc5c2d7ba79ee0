"""Adaptive sampling: PID feedback on estimation error drives the interval.

Each server (and, for multi-dimensional streams, each dimension) keeps its
own schedule; t=1 is always a sampling point. Finite-stream mode carries a
hard cap on the number of samples.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "PidController",
    "SamplingSchedule",
    "feedback_error",
    "next_interval",
    "next_interval_plus",
]


def feedback_error(prior: float, posterior: float, floor: float = 1.0) -> float:
    """Relative disagreement between prediction and estimate at one timestamp."""
    if floor <= 0:
        raise ValueError(f"error floor must be positive, got {floor}")
    return abs(float(posterior) - float(prior)) / max(abs(float(posterior)), floor)


def _stepped(interval: int, step: float) -> int:
    """interval + step, never below 1; the step is rounded to nearest with ties
    away from zero (round() would go to even).

    A law that overflowed gives a non-finite step. A step of -inf gives 1, as
    every finite step <= 1 - interval does. A step of +inf (a negative control
    times the remaining budget, overflowed to -inf) gives sys.maxsize, which
    like every finite step past the end of the run schedules no further
    sample. A NaN step (0 * inf: theta = 0 times an overflowed (delta/xi)^2,
    or a drained budget times an infinite control) leaves the interval as it
    is.
    """
    if step == -math.inf:
        return 1
    if step == math.inf:
        return sys.maxsize
    if math.isnan(step):
        return interval
    return max(1, interval + int(math.floor(step + 0.5) if step >= 0 else math.ceil(step - 0.5)))


@dataclass
class PidController:
    """Discrete PID on the sampling-time feedback errors.

    The integral term is the mean of the last `window` errors (including the
    current one); the derivative is divided by the gap since the previous
    sampling timestamp.
    """

    proportional: float = 0.9
    integral: float = 0.1
    derivative: float = 0.0
    window: int = 5
    errors: deque = field(default_factory=deque)
    last_error: float = 0.0
    last_time: int = 0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"integral window must be >= 1, got {self.window}")
        self.errors = deque(self.errors, maxlen=self.window)

    def update(self, error: float, t: int) -> float:
        """Feed one error observed at sampling timestamp t; returns the PID output."""
        if error < 0 or not math.isfinite(error):
            raise ValueError(f"feedback error must be finite and non-negative, got {error}")
        gap = max(1, t - self.last_time)
        self.errors.append(error)
        out = (
            self.proportional * error
            + self.integral * (math.fsum(self.errors) / len(self.errors))
            + self.derivative * (error - self.last_error) / gap
        )
        self.last_error = error
        self.last_time = t
        return out


def next_interval(interval: int, delta: float, theta: float, xi: float) -> int:
    """New sampling interval from the PID output, finite-stream style.

    Grows when delta < xi (stable stream), shrinks quadratically when the
    error overshoots the setpoint; never drops below 1.
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    if xi <= 0:
        raise ValueError(f"setpoint xi must be positive, got {xi}")
    ratio = delta / xi
    return _stepped(interval, theta * (1.0 - ratio * ratio))


def next_interval_plus(interval: int, delta: float, remaining: float, theta: float) -> int:
    """New sampling interval weighted by the remaining window budget.

    A drained budget (remaining -> 0) stretches the interval regardless of
    the error; ample budget with high error shortens it; never below 1.
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    return _stepped(interval, theta * (1.0 - delta * remaining))


@dataclass
class SamplingSchedule:
    """When to sample: every `interval` timestamps from next_sample_t on.

    max_samples, when set, is the finite-stream hard cap: once exhausted the
    schedule never fires again.
    """

    interval: int = 1
    next_sample_t: int = 1
    samples_used: int = 0
    max_samples: int | None = None

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.max_samples is not None and self.max_samples < 0:
            raise ValueError(f"max_samples must be >= 0, got {self.max_samples}")

    def is_sampling_point(self, t: int) -> bool:
        if self.max_samples is not None and self.samples_used >= self.max_samples:
            return False
        return t == self.next_sample_t

    def note_sampled(self, t: int, interval: int | None = None) -> None:
        """Record a sample taken at t; an adaptive caller passes the new interval."""
        if interval is not None:
            if interval < 1:
                raise ValueError(f"interval must be >= 1, got {interval}")
            self.interval = interval
        self.samples_used += 1
        self.next_sample_t = t + self.interval

    def note_skipped(self, t: int) -> None:
        """A scheduled sample could not be taken (budget refusal); retry one interval on."""
        self.next_sample_t = t + self.interval
