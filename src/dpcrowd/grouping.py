"""Dynamic grouping of similar dimensions before perturbation.

Noise on a group's perturbed sum is shared by the members, cutting per-member
noise variance by the squared group size. Grouping is strictly local: each
server groups from its own published history, with no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .privacy import laplace_sample

__all__ = [
    "GroupingThresholds",
    "GroupPartition",
    "predict_region",
    "padded_history",
    "trend_deviation",
    "group_regions",
    "perturb_groups",
]


@dataclass(frozen=True)
class GroupingThresholds:
    """Similarity thresholds: large_value sends a dimension solo, value_gap
    and trend_gap bound how far a member may sit from its group seed."""

    large_value: float  # dimensions predicted at or above this stay singleton
    value_gap: float  # max |prediction - seed prediction| inside a group
    trend_gap: float = 0.5  # max mean deviation of min-max-normalized histories
    history_window: int = 3

    def __post_init__(self) -> None:
        if self.large_value <= 0:
            raise ValueError("large_value threshold must be positive")
        if self.value_gap < 0 or self.trend_gap < 0:
            raise ValueError("similarity gaps must be non-negative")
        if self.history_window < 1:
            raise ValueError("history window must be >= 1")


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint non-empty groups covering the sampled dimension set."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise ValueError("groups must be non-empty")
            for k in group:
                if k in seen:
                    raise ValueError(f"dimension {k} appears in more than one group")
                seen.add(k)


def padded_history(history: Sequence[float], window: int) -> np.ndarray:
    """Last `window` values, front-padded by repeating the earliest one."""
    if window < 1:
        raise ValueError("window must be >= 1")
    vals = [float(v) for v in history[-window:]]
    if not vals:
        return np.zeros(window)
    if len(vals) < window:
        vals = [vals[0]] * (window - len(vals)) + vals
    return np.asarray(vals)


def predict_region(history, window: int):
    """Forecast a dimension as the mean of its last `window` published values.

    A 1-D history gives one float. A 2-D (T, k) history gives one forecast per
    column, each bitwise equal to the 1-D forecast of that column.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if np.ndim(history) == 1:
        if len(history) == 0:
            return 0.0
        return float(np.mean(padded_history(history, window)))
    recent = np.asarray(history, dtype=float)[-window:]
    if len(recent) == 0:
        return np.zeros(recent.shape[1])
    if len(recent) < window:
        recent = np.concatenate([np.repeat(recent[:1], window - len(recent), axis=0), recent])
    # numpy sums pairwise only along the contiguous axis, so each column is
    # laid out contiguously to sum in the same order as a 1-D mean
    return np.ascontiguousarray(recent.T).mean(axis=1)


def _normalized(values: np.ndarray) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def trend_deviation(history_a: Sequence[float], history_b: Sequence[float], window: int) -> float:
    """Mean absolute gap between two min-max-normalized recent histories."""
    a = _normalized(padded_history(history_a, window))
    b = _normalized(padded_history(history_b, window))
    return float(np.mean(np.abs(a - b)))


def group_regions(
    sampled: Sequence[int],
    predictions,
    histories: Sequence[Sequence[float]],
    thresholds: GroupingThresholds,
) -> GroupPartition:
    """Partition the sampled dimensions into similarity groups.

    Large-valued dimensions go solo. The rest are seeded in ascending order
    of prediction (ties by index); a dimension joins the seed's group when
    both its predicted value and its normalized trend sit within the gaps.
    Deterministic in its inputs.
    """
    sampled = sorted(set(int(k) for k in sampled))
    predictions = np.asarray(predictions, dtype=float)
    groups: list[tuple[int, ...]] = []
    small: list[int] = []
    for k in sampled:
        if predictions[k] >= thresholds.large_value:
            groups.append((k,))
        else:
            small.append(k)
    small.sort(key=lambda k: (predictions[k], k))
    remaining = list(small)
    while remaining:
        seed = remaining.pop(0)
        group = [seed]
        keep: list[int] = []
        for k in remaining:
            close_value = abs(predictions[k] - predictions[seed]) <= thresholds.value_gap
            close_trend = (
                trend_deviation(histories[k], histories[seed], thresholds.history_window)
                <= thresholds.trend_gap
            )
            if close_value and close_trend:
                group.append(k)
            else:
                keep.append(k)
        remaining = keep
        groups.append(tuple(sorted(group)))
    groups.sort(key=lambda g: g[0])
    return GroupPartition(groups=tuple(groups))


def perturb_groups(
    partition: GroupPartition,
    values,
    budgets,
    sensitivity: float,
    rng: np.random.Generator,
) -> dict[int, float]:
    """Perturb each group's sum once and share the released mean.

    The noise scale uses the group's smallest member budget, which the caller
    has already charged for every member. Groups are processed in ascending
    seed order so draw order is deterministic.
    """
    if sensitivity <= 0:
        raise ValueError("sensitivity must be positive")
    values = np.asarray(values, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    released: dict[int, float] = {}
    for group in partition.groups:
        eps_min = min(float(budgets[k]) for k in group)
        if eps_min <= 0:
            raise ValueError(
                f"group {group} contains a non-positive budget; "
                "exclude unbudgeted dimensions upstream"
            )
        total = float(math.fsum(float(values[k]) for k in group))
        noisy = total + laplace_sample(sensitivity / eps_min, rng)
        share = noisy / len(group)
        for k in group:
            released[k] = share
    return released
