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
    "may_merge",
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


def _front_padded(history: np.ndarray, window: int) -> np.ndarray:
    """Last `window` rows of a (T, ...) history, front-padded by repeating the
    earliest row (zeros when there are no rows)."""
    recent = history[-window:]
    if len(recent) == 0:
        return np.zeros((window, *history.shape[1:]))
    if len(recent) < window:
        recent = np.concatenate([np.repeat(recent[:1], window - len(recent), axis=0), recent])
    return recent


def predict_region(history, window: int) -> np.ndarray:
    """Forecast each column of a (T, ...) history as the mean of its last
    `window` values; a short history is front-padded with its first row.

    A (T, k) history gives k forecasts and a (T, m, d) one (m, d); each
    column's forecast has the bits of that column forecast on its own.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    recent = _front_padded(np.asarray(history, dtype=float), window)
    # numpy sums pairwise only along the contiguous axis, so each column is
    # laid out as a contiguous row to sum in the same order as a 1-D mean;
    # .mean is this sum divided by the count, without its Python-level wrapper
    rows = np.ascontiguousarray(recent.transpose(*range(1, recent.ndim), 0))
    return np.add.reduce(rows, axis=-1) / window


def may_merge(forecasts, thresholds: GroupingThresholds) -> bool:
    """False when no two small forecasts lie within value_gap, so that
    group_regions would return singletons whatever the histories.

    The one no-merge rule, and the engine its one caller: a server's grants
    go to group_regions only where it is True, non-finite forecasts
    included. Sorted, fl(p[j+2] - p[j]) >= fl(p[j+1] - p[j]) since rounding
    is monotone, so adjacent gaps suffice. NaN forecasts never merge and sit
    out the check; a gap that is NaN (equal infinities) fails it.
    """
    ordered = sorted(
        p for p in forecasts if not (p >= thresholds.large_value or math.isnan(p))
    )
    return not all(b - a > thresholds.value_gap for a, b in zip(ordered, ordered[1:]))


def group_regions(
    sampled: Sequence[int],
    predictions,
    history,
    thresholds: GroupingThresholds,
) -> GroupPartition:
    """Partition the sampled dimensions into similarity groups.

    `predictions` (the engine passes its predict_region forecasts of the
    granted columns) and the columns of the (T, k) `history` are aligned
    with `sampled`. Large-valued dimensions go solo. The rest are seeded in
    ascending order of prediction (ties by index); a dimension joins the
    seed's group when its predicted value and its min-max-normalized recent
    history both sit within the gaps, so where may_merge is False every
    group is a singleton. Deterministic in its inputs.
    """
    dims = [int(k) for k in sampled]
    predictions = np.asarray(predictions, dtype=float)
    forecasts = predictions.tolist()
    small = [j for j, p in enumerate(forecasts) if not p >= thresholds.large_value]
    padded = _front_padded(np.asarray(history, dtype=float), thresholds.history_window)
    lo = padded.min(axis=0)
    span = padded.max(axis=0) - lo
    # one C-contiguous row per column, so each row mean sums in the order of
    # a 1-D mean; a constant column normalizes to zeros
    trends = np.ascontiguousarray(((padded - lo) / np.where(span > 0, span, 1.0)).T)
    groups = [(dims[j],) for j, p in enumerate(forecasts) if p >= thresholds.large_value]
    remaining = sorted(small, key=lambda j: (predictions[j], dims[j]))
    while remaining:
        seed, rest = remaining[0], remaining[1:]
        close = np.abs(predictions[rest] - predictions[seed]) <= thresholds.value_gap
        close &= np.abs(trends[rest] - trends[seed]).mean(axis=1) <= thresholds.trend_gap
        close = close.tolist()
        groups.append(tuple(sorted([dims[seed]] + [dims[j] for j, c in zip(rest, close) if c])))
        remaining = [j for j, c in zip(rest, close) if not c]
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
