"""Laplace perturbation and privacy-budget accounting.

Budgets are tracked per dimension under one rule: every sliding window of w
timestamps must stay within the budget. User-level privacy over a T-long
stream is w = T. Charges are fail-closed: a request that would breach any
window raises BudgetError and nothing is recorded, so an accepted history
can never exceed the budget. Charges arrive in timestamp order per
dimension, so a charge only has to check the window ending at its own
timestamp.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

__all__ = [
    "BudgetError",
    "laplace_inverse_cdf",
    "laplace_sample",
    "perturb_count",
    "PrivacyLedger",
    "allocate_uniform",
    "allocate_adaptive",
]

class BudgetError(RuntimeError):
    """A charge would exceed the privacy budget in some window."""

    def __init__(self, dim: int, window: tuple[int, int], attempted: float, budget: float):
        self.dim = dim
        self.window = window
        self.attempted = attempted
        self.budget = budget
        super().__init__(
            f"budget exceeded for dimension {dim} in window {window}: "
            f"{attempted!r} > {budget!r}"
        )


def laplace_inverse_cdf(u: float, scale: float) -> float:
    """Quantile function of Laplace(0, scale); u must lie in (0, 1).

    u = 0.5 maps to 0 exactly, making the deterministic-median check cheap.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if u == 0.5:
        return 0.0
    if u < 0.5:
        return scale * math.log(2.0 * u)
    return -scale * math.log(2.0 * (1.0 - u))


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """One Laplace(0, scale) draw via the inverse CDF on a single uniform."""
    u = float(rng.random())
    while u <= 0.0:  # rng.random() is [0, 1); keep the transform finite
        u = float(rng.random())
    return laplace_inverse_cdf(u, scale)


def perturb_count(value: float, sensitivity: float, eps_t: float, rng: np.random.Generator) -> float:
    """Release value + Laplace(sensitivity / eps_t).

    This is the only operation that may consume a raw (unperturbed) aggregate
    in a private run.
    """
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if eps_t <= 0:
        raise ValueError(f"per-release budget must be positive, got {eps_t}")
    return float(value) + laplace_sample(sensitivity / eps_t, rng)


class PrivacyLedger:
    """Per-dimension record of budget spends with fail-closed charging.

    Every window of w consecutive timestamps must stay within the budget, per
    dimension. w-event privacy sets w to its window; user-level privacy over a
    T-long stream is the case w = T, where every window holding a spend of
    the run holds all of them.
    """

    def __init__(self, epsilon_total: float, dims: int = 1, *, w: int):
        if epsilon_total <= 0:
            raise ValueError(f"total budget must be positive, got {epsilon_total}")
        if dims < 1:
            raise ValueError(f"need at least one dimension, got {dims}")
        if w < 1:
            raise ValueError(f"need a window length w >= 1, got {w}")
        self.epsilon_total = float(epsilon_total)
        self.dims = dims
        self.w = int(w)
        self.stamps: list[list[int]] = [[] for _ in range(dims)]
        self.amounts: list[list[float]] = [[] for _ in range(dims)]

    @property
    def spends(self) -> list[list[tuple[int, float]]]:
        """Each dimension's spends in charge order, (stamps[j], amounts[j]) pairs."""
        return [list(zip(s, a)) for s, a in zip(self.stamps, self.amounts)]

    def remaining_window(self, dim: int, t: int) -> float:
        """Budget left for a new charge at t: total minus the trailing-window spend.

        The trailing window is t - w + 1 .. t - 1; spends are recorded in
        timestamp order, so bisections on the stamps find it.
        """
        stamps = self.stamps[dim]
        first = bisect_left(stamps, t - self.w + 1)
        # a spend at t (an earlier charge at t) lies outside it
        stop = bisect_left(stamps, t, first) if stamps and stamps[-1] >= t else len(stamps)
        return self.epsilon_total - math.fsum(self.amounts[dim][first:stop])

    def charge(self, dim: int, t: int, eps_t: float) -> None:
        """Record a spend of eps_t at timestamp t, or raise BudgetError.

        t may not precede the dimension's latest spend (ValueError). The check
        sums with math.fsum, which is correctly rounded, so accepted histories
        pass the audit exactly whatever order either one sums in.
        """
        if not 0 <= dim < self.dims:
            raise KeyError(f"dimension {dim} out of range [0, {self.dims})")
        if eps_t < 0 or not math.isfinite(eps_t):
            raise ValueError(f"charge must be finite and non-negative, got {eps_t}")
        stamps = self.stamps[dim]
        if stamps and t < stamps[-1]:
            raise ValueError(
                f"charge at t={t} precedes the latest spend at t={stamps[-1]} "
                f"in dimension {dim}; charges must arrive in timestamp order"
            )
        # Every window holding t must stay within budget. No spend is newer
        # than t, so each later window holds a subset of the spends in the
        # window ending at t, which runs to the newest spend; with
        # non-negative spends and an exact sum, it is the only one that can
        # breach.
        lo = t - self.w + 1
        amounts = self.amounts[dim]
        window = amounts[bisect_left(stamps, lo):]
        window.append(eps_t)
        attempted = math.fsum(window)
        if attempted > self.epsilon_total:
            raise BudgetError(dim, (lo, t), attempted, self.epsilon_total)
        stamps.append(t)
        amounts.append(eps_t)

    def audit(self) -> None:
        """Independent re-scan of every recorded window; raises on violation.

        Shares no code with charge and does not trust the recorded order. A
        window holding the spend set S lies inside the window that starts at
        min(S), and an exact sum of non-negative spends only grows with the
        set, so checking the windows that start at a spend timestamp rejects
        exactly what a scan of every window rejects. Once such a window
        reaches the newest spend, every later one holds a subset of its
        spends, so the scan stops there. Window starts and ends only move
        forward, so two pointers over the sorted stamps find every window in
        one sweep.
        """
        for dim in range(self.dims):
            ordered = sorted(zip(self.stamps[dim], self.amounts[dim]))
            stamps = [ts for (ts, _) in ordered]
            amounts = [e for (_, e) in ordered]
            count = len(ordered)
            first = stop = 0
            while first < count:
                start = stamps[first]
                end = start + self.w - 1
                while stop < count and stamps[stop] <= end:
                    stop += 1
                total = math.fsum(amounts[first:stop])
                if total > self.epsilon_total:
                    raise BudgetError(dim, (start, end), total, self.epsilon_total)
                if stop == count:
                    break
                while stamps[first] == start:  # the next distinct start
                    first += 1


def allocate_uniform(epsilon_total: float, num_samples: int) -> float:
    """Split the budget evenly over a planned number of sampling timestamps."""
    if epsilon_total <= 0:
        raise ValueError(f"total budget must be positive, got {epsilon_total}")
    if num_samples < 1:
        raise ValueError(f"number of samples must be >= 1, got {num_samples}")
    return epsilon_total / num_samples


def allocate_adaptive(
    remaining: float, interval: int, mu: float, p_max: float, eps_max: float,
) -> float:
    """Budget for one sampling timestamp under w-event accounting.

    remaining is the dimension's unspent window budget at this timestamp
    (PrivacyLedger.remaining_window). A longer current interval means rarer
    sampling, so a larger portion p = min(mu * ln(interval + 1), p_max) of it
    is granted, capped at eps_max. Returns 0 when the window is exhausted;
    the caller must then approximate instead of sampling. The result never
    exceeds the remaining window budget while p_max <= 1 (ExperimentConfig
    .validate checks mu, p_max and the eps_max fraction), so charging it
    cannot violate the ledger (up to the ledger's own fail-closed check).
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    if remaining <= 0:
        return 0.0
    portion = min(mu * math.log(interval + 1.0), p_max)
    return min(portion * remaining, eps_max)
