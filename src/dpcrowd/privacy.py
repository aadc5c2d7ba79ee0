"""Laplace perturbation and privacy-budget accounting.

Budgets are tracked per dimension. Two modes exist: 'user' (one budget over
the whole finite stream) and 'w_event' (every sliding window of w timestamps
must stay within the budget, per dimension). Charges are fail-closed: a
request that would breach any window raises BudgetError and nothing is
recorded, so an accepted history can never exceed the budget. Charges arrive
in timestamp order per dimension, so a w-event charge only has to check the
window ending at its own timestamp.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

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

LEDGER_MODES = ("user", "w_event")


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
    """Per-dimension record of budget spends with fail-closed charging."""

    def __init__(self, mode: str, epsilon_total: float, dims: int = 1, w: int = 0):
        if mode not in LEDGER_MODES:
            raise ValueError(f"mode must be one of {LEDGER_MODES}, got {mode!r}")
        if epsilon_total <= 0:
            raise ValueError(f"total budget must be positive, got {epsilon_total}")
        if dims < 1:
            raise ValueError(f"need at least one dimension, got {dims}")
        if mode == "w_event" and w < 1:
            raise ValueError(f"w_event mode needs a window length w >= 1, got {w}")
        self.mode = mode
        self.epsilon_total = float(epsilon_total)
        self.dims = dims
        self.w = int(w)
        self.spends: list[list[tuple[int, float]]] = [[] for _ in range(dims)]

    def _window_spends(self, dim: int, lo: int, hi: int) -> list[float]:
        """Spends at timestamps lo..hi, walking back from the newest spend.

        Spends are recorded in timestamp order, so the walk stops at the first
        one older than lo and touches only the window, not the history.
        """
        found = []
        for ts, e in reversed(self.spends[dim]):
            if ts < lo:
                break
            if ts <= hi:
                found.append(e)
        return found

    def window_spent(self, dim: int, lo: int, hi: int) -> float:
        """Exact (fsum) spend over timestamps lo..hi inclusive for one dimension."""
        return math.fsum(self._window_spends(dim, lo, hi))

    def total_spent(self, dim: int) -> float:
        return math.fsum(e for (_, e) in self.spends[dim])

    def remaining_window(self, dim: int, t: int) -> float:
        """Budget left for a new charge at t: total minus the trailing-window spend.

        In user mode the 'window' is the whole stream.
        """
        if self.mode == "user":
            return self.epsilon_total - self.total_spent(dim)
        return self.epsilon_total - self.window_spent(dim, t - self.w + 1, t - 1)

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
        spends = self.spends[dim]
        if spends and t < spends[-1][0]:
            raise ValueError(
                f"charge at t={t} precedes the latest spend at t={spends[-1][0]} "
                f"in dimension {dim}; charges must arrive in timestamp order"
            )
        if self.mode == "user":
            attempted = math.fsum([e for (_, e) in spends] + [eps_t])
            if attempted > self.epsilon_total:
                raise BudgetError(dim, (-(2**31), 2**31), attempted, self.epsilon_total)
        else:
            # Every window holding t must stay within budget. No spend is
            # newer than t, so each later window holds a subset of the spends
            # in the window ending at t; with non-negative spends and an exact
            # sum, that window is the only one that can breach.
            lo = t - self.w + 1
            attempted = math.fsum(self._window_spends(dim, lo, t) + [eps_t])
            if attempted > self.epsilon_total:
                raise BudgetError(dim, (lo, t), attempted, self.epsilon_total)
        spends.append((t, eps_t))

    def audit(self) -> None:
        """Independent re-scan of every recorded window; raises on violation.

        Shares no code with charge and does not trust the recorded order. In
        w-event mode a window holding the spend set S lies inside the window
        that starts at min(S), and an exact sum of non-negative spends only
        grows with the set, so checking the windows that start at a spend
        timestamp rejects exactly what a scan of every window rejects.
        """
        for dim in range(self.dims):
            if self.mode == "user":
                total = self.total_spent(dim)
                if total > self.epsilon_total:
                    raise BudgetError(dim, (-(2**31), 2**31), total, self.epsilon_total)
                continue
            ordered = sorted(self.spends[dim])
            stamps = [ts for (ts, _) in ordered]
            for start in sorted(set(stamps)):
                end = start + self.w - 1
                first = bisect_left(stamps, start)
                stop = bisect_right(stamps, end)
                total = math.fsum(e for (_, e) in ordered[first:stop])
                if total > self.epsilon_total:
                    raise BudgetError(dim, (start, end), total, self.epsilon_total)


def allocate_uniform(epsilon_total: float, num_samples: int) -> float:
    """Split the budget evenly over a planned number of sampling timestamps."""
    if epsilon_total <= 0:
        raise ValueError(f"total budget must be positive, got {epsilon_total}")
    if num_samples < 1:
        raise ValueError(f"number of samples must be >= 1, got {num_samples}")
    return epsilon_total / num_samples


def allocate_adaptive(
    ledger: PrivacyLedger, dim: int, t: int, interval: int, mu: float, p_max: float,
    eps_max: float,
) -> float:
    """Budget for one sampling timestamp under w-event accounting.

    A longer current interval means rarer sampling, so a larger portion
    p = min(mu * ln(interval + 1), p_max) of the remaining window budget is
    granted, capped at eps_max. Returns 0 when the window is exhausted; the
    caller must then approximate instead of sampling. The result never
    exceeds the remaining window budget while p_max <= 1 (ExperimentConfig
    .validate checks mu, p_max and the eps_max fraction), so charging it
    cannot violate the ledger (up to the ledger's own fail-closed check).
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    remaining = ledger.remaining_window(dim, t)
    if remaining <= 0:
        return 0.0
    portion = min(mu * math.log(interval + 1.0), p_max)
    return min(portion * remaining, eps_max)
