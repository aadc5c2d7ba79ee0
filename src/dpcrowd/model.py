"""Latent process and user-partition models.

The quantity being estimated is a d-dimensional statistic r(t) over the whole
user population, evolving linearly with Gaussian process noise. Each server
observes only its own user share, so its raw aggregate (formed in the engine)
is a scaled, noisy view of r(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteStreamError",
    "ProcessModel",
    "StreamPrefix",
    "partition_users",
]


def as_transition(transition) -> np.ndarray:
    """Coerce a square (d, d) array-like into a validated transition matrix."""
    a = np.asarray(transition, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"transition must be a square (d, d) matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("transition matrix must be finite")
    return a


def as_noise_diag(noise_var, d: int) -> np.ndarray:
    """Coerce a scalar, length-1 or length-d array-like into a per-dimension
    variance vector; a single value applies to every dimension."""
    q = np.asarray(noise_var, dtype=float)
    if q.shape in ((), (1,)):
        q = np.full(d, q.item())
    if q.shape != (d,):
        raise ValueError(f"noise_var must be one value or length {d}, got shape {q.shape}")
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("process noise variances must be finite and non-negative")
    return q


@dataclass(frozen=True)
class ProcessModel:
    """Linear-Gaussian dynamics: r(t+1) = transition @ r(t) + noise.

    noise_var holds the diagonal of the (diagonal) process-noise covariance.
    """

    transition: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "transition", as_transition(self.transition))
        object.__setattr__(self, "noise_var", as_noise_diag(self.noise_var, self.d))

    @property
    def d(self) -> int:
        return self.transition.shape[0]


def partition_users(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Assign n users to m servers uniformly at random; returns group sizes.

    Sizes are multinomial(n, 1/m each), so they sum to n exactly.
    """
    if n < 1:
        raise ValueError(f"need at least one user, got n={n}")
    if m < 1:
        raise ValueError(f"need at least one server, got m={m}")
    return rng.multinomial(n, np.full(m, 1.0 / m))


class NonFiniteStreamError(ValueError):
    """A stream holds a NaN or infinite value, as one that overflowed does."""


@dataclass(frozen=True)
class StreamPrefix:
    """A finite run of true statistics, one row per timestamp."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("stream values must be a (T, d) array with T, d >= 1")
        if not np.all(np.isfinite(v)):
            raise NonFiniteStreamError("stream values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def timestamps(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]
