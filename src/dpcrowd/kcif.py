"""Kalman-consensus information filtering over one-hop neighborhoods.

With a diagonal process-noise covariance and scalar observation coefficients
the d-dimensional filter decomposes into d independent scalar filters, so
every operation here works element-wise on arrays of any matching shape
(per-server vectors or stacked (m, d) blocks alike). The engine sums the
neighbours' information contributions u = H z / R_hat and U = H^2 / R_hat
over the adjacency and passes the totals to update_from_delta.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "combined_variance",
    "effective_variance",
    "prediction_gain",
    "predict",
    "initialize",
    "uninformed_variance",
    "update_from_delta",
]

# Fallback prior weight for a server that starts with no usable observation.
UNINFORMED_VARIANCE_SCALE = 1e6


def uninformed_variance(process_var):
    """Prior variance of a filter that has no usable observation yet."""
    return np.where(
        process_var > 0, UNINFORMED_VARIANCE_SCALE * process_var, UNINFORMED_VARIANCE_SCALE
    )


def effective_variance(sensing_var, eps_t, sensitivity, *, alpha: float = 1.0):
    """Combined variance of perturbation plus sensing noise on one aggregate.

    R_hat = alpha * (2 * (sensitivity / eps_t)^2 + sensing_var), where
    sensing_var = coefficient^2 * process_var stays fixed while the user
    partition does. Passing eps_t = inf drops the perturbation term (the
    non-private path): a finite positive sensitivity over inf is +0.0.
    """
    if np.any(eps_t <= 0):
        raise ValueError("per-release budget must be positive (inf for non-private)")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return combined_variance(sensing_var, eps_t, sensitivity, alpha)


def combined_variance(sensing_var, eps_t, sensitivity, alpha):
    """The R_hat expression of effective_variance, without its checks.

    The same operations in the same order on arrays and on Python floats, so
    a per-pair R_hat in floats keeps the bits of the array's element. Python
    floats never warn: an overflow gives inf silently where numpy would warn.
    """
    scale = sensitivity / eps_t
    return alpha * (2.0 * scale * scale + sensing_var)


def prediction_gain(transition: np.ndarray) -> np.ndarray:
    """Per-dimension variance gain bound: squared row sums of |transition|.

    Exact for diagonal transitions; a conservative upper bound otherwise
    (per-dimension variances cannot carry cross terms).
    """
    g = np.abs(np.asarray(transition, dtype=float)).sum(axis=1)
    return g * g


def predict(posterior, posterior_var, transition_t, gain, process_var):
    """Time update: propagate the posterior one step forward.

    transition_t is the transition's transpose and gain its prediction_gain,
    both fixed for a run.
    """
    return posterior @ transition_t, gain * posterior_var + process_var


def initialize(released, coefficient, rhat, transition_t, gain, process_var):
    """First-timestamp prior from the first released observation.

    prior = released / coefficient with initial weight coefficient^2 / rhat;
    a server with no users starts at 0 with an uninformative variance.
    transition_t and gain are as in predict.
    """
    safe = np.where(coefficient > 0, coefficient, 1.0)
    estimate = np.where(coefficient > 0, released / safe, 0.0)
    m0 = np.where(coefficient > 0, coefficient * coefficient / rhat,
                  uninformed_variance(process_var))
    return estimate @ transition_t, gain * m0 + process_var


def update_from_delta(prior, prior_var, fused_value, fused_weight, prior_delta, consensus_step):
    """Measurement-and-consensus update given a precomputed prior disagreement.

    prior_delta = sum over broadcasting neighbors j of (prior_j - prior_own),
    or None for a server that hears no neighbor's prior. The consensus term
    gain * 0.0 is then a zero or NaN, and (consensus_step * prior_var) * 0.0
    is the same one in fewer operations: both are NaN where prior_var is
    not finite or consensus_step * prior_var overflows, since dividing by
    |prior_var| + 1 >= 1 keeps a finite numerator finite and its sign, and
    otherwise both are a zero of that numerator's sign.
    """
    posterior_var = 1.0 / (1.0 / prior_var + fused_weight)
    posterior = prior + posterior_var * (fused_value - fused_weight * prior)
    if prior_delta is None:
        return posterior + consensus_step * prior_var * 0.0, posterior_var
    gain = consensus_step * prior_var / (np.abs(prior_var) + 1.0)
    return posterior + gain * prior_delta, posterior_var
