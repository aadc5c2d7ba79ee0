"""Kalman-consensus information filtering over one-hop neighborhoods.

With a diagonal process-noise covariance and scalar observation coefficients
the d-dimensional filter decomposes into d independent scalar filters, so
every operation here works element-wise on arrays of any matching shape
(per-server vectors or stacked (m, d) blocks alike). The engine sums the
neighbours' information contributions u = H z / R_hat and U = H^2 / R_hat
over the adjacency and passes the totals to update_from_delta. A flooding
run releases each server's flood_average instead, and a stretch of
timestamps that takes no evidence is one coast.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coast",
    "combined_variance",
    "effective_variance",
    "flood_average",
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
    floats never warn: an overflow gives inf silently, and the engine refuses
    a private observation whose R_hat or weight is not finite
    (RunDivergedError), whatever the warning filter.
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


def initialize(released, coefficient, weight, transition_t, gain, process_var):
    """First-timestamp prior from the first released observation.

    prior = released / coefficient with initial weight m0 = weight, the
    observation's coefficient^2 / R_hat as the engine fuses it; a server
    with no users starts at 0 with an uninformative variance. transition_t
    and gain are as in predict.
    """
    safe = np.where(coefficient > 0, coefficient, 1.0)
    estimate = np.where(coefficient > 0, released / safe, 0.0)
    m0 = np.where(coefficient > 0, weight, uninformed_variance(process_var))
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


def flood_average(known):
    """The releases of a blind flood that left each server the payloads known marks.

    Returns a function from a C-contiguous (k, m, d) stack of posteriors,
    one (m, d) block per timestamp, to the stack of releases, (k, 1, d) when
    every server holds every payload. Servers holding the same payload set
    must release bitwise identical averages, so each distinct set is summed
    once in index order instead of letting a blocked matmul pick the order.
    Summed over axis 1, the stack and each (k, g, d) take add every
    timestamp's rows as that timestamp's (g, d) block alone would, so a
    release does not depend on how many timestamps come at once.
    """
    uniq, inverse = np.unique(known, axis=0, return_inverse=True)
    counts = uniq.sum(axis=1).astype(float)[:, None]
    if len(uniq) == 1:  # every server holds every payload
        return lambda stack: np.add.reduce(stack, axis=1, keepdims=True) / counts
    groups = [np.flatnonzero(row) for row in uniq]

    def average(stack):
        sums = [np.add.reduce(stack.take(group, axis=1), axis=1) for group in groups]
        return (np.stack(sums, axis=1) / counts)[:, inverse]

    return average


def coast(posterior, posterior_var, transition_t, gain, process_var, consensus_step, steps):
    """steps time updates that take no evidence; returns their stacked
    (posteriors, posterior variances), each (steps, *posterior.shape), or
    None where the shortcut below needs a value it does not have.

    Each step is bitwise a round of predict and then update_from_delta with
    fused_value = fused_weight = +0.0 (a neighbour's link @ zeros adds only
    +0.0 products), which computes 1 / (1/prior_var + 0.0) and
    prior + pv * (0.0 - 0.0 * prior) + (consensus_step * prior_var) * 0.0.
    Here the posterior is prior + 0.0 and the variance 1 / (1 / prior_var):
    - 1/prior_var + 0.0 is 1/prior_var unless that is -0.0, which needs
      prior_var = -inf;
    - for a finite prior, 0.0 * prior is a zero, and 0.0 minus a zero is
      +0.0; times a finite positive pv that stays +0.0;
    - for a finite consensus_step * prior_var, its product with 0.0 is a
      zero. So is the consensus term of a server with neighbours, gain *
      prior_delta: its gain divides that product by |prior_var| + 1 >= 1,
      and with no neighbour broadcasting, prior_delta is link @ (0.0 * prior)
      minus 0.0 * prior, a zero;
    - prior + 0.0 is never -0.0, and adding a zero of either sign to it
      leaves it as it is.
    So the result is None unless every posterior is finite, every variance
    finite and positive, and every consensus_step * prior_var finite, for a
    consensus_step >= 0 (as ExperimentConfig.validate requires). Where
    numpy would warn in a round, one of these fails, so a caller that falls
    back to the rounds themselves keeps their warnings.
    """
    stacks = np.empty((3, steps, *np.shape(posterior)))
    posteriors, prior_vars, variances = stacks
    with np.errstate(all="ignore"):
        for posterior_out, prior_var, posterior_var_out in zip(posteriors, prior_vars, variances):
            np.add(posterior @ transition_t, 0.0, out=posterior_out)
            np.multiply(gain, posterior_var, out=prior_var)
            prior_var += process_var
            np.divide(1.0, prior_var, out=posterior_var_out)
            np.divide(1.0, posterior_var_out, out=posterior_var_out)
            posterior, posterior_var = posterior_out, posterior_var_out
        # with every value finite, consensus_step >= 0 scales the largest
        # prior_var to the largest product
        if not (np.isfinite(stacks).all() and variances.min() > 0.0
                and consensus_step * prior_vars.max() < np.inf):
            return None
    return posteriors, variances
