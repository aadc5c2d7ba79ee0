"""End-to-end protocol runs.

All six algorithms share one synchronous two-phase engine (sense/perturb/
broadcast, then fuse/update/release) parameterized by a policy record, so
the degenerate equivalences between them (FAST is DPCrowd minus neighbors,
the windowed baseline with w = T matches DPCrowd, ...) hold by construction,
draw for draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import kcif
from .config import _POLICIES, ConfigError, ExperimentConfig, _Policy
from .datasets import build_transition, generate_stream, load_csv
from .grouping import GroupingThresholds, group_regions, may_merge, perturb_groups, \
    predict_region
from .model import NonFiniteStreamError, ProcessModel, partition_users
from .netsim import CommStats, LatencyPlan, TopologySchedule, degrees, flood_payload_bytes, \
    flood_reachability, max_delivery_latency, message_num_bytes
from .privacy import BudgetError, PrivacyLedger, allocate_adaptive, allocate_uniform, \
    perturb_count
from .sampling import PidController, SamplingSchedule, feedback_error, next_interval, \
    next_interval_plus

__all__ = [
    "RunDivergedError",
    "RunResult",
    "run_experiment",
]


class RunDivergedError(RuntimeError):
    """A run reached a non-finite release, feedback error or observation
    weight, so it has no report."""


@dataclass
class RunResult:
    """Everything a run releases plus its accounting."""

    config: ExperimentConfig
    truth: np.ndarray  # (T, d)
    releases: np.ndarray  # (m, T, d)
    observations: np.ndarray  # (m, T, d): the DP-protected values fed to estimation
    posterior_var: np.ndarray  # (m, T, d)
    broadcast: np.ndarray  # (m, T) bool: actual transmissions
    sampled: np.ndarray  # (m, T, d) bool: fresh-observation timestamps per dimension
    stats: CommStats
    ledgers: list[PrivacyLedger] | None

    def verify(self) -> None:
        """Completeness and budget soundness; raises on violation."""
        m, timestamps, d = self.releases.shape
        if self.truth.shape != (timestamps, d):
            raise AssertionError("truth shape does not match releases")
        bad = np.argwhere(~np.isfinite(self.releases))
        if len(bad):
            i, tidx, k = bad[0]
            raise RunDivergedError(
                f"run diverged: non-finite release {self.releases[i, tidx, k]} at server {i}, "
                f"t={tidx + 1}, dimension {k} ({len(bad)} non-finite values in all)"
            )
        if self.broadcast.shape != (m, timestamps):
            raise AssertionError("broadcast mask shape mismatch")
        if len(self.stats.packets_by_t) != timestamps:
            raise AssertionError("per-timestamp packet trace incomplete")
        if self.ledgers is not None:
            for ledger in self.ledgers:
                ledger.audit()


def _build_process(cfg: ExperimentConfig) -> ProcessModel:
    transition = build_transition(cfg.model.d, cfg.model.a, cfg.model.a_offdiag)
    if not np.isfinite(transition).all():  # model.a - model.a_offdiag overflowed
        raise ConfigError(
            f"model.a = {cfg.model.a:g} and model.a_offdiag = {cfg.model.a_offdiag:g} give"
            " a non-finite transition matrix"
        )
    return ProcessModel(transition=transition, noise_var=cfg.model.q)


def _make_truth(cfg: ExperimentConfig, model: ProcessModel, rng: np.random.Generator) -> np.ndarray:
    if cfg.data.source == "csv":
        stream = load_csv(cfg.data.path)
        if stream.d != cfg.model.d:
            raise ConfigError(
                f"data file has {stream.d} dimensions but model.d = {cfg.model.d}"
            )
        if stream.timestamps < cfg.timestamps:
            raise ConfigError(
                f"data file has {stream.timestamps} rows but timestamps = {cfg.timestamps}"
            )
        return stream.values[: cfg.timestamps].copy()
    try:
        return generate_stream(
            model, cfg.data.initial, cfg.timestamps, rng, clamp=cfg.data.clamp
        ).values
    except NonFiniteStreamError:
        raise ConfigError(
            f"model.a = {cfg.model.a:g} and model.a_offdiag = {cfg.model.a_offdiag:g} generate"
            f" a non-finite stream over {cfg.timestamps} timestamps"
        ) from None


def _grouping_thresholds(cfg: ExperimentConfig) -> GroupingThresholds:
    # eps_avg: the mean per-timestamp budget eps/w of a fully spent window,
    # positive here (ExperimentConfig.validate)
    eps_avg = cfg.epsilon / cfg.w
    eta1 = cfg.grouping.eta1
    if eta1 is None:
        eta1 = 2.0 * math.sqrt(2.0) * cfg.sensitivity_c / eps_avg
    eta3 = cfg.grouping.eta3
    if eta3 is None:
        eta3 = eta1 / 2.0
    return GroupingThresholds(
        large_value=eta1, value_gap=eta3, trend_gap=cfg.grouping.eta2,
        history_window=cfg.grouping.tau,
    )


def _check_consensus_stability(adj: np.ndarray, beta: float) -> None:
    """Refuse a consensus step under which the disagreement dynamics diverge.

    They contract only while beta * lambda_max(graph Laplacian) < 2. Since
    lambda_max <= 2 * max degree, the eigenvalue is needed only near the bound.
    """
    deg = degrees(adj)
    if beta * 2 * deg.max() < 2:
        return
    lam = float(np.linalg.eigvalsh(np.diag(deg) - adj.astype(float))[-1])
    if beta * lam >= 2:
        raise ConfigError(
            f"kcif.beta = {beta:g} is unstable on this topology: beta * lambda_max(Laplacian)"
            f" must be < 2, but lambda_max = {lam:.6g} (kcif.beta must be < {2 / lam:.6g})"
        )


def _simulate(cfg: ExperimentConfig, policy: _Policy) -> RunResult:
    d = cfg.model.d
    m = cfg.net.m
    timestamps = cfg.timestamps
    sensitivity = cfg.sensitivity_c
    private = policy.private
    adaptive = policy.adaptive
    grouping = adaptive and cfg.grouping.enabled
    fixed_sampling = cfg.sampling.mode == "fixed"
    epsilon, mu, p_max = cfg.epsilon, cfg.mu, cfg.p_max
    pid_delta, theta, xi = cfg.pid.delta, cfg.pid.theta, cfg.pid.xi
    alpha, beta = cfg.kcif.alpha, cfg.kcif.beta
    variance_floor = cfg.kcif.variance_floor
    clamp = cfg.kcif.clamp_releases
    latency_center = cfg.net.latency_ms_center
    process = _build_process(cfg)
    transition = process.transition
    q_diag = process.noise_var
    # run constants of the time update
    transition_t = transition.T
    gain = kcif.prediction_gain(transition)

    master = np.random.SeedSequence(cfg.seed)
    data_key, partition_key, latency_key, topology_key, *server_keys = master.spawn(4 + m)
    data_rng = np.random.default_rng(data_key)
    partition_rng = np.random.default_rng(partition_key)
    latency_rng = np.random.default_rng(latency_key)
    server_rngs = [np.random.default_rng(key) for key in server_keys]

    truth = _make_truth(cfg, process, data_rng)
    topo_seed = cfg.net.seed
    if topo_seed is None:
        topo_seed = int(np.random.default_rng(topology_key).integers(0, 2**31 - 1))
    topo = TopologySchedule(m=m, density=cfg.net.rho, seed=topo_seed, dynamic=cfg.net.dynamic)

    # User partitions as (partitions, m, 1) columns: the set-up draw for a
    # fixed partition; a repartitioned run leaves that draw unused and takes
    # the next one at each timestamp.
    sizes = partition_users(cfg.users, m, partition_rng)[None]
    if not cfg.model.freeze_partition:
        sizes = np.stack([partition_users(cfg.users, m, partition_rng) for _ in range(timestamps)])
    coeffs = sizes[:, :, None] / float(cfg.users)
    coeff_sqs = coeffs * coeffs

    # Per-server observation-noise draws come off that server's own stream as
    # standard normals and are turned into the raw aggregates of the whole run
    # in place: x = noise * (coeff * sd) + coeff * truth.
    obs_noise = np.stack([rng.standard_normal((timestamps, d)) for rng in server_rngs])
    noise_scale = coeffs * np.sqrt(q_diag)
    for i, x in enumerate(obs_noise):
        x *= noise_scale[:, i]
        x += coeffs[:, i] * truth
    # per-timestamp rows; with one partition, broadcasts of its one row
    sensing_parts = coeff_sqs * q_diag
    coeffs, coeff_sqs, sensings = (
        np.broadcast_to(a, (timestamps, m, a.shape[2]))
        for a in (coeffs, coeff_sqs, sensing_parts)
    )

    ledgers: list[PrivacyLedger] | None = None
    if private:
        ledger_w = cfg.w if policy.w_event else timestamps
        ledgers = [PrivacyLedger(epsilon, dims=d, w=ledger_w) for _ in range(m)]
    else:
        # a non-private run observes every pair every timestamp, each with
        # max(R_hat, floor) at eps = inf
        sampled = np.ones((m, d), dtype=bool)
        rhat_plain = np.broadcast_to(np.maximum(
            kcif.effective_variance(sensing_parts, math.inf, sensitivity, alpha=alpha),
            variance_floor,
        ), (timestamps, m, d))
    eps_max = epsilon * cfg.eps_max_fraction
    thresholds = _grouping_thresholds(cfg) if grouping else None
    tau = cfg.grouping.tau

    block_len = cfg.w if policy.window_restart else timestamps

    releases = np.empty((m, timestamps, d))
    # a non-private run observes its raw aggregates; a private one writes
    # each timestamp's z straight into its row
    observations = np.empty((m, timestamps, d)) if private else obs_noise
    posterior_var_trace = np.empty((m, timestamps, d))
    sampled_trace = np.zeros((m, timestamps, d), dtype=bool)
    packet_bytes = message_num_bytes(d) if policy.communicate else flood_payload_bytes(d)

    adj_needed = (policy.communicate or policy.flood) and m > 1
    # a lone server has no one to send to; with neighbours a flooding run
    # broadcasts from every server every timestamp, and a one-hop run's
    # broadcasters are the servers that sampled, found after the loop
    broadcast_trace = np.full((m, timestamps), adj_needed and policy.flood)
    # per-adjacency work runs once per adjacency array: once a run on a
    # static topology, once a timestamp on a dynamic one; each array leaves
    # its node degrees (one-hop) or its flood's LatencyPlan here
    dynamic = cfg.net.dynamic
    traffic = []
    # A private run coasts from a timestamp with nothing due to the next
    # calendar key, block start or run end in one kcif.coast; a stretch whose
    # coast is not finite takes the per-timestamp body up to step_until.
    coasted_until = step_until = 0

    for tidx in range(timestamps):
        if tidx < coasted_until:
            continue
        t = tidx + 1
        if tidx % block_len == 0:
            # Block start: fresh filters and, in private runs, fresh schedules
            # and PID state. Uniform allocation splits the budget evenly over
            # the block's planned samples and caps the schedules at that count;
            # adaptive allocation runs in infinite-stream mode with no cap.
            block_start, block_rows = tidx, min(block_len, timestamps - tidx)
            if private:
                cap = None
                if not adaptive:
                    cap = cfg.sampling.planned_samples(block_rows)
                    eps_uniform = allocate_uniform(epsilon, cap)
                schedules = [
                    [
                        SamplingSchedule(
                            interval=cfg.sampling.interval, next_sample_t=t, max_samples=cap
                        )
                        for _ in range(d)
                    ]
                    for _ in range(m)
                ]
                pids = [
                    [
                        PidController(
                            proportional=cfg.pid.cp, integral=cfg.pid.ci,
                            derivative=cfg.pid.cd, window=cfg.pid.ti,
                        )
                        for _ in range(d)
                    ]
                    for _ in range(m)
                ]
                # next-sample calendar: timestamp -> the (server, dimension)
                # pairs whose schedule comes up then; only these are asked
                calendar = {t: [(i, k) for i in range(m) for k in range(d)]}
            posterior = np.zeros((m, d))
            posterior_var = np.tile(kcif.uninformed_variance(q_diag), (m, 1))
            initialized = np.zeros((m, d), dtype=bool)
            all_initialized = False

        if adj_needed and (dynamic or not tidx):
            adj = topo.adjacency_at(t)
            if policy.communicate:
                _check_consensus_stability(adj, beta)
                link = adj.astype(float)
                traffic.append(degrees(adj))
            else:
                known, flood_rounds = flood_reachability(adj)
                traffic.append(LatencyPlan.of(flood_rounds))
                average = kcif.flood_average(known)
        coeff_col, coeff_sq_col = coeffs[tidx], coeff_sqs[tidx]
        # Raw aggregates: consumed by the perturbation/selection block below
        # and by nothing else in private modes.
        x_raw = obs_noise[:, tidx]

        if not private:
            z = x_raw
            u = coeff_col * z / rhat_plain[tidx]
            weight = coeff_sq_col / rhat_plain[tidx]
        else:
            due_pairs = calendar.pop(t, ())
            if not due_pairs and tidx >= step_until:
                # A block's first timestamp is due, so tidx > block_start. A
                # dynamic topology's own adjacency at each timestamp costs more
                # than the filter step, and stays per timestamp: its stretches
                # are one timestamp long.
                end = t if adj_needed and dynamic else min(
                    block_start + block_rows, min(calendar, default=timestamps + 1) - 1)
                coasted = kcif.coast(posterior, posterior_var, transition_t, gain, q_diag,
                                     beta, end - tidx)
                if coasted is None:
                    step_until = end
                else:
                    posteriors, variances = coasted
                    stretch = average(posteriors) if policy.flood and m > 1 else posteriors
                    if clamp:
                        stretch = np.maximum(stretch, 0.0)
                    releases[:, tidx:end] = stretch.swapaxes(0, 1)
                    observations[:, tidx:end] = releases[:, tidx - 1:end - 1]
                    posterior_var_trace[:, tidx:end] = variances.swapaxes(0, 1)
                    posterior, posterior_var = posteriors[-1], variances[-1]
                    coasted_until = end
                    continue
            # An unsampled dimension repeats the server's previous release.
            z = observations[:, tidx]
            z[...] = releases[:, tidx - 1] if tidx else 0.0
            granted_by_server: dict[int, list[int]] = {}
            # a private timestamp writes each granted pair's values in Python
            # floats; the other pairs keep zero u and weight
            sampled = np.zeros((m, d), dtype=bool)
            u = np.zeros((m, d))
            weight = np.zeros((m, d))
            forecasts = None  # every server's forecasts, once a timestamp
            eps_left_after: dict[tuple[int, int], float] = {}
            # sorted, so each server's popped dimensions come in ascending order
            for i, popped in itertools.groupby(sorted(due_pairs), key=itemgetter(0)):
                ledger, schedule_row = ledgers[i], schedules[i]
                grant_row = [0.0] * d
                granted: list[int] = []
                for _, k in popped:
                    schedule = schedule_row[k]
                    if not schedule.is_sampling_point(t):  # False once a cap is used up
                        continue
                    if adaptive:
                        before = ledger.remaining_window(k, t)
                        grant = allocate_adaptive(before, schedule.interval, mu, p_max, eps_max)
                    else:
                        grant = eps_uniform
                        before = math.inf
                    if grant > 0.0:
                        try:
                            ledger.charge(k, t, grant)
                        except BudgetError:
                            grant = 0.0
                    if grant <= 0.0:
                        schedule.note_skipped(t)
                        calendar.setdefault(schedule.next_sample_t, []).append((i, k))
                        continue
                    granted.append(k)
                    grant_row[k] = grant
                    sampled[i, k] = True
                    # >= 0: allocate_adaptive grants at most p_max * before <= before
                    eps_left_after[i, k] = before - grant
                if not granted:
                    continue
                granted_by_server[i] = granted
                rng = server_rngs[i]
                # A lone grant, or grants that may_merge keeps apart, form
                # singleton groups, whose draws in ascending dimension order
                # are bitwise perturb_count's, so they skip grouping.
                shares = None
                if grouping and len(granted) > 1:
                    if forecasts is None:
                        # each forecast has the bits of predict_region over the
                        # server's granted columns
                        forecasts = predict_region(
                            releases[:, max(0, tidx - tau):tidx].swapaxes(0, 1), tau
                        )
                    predictions = [forecasts.item(i, k) for k in granted]
                    if may_merge(predictions, thresholds):
                        # trends read only the last tau releases of the
                        # granted columns
                        recent = releases[i, max(0, tidx - tau):tidx][:, granted]
                        partition = group_regions(granted, predictions, recent, thresholds)
                        shares = perturb_groups(
                            partition, x_raw[i].tolist(), grant_row, sensitivity, rng
                        )
                coeff, coeff_sq = coeff_col.item(i, 0), coeff_sq_col.item(i, 0)
                for k in granted:
                    if shares is None:
                        released = perturb_count(x_raw.item(i, k), sensitivity, grant_row[k], rng)
                    else:
                        released = shares[k]
                    z[i, k] = released
                    # max(R_hat, floor): at least variance_floor > 0, so
                    # nothing divides by zero
                    r = kcif.combined_variance(
                        sensings.item(tidx, i, k), grant_row[k], sensitivity, alpha
                    )
                    if r < variance_floor:
                        r = variance_floor
                    value, info = coeff * released / r, coeff_sq / r
                    if not (math.isfinite(r) and math.isfinite(value) and math.isfinite(info)):
                        # an overflowed R_hat or weight, or a non-finite release
                        raise RunDivergedError(
                            f"run diverged: non-finite observation weight at server {i},"
                            f" t={t}, dimension {k} (grant {grant_row[k]}, R_hat {r})"
                        )
                    u[i, k], weight[i, k] = value, info

        prior, prior_var = kcif.predict(posterior, posterior_var, transition_t, gain, q_diag)
        if not all_initialized:
            init_mask = sampled & ~initialized
            if init_mask.any():
                init_prior, init_var = kcif.initialize(
                    z, coeff_col, weight, transition_t, gain, q_diag
                )
                prior = np.where(init_mask, init_prior, prior)
                prior_var = np.where(init_mask, init_var, prior_var)
                initialized |= sampled
                all_initialized = initialized.all()
        fused_value, fused_weight = u, weight

        prior_delta = None  # no neighbours' priors: no consensus term
        if policy.communicate and m > 1:
            active = sampled.any(axis=1)
            fused_value = fused_value + link @ u
            fused_weight = fused_weight + link @ weight
            nbr_count = link @ active.astype(float)
            prior_sum = link @ (prior * active[:, None])
            prior_delta = prior_sum - nbr_count[:, None] * prior

        posterior, posterior_var = kcif.update_from_delta(
            prior, prior_var, fused_value, fused_weight, prior_delta, beta
        )

        release_t = posterior
        if policy.flood and m > 1:
            release_t = average(posterior[None])[0]
        if clamp:
            release_t = np.maximum(release_t, 0.0)
        releases[:, tidx] = release_t
        posterior_var_trace[:, tidx] = posterior_var
        sampled_trace[:, tidx] = sampled

        if private:
            # granted pairs in (server, dimension) order, as np.nonzero(sampled)
            for i, granted in granted_by_server.items():
                schedule_row, pid_row = schedules[i], pids[i]
                for k in granted:
                    schedule = schedule_row[k]
                    if fixed_sampling:
                        schedule.note_sampled(t)
                    else:
                        err = feedback_error(prior.item(i, k), posterior.item(i, k), pid_delta)
                        if not math.isfinite(err):
                            raise RunDivergedError(
                                f"run diverged: non-finite feedback error {err} at server {i},"
                                f" t={t}, dimension {k}"
                            )
                        control = pid_row[k].update(err, t)
                        if adaptive:
                            interval = next_interval_plus(
                                schedule.interval, control, eps_left_after[i, k], theta
                            )
                        else:
                            interval = next_interval(schedule.interval, control, theta, xi)
                        schedule.note_sampled(t, interval)
                    calendar.setdefault(schedule.next_sample_t, []).append((i, k))

    # Traffic follows from what the run recorded. A one-hop server
    # broadcasts where it sampled, to each neighbour; a flood sends its
    # plan's deliveries. A one-hop exchange is one round, so the run's
    # rounds make one plan for the latency maximum.
    plans, packets_by_t = [], [0] * timestamps
    if adj_needed and policy.communicate:
        broadcast_trace = sampled_trace.any(axis=2)
        packets_by_t = (np.stack(traffic) * broadcast_trace.T).sum(axis=1).tolist()
        plans = [LatencyPlan.of([sum(packets_by_t)])]
    elif adj_needed:
        plans = traffic if dynamic else traffic * timestamps
        packets_by_t = [plan.starts[-1] for plan in plans]
    stats = CommStats.of(
        packets_by_t, packet_bytes, max_delivery_latency(plans, latency_rng, latency_center),
        broadcast_trace.sum(axis=1),
    )

    result = RunResult(
        config=cfg,
        truth=truth,
        releases=releases,
        observations=observations,
        posterior_var=posterior_var_trace,
        broadcast=broadcast_trace,
        sampled=sampled_trace,
        stats=stats,
        ledgers=ledgers,
    )
    result.verify()
    return result


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Validate cfg and run its algorithm's policy through the engine."""
    cfg.validate()
    return _simulate(cfg, _POLICIES[cfg.algorithm])
