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
from .grouping import GroupingThresholds, group_regions, perturb_groups, predict_region
from .model import NonFiniteStreamError, ProcessModel, partition_users
from .netsim import CommStats, TopologySchedule, _delivery_latency, degrees, \
    flood_payload_bytes, flood_reachability, message_num_bytes
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
    """A run reached a non-finite release or feedback error, so it has no report."""


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


def _planned_samples(mode: str, length: int, interval: int, fraction: float) -> int:
    """Sampling-point budget for one stream segment."""
    if mode == "fixed":
        return math.ceil(length / interval)
    return max(1, math.floor(fraction * length))


def _grouping_thresholds(cfg: ExperimentConfig) -> GroupingThresholds:
    # eps_avg: the mean per-timestamp budget eps/w of a fully spent window.
    eps_avg = cfg.epsilon / max(cfg.w, 1)
    eta1 = cfg.grouping.eta1
    if eta1 is None:
        if eps_avg == 0.0:
            raise ConfigError(
                f"epsilon / w underflows to 0 (epsilon = {cfg.epsilon!r}, w = {cfg.w}), so the"
                " default grouping.eta1 has no value"
            )
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
    variance_floor, stale_self = cfg.kcif.variance_floor, cfg.kcif.fuse_stale_self
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
    # frozen partition; a repartitioned run leaves that draw unused and takes
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
    # per-timestamp rows; a frozen partition's are views of its one partition
    coeffs, coeff_sqs, sensings = (
        np.broadcast_to(a, (timestamps, m, a.shape[2]))
        for a in (coeffs, coeff_sqs, coeff_sqs * q_diag)
    )

    ledgers: list[PrivacyLedger] | None = None
    if private:
        ledger_w = cfg.w if policy.w_event else timestamps
        ledgers = [PrivacyLedger(epsilon, dims=d, w=ledger_w) for _ in range(m)]
    else:
        # a non-private run observes every pair every timestamp; inf drops the
        # perturbation term from R_hat
        sampled = np.ones((m, d), dtype=bool)
        eps_used = np.full((m, d), np.inf)
    eps_max = epsilon * cfg.eps_max_fraction
    thresholds = _grouping_thresholds(cfg) if grouping else None
    tau = cfg.grouping.tau

    block_len = cfg.w if policy.window_restart else timestamps

    releases = np.empty((m, timestamps, d))
    observations = np.empty((m, timestamps, d))
    posterior_var_trace = np.empty((m, timestamps, d))
    sampled_trace = np.zeros((m, timestamps, d), dtype=bool)
    # a flooding run broadcasts from every server every timestamp; a one-hop
    # run records its broadcasters as it goes
    broadcast_trace = np.full((m, timestamps), policy.flood)
    stats = CommStats(broadcasts=np.full(m, timestamps if policy.flood else 0, dtype=np.int64))
    packet_bytes = message_num_bytes(d) if policy.communicate else flood_payload_bytes(d)
    no_delta = np.zeros((m, d))

    adj_needed = (policy.communicate or policy.flood) and m > 1
    # per-adjacency work runs once per adjacency array: once a run on a
    # static topology, once a timestamp on a dynamic one
    seen_adj = None

    for tidx in range(timestamps):
        t = tidx + 1
        if tidx % block_len == 0:
            # Block start: fresh filters and, in private runs, fresh schedules
            # and PID state. Uniform allocation splits the budget evenly over
            # the block's planned samples and caps the schedules at that count;
            # adaptive allocation runs in infinite-stream mode with no cap.
            if private:
                cap = None
                if not adaptive:
                    cap = _planned_samples(
                        cfg.sampling.mode, min(block_len, timestamps - tidx),
                        cfg.sampling.interval, cfg.sampling.max_fraction,
                    )
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
            last_rhat = np.full((m, d), np.inf)

        adj = topo.adjacency_at(t) if adj_needed else None
        if adj is not seen_adj:
            seen_adj = adj
            if policy.communicate:
                _check_consensus_stability(adj, beta)
                link = adj.astype(float)
                degree = degrees(adj)
            else:
                known, _, _, flood_rounds = flood_reachability(adj)
                counts = known.sum(axis=1).astype(float)[:, None]
                # servers holding the same payload set must release bitwise
                # identical averages, so sum each distinct set once in index
                # order instead of letting a blocked matmul pick the order
                uniq, inverse = np.unique(known, axis=0, return_inverse=True)
        coeff_col, coeff_sq_col, sensing = coeffs[tidx], coeff_sqs[tidx], sensings[tidx]
        # Raw aggregates: consumed by the perturbation/selection block below
        # and by nothing else in private modes.
        x_raw = obs_noise[:, tidx, :]

        if not private:
            z = x_raw
        else:
            grants = np.zeros((m, d))
            # An unsampled dimension repeats the server's previous release.
            z = releases[:, tidx - 1, :].copy() if tidx else np.zeros((m, d))
            eps_left_after: dict[tuple[int, int], float] = {}
            granted_by_server: dict[int, list[int]] = {}
            # sorted, so each server's popped dimensions come in ascending order
            for i, popped in itertools.groupby(sorted(calendar.pop(t, ())), key=itemgetter(0)):
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
                    eps_left_after[i, k] = max(0.0, min(before, epsilon) - grant)
                if not granted:
                    continue
                granted_by_server[i] = granted
                grants[i] = grant_row
                x_row, z_row, rng = x_raw[i].tolist(), z[i], server_rngs[i]
                if grouping and len(granted) > 1:
                    # forecasts and trends read only the last tau releases of
                    # the granted columns; a lone grant is a group of its own,
                    # whose draw is bitwise perturb_count's, so it skips this
                    recent = releases[i, max(0, tidx - tau):tidx][:, granted]
                    predictions = predict_region(recent, tau)
                    partition = group_regions(granted, predictions, recent, thresholds)
                    shares = perturb_groups(partition, x_row, grant_row, sensitivity, rng)
                    for k, value in shares.items():
                        z_row[k] = value
                else:
                    for k in granted:
                        z_row[k] = perturb_count(x_row[k], sensitivity, grant_row[k], rng)
            # every grant is positive; eps_used stays inf wherever no noise
            # was added, which drops the perturbation term from R_hat
            sampled = grants > 0.0
            eps_used = np.where(sampled, grants, np.inf)

        rhat = kcif.effective_variance(sensing, eps_used, sensitivity, alpha=alpha)
        rhat = np.maximum(rhat, variance_floor)

        prior, prior_var = kcif.predict(posterior, posterior_var, transition_t, gain, q_diag)
        init_mask = sampled & ~initialized
        if init_mask.any():
            init_prior, init_var = kcif.initialize(z, coeff_col, rhat, transition_t, gain, q_diag)
            prior = np.where(init_mask, init_prior, prior)
            prior_var = np.where(init_mask, init_var, prior_var)
            initialized |= sampled

        u = np.where(sampled, coeff_col * z / rhat, 0.0)
        weight = np.where(sampled, coeff_sq_col / rhat, 0.0)
        if stale_self:
            # Local-only reuse of the stale value at its last effective variance.
            stale = ~sampled & initialized & np.isfinite(last_rhat)
            stale_u = np.where(stale, coeff_col * z / last_rhat, 0.0)
            stale_w = np.where(stale, coeff_sq_col / last_rhat, 0.0)
            last_rhat = np.where(sampled, rhat, last_rhat)
        else:
            stale_u = stale_w = 0.0

        active = sampled.any(axis=1)
        # deliveries per round of this timestamp's traffic; none when silent
        rounds: list[int] = []
        if policy.communicate and m > 1:
            fused_value = u + stale_u + link @ u
            fused_weight = weight + stale_w + link @ weight
            nbr_count = link @ active.astype(float)
            prior_sum = link @ (prior * active[:, None])
            prior_delta = prior_sum - nbr_count[:, None] * prior
            rounds = [int(degree[active].sum())]
            broadcast_trace[:, tidx] = active
        else:
            fused_value = u + stale_u
            fused_weight = weight + stale_w
            prior_delta = no_delta

        posterior, posterior_var = kcif.update_from_delta(
            prior, prior_var, fused_value, fused_weight, prior_delta, beta
        )

        release_t = posterior
        if policy.flood and m > 1:
            sums = np.stack([posterior[row].sum(axis=0) for row in uniq])
            release_t = sums[inverse] / counts
            rounds = flood_rounds
        elif policy.communicate:
            stats.broadcasts += active
        packets = sum(rounds)
        latency = _delivery_latency(rounds, latency_rng, latency_center)
        stats.record_round(packets, packets * packet_bytes, latency)

        if cfg.kcif.clamp_releases:
            release_t = np.maximum(release_t, 0.0)
        releases[:, tidx, :] = release_t
        observations[:, tidx, :] = z
        posterior_var_trace[:, tidx, :] = posterior_var
        sampled_trace[:, tidx, :] = sampled

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
