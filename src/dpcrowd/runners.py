"""End-to-end protocol runs.

All six algorithms share one synchronous two-phase engine (sense/perturb/
broadcast, then fuse/update/release) parameterized by a policy record, so
the degenerate equivalences between them (FAST is DPCrowd minus neighbors,
the windowed baseline with w = T matches DPCrowd, ...) hold by construction,
draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kcif
from .config import ExperimentConfig, ConfigError
from .datasets import build_transition, generate_stream, load_csv
from .grouping import GroupingThresholds, group_regions, perturb_groups, predict_region
from .model import ProcessModel, partition_users
from .netsim import CommStats, TopologySchedule, _delivery_latency, degrees, \
    flood_payload_bytes, flood_reachability, message_num_bytes
from .privacy import BudgetError, PrivacyLedger, allocate_adaptive, allocate_uniform, \
    perturb_count
from .sampling import PidController, SamplingSchedule, feedback_error, next_interval, \
    next_interval_plus

__all__ = [
    "RunDivergedError",
    "RunResult",
    "run_nonprivate",
    "run_dpcrowd",
    "run_dpcrowd_plus",
    "run_dpcrowd_w",
    "run_fast",
    "run_dfast",
    "run_experiment",
]

@dataclass(frozen=True)
class _Policy:
    ledger_mode: str | None  # 'user' | 'w_event' | None (no privacy)
    adaptive: bool  # w-event budget allocation, budget-aware intervals, grouping
    communicate: bool  # one-hop consensus exchange
    flood: bool  # network-wide flooding and unweighted averaging
    window_restart: bool  # restart filters/schedules every w timestamps


class RunDivergedError(RuntimeError):
    """A run finished with a non-finite release, so it has no report."""


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

    @property
    def m(self) -> int:
        return self.releases.shape[0]

    @property
    def timestamps(self) -> int:
        return self.releases.shape[1]

    @property
    def d(self) -> int:
        return self.releases.shape[2]

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
    d = cfg.model.d
    transition = build_transition(d, cfg.model.a, cfg.model.a_offdiag)
    q = np.asarray(cfg.model.q, dtype=float)
    if q.shape == (1,) and d > 1:
        q = np.full(d, float(q[0]))
    return ProcessModel(transition=transition, noise_var=q)


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
    initial = np.asarray(cfg.data.initial, dtype=float)
    if initial.shape == (1,) and cfg.model.d > 1:
        initial = np.full(cfg.model.d, float(initial[0]))
    return generate_stream(model, initial, cfg.timestamps, rng, clamp=cfg.data.clamp).values


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
    cfg.validate()
    d = cfg.model.d
    m = cfg.net.m
    timestamps = cfg.timestamps
    sensitivity = cfg.sensitivity_c
    private = policy.ledger_mode is not None
    grouping = policy.adaptive and cfg.grouping.enabled
    process = _build_process(cfg)
    transition = process.transition
    q_diag = process.noise_var

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

    sizes = partition_users(cfg.users, m, partition_rng)
    coeff = sizes / float(cfg.users)

    # Per-server observation-noise draws come off that server's own stream,
    # pre-drawn as standard normals and scaled per timestamp.
    obs_noise = np.stack([rng.standard_normal((timestamps, d)) for rng in server_rngs])

    ledgers: list[PrivacyLedger] | None = None
    if private:
        ledgers = [
            PrivacyLedger(policy.ledger_mode, cfg.epsilon, dims=d, w=cfg.w)
            for _ in range(m)
        ]
    eps_max = cfg.epsilon * cfg.eps_max_fraction
    thresholds = _grouping_thresholds(cfg) if grouping else None

    block_len = cfg.w if policy.window_restart else timestamps
    uninformed = np.where(q_diag > 0, kcif.UNINFORMED_VARIANCE_SCALE * q_diag,
                          kcif.UNINFORMED_VARIANCE_SCALE)

    releases = np.empty((m, timestamps, d))
    observations = np.empty((m, timestamps, d))
    posterior_var_trace = np.empty((m, timestamps, d))
    broadcast_trace = np.zeros((m, timestamps), dtype=bool)
    sampled_trace = np.zeros((m, timestamps, d), dtype=bool)
    stats = CommStats(broadcasts=np.zeros(m, dtype=np.int64))

    adj_needed = (policy.communicate or policy.flood) and m > 1
    checked_adj = flood_adj = None
    noise_scale = coeff[:, None] * np.sqrt(q_diag)[None, :]

    for tidx in range(timestamps):
        t = tidx + 1
        if tidx % block_len == 0:
            # Block start: fresh filters and, in private runs, fresh schedules
            # and PID state. Uniform allocation splits the budget evenly over
            # the block's planned samples and caps the schedules at that count;
            # adaptive allocation runs in infinite-stream mode with no cap.
            if private:
                cap = None
                if not policy.adaptive:
                    cap = _planned_samples(
                        cfg.sampling.mode, min(block_len, timestamps - tidx),
                        cfg.sampling.interval, cfg.sampling.max_fraction,
                    )
                    eps_uniform = allocate_uniform(cfg.epsilon, cap)
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
            posterior = np.zeros((m, d))
            posterior_var = np.tile(uninformed, (m, 1))
            initialized = np.zeros((m, d), dtype=bool)
            last_rhat = np.full((m, d), np.inf)

        adj = topo.adjacency_at(t) if adj_needed else None
        if policy.communicate and adj is not None and adj is not checked_adj:
            _check_consensus_stability(adj, cfg.kcif.beta)
            checked_adj = adj
        if not cfg.model.freeze_partition:
            sizes = partition_users(cfg.users, m, partition_rng)
            coeff = sizes / float(cfg.users)
            noise_scale = coeff[:, None] * np.sqrt(q_diag)[None, :]

        # Raw aggregates: consumed by the perturbation/selection block below
        # and by nothing else in private modes.
        x_raw = coeff[:, None] * truth[tidx][None, :] + noise_scale * obs_noise[:, tidx, :]

        # eps_used stays inf wherever no noise was added, which drops the
        # perturbation term from R_hat.
        eps_used = np.full((m, d), np.inf)
        if not private:
            sampled = np.ones((m, d), dtype=bool)
            z = x_raw
        else:
            sampled = np.zeros((m, d), dtype=bool)
            # An unsampled dimension repeats the server's previous release.
            z = releases[:, tidx - 1, :].copy() if tidx else np.zeros((m, d))
            eps_left_after = np.zeros((m, d))
            for i in range(m):
                due = [k for k in range(d) if schedules[i][k].is_sampling_point(t)]
                granted: list[int] = []
                grants = np.zeros(d)
                for k in due:
                    if policy.adaptive:
                        before = ledgers[i].remaining_window(k, t)
                        grant = allocate_adaptive(
                            ledgers[i], k, t, schedules[i][k].interval, cfg.mu, cfg.p_max,
                            eps_max,
                        )
                    else:
                        grant = eps_uniform
                        before = math.inf
                    if grant <= 0.0:
                        schedules[i][k].note_skipped(t)
                        continue
                    try:
                        ledgers[i].charge(k, t, grant)
                    except BudgetError:
                        schedules[i][k].note_skipped(t)
                        continue
                    granted.append(k)
                    grants[k] = grant
                    eps_left_after[i, k] = max(0.0, min(before, cfg.epsilon) - grant)
                if not granted:
                    continue
                sampled[i, granted] = True
                eps_used[i, granted] = grants[granted]
                if grouping:
                    history = releases[i, :tidx, :]
                    predictions = [
                        predict_region(history[:, k], thresholds.history_window)
                        for k in range(d)
                    ]
                    partition = group_regions(
                        granted, predictions, [history[:, k] for k in range(d)], thresholds,
                    )
                    shares = perturb_groups(
                        partition, x_raw[i], grants, sensitivity, server_rngs[i]
                    )
                    for k, value in sorted(shares.items()):
                        z[i, k] = value
                else:
                    for k in granted:
                        z[i, k] = perturb_count(
                            x_raw[i, k], sensitivity, grants[k], server_rngs[i]
                        )

        rhat = kcif.effective_variance(
            coeff[:, None], eps_used, sensitivity, q_diag[None, :], cfg.kcif.alpha
        )
        rhat = np.maximum(rhat, cfg.kcif.variance_floor)

        prior, prior_var = kcif.predict(posterior, posterior_var, transition, q_diag)
        init_mask = sampled & ~initialized
        if init_mask.any():
            init_prior, init_var = kcif.initialize(
                z, coeff[:, None], rhat, transition, q_diag
            )
            prior = np.where(init_mask, init_prior, prior)
            prior_var = np.where(init_mask, init_var, prior_var)
            initialized |= sampled

        u_full = coeff[:, None] * z / rhat
        w_full = (coeff * coeff)[:, None] / rhat
        u = np.where(sampled, u_full, 0.0)
        weight = np.where(sampled, w_full, 0.0)
        if cfg.kcif.fuse_stale_self:
            # Local-only reuse of the stale value at its last effective variance.
            stale = ~sampled & initialized & np.isfinite(last_rhat)
            stale_u = np.where(stale, coeff[:, None] * z / last_rhat, 0.0)
            stale_w = np.where(stale, (coeff * coeff)[:, None] / last_rhat, 0.0)
        else:
            stale_u = stale_w = 0.0
        last_rhat = np.where(sampled, rhat, last_rhat)

        active = sampled.any(axis=1)
        if policy.communicate and m > 1:
            link = adj.astype(float)
            fused_value = u + stale_u + link @ u
            fused_weight = weight + stale_w + link @ weight
            nbr_count = link @ active.astype(float)
            prior_sum = link @ (prior * active[:, None])
            prior_delta = prior_sum - nbr_count[:, None] * prior
            packets = int(degrees(adj)[active].sum())
            latency = _delivery_latency(packets, latency_rng, cfg.net.latency_ms_center)
            stats.record_round(packets, packets * message_num_bytes(d), latency)
            broadcast_trace[:, tidx] = active
        else:
            fused_value = u + stale_u
            fused_weight = weight + stale_w
            prior_delta = np.zeros((m, d))
            if not policy.flood:
                stats.record_round(0, 0, 0.0)

        posterior, posterior_var = kcif.update_from_delta(
            prior, prior_var, fused_value, fused_weight, prior_delta, cfg.kcif.beta
        )

        release_t = posterior
        if policy.flood:
            if m > 1:
                if adj is not flood_adj:
                    # a static topology is one array, flooded once per run
                    known, _, fpackets, rounds = flood_reachability(adj)
                    counts = known.sum(axis=1).astype(float)
                    # servers holding the same payload set must release bitwise
                    # identical averages, so sum each distinct set once in index
                    # order instead of letting a blocked matmul pick the order
                    uniq, inverse = np.unique(known, axis=0, return_inverse=True)
                    flood_adj = adj
                sums = np.stack([posterior[row].sum(axis=0) for row in uniq])
                release_t = sums[inverse] / counts[:, None]
                latency = sum(
                    _delivery_latency(forwards, latency_rng, cfg.net.latency_ms_center)
                    for forwards in rounds
                )
                stats.record_round(fpackets, fpackets * flood_payload_bytes(d), latency)
            else:
                stats.record_round(0, 0, 0.0)
            broadcast_trace[:, tidx] = True
            stats.broadcasts += 1
        elif policy.communicate:
            stats.broadcasts += active.astype(np.int64)

        if cfg.kcif.clamp_releases:
            release_t = np.maximum(release_t, 0.0)
        releases[:, tidx, :] = release_t
        observations[:, tidx, :] = z
        posterior_var_trace[:, tidx, :] = posterior_var
        sampled_trace[:, tidx, :] = sampled

        if private:
            for i, k in zip(*np.nonzero(sampled)):
                if cfg.sampling.mode == "fixed":
                    schedules[i][k].note_sampled(t)
                    continue
                err = feedback_error(float(prior[i, k]), float(posterior[i, k]), cfg.pid.delta)
                control = pids[i][k].update(err, t)
                if policy.adaptive:
                    interval = next_interval_plus(
                        schedules[i][k].interval, control, eps_left_after[i, k], cfg.pid.theta
                    )
                else:
                    interval = next_interval(
                        schedules[i][k].interval, control, cfg.pid.theta, cfg.pid.xi
                    )
                schedules[i][k].note_sampled(t, interval)

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


# ledger_mode None runs without privacy: raw aggregates, sampled every
# timestamp. adaptive turns on the budget-driven allocation, the budget-aware
# interval law and (unless grouping.enabled is false) dynamic grouping.
_POLICIES = {
    "nonprivate": _Policy(
        ledger_mode=None, adaptive=False, communicate=True, flood=False, window_restart=False,
    ),
    "dpcrowd": _Policy(
        ledger_mode="user", adaptive=False, communicate=True, flood=False, window_restart=False,
    ),
    "fast": _Policy(
        ledger_mode="user", adaptive=False, communicate=False, flood=False, window_restart=False,
    ),
    "dfast": _Policy(
        ledger_mode="user", adaptive=False, communicate=False, flood=True, window_restart=False,
    ),
    "dpcrowd_plus": _Policy(
        ledger_mode="w_event", adaptive=True, communicate=True, flood=False, window_restart=False,
    ),
    "dpcrowd_w": _Policy(
        ledger_mode="w_event", adaptive=False, communicate=True, flood=False, window_restart=True,
    ),
}


def run_nonprivate(cfg: ExperimentConfig) -> RunResult:
    """Algorithm with raw aggregates and full-rate broadcasting (no privacy)."""
    return _simulate(cfg, _POLICIES["nonprivate"])


def run_dpcrowd(cfg: ExperimentConfig) -> RunResult:
    """User-level private, intermittent, consensus-filtered estimation (d = 1)."""
    if cfg.model.d != 1:
        raise ConfigError("dpcrowd runs one-dimensional streams")
    return _simulate(cfg, _POLICIES["dpcrowd"])


def run_fast(cfg: ExperimentConfig) -> RunResult:
    """Per-server private filtering with adaptive sampling and no communication."""
    return _simulate(cfg, _POLICIES["fast"])


def run_dfast(cfg: ExperimentConfig) -> RunResult:
    """FAST locally, plus network-wide flooding and unweighted averaging."""
    return _simulate(cfg, _POLICIES["dfast"])


def run_dpcrowd_plus(cfg: ExperimentConfig) -> RunResult:
    """w-event private multi-dimensional estimation with budget-aware sampling
    and dynamic grouping."""
    return _simulate(cfg, _POLICIES["dpcrowd_plus"])


def run_dpcrowd_w(cfg: ExperimentConfig) -> RunResult:
    """Baseline: independent finite-stream runs on consecutive w-length blocks."""
    return _simulate(cfg, _POLICIES["dpcrowd_w"])


_RUNNERS = {
    "nonprivate": run_nonprivate,
    "dpcrowd": run_dpcrowd,
    "fast": run_fast,
    "dfast": run_dfast,
    "dpcrowd_plus": run_dpcrowd_plus,
    "dpcrowd_w": run_dpcrowd_w,
}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Dispatch on cfg.algorithm."""
    cfg.validate()
    return _RUNNERS[cfg.algorithm](cfg)
