import gc
import math
import tracemalloc
import types
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcrowd.cli import expand_runs
from dpcrowd.config import (
    _KEYS,
    _get,
    ALGORITHMS,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    GroupingConfig,
    KcifConfig,
    ModelConfig,
    NetConfig,
    SamplingConfig,
    apply_override,
    config_from_mapping,
    load_config,
)
from dpcrowd import RunDivergedError, kcif, runners
from dpcrowd.metrics import summarize
from dpcrowd.netsim import TopologySchedule, degrees, flood_reachability
from dpcrowd.privacy import BudgetError
from dpcrowd.runners import SamplingSchedule, run_experiment


def _cfg(**kw):
    base = dict(
        algorithm="dpcrowd",
        seed=17,
        timestamps=40,
        users=2000,
        epsilon=1.0,
        net=NetConfig(m=5, rho=0.5, seed=1234),
        model=ModelConfig(q=(1e3,)),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ------------------------------------------------------------ completeness

def test_every_server_releases_every_timestamp():
    res = run_experiment(_cfg())
    assert res.releases.shape == (5, 40, 1)
    assert np.isfinite(res.releases).all()
    assert np.isfinite(res.posterior_var).all()
    assert (res.posterior_var > 0).all()


def test_run_is_deterministic():
    a = run_experiment(_cfg())
    b = run_experiment(_cfg())
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.broadcast, b.broadcast)
    assert a.stats.packets == b.stats.packets
    assert a.stats.max_latency_ms == b.stats.max_latency_ms


def test_different_seed_changes_run():
    a = run_experiment(_cfg(seed=1))
    b = run_experiment(_cfg(seed=2))
    assert not np.array_equal(a.releases, b.releases)


# ------------------------------------------------------------ observations

# a stream near zero at a small budget, whose clamped releases hit 0.0
_NEAR_ZERO = dict(epsilon=0.01, users=100, data=DataConfig(initial=(5.0,)))


def _recorded_run(cfg, monkeypatch):
    """Run cfg; returns the run and each value perturb_count (a float) and
    perturb_groups (a dict of every grant of one server) returned, in call
    order."""
    draws = []
    count, groups = runners.perturb_count, runners.perturb_groups

    def counting(*args):
        draws.append(count(*args))
        return draws[-1]

    def grouping(*args):
        draws.append(groups(*args))
        return draws[-1]

    monkeypatch.setattr(runners, "perturb_count", counting)
    monkeypatch.setattr(runners, "perturb_groups", grouping)
    res = run_experiment(cfg)
    monkeypatch.undo()
    return res, draws


def _reference_observations(res, draws):
    """Replay a private run's observations one timestamp at a time: each
    server's previous release (0.0 at t = 1), and each granted pair's draw,
    taken in (timestamp, server, dimension) order."""
    m, timestamps, d = res.releases.shape
    draws = iter(draws)
    want = np.empty((m, timestamps, d))
    for tidx in range(timestamps):
        z = res.releases[:, tidx - 1].copy() if tidx else np.zeros((m, d))
        for i in range(m):
            granted = np.flatnonzero(res.sampled[i, tidx]).tolist()
            for k in granted:
                drawn = next(draws)
                if isinstance(drawn, dict):
                    assert sorted(drawn) == granted
                    for j in granted:
                        z[i, j] = drawn[j]
                    break
                z[i, k] = drawn
        want[:, tidx] = z
    assert next(draws, None) is None
    return want


@pytest.mark.parametrize("algorithm, overrides", [
    ("dpcrowd", {}),
    ("fast", {}),
    ("dfast", dict(net=NetConfig(m=6, rho=0.3, seed=5))),
    # block restarts every 10 timestamps
    ("dpcrowd_w", dict(w=10, timestamps=60)),
    # windows drained to a refusal (test_schedules_are_asked_only_when_due)
    ("dpcrowd_plus", dict(w=8, epsilon=0.1, timestamps=60, mu=20.0, p_max=1.0,
                          eps_max_fraction=0.5, model=ModelConfig(d=3, q=(1e3,)),
                          sampling=SamplingConfig(mode="fixed", interval=2))),
    # multi-member groups
    ("dpcrowd_plus", dict(w=10, model=ModelConfig(d=3, q=(1e3,)))),
    ("dpcrowd", dict(kcif=KcifConfig(clamp_releases=True), **_NEAR_ZERO)),
    ("dpcrowd", dict(model=ModelConfig(q=(1e3,), freeze_partition=False))),
    ("fast", dict(net=NetConfig(m=1, rho=0.5, seed=7))),
    ("dpcrowd_plus", dict(w=10, net=NetConfig(m=1, rho=0.5, seed=7),
                          model=ModelConfig(d=2, q=(1e3,)))),
    ("dpcrowd", dict(sampling=SamplingConfig(mode="fixed", interval=3))),
])
def test_observations_follow_the_releases_and_the_draws(algorithm, overrides, monkeypatch):
    res, draws = _recorded_run(_cfg(algorithm=algorithm, **overrides), monkeypatch)
    want = _reference_observations(res, draws)
    assert res.observations.tobytes() == want.tobytes()
    assert res.fresh.size == res.sampled.sum()
    # the run coasted: some timestamp of it has no sampled pair
    assert not res.sampled.any(axis=(0, 2)).all()


def test_observations_cover_grouping_clamping_and_restarts(monkeypatch):
    # the cases above exercise what they are there for
    _, draws = _recorded_run(_cfg(algorithm="dpcrowd_plus", w=10,
                                  model=ModelConfig(d=3, q=(1e3,))), monkeypatch)
    assert any(isinstance(drawn, dict) and len(set(drawn.values())) < len(drawn)
               for drawn in draws)
    res = run_experiment(_cfg(kcif=KcifConfig(clamp_releases=True), **_NEAR_ZERO))
    assert (res.releases == 0.0).any()
    res = run_experiment(_cfg(algorithm="dpcrowd_w", w=10, timestamps=60))
    assert res.sampled[:, ::10].all()


def test_nonprivate_observations_are_the_raw_aggregates(monkeypatch):
    # a fast run that samples every pair every timestamp perturbs each raw
    # aggregate once, in (timestamp, server, dimension) order, and takes them
    # from the same data, partition and server streams
    values = []
    count = runners.perturb_count

    def counting(value, *args):
        values.append(value)
        return count(value, *args)

    kw = dict(model=ModelConfig(d=2, q=(1e3,)), sampling=SamplingConfig(mode="fixed", interval=1))
    monkeypatch.setattr(runners, "perturb_count", counting)
    assert run_experiment(_cfg(algorithm="fast", **kw)).sampled.all()
    monkeypatch.undo()
    res = run_experiment(_cfg(algorithm="nonprivate", **kw))
    m, timestamps, d = res.releases.shape
    raw = np.array(values).reshape(timestamps, m, d).swapaxes(0, 1)
    assert res.observations.tobytes() == raw.tobytes()
    assert res.fresh.size == res.sampled.sum() == m * timestamps * d


def _full_size_float_arrays(res):
    """The float arrays of at least m * T * d values that res holds, each
    counted once: a view counts as the array it views."""
    size = res.releases.size
    found, seen, stack = {}, set(), [res]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            owns_data = not isinstance(obj.base, np.ndarray)
            if owns_data and obj.dtype.kind == "f" and obj.size >= size:
                found[id(obj)] = obj
            stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return list(found.values())


@pytest.mark.parametrize("algorithm", ["dpcrowd", "dpcrowd_plus", "fast", "dfast"])
def test_private_run_holds_releases_and_variances_only(algorithm):
    overrides = dict(w=10, model=ModelConfig(d=2, q=(1e3,))) if algorithm == "dpcrowd_plus" else {}
    res = run_experiment(_cfg(algorithm=algorithm, **overrides))
    held = _full_size_float_arrays(res)
    assert len(held) == 2
    assert any(a is res.releases for a in held) and any(a is res.posterior_var for a in held)
    assert res.fresh.size == res.sampled.sum()
    # the first read builds the trace and keeps it; it is read-only
    observations = res.observations
    assert res.observations is observations
    assert len(_full_size_float_arrays(res)) == 3
    with pytest.raises(ValueError):
        observations[0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        res.observations = observations
    assert "observations" not in {f.name for f in fields(res)}


def test_nonprivate_run_holds_its_raw_aggregates_once():
    res = run_experiment(_cfg(algorithm="nonprivate"))
    # the releases, the variances and the raw aggregates that fresh views
    assert len(_full_size_float_arrays(res)) == 3
    assert res.fresh.base is not None and res.fresh.size == res.releases.size


def test_private_run_peak_memory_is_bounded():
    # the peak of a private run, in (m, T, d) float arrays: 3.76 here, where
    # a run that also stored its observations trace peaked at 4.74
    cfg = load_config(QUICKSTART.with_name("multilinear_plus.cfg"), False)
    run_experiment(apply_override(cfg, "timestamps", "100"))  # warm up
    cfg = apply_override(cfg, "timestamps", "2000")
    tracemalloc.start()
    try:
        res = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * res.releases.nbytes


# ------------------------------------------------------- budget accounting

def test_dpcrowd_total_spend_bounded():
    res = run_experiment(_cfg(timestamps=60))
    assert res.ledgers is not None
    for led in res.ledgers:
        led.audit()
        assert math.fsum(e for _, e in led.spends[0]) <= 1.0


def test_dpcrowd_full_rate_spends_whole_budget():
    cfg = _cfg(timestamps=16, sampling=SamplingConfig(mode="fixed", interval=1))
    res = run_experiment(cfg)
    for led in res.ledgers:
        assert math.fsum(e for _, e in led.spends[0]) == pytest.approx(1.0)
        assert (res.sampled[:, :, 0]).all()


def test_windowed_baseline_partial_last_block_spends():
    # T = 45, w = 20: blocks [1, 20], [21, 40] and a 5-long last block [41, 45],
    # each planned for one sample per timestamp.
    cfg = _cfg(algorithm="dpcrowd_w", timestamps=45, w=20,
               sampling=SamplingConfig(mode="fixed", interval=1, max_fraction=1.0))
    res = run_experiment(cfg)
    for led in res.ledgers:
        spends = led.spends[0]
        assert [ts for ts, _ in spends if ts <= 40] == list(range(1, 41))
        assert all(e == cfg.epsilon / 20 for ts, e in spends if ts <= 40)
        # The w-event ledger refuses eps/5 until the window [t - 19, t] holds
        # no more than 16 spends of eps/20, i.e. from t = 44 on.
        assert [(ts, e) for ts, e in spends if ts > 40] == [(44, cfg.epsilon / 5)]
        led.audit()


def test_dpcrowd_plus_every_window_bounded():
    cfg = _cfg(algorithm="dpcrowd_plus", w=8, timestamps=50,
               model=ModelConfig(d=3, a=0.8, a_offdiag=0.05, q=(1e3,)))
    res = run_experiment(cfg)
    for led in res.ledgers:
        led.audit()


def test_adaptive_sampling_respects_cap():
    cfg = _cfg(timestamps=50, sampling=SamplingConfig(mode="adaptive", interval=1,
                                                      max_fraction=0.3))
    res = run_experiment(cfg)
    per_server = res.sampled[:, :, 0].sum(axis=1)
    assert (per_server <= 15).all()  # floor(0.3 * 50)
    assert (res.stats.broadcasts <= 15).all()


@pytest.mark.parametrize("algorithm, overrides, exercised", [
    # block restarts every w timestamps; capped uniform schedules run out
    ("dpcrowd_w", dict(w=10, timestamps=60), "cap"),
    # windows across block starts refuse charges (BudgetError)
    ("dpcrowd_w", dict(w=20, timestamps=45, sampling=SamplingConfig(mode="fixed", interval=1)),
     "refusal"),
    # grants of epsilon / 2 every other timestamp drain each window, which
    # then grants 0
    ("dpcrowd_plus", dict(w=8, epsilon=0.1, timestamps=60, mu=20.0, p_max=1.0,
                          eps_max_fraction=0.5, model=ModelConfig(d=3, q=(1e3,)),
                          sampling=SamplingConfig(mode="fixed", interval=2)), "refusal"),
])
def test_schedules_are_asked_only_when_due(algorithm, overrides, exercised, monkeypatch):
    asked = []  # (schedule, asked at its next sampling timestamp, answer)
    refusals = []
    is_sampling_point = SamplingSchedule.is_sampling_point
    note_skipped = SamplingSchedule.note_skipped

    def asking(self, t):
        answer = is_sampling_point(self, t)
        asked.append((self, t == self.next_sample_t, answer))
        return answer

    def refusing(self, t):
        refusals.append(self)
        note_skipped(self, t)

    monkeypatch.setattr(SamplingSchedule, "is_sampling_point", asking)
    monkeypatch.setattr(SamplingSchedule, "note_skipped", refusing)
    res = run_experiment(_cfg(algorithm=algorithm, **overrides))
    samples = int(res.sampled.sum())
    assert all(at_next for _, at_next, _ in asked)
    assert sum(answer for _, _, answer in asked) == samples + len(refusals)
    # a schedule whose cap is used up is asked at most once more
    used_up = {id(s) for s, _, _ in asked
               if s.max_samples is not None and s.samples_used >= s.max_samples}
    assert len(asked) <= samples + len(refusals) + len(used_up)
    assert {"cap": used_up, "refusal": refusals}[exercised]


# ------------------------------------------------------------ communication

def test_nonprivate_broadcasts_every_timestamp():
    res = run_experiment(_cfg(algorithm="nonprivate"))
    assert res.broadcast.all()
    topo = TopologySchedule(m=5, density=0.5, seed=1234, dynamic=False)
    deg_sum = int(degrees(topo.adjacency_at(1)).sum())
    assert res.stats.packets_by_t == [deg_sum] * 40


def test_fast_never_communicates():
    res = run_experiment(_cfg(algorithm="fast"))
    assert res.stats.packets == 0
    assert res.stats.payload_bytes == 0
    assert not res.broadcast.any()


def test_dfast_floods_more_than_one_hop():
    dfast = run_experiment(_cfg(algorithm="dfast"))
    crowd = run_experiment(_cfg())
    assert dfast.stats.packets > crowd.stats.packets


@pytest.mark.parametrize("dynamic", [False, True])
def test_dfast_floods_once_per_topology(dynamic, monkeypatch):
    calls = []

    def counting(adj):
        calls.append(adj)
        return flood_reachability(adj)

    monkeypatch.setattr(runners, "flood_reachability", counting)
    net = NetConfig(m=6, rho=0.4, seed=9, dynamic=dynamic)
    res = run_experiment(_cfg(algorithm="dfast", net=net))
    assert len(calls) == (40 if dynamic else 1)
    topo = TopologySchedule(m=6, density=0.4, seed=9, dynamic=dynamic)
    expected = [sum(flood_reachability(topo.adjacency_at(t))[1]) for t in range(1, 41)]
    assert res.stats.packets_by_t == expected


def test_latency_recorded_within_bounds():
    res = run_experiment(_cfg(algorithm="nonprivate"))
    assert 80.0 <= res.stats.max_latency_ms <= 120.0


# --------------------------------------------------- degenerate equivalences

def test_fast_equals_dpcrowd_single_server():
    kw = dict(net=NetConfig(m=1, rho=0.5, seed=7), timestamps=30)
    a = run_experiment(_cfg(**kw))
    b = run_experiment(_cfg(algorithm="fast", **kw))
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.observations, b.observations)


def test_dfast_equals_fast_single_server():
    kw = dict(net=NetConfig(m=1, rho=0.5, seed=7), timestamps=30)
    a = run_experiment(_cfg(algorithm="fast", **kw))
    b = run_experiment(_cfg(algorithm="dfast", **kw))
    assert np.array_equal(a.releases, b.releases)


def test_windowed_baseline_with_full_window_equals_dpcrowd():
    kw = dict(timestamps=40)
    a = run_experiment(_cfg(**kw))
    b = run_experiment(_cfg(algorithm="dpcrowd_w", w=40, **kw))
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.sampled, b.sampled)


def test_degenerate_plus_equals_dpcrowd():
    """d=1, grouping off, w=T, full-rate fixed sampling, and allocation knobs
    tuned so the adaptive rule grants exactly eps/T each step: the two
    protocols must then produce bit-identical releases."""
    kw = dict(
        timestamps=16,
        epsilon=1.0,
        sampling=SamplingConfig(mode="fixed", interval=1, max_fraction=1.0),
        mu=20.0, p_max=1.0, eps_max_fraction=1.0 / 16.0,
    )
    a = run_experiment(_cfg(w=16, **kw))
    b = run_experiment(_cfg(algorithm="dpcrowd_plus", w=16,
                              grouping=GroupingConfig(enabled=False), **kw))
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.observations, b.observations)


def test_plus_grouping_shares_one_value_across_merged_dims():
    # with the large-value threshold out of reach every dimension is "small";
    # symmetric dims have identical predictions, so they merge into a single
    # group and publish the same noisy average
    cfg = _cfg(
        algorithm="dpcrowd_plus", w=10, timestamps=30, epsilon=1.0,
        model=ModelConfig(d=3, a=1.0, q=(0.0,)),
        data=DataConfig(initial=(50.0,)),
        grouping=GroupingConfig(eta1=1e12),
        sampling=SamplingConfig(mode="fixed", interval=1),
    )
    res = run_experiment(cfg)
    spread = res.releases.max(axis=2) - res.releases.min(axis=2)
    assert spread.max() == 0.0


def test_plus_large_dims_perturbed_independently():
    # values far above eta1 are singleton groups, so dimensions with equal
    # truth still draw independent noise
    cfg = _cfg(
        algorithm="dpcrowd_plus", w=10, timestamps=30, epsilon=1.0,
        model=ModelConfig(d=2, a=1.0, q=(0.0,)),
        data=DataConfig(initial=(1e6,)),
        grouping=GroupingConfig(eta1=10.0),
        sampling=SamplingConfig(mode="fixed", interval=1),
    )
    res = run_experiment(cfg)
    assert res.releases[0, -1, 0] != res.releases[0, -1, 1]


# -------------------------------------------------------- filter behavior

def test_nonprivate_ignores_epsilon():
    a = run_experiment(_cfg(algorithm="nonprivate", epsilon=0.0))
    b = run_experiment(_cfg(algorithm="nonprivate", epsilon=1.0))
    assert a.ledgers is None
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.posterior_var, b.posterior_var)


def test_nonprivate_single_server_tracks_truth_exactly():
    cfg = _cfg(algorithm="nonprivate", net=NetConfig(m=1, rho=1.0, seed=3),
               model=ModelConfig(q=(0.0,)), data=DataConfig(initial=(100.0,)),
               timestamps=20)
    res = run_experiment(cfg)
    np.testing.assert_allclose(res.releases[0, :, 0], 100.0, rtol=1e-9)


def test_noiseless_consensus_converges():
    cfg = _cfg(algorithm="nonprivate", net=NetConfig(m=5, rho=1.0, seed=3),
               model=ModelConfig(q=(0.0,)), data=DataConfig(initial=(100.0,)),
               timestamps=20)
    res = run_experiment(cfg)
    assert np.abs(res.releases[:, -1, 0] - 100.0).max() < 1e-6


def test_posterior_variance_monotone_in_epsilon():
    # fixed schedule so both runs sample identically; more budget means less
    # perturbation noise, so tracked uncertainty can only shrink
    kw = dict(sampling=SamplingConfig(mode="fixed", interval=2))
    lo = run_experiment(_cfg(epsilon=0.1, **kw))
    hi = run_experiment(_cfg(epsilon=1.0, **kw))
    assert (hi.posterior_var <= lo.posterior_var * (1 + 1e-12)).all()


def test_more_neighbors_never_hurt_tracked_variance():
    kw = dict(sampling=SamplingConfig(mode="fixed", interval=1))
    alone = run_experiment(_cfg(algorithm="fast", **kw))
    crowd = run_experiment(_cfg(**kw))
    assert (crowd.posterior_var <= alone.posterior_var * (1 + 1e-12)).all()


# ------------------------------------------------------------ engine options

def test_clamp_releases_option():
    cfg = _cfg(epsilon=0.01, timestamps=30, users=100,
               data=DataConfig(initial=(5.0,)), kcif=KcifConfig(clamp_releases=True))
    res = run_experiment(cfg)
    assert (res.releases >= 0).all()


QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.cfg"

# Each boolean key flipped from its default, and fixed sampling. On the
# quickstart runs the largest ARE ratio of a flip that runs is 1.05; the
# re-fused stale release of kcif.fuse_stale_self made it 7.5e10 or more on
# every private algorithm.
_FLIPS = [(key, str(not _get(ExperimentConfig(), key)).lower())
          for key, (_, _, kind) in _KEYS.items() if kind is bool] + [("sampling.mode", "fixed")]
ARE_FACTOR = 2.0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_no_flipped_option_multiplies_the_error(algorithm):
    # a flipped option is refused, or its runs (seeds 1-3, full scale) keep
    # their ARE within ARE_FACTOR of the same runs with it unflipped
    base = apply_override(apply_override(load_config(QUICKSTART, False), "w", "20"),
                          "algorithm", algorithm)

    def ares(cfg):
        return [summarize(r.releases, r.truth).are for r in map(run_experiment, expand_runs(cfg))]

    want = ares(base)
    assert len(want) == 3
    for key, value in _FLIPS:
        try:
            got = ares(apply_override(base, key, value))
        except ConfigError:
            continue
        ratios = [g / w for g, w in zip(got, want)]
        assert max(ratios) <= ARE_FACTOR, (key, ratios)


def test_fuse_stale_self_is_refused():
    # re-fusing the previous release as a fresh observation diverged on
    # every private algorithm, so a skipped timestamp only predicts
    with pytest.raises(ConfigError, match=r"^kcif.fuse_stale_self = true is not supported"):
        run_experiment(_cfg(kcif=KcifConfig(fuse_stale_self=True)))


def test_dynamic_topology_smoke():
    cfg = _cfg(algorithm="nonprivate", net=NetConfig(m=6, rho=0.4, dynamic=True, seed=9))
    res = run_experiment(cfg)
    res.verify()
    # packet counts vary across timestamps when the graph is redrawn
    assert len(set(res.stats.packets_by_t)) > 1


def test_unstable_consensus_step_refused_only_where_consensus_runs():
    # any graph with an edge has lambda_max(Laplacian) >= 2, so beta = 1 fails
    unstable = KcifConfig(beta=1.0)
    for dynamic in (False, True):
        net = NetConfig(m=6, rho=0.6, dynamic=dynamic, seed=2)
        with pytest.raises(ConfigError, match="kcif.beta"):
            run_experiment(_cfg(net=net, kcif=unstable))
    net = NetConfig(m=6, rho=0.6, seed=2)
    run_experiment(_cfg(algorithm="fast", net=net, kcif=unstable)).verify()
    run_experiment(_cfg(algorithm="dfast", net=net, kcif=unstable)).verify()


def test_repartition_each_timestamp_smoke():
    cfg = _cfg(model=ModelConfig(q=(1e3,), freeze_partition=False))
    res = run_experiment(cfg)
    res.verify()


def test_csv_truth_dimension_mismatch(tmp_path):
    p = tmp_path / "d2.csv"
    p.write_text("1,2\n3,4\n")
    cfg = _cfg(data=DataConfig(source="csv", path=str(p)), timestamps=2)
    with pytest.raises(ConfigError, match="dimensions"):
        run_experiment(cfg)


def test_csv_truth_too_short(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("1\n2\n3\n")
    cfg = _cfg(data=DataConfig(source="csv", path=str(p)), timestamps=10)
    with pytest.raises(ConfigError, match="rows"):
        run_experiment(cfg)


def test_dfast_consensus_error_is_exactly_zero():
    res = run_experiment(_cfg(algorithm="dfast", net=NetConfig(m=6, rho=0.6, seed=2)))
    spread = res.releases.max(axis=0) - res.releases.min(axis=0)
    assert spread.max() == 0.0


def test_non_finite_release_is_a_diverged_run():
    # a subnormal floor passes validation, but coeff**2 / R_hat overflows
    cfg = _cfg(
        algorithm="nonprivate", timestamps=20, users=300,
        net=NetConfig(m=4, rho=0.6, seed=5), model=ModelConfig(q=(0.0,)),
        kcif=KcifConfig(variance_floor=1e-310),
    )
    with np.errstate(all="ignore"), pytest.raises(RunDivergedError, match="non-finite"):
        run_experiment(cfg)


# the prediction outgrows the float range between two samples of a replayed
# stream: at t=39 the variance overflows and the posterior turns NaN
IDLE_DIVERGENCE = {
    "seed": "3", "timestamps": "300", "users": "1000", "net.m": "4", "model.a": "1e4",
    "data.source": "csv",
    "data.path": str(Path(__file__).resolve().parents[1] / "data" / "linear_demo.csv"),
    "sampling.mode": "fixed", "sampling.interval": "150",
}
IDLE_DIVERGENCE_MESSAGE = ("run diverged: non-finite release nan at server 0, t=39, dimension 0"
                           " (1048 non-finite values in all)")


@pytest.mark.parametrize("algorithm", ["dpcrowd", "fast", "dfast"])
def test_divergence_inside_an_idle_stretch_keeps_its_diagnosis(algorithm, monkeypatch):
    verified = []
    verify = runners.RunResult.verify

    def recording(self):
        verified.append(self)
        verify(self)

    monkeypatch.setattr(runners.RunResult, "verify", recording)
    cfg = config_from_mapping({**IDLE_DIVERGENCE, "algorithm": algorithm})
    with np.errstate(all="ignore"), pytest.raises(RunDivergedError) as raised:
        run_experiment(cfg)
    assert str(raised.value) == IDLE_DIVERGENCE_MESSAGE
    (result,) = verified
    first = np.argwhere(~np.isfinite(result.releases))[0][1]
    sampled_at = np.flatnonzero(result.sampled.any(axis=(0, 2)))
    assert first == 38 and sampled_at.tolist() == [0, 150]  # nothing due at t=39


def test_dfast_predicts_only_at_timestamps_with_a_due_pair(monkeypatch):
    # a timestamp with nothing due coasts: kcif.predict runs once at each
    # timestamp where a schedule is asked, and kcif.coast steps the rest
    asked, predicted, coasted = [], [], []
    is_sampling_point, predict, coast = SamplingSchedule.is_sampling_point, kcif.predict, \
        kcif.coast

    def asking(self, t):
        asked.append(t)
        return is_sampling_point(self, t)

    def predicting(*args):
        predicted.append(asked[-1])
        return predict(*args)

    def coasting(*args):
        coasted.append(args[-1])
        return coast(*args)

    monkeypatch.setattr(SamplingSchedule, "is_sampling_point", asking)
    monkeypatch.setattr(kcif, "predict", predicting)
    monkeypatch.setattr(kcif, "coast", coasting)
    cfg = apply_override(load_config(Path(__file__).resolve().parents[1] / "configs"
                                     / "linear_dpcrowd.cfg"), "algorithm", "dfast")
    assert cfg.net.m == 50
    run_experiment(cfg)
    due = sorted(set(asked))
    assert predicted == due
    assert sum(coasted) == cfg.timestamps - len(due)
    assert len(due) < cfg.timestamps / 4


@settings(max_examples=300, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    d=st.integers(1, 3),
    m=st.integers(1, 5),
    timestamps=st.integers(1, 30),
    w=st.integers(1, 8),
    tau=st.integers(1, 12),
    dynamic=st.booleans(),
    rho=st.sampled_from([0.0, 0.3, 1.0]),
    users=st.integers(1, 50),
    epsilon=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
    fixed_interval=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
)
def test_small_configs_finish_verified_or_refuse(
    algorithm, d, m, timestamps, w, tau, dynamic, rho, users, epsilon, fixed_interval, seed,
):
    # a small config either runs to a verified result or is refused with a
    # diagnosis; nothing else escapes, and nothing warns along the way
    sampling = SamplingConfig() if fixed_interval is None else SamplingConfig(
        mode="fixed", interval=fixed_interval
    )
    cfg = ExperimentConfig(
        algorithm=algorithm, seed=seed, timestamps=timestamps, users=users, epsilon=epsilon,
        w=w, model=ModelConfig(d=1 if algorithm == "dpcrowd" else d),
        net=NetConfig(m=m, rho=rho, dynamic=dynamic, seed=seed), sampling=sampling,
        grouping=GroupingConfig(tau=tau),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = run_experiment(cfg)
        except (ConfigError, BudgetError):
            return
    result.verify()
