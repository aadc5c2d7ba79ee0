import numpy as np
import pytest

from dpcrowd.config import (
    DataConfig,
    ExperimentConfig,
    GroupingConfig,
    KcifConfig,
    ModelConfig,
    NetConfig,
    SamplingConfig,
)
from dpcrowd import RunDivergedError, runners
from dpcrowd.netsim import TopologySchedule, degrees, flood_reachability
from dpcrowd.runners import (
    run_dfast,
    run_dpcrowd,
    run_dpcrowd_plus,
    run_dpcrowd_w,
    run_experiment,
    run_fast,
    run_nonprivate,
)


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


# ------------------------------------------------------- budget accounting

def test_dpcrowd_total_spend_bounded():
    res = run_dpcrowd(_cfg(timestamps=60))
    assert res.ledgers is not None
    for led in res.ledgers:
        led.audit()
        assert led.total_spent(0) <= 1.0


def test_dpcrowd_full_rate_spends_whole_budget():
    cfg = _cfg(timestamps=16, sampling=SamplingConfig(mode="fixed", interval=1))
    res = run_dpcrowd(cfg)
    for led in res.ledgers:
        assert led.total_spent(0) == pytest.approx(1.0)
        assert (res.sampled[:, :, 0]).all()


def test_windowed_baseline_partial_last_block_spends():
    # T = 45, w = 20: blocks [1, 20], [21, 40] and a 5-long last block [41, 45],
    # each planned for one sample per timestamp.
    cfg = _cfg(algorithm="dpcrowd_w", timestamps=45, w=20,
               sampling=SamplingConfig(mode="fixed", interval=1, max_fraction=1.0))
    res = run_dpcrowd_w(cfg)
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
    res = run_dpcrowd_plus(cfg)
    for led in res.ledgers:
        led.audit()


def test_adaptive_sampling_respects_cap():
    cfg = _cfg(timestamps=50, sampling=SamplingConfig(mode="adaptive", interval=1,
                                                      max_fraction=0.3))
    res = run_dpcrowd(cfg)
    per_server = res.sampled[:, :, 0].sum(axis=1)
    assert (per_server <= 15).all()  # floor(0.3 * 50)
    assert (res.stats.broadcasts <= 15).all()


# ------------------------------------------------------------ communication

def test_nonprivate_broadcasts_every_timestamp():
    res = run_nonprivate(_cfg(algorithm="nonprivate"))
    assert res.broadcast.all()
    topo = TopologySchedule(m=5, density=0.5, seed=1234, dynamic=False)
    deg_sum = int(degrees(topo.adjacency_at(1)).sum())
    assert res.stats.packets_by_t == [deg_sum] * 40


def test_fast_never_communicates():
    res = run_fast(_cfg(algorithm="fast"))
    assert res.stats.packets == 0
    assert res.stats.payload_bytes == 0
    assert not res.broadcast.any()


def test_dfast_floods_more_than_one_hop():
    dfast = run_dfast(_cfg(algorithm="dfast"))
    crowd = run_dpcrowd(_cfg())
    assert dfast.stats.packets > crowd.stats.packets


@pytest.mark.parametrize("dynamic", [False, True])
def test_dfast_floods_once_per_topology(dynamic, monkeypatch):
    calls = []

    def counting(adj):
        calls.append(adj)
        return flood_reachability(adj)

    monkeypatch.setattr(runners, "flood_reachability", counting)
    net = NetConfig(m=6, rho=0.4, seed=9, dynamic=dynamic)
    res = run_dfast(_cfg(algorithm="dfast", net=net))
    assert len(calls) == (40 if dynamic else 1)
    topo = TopologySchedule(m=6, density=0.4, seed=9, dynamic=dynamic)
    expected = [flood_reachability(topo.adjacency_at(t))[2] for t in range(1, 41)]
    assert res.stats.packets_by_t == expected


def test_latency_recorded_within_bounds():
    res = run_nonprivate(_cfg(algorithm="nonprivate"))
    assert 80.0 <= res.stats.max_latency_ms <= 120.0


# --------------------------------------------------- degenerate equivalences

def test_fast_equals_dpcrowd_single_server():
    kw = dict(net=NetConfig(m=1, rho=0.5, seed=7), timestamps=30)
    a = run_dpcrowd(_cfg(**kw))
    b = run_fast(_cfg(algorithm="fast", **kw))
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.observations, b.observations)


def test_dfast_equals_fast_single_server():
    kw = dict(net=NetConfig(m=1, rho=0.5, seed=7), timestamps=30)
    a = run_fast(_cfg(algorithm="fast", **kw))
    b = run_dfast(_cfg(algorithm="dfast", **kw))
    assert np.array_equal(a.releases, b.releases)


def test_windowed_baseline_with_full_window_equals_dpcrowd():
    kw = dict(timestamps=40)
    a = run_dpcrowd(_cfg(**kw))
    b = run_dpcrowd_w(_cfg(algorithm="dpcrowd_w", w=40, **kw))
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
    a = run_dpcrowd(_cfg(w=16, **kw))
    b = run_dpcrowd_plus(_cfg(algorithm="dpcrowd_plus", w=16,
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
    res = run_dpcrowd_plus(cfg)
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
    res = run_dpcrowd_plus(cfg)
    assert res.releases[0, -1, 0] != res.releases[0, -1, 1]


# -------------------------------------------------------- filter behavior

def test_nonprivate_ignores_epsilon():
    a = run_nonprivate(_cfg(algorithm="nonprivate", epsilon=0.0))
    b = run_nonprivate(_cfg(algorithm="nonprivate", epsilon=1.0))
    assert a.ledgers is None
    assert np.array_equal(a.releases, b.releases)
    assert np.array_equal(a.posterior_var, b.posterior_var)


def test_nonprivate_single_server_tracks_truth_exactly():
    cfg = _cfg(algorithm="nonprivate", net=NetConfig(m=1, rho=1.0, seed=3),
               model=ModelConfig(q=(0.0,)), data=DataConfig(initial=(100.0,)),
               timestamps=20)
    res = run_nonprivate(cfg)
    np.testing.assert_allclose(res.releases[0, :, 0], 100.0, rtol=1e-9)


def test_noiseless_consensus_converges():
    cfg = _cfg(algorithm="nonprivate", net=NetConfig(m=5, rho=1.0, seed=3),
               model=ModelConfig(q=(0.0,)), data=DataConfig(initial=(100.0,)),
               timestamps=20)
    res = run_nonprivate(cfg)
    assert np.abs(res.releases[:, -1, 0] - 100.0).max() < 1e-6


def test_posterior_variance_monotone_in_epsilon():
    # fixed schedule so both runs sample identically; more budget means less
    # perturbation noise, so tracked uncertainty can only shrink
    kw = dict(sampling=SamplingConfig(mode="fixed", interval=2))
    lo = run_dpcrowd(_cfg(epsilon=0.1, **kw))
    hi = run_dpcrowd(_cfg(epsilon=1.0, **kw))
    assert (hi.posterior_var <= lo.posterior_var * (1 + 1e-12)).all()


def test_more_neighbors_never_hurt_tracked_variance():
    kw = dict(sampling=SamplingConfig(mode="fixed", interval=1))
    alone = run_fast(_cfg(algorithm="fast", **kw))
    crowd = run_dpcrowd(_cfg(**kw))
    assert (crowd.posterior_var <= alone.posterior_var * (1 + 1e-12)).all()


# ------------------------------------------------------------ engine options

def test_clamp_releases_option():
    cfg = _cfg(epsilon=0.01, timestamps=30, users=100,
               data=DataConfig(initial=(5.0,)), kcif=KcifConfig(clamp_releases=True))
    res = run_dpcrowd(cfg)
    assert (res.releases >= 0).all()


def test_fuse_stale_self_smoke():
    cfg = _cfg(kcif=KcifConfig(fuse_stale_self=True))
    res = run_dpcrowd(cfg)
    res.verify()
    base = run_dpcrowd(_cfg())
    assert not np.array_equal(res.releases, base.releases)


def test_dynamic_topology_smoke():
    cfg = _cfg(algorithm="nonprivate", net=NetConfig(m=6, rho=0.4, dynamic=True, seed=9))
    res = run_nonprivate(cfg)
    res.verify()
    # packet counts vary across timestamps when the graph is redrawn
    assert len(set(res.stats.packets_by_t)) > 1


def test_unstable_consensus_step_refused_only_where_consensus_runs():
    # any graph with an edge has lambda_max(Laplacian) >= 2, so beta = 1 fails
    from dpcrowd.config import ConfigError

    unstable = KcifConfig(beta=1.0)
    for dynamic in (False, True):
        net = NetConfig(m=6, rho=0.6, dynamic=dynamic, seed=2)
        with pytest.raises(ConfigError, match="kcif.beta"):
            run_dpcrowd(_cfg(net=net, kcif=unstable))
    net = NetConfig(m=6, rho=0.6, seed=2)
    run_fast(_cfg(algorithm="fast", net=net, kcif=unstable)).verify()
    run_dfast(_cfg(algorithm="dfast", net=net, kcif=unstable)).verify()


def test_repartition_each_timestamp_smoke():
    cfg = _cfg(model=ModelConfig(q=(1e3,), freeze_partition=False))
    res = run_dpcrowd(cfg)
    res.verify()


def test_csv_truth_dimension_mismatch(tmp_path):
    p = tmp_path / "d2.csv"
    p.write_text("1,2\n3,4\n")
    cfg = _cfg(data=DataConfig(source="csv", path=str(p)), timestamps=2)
    from dpcrowd.config import ConfigError

    with pytest.raises(ConfigError, match="dimensions"):
        run_dpcrowd(cfg)


def test_csv_truth_too_short(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("1\n2\n3\n")
    cfg = _cfg(data=DataConfig(source="csv", path=str(p)), timestamps=10)
    from dpcrowd.config import ConfigError

    with pytest.raises(ConfigError, match="rows"):
        run_dpcrowd(cfg)


def test_dfast_consensus_error_is_exactly_zero():
    res = run_dfast(_cfg(algorithm="dfast", net=NetConfig(m=6, rho=0.6, seed=2)))
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
        run_nonprivate(cfg)
