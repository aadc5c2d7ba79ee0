import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcrowd import netsim, runners
from dpcrowd.config import _POLICIES, ExperimentConfig, ModelConfig, NetConfig
from dpcrowd.netsim import (
    CommStats,
    LatencyPlan,
    TopologySchedule,
    flood_payload_bytes,
    flood_reachability,
    generate_topology,
    degrees,
    max_delivery_latency,
    message_num_bytes,
)
from dpcrowd.runners import run_experiment


def _run(algorithm):
    cfg = ExperimentConfig(algorithm=algorithm, seed=3, timestamps=30, users=2000,
                           model=ModelConfig(q=(1e3,)), net=NetConfig(m=10, rho=0.4, seed=9))
    adj = TopologySchedule(m=10, density=0.4, seed=9).adjacency_at(1)
    return run_experiment(cfg), adj


def graph_density(adj):
    """2 * edges / (m * (m - 1))."""
    m = adj.shape[0]
    if m < 2:
        return 0.0
    return float(adj.sum()) / (m * (m - 1))


def is_connected(adj):
    reached = np.zeros(adj.shape[0], dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


# ---------------------------------------------------------------- topology

def test_full_density_complete_graph():
    adj = generate_topology(6, 1.0, np.random.default_rng(0))
    assert graph_density(adj) == 1.0
    assert np.array_equal(adj, adj.T)
    assert not adj.diagonal().any()


def test_two_nodes_always_connected():
    for seed in range(20):
        adj = generate_topology(2, 0.01, np.random.default_rng(seed))
        assert adj[0, 1] == 1 and adj[1, 0] == 1


def test_no_isolated_nodes():
    for seed in range(50):
        adj = generate_topology(10, 0.05, np.random.default_rng(seed))
        assert degrees(adj).min() >= 1


def test_density_calibration():
    # m=50, rho=0.3, 100 samples: mean realized density within 10% of target
    rng = np.random.default_rng(1)
    dens = [graph_density(generate_topology(50, 0.3, rng)) for _ in range(100)]
    assert abs(np.mean(dens) - 0.3) < 0.03


def test_schedule_static_draws_every_t_from_the_seed():
    sched = TopologySchedule(m=8, density=0.4, seed=5, dynamic=False)
    want = generate_topology(8, 0.4, np.random.default_rng(np.random.SeedSequence(5)))
    for t in (1, 2, 9, 1000):
        assert np.array_equal(sched.adjacency_at(t), want)


def test_schedule_dynamic_varies_and_is_reproducible():
    sched = TopologySchedule(m=12, density=0.4, seed=5, dynamic=True)
    a1, a2 = sched.adjacency_at(1), sched.adjacency_at(2)
    assert not np.array_equal(a1, a2)
    again = TopologySchedule(m=12, density=0.4, seed=5, dynamic=True)
    assert np.array_equal(a1, again.adjacency_at(1))


def test_is_connected():
    path = np.zeros((3, 3), dtype=bool)
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = True
    assert is_connected(path)
    split = np.zeros((3, 3), dtype=bool)
    split[0, 1] = split[1, 0] = True
    assert not is_connected(split)


# ---------------------------------------------------------------- delivery

def test_silent_round_zero_packets():
    # a round with no broadcast costs no latency draw, so later draws keep their order
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert max_delivery_latency([LatencyPlan.of([0])], rng, 100.0) == 0.0
    assert rng.bit_generator.state == state
    res, adj = _run("dpcrowd")
    expected = [int(degrees(adj)[res.broadcast[:, t]].sum()) for t in range(30)]
    assert res.stats.packets_by_t == expected
    assert 0 in expected


def test_degree_sum_accounting():
    res, adj = _run("nonprivate")
    assert res.stats.packets_by_t == [int(degrees(adj).sum())] * 30
    assert res.stats.payload_bytes == res.stats.packets * message_num_bytes(1)


def test_latency_bounds():
    rng = np.random.default_rng(4)
    for count in (1, 10, 1000):
        assert 80.0 <= max_delivery_latency([LatencyPlan.of([count])], rng, 100.0) <= 120.0
    res, _ = _run("nonprivate")
    assert 80.0 <= res.stats.max_latency_ms <= 120.0


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(0, 400), max_size=8),
    center=st.floats(1e-3, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
# one round with deliveries, which the one-hop path always is
@example(counts=[37], center=100.0, seed=5)
@example(counts=[0, 37, 0], center=100.0, seed=5)
def test_batched_latency_matches_per_round_draws(counts, center, seed):
    # one buffer of draws per timestamp gives the same latency, from the same
    # stream positions, as one uniform draw per round
    per_round = np.random.default_rng(seed)
    batched = np.random.default_rng(seed)
    want = _per_round_latency(counts, per_round, center)
    assert max_delivery_latency([LatencyPlan.of(counts)], batched, center) == want


def _per_round_latency(counts, rng, center):
    """The reference: every delivery drawn, one uniform draw per round."""
    return float(
        sum(float(rng.uniform(0.8 * center, 1.2 * center, size=n).max()) for n in counts if n)
    )


@settings(max_examples=200, deadline=None)
@given(
    counts_by_t=st.lists(st.lists(st.integers(0, 300), max_size=5), max_size=6),
    center=st.floats(1e-3, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
@example(counts_by_t=[[37], [0], [5, 400, 3], [12]], center=100.0, seed=5)
def test_run_maximum_matches_per_timestamp_draws(counts_by_t, center, seed):
    # the running maximum over timestamps, each drawn delivery by delivery
    every = np.random.default_rng(seed)
    lazy = np.random.default_rng(seed)
    want = 0.0
    for counts in counts_by_t:
        want = max(want, _per_round_latency(counts, every, center))
    got = max_delivery_latency([LatencyPlan.of(c) for c in counts_by_t], lazy, center)
    assert got.hex() == want.hex()
    # single-round timestamps in a row may come as one plan of their sum
    single = [sum(c) for c in counts_by_t]
    merged = np.random.default_rng(seed)
    every = np.random.default_rng(seed)
    want = max([0.0] + [_per_round_latency([n], every, center) for n in single])
    got = max_delivery_latency([LatencyPlan.of([sum(single)])], merged, center)
    assert got.hex() == want.hex()


def test_long_round_is_drawn_in_chunks():
    # a round longer than one chunk takes the same stream positions and maximum
    n = 3 * netsim._DRAW_CHUNK + 5
    chunked = np.random.default_rng(8)
    whole = np.random.default_rng(8)
    want = _per_round_latency([n], whole, 100.0)
    assert max_delivery_latency([LatencyPlan.of([n])], chunked, 100.0) == want
    assert chunked.random() == whole.random()


@settings(max_examples=300, deadline=None)
@given(
    rounds=st.lists(st.lists(st.integers(0, 60), max_size=5), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), max_size=40),
    chunk=st.sampled_from((1, 2, 7, 64, netsim._DRAW_CHUNK)),
    center=st.floats(1e-3, 1e4),
    seed=st.integers(0, 2**32 - 1),
    best=st.sampled_from((0.0, -math.inf, 100.0)),
)
# a static flood: its smallest rounds fill several buffers, some split across two
@example(rounds=[[40, 9, 25]], picks=[0] * 30, chunk=64, center=100.0, seed=3, best=0.0)
# a round longer than a buffer, alone and between short ones
@example(rounds=[[50, 60], [3], [0]], picks=[0, 1, 0, 2, 0], chunk=7, center=100.0, seed=3,
         best=-math.inf)
def test_bulk_maximum_matches_every_delivery(rounds, picks, chunk, center, seed, best):
    # A static flood repeats one plan every timestamp, a dynamic one changes
    # plans. At any buffer size, the maximum must be that of drawing every
    # delivery.
    plans = [LatencyPlan.of(r) for r in rounds]
    plans = [plans[p % len(plans)] for p in picks]
    every, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
    want = best
    for plan in plans:
        want = max(want, _per_round_latency(plan.counts, every, center))
    with mock.patch.object(netsim, "_DRAW_CHUNK", chunk):
        got = max_delivery_latency(plans, bulk, center, best)
    assert got.hex() == want.hex()


def test_bulk_draws_stay_within_bounded_buffers():
    # 2,000 timestamps of a static flood draw 318,000 smallest-round doubles
    # (2.5 MB at once), but a buffer holds at most _DRAW_CHUNK of them
    plans = [LatencyPlan.of([728, 159, 10982])] * 2000
    max_delivery_latency(plans[:2], np.random.default_rng(2), 100.0)  # numpy's first-call setup
    tracemalloc.start()
    max_delivery_latency(plans, np.random.default_rng(2), 100.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * netsim._DRAW_CHUNK + 400_000


_BEATS = ("-inf", "zero", "exact", "below", "above", "ceiling")


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(0, 400), min_size=2, max_size=8),
    center=st.floats(1e-3, 1e4),
    seed=st.integers(0, 2**32 - 1),
    beat_kind=st.sampled_from(_BEATS),
)
@example(counts=[5, 400, 3], center=100.0, seed=1, beat_kind="below")
@example(counts=[5, 400, 3], center=100.0, seed=1, beat_kind="exact")
def test_lazy_latency_is_exact_above_the_value_to_beat(counts, center, seed, beat_kind):
    full = np.random.default_rng(seed)
    lazy = np.random.default_rng(seed)
    exact = _per_round_latency(counts, full, center)
    beat = {
        "-inf": -math.inf,
        "zero": 0.0,
        "exact": exact,
        "below": math.nextafter(exact, -math.inf),
        "above": math.nextafter(exact, math.inf),
        "ceiling": 1.2 * center * len(counts),
    }[beat_kind]
    # beat is the maximum of the timestamps before: exact wherever it is beaten
    got = max_delivery_latency([LatencyPlan.of(counts)], lazy, center, beat)
    assert got.hex() == max(beat, exact).hex()


def test_latency_plan_lays_out_the_rounds_with_deliveries():
    plan = LatencyPlan.of([0, 736, 11426, 0, 24547, 91])
    assert plan.counts == (736, 11426, 24547, 91)
    assert plan.starts == (0, 736, 12162, 36709, 36800)
    assert plan.order == (3, 0, 1, 2)  # smallest first
    assert LatencyPlan.of([0, 0]) == LatencyPlan((), (0,), ())


def _dynamic_flood(**net):
    return ExperimentConfig(
        algorithm="dfast", seed=2, timestamps=200, users=5000, model=ModelConfig(q=(1e3,)),
        net=NetConfig(m=20, rho=0.3, seed=4, **net),
    )


def test_lazy_maximum_keeps_dynamic_flood_reports(monkeypatch):
    # the engine's one latency pass skips rounds that cannot beat the running
    # maximum; drawing every delivery instead must give the same report, bit
    # for bit
    cfg = _dynamic_flood(dynamic=True)
    lazy = run_experiment(cfg)
    passes = []

    def every_delivery(plans, rng, center):
        passes.append(plans)
        best = 0.0
        for plan in plans:
            best = max(best, _per_round_latency(plan.counts, rng, center))
        return best

    monkeypatch.setattr(runners, "max_delivery_latency", every_delivery)
    full = run_experiment(cfg)
    (plans,) = passes  # one pass a run, over every timestamp
    assert len(plans) == cfg.timestamps
    assert len({plan.counts for plan in plans}) > 1  # the round lists did change
    assert lazy.stats.max_latency_ms.hex() == full.stats.max_latency_ms.hex()
    assert lazy.stats.packets_by_t == full.stats.packets_by_t
    assert np.array_equal(lazy.releases, full.releases)


class _CountingRng:
    """A Generator stand-in that counts the uniforms drawn through it."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.drawn = 0

    def random(self, size=None, out=None):
        self.drawn += size if out is None else out.size
        return self._rng.random(size, out=out)


def test_static_flood_draws_few_latencies(monkeypatch):
    # after the first timestamp a static flood repeats its rounds, and the
    # smallest round's draw almost always settles that the maximum stands
    counting = []
    lazy_pass = netsim.max_delivery_latency

    def draw(plans, rng, center):
        counting.append(_CountingRng(rng))
        return lazy_pass(plans, counting[-1], center)

    monkeypatch.setattr(runners, "max_delivery_latency", draw)
    cfg = replace(_dynamic_flood(), timestamps=1000, net=NetConfig(m=50, rho=0.3, seed=4))
    res = run_experiment(cfg)
    (wrapped,) = counting
    assert 0 < wrapped.drawn < 0.05 * res.stats.packets


def test_message_byte_size():
    assert message_num_bytes(1) == 32
    assert message_num_bytes(6) == 152
    assert flood_payload_bytes(1) == 16
    assert flood_payload_bytes(6) == 56


# ---------------------------------------------------------------- flooding

def test_flood_complete_graph_one_hop():
    adj = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(adj, False)
    known, rounds = flood_reachability(adj)
    assert known.all()
    assert len(rounds) - 1 == 1  # hops
    # round 1: 3 nodes forward own payload to 2 neighbors = 6; round 2:
    # each forwards the 2 newly learned payloads once more = 12
    assert sum(rounds) == 18  # packets
    assert rounds == [6, 12]


def test_flood_path_graph_diameter_hops():
    m = 4
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    known, rounds = flood_reachability(adj)
    assert known.all()
    assert len(rounds) - 1 == 3  # hops: the path's length


def test_flood_disconnected_reaches_component_only():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    known, _ = flood_reachability(adj)
    assert known[0].tolist() == [True, True, False, False]
    assert known[3].tolist() == [False, False, True, True]


def test_flood_beats_one_hop_packets():
    # one one-hop round with every server broadcasting sends sum(degrees) packets
    adj = generate_topology(20, 0.3, np.random.default_rng(5))
    _, rounds = flood_reachability(adj)
    assert sum(rounds) >= degrees(adj).sum()


@st.composite
def _graphs(draw):
    """An undirected graph on 1 to 12 nodes, possibly disconnected or edgeless."""
    m = draw(st.integers(1, 12))
    pairs = m * (m - 1) // 2
    upper = np.zeros((m, m), dtype=bool)
    upper[np.triu_indices(m, k=1)] = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    return upper | upper.T


def _bfs_distances(adj, source):
    """Hop distance from source to every node of its component."""
    dist = {source: 0}
    queue = [source]
    for u in queue:
        for v in np.flatnonzero(adj[u]).tolist():
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@settings(max_examples=300, deadline=None)
@given(adj=_graphs())
@example(adj=np.zeros((1, 1), dtype=bool))
@example(adj=np.zeros((5, 5), dtype=bool))
@example(adj=~np.eye(12, dtype=bool))
def test_flood_matches_breadth_first_components(adj):
    # Each node forwards each payload of its component once to each
    # neighbour, and the last payload arrives after the largest distance
    # inside any component; the oracle finds both by breadth-first search.
    known, rounds = flood_reachability(adj)
    m = adj.shape[0]
    deg = adj.sum(axis=1).tolist()
    dists = [_bfs_distances(adj, i) for i in range(m)]
    assert known.tolist() == [[p in dist for p in range(m)] for dist in dists]
    assert sum(rounds) == sum(deg[i] * len(dist) for i, dist in enumerate(dists))
    assert len(rounds) - 1 == max(max(dist.values()) for dist in dists)


def test_comm_stats_accumulate():
    stats = CommStats.of(np.array([3, 2]), 32, 110.0, np.array([1, 1]))
    assert stats.packets == 5
    assert stats.payload_bytes == 160
    assert stats.max_latency_ms == 110.0
    assert stats.packets_by_t == [3, 2]
    assert all(type(p) is int for p in stats.packets_by_t)


def _per_timestamp_stats(cfg, res):
    """packets_by_t, broadcasts and max latency of a run, one timestamp at a
    time, from its sampled pairs and topology, drawing every delivery."""
    m, d = cfg.net.m, cfg.model.d
    policy = _POLICIES[cfg.algorithm]
    latency_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4 + m)[2])
    topo = TopologySchedule(m=m, density=cfg.net.rho, seed=cfg.net.seed, dynamic=cfg.net.dynamic)
    packets_by_t, broadcasts, best = [], np.zeros(m, dtype=np.int64), 0.0
    for tidx in range(cfg.timestamps):
        rounds = []
        # a lone server has no neighbour to send to, so it never broadcasts
        active = np.zeros(m, dtype=bool)
        if policy.communicate and m > 1:
            active = res.sampled[:, tidx].any(axis=1)
            rounds = [int(degrees(topo.adjacency_at(tidx + 1))[active].sum())]
        elif policy.flood and m > 1:
            active[:] = True
            rounds = flood_reachability(topo.adjacency_at(tidx + 1))[1]
        assert np.array_equal(res.broadcast[:, tidx], active)
        broadcasts += active
        packets_by_t.append(sum(rounds))
        best = max(best, _per_round_latency(rounds, latency_rng, cfg.net.latency_ms_center))
    size = message_num_bytes(d) if policy.communicate else flood_payload_bytes(d)
    return packets_by_t, size, broadcasts, best


@pytest.mark.parametrize("algorithm", ["dpcrowd", "nonprivate", "fast", "dfast"])
@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("dynamic", [False, True])
def test_comm_stats_match_per_timestamp_reference(algorithm, m, dynamic):
    cfg = ExperimentConfig(
        algorithm=algorithm, seed=6, timestamps=60, users=3000, model=ModelConfig(q=(1e3,)),
        net=NetConfig(m=m, rho=0.4, seed=2, dynamic=dynamic),
    )
    res = run_experiment(cfg)
    packets_by_t, size, broadcasts, best = _per_timestamp_stats(cfg, res)
    stats = res.stats
    assert stats.packets_by_t == packets_by_t
    assert stats.packets == sum(packets_by_t)
    assert stats.payload_bytes == stats.packets * size
    assert np.array_equal(stats.broadcasts, broadcasts)
    assert stats.max_latency_ms.hex() == best.hex()
    if algorithm == "dpcrowd" and m > 1:
        assert 0 in packets_by_t  # a timestamp where no server sampled
