import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcrowd import netsim, runners
from dpcrowd.config import ExperimentConfig, ModelConfig, NetConfig
from dpcrowd.netsim import (
    CommStats,
    LatencyPlan,
    TopologySchedule,
    _delivery_latency,
    flood_payload_bytes,
    flood_reachability,
    generate_topology,
    degrees,
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


def test_schedule_static_is_cached():
    sched = TopologySchedule(m=8, density=0.4, seed=5, dynamic=False)
    a1 = sched.adjacency_at(1)
    a9 = sched.adjacency_at(9)
    assert np.array_equal(a1, a9)


def test_schedule_dynamic_varies_and_is_reproducible():
    sched = TopologySchedule(m=12, density=0.4, seed=5, dynamic=True)
    a1, a2 = sched.adjacency_at(1), sched.adjacency_at(2)
    assert not np.array_equal(a1, a2)
    again = TopologySchedule(m=12, density=0.4, seed=5, dynamic=True)
    assert np.array_equal(a1, again.adjacency_at(1))


def test_schedule_single_node():
    sched = TopologySchedule(m=1, density=0.5, seed=0, dynamic=False)
    assert sched.adjacency_at(1).shape == (1, 1)
    assert sched.adjacency_at(1).sum() == 0


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
    assert _delivery_latency([0], rng, 100.0) == 0.0
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
        assert 80.0 <= _delivery_latency([count], rng, 100.0) <= 120.0
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
    assert _delivery_latency(counts, batched, center) == want
    assert batched.random() == per_round.random()


def _per_round_latency(counts, rng, center):
    """The reference: every delivery drawn, one uniform draw per round."""
    return float(
        sum(float(rng.uniform(0.8 * center, 1.2 * center, size=n).max()) for n in counts if n)
    )


_BEATS = ("-inf", "zero", "exact", "below", "above", "ceiling")


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(0, 400), min_size=2, max_size=8),
    center=st.floats(1e-3, 1e4),
    seed=st.integers(0, 2**32 - 1),
    beat_kind=st.sampled_from(_BEATS),
    buffered=st.booleans(),
    planned=st.booleans(),
)
@example(counts=[5, 400, 3], center=100.0, seed=1, beat_kind="below", buffered=False,
         planned=False)
@example(counts=[5, 400, 3], center=100.0, seed=1, beat_kind="exact", buffered=True,
         planned=True)
def test_lazy_latency_is_exact_above_the_value_to_beat(counts, center, seed, beat_kind, buffered,
                                                       planned):
    full = np.random.default_rng(seed)
    lazy = np.random.default_rng(seed)
    if buffered:  # a buffered 32-bit half, which random() leaves alone
        full.integers(2**32, dtype=np.uint32)
        lazy.integers(2**32, dtype=np.uint32)
    exact = _per_round_latency(counts, full, center)
    beat = {
        "-inf": -math.inf,
        "zero": 0.0,
        "exact": exact,
        "below": math.nextafter(exact, -math.inf),
        "above": math.nextafter(exact, math.inf),
        "ceiling": 1.2 * center * len(counts),
    }[beat_kind]
    # the engine passes a flood's rounds as a LatencyPlan built once per adjacency
    got = _delivery_latency(LatencyPlan.of(counts) if planned else counts, lazy, center, beat)
    if exact > beat:
        assert got.hex() == exact.hex()
    else:
        assert got <= beat
    # the stream is left past every draw of the timestamp either way
    assert lazy.bit_generator.state == full.bit_generator.state
    assert lazy.random() == full.random()


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
    # the engine passes its running maximum as the value to beat; drawing
    # every delivery instead must give the same report, bit for bit
    cfg = _dynamic_flood(dynamic=True)
    lazy = run_experiment(cfg)
    full_draw = netsim._delivery_latency
    monkeypatch.setattr(runners, "_delivery_latency",
                        lambda counts, rng, center, beat: full_draw(counts, rng, center))
    full = run_experiment(cfg)
    assert lazy.stats.max_latency_ms.hex() == full.stats.max_latency_ms.hex()
    assert lazy.stats.packets_by_t == full.stats.packets_by_t
    assert len(set(full.stats.packets_by_t)) > 1  # the round lists did change
    assert np.array_equal(lazy.releases, full.releases)


class _CountingRng:
    """A Generator stand-in that counts the uniforms drawn through it."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.drawn = 0

    def random(self, size):
        self.drawn += size
        return self._rng.random(size)


def test_static_flood_draws_few_latencies(monkeypatch):
    # after the first timestamp a static flood repeats its rounds, and the
    # smallest round's draw almost always settles that the maximum stands
    counting = {}
    lazy_draw = netsim._delivery_latency

    def draw(counts, rng, center, beat):
        wrapped = counting.setdefault(id(rng), _CountingRng(rng))
        return lazy_draw(counts, wrapped, center, beat)

    monkeypatch.setattr(runners, "_delivery_latency", draw)
    cfg = replace(_dynamic_flood(), timestamps=1000, net=NetConfig(m=50, rho=0.3, seed=4))
    res = run_experiment(cfg)
    (wrapped,) = counting.values()
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
    known, hops, packets, rounds = flood_reachability(adj)
    assert known.all()
    assert hops == 1
    # round 1: 3 nodes forward own payload to 2 neighbors = 6; round 2:
    # each forwards the 2 newly learned payloads once more = 12
    assert packets == 18
    assert rounds == [6, 12]


def test_flood_path_graph_diameter_hops():
    m = 4
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    known, hops, packets, _ = flood_reachability(adj)
    assert known.all()
    assert hops == 3


def test_flood_disconnected_reaches_component_only():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    known, _, _, _ = flood_reachability(adj)
    assert known[0].tolist() == [True, True, False, False]
    assert known[3].tolist() == [False, False, True, True]


def test_flood_beats_one_hop_packets():
    # one one-hop round with every server broadcasting sends sum(degrees) packets
    adj = generate_topology(20, 0.3, np.random.default_rng(5))
    _, _, flood_packets, _ = flood_reachability(adj)
    assert flood_packets >= degrees(adj).sum()


def test_comm_stats_accumulate():
    stats = CommStats()
    stats.record_round(3, 96, 110.0)
    stats.record_round(2, 64, 90.0)
    assert stats.packets == 5
    assert stats.payload_bytes == 160
    assert stats.max_latency_ms == 110.0
    assert stats.packets_by_t == [3, 2]
