import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcrowd import runners
from dpcrowd.config import DataConfig, ExperimentConfig, GroupingConfig, ModelConfig, \
    NetConfig, SamplingConfig
from dpcrowd.grouping import (
    GroupPartition,
    GroupingThresholds,
    group_regions,
    may_merge,
    perturb_groups,
    predict_region,
)
from dpcrowd.privacy import perturb_count


THR = GroupingThresholds(large_value=100.0, value_gap=5.0, trend_gap=0.5, history_window=3)


# ------------------------------------------- pairwise reference (one column at a time)

def _padded(history, window):
    """Last `window` values, front-padded by repeating the earliest one."""
    vals = [float(v) for v in history[-window:]]
    if not vals:
        return np.zeros(window)
    if len(vals) < window:
        vals = [vals[0]] * (window - len(vals)) + vals
    return np.asarray(vals)


def _normalized(values):
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _trend_deviation(history_a, history_b, window):
    a = _normalized(_padded(history_a, window))
    b = _normalized(_padded(history_b, window))
    return float(np.mean(np.abs(a - b)))


def _reference_groups(sampled, predictions, histories, thresholds):
    """Pairwise grouping: predictions[k] and histories[k] indexed by dimension."""
    sampled = sorted(set(int(k) for k in sampled))
    groups, small = [], []
    for k in sampled:
        if predictions[k] >= thresholds.large_value:
            groups.append((k,))
        else:
            small.append(k)
    small.sort(key=lambda k: (predictions[k], k))
    remaining = list(small)
    while remaining:
        seed = remaining.pop(0)
        group, keep = [seed], []
        for k in remaining:
            close_value = abs(predictions[k] - predictions[seed]) <= thresholds.value_gap
            close_trend = (
                _trend_deviation(histories[k], histories[seed], thresholds.history_window)
                <= thresholds.trend_gap
            )
            if close_value and close_trend:
                group.append(k)
            else:
                keep.append(k)
        remaining = keep
        groups.append(tuple(sorted(group)))
    groups.sort(key=lambda g: g[0])
    return tuple(groups)


def _column(values):
    return np.asarray(values, dtype=float)[:, None]


# ------------------------------------------------------------- predictions

def test_predict_region_constant_history():
    assert predict_region(_column([10.0, 10.0, 10.0]), 3).tolist() == [10.0]


def test_predict_region_mean_of_last_window():
    assert predict_region(_column([1.0, 2.0, 3.0, 4.0, 5.0]), 3)[0] == pytest.approx(4.0)


def test_predict_region_cold_start():
    assert predict_region(np.empty((0, 2)), 3).tolist() == [0.0, 0.0]


def test_predict_region_pads_short_history():
    # (2, 2, 5) after padding with the earliest value
    assert predict_region(_column([2.0, 5.0]), 3)[0] == pytest.approx(3.0)


def test_padded_history_repeats_earliest():
    # grouping pads (2, 5) and (0, 3) to (2, 2, 5) and (0, 0, 3): the same
    # normalized trend, so they merge even at a zero trend gap. Zero padding
    # would give (0, 2, 5) and (0, 0, 3), which differ.
    thr = GroupingThresholds(large_value=100.0, value_gap=5.0, trend_gap=0.0, history_window=3)
    history = np.array([[2.0, 0.0], [5.0, 3.0]])
    assert group_regions([0, 1], [3.0, 1.0], history, thr).groups == ((0, 1),)


def test_history_column_matches_list():
    # the engine passes slices releases[i, a:b][:, granted]; they must forecast
    # and group exactly as the same values given as plain lists
    releases = np.random.default_rng(3).normal(50.0, 10.0, size=(2, 1000, 3))
    for tidx in (1, 2, 1000):
        for window in (1, 3, 5):
            recent = releases[1, max(0, tidx - window):tidx][:, [0, 2]]
            values = recent.tolist()
            got = predict_region(recent, window)
            assert got.tobytes() == predict_region(values, window).tobytes()
            assert got.tolist() == [_padded(column, window).mean() for column in recent.T]
            thr = GroupingThresholds(100.0, 30.0, 0.4, window)
            part = group_regions([0, 2], got, recent, thr)
            assert part == group_regions([0, 2], got, values, thr)


@settings(max_examples=300, deadline=None)
@given(
    window=st.integers(1, 24),
    rows=st.integers(0, 48),
    cols=st.integers(1, 4),
    exponent=st.floats(-3.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_region_columns_match_one_dimensional(window, rows, cols, exponent, seed):
    # the engine forecasts all granted dimensions in one call; each column must
    # be bitwise the mean of that column alone, padded, at every window length
    history = np.random.default_rng(seed).uniform(0.0, 10.0**exponent, size=(rows, cols))
    got = predict_region(history, window)
    want = np.array([np.mean(_padded(history[:, k], window)) for k in range(cols)])
    assert got.shape == (cols,)
    assert got.tobytes() == want.tobytes()


def test_trend_deviation_identical_histories():
    # (1, 2, 3) and (10, 20, 30) normalize to the same trend: deviation 0
    thr = GroupingThresholds(large_value=100.0, value_gap=50.0, trend_gap=0.0, history_window=3)
    history = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    assert group_regions([0, 1], [2.0, 20.0], history, thr).groups == ((0, 1),)


def test_trend_deviation_constant_history_is_zero_trend():
    # (5, 5, 5) normalizes to zeros, (1, 2, 3) to (0, 0.5, 1): deviation 0.5
    history = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    at_gap = GroupingThresholds(large_value=100.0, value_gap=5.0, trend_gap=0.5, history_window=3)
    below = GroupingThresholds(100.0, 5.0, math.nextafter(0.5, 0.0), 3)
    assert group_regions([0, 1], [5.0, 2.0], history, at_gap).groups == ((0, 1),)
    assert group_regions([0, 1], [5.0, 2.0], history, below).groups == ((0,), (1,))


# ---------------------------------------------------------------- grouping

def test_all_large_all_singletons():
    hist = np.full((1, 3), 500.0)
    part = group_regions([0, 1, 2], [500.0, 600.0, 700.0], hist, THR)
    assert part.groups == ((0,), (1,), (2,))


def test_hand_traced_partition():
    # predictions (2, 2, 1000): the two small close dims merge, the big one solo
    hist = np.array([[2.0, 2.0, 1000.0]] * 3)
    part = group_regions([0, 1, 2], [2.0, 2.0, 1000.0], hist, THR)
    assert part.groups == ((0, 1), (2,))


def test_single_dimension_is_singleton():
    part = group_regions([0], [1.0], [[1.0]], THR)
    assert part.groups == ((0,),)


def test_value_gap_blocks_merge():
    hist = np.ones((1, 2))
    part = group_regions([0, 1], [1.0, 50.0], hist, THR)
    assert part.groups == ((0,), (1,))


def test_trend_gap_blocks_merge():
    thr = GroupingThresholds(large_value=100.0, value_gap=5.0, trend_gap=0.1, history_window=3)
    part = group_regions([0, 1], [1.0, 1.0], np.array([[1, 3], [2, 2], [3, 1]]), thr)
    assert part.groups == ((0,), (1,))


def test_partition_is_deterministic():
    hist = np.array([[3.0, 1.0, 2.0, 9.0], [1.0, 3.0, 2.0, 9.0]])
    preds = [2.0, 2.0, 2.0, 9.0]
    a = group_regions([0, 1, 2, 3], preds, hist, THR)
    # the same dimensions listed in reverse, with their columns and forecasts
    b = group_regions([3, 2, 1, 0], preds[::-1], hist[:, ::-1], THR)
    assert a.groups == b.groups


@given(
    st.lists(st.floats(0.0, 200.0), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_partition_always_valid(preds):
    dims = list(range(len(preds)))
    hist = np.array([preds] * 3)
    part = group_regions(dims, preds, hist, THR)
    seen = [k for g in part.groups for k in g]
    assert sorted(seen) == dims  # disjoint cover
    assert all(len(g) >= 1 for g in part.groups)


_POOL = (0.0, 1.0, 2.0, 3.0, 100.0)  # repeated values: constant columns and tied forecasts


def _nudged(draw, value):
    """value itself, or the next float above or below it."""
    step = draw(st.sampled_from((0.0, math.inf, -math.inf)))
    return value if step == 0.0 else math.nextafter(value, step)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_group_regions_matches_pairwise_reference(data):
    draw = data.draw
    tau = draw(st.integers(1, 12), label="tau")
    rows = draw(st.integers(0, 2 * tau), label="rows")
    k = draw(st.integers(2, 6), label="k")
    dims = sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k), label="dims"))
    values = st.one_of(st.sampled_from(_POOL), st.floats(0.0, 1e4))
    columns = []
    for _ in range(k):
        if draw(st.booleans()):
            columns.append([draw(values)] * rows)
        else:
            columns.append([draw(values) for _ in range(rows)])
    history = np.array(columns, dtype=float).T.reshape(rows, k)
    if draw(st.booleans()):
        predictions = predict_region(history, tau)
    else:
        predictions = np.array(draw(st.lists(values, min_size=k, max_size=k)))

    # thresholds sit on, or one float beside, a forecast, a forecast gap and a
    # trend deviation of this very input
    a, b = draw(st.permutations(range(k)))[:2]
    large = _nudged(draw, float(predictions[a]))
    value_gap = _nudged(draw, float(abs(predictions[a] - predictions[b])))
    trend_gap = _nudged(draw, _trend_deviation(history[:, a], history[:, b], tau))
    thr = GroupingThresholds(
        large_value=large if large > 0 else 1.0,
        value_gap=max(value_gap, 0.0),
        trend_gap=max(trend_gap, 0.0),
        history_window=tau,
    )

    full_predictions = np.full(8, np.nan)
    full_predictions[dims] = predictions
    full_histories = [[] for _ in range(8)]
    for j, dim in enumerate(dims):
        full_histories[dim] = history[:, j]
    want = _reference_groups(dims, full_predictions, full_histories, thr)
    assert group_regions(dims, predictions, history, thr).groups == want


def _spread(draw, start, count, gap):
    """count ascending floats whose every adjacent difference, as computed in
    floating point, exceeds gap."""
    values = [start] if count else []
    for _ in range(count - 1):
        nxt = values[-1] + gap + draw(st.floats(0.0, 1e3))
        while not nxt - values[-1] > gap:
            nxt = math.nextafter(nxt, math.inf)
        values.append(nxt)
    return values


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_group_regions_singletons_when_no_forecasts_are_close(data):
    # no two small forecasts within value_gap, where may_merge says no: every
    # dimension is a group of its own, as the pairwise reference says
    draw = data.draw
    tau = draw(st.integers(1, 6), label="tau")
    rows = draw(st.integers(0, 2 * tau), label="rows")
    k = draw(st.integers(2, 6), label="k")
    dims = sorted(draw(st.sets(st.integers(0, 7), min_size=k, max_size=k), label="dims"))
    gap = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(1e3, 1e300)), label="gap")
    large = draw(st.one_of(st.floats(1e-3, 1e6), st.just(math.inf)), label="large")
    start = draw(st.one_of(st.floats(-1e6, 1e6), st.just(-1e308)), label="start")
    n_small = draw(st.integers(0, k), label="n_small")
    small = _spread(draw, start, n_small, gap)
    others = [
        draw(st.one_of(st.just(math.nan), st.floats(large, 1e308), st.just(math.inf)))
        if large < math.inf else math.nan
        for _ in range(k - n_small)
    ]
    predictions = np.array(draw(st.permutations(small + others), label="order"))
    history = np.array(
        draw(st.lists(st.lists(st.floats(0.0, 1e4), min_size=k, max_size=k),
                      min_size=rows, max_size=rows)),
        dtype=float,
    ).reshape(rows, k)
    thr = GroupingThresholds(large_value=large, value_gap=gap, trend_gap=1.0,
                             history_window=tau)

    full_predictions = np.full(8, np.nan)
    full_predictions[dims] = predictions
    full_histories = [[] for _ in range(8)]
    for j, dim in enumerate(dims):
        full_histories[dim] = history[:, j]
    want = _reference_groups(dims, full_predictions, full_histories, thr)
    assert want == tuple((dim,) for dim in dims)
    assert group_regions(dims, predictions, history, thr).groups == want


def test_partition_type_rejects_overlap():
    with pytest.raises(ValueError):
        GroupPartition(groups=((0, 1), (1, 2)))


# ------------------------------------------------------------ perturbation

class _ZeroRng:
    """Stands in for a Generator; returns u=0.5 so the Laplace draw is 0."""

    def random(self):
        return 0.5


def test_group_average_zero_noise():
    part = GroupPartition(groups=((0, 1),))
    out = perturb_groups(part, [4.0, 6.0], [1.0, 1.0], 1.0, _ZeroRng())
    assert out[0] == out[1] == 5.0


def test_sum_preserved_zero_noise():
    part = GroupPartition(groups=((0, 1, 2),))
    out = perturb_groups(part, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 1.0, _ZeroRng())
    assert sum(out.values()) == pytest.approx(6.0)


def test_singleton_is_plain_perturbation():
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    part = GroupPartition(groups=((0,),))
    out = perturb_groups(part, [10.0], [1.0], 1.0, rng_a)
    from dpcrowd.privacy import perturb_count

    assert out[0] == perturb_count(10.0, 1.0, 1.0, rng_b)


def test_grouped_noise_variance_shrinks():
    # group of 4 equal dims: per-dim variance ~ (1/16) * 2 (df/eps)^2, 5% tol
    rng = np.random.default_rng(9)
    part = GroupPartition(groups=((0, 1, 2, 3),))
    draws = np.array(
        [perturb_groups(part, [5.0] * 4, [1.0] * 4, 1.0, rng)[0] for _ in range(10_000)]
    )
    expected = 2.0 / 16.0
    assert abs(draws.var() / expected - 1.0) < 0.05


def test_rejects_nonpositive_budget():
    part = GroupPartition(groups=((0, 1),))
    with pytest.raises(ValueError):
        perturb_groups(part, [1.0, 2.0], [1.0, 0.0], 1.0, np.random.default_rng(0))


def test_charges_each_member_budget(monkeypatch):
    # engine level: every sampled (server, t, dim) is charged exactly once,
    # whether it was perturbed alone or shared a group's noise draw
    sizes = []
    original = runners.perturb_groups

    def recording(partition, *args):
        sizes.extend(len(g) for g in partition.groups)
        return original(partition, *args)

    monkeypatch.setattr(runners, "perturb_groups", recording)
    cfg = ExperimentConfig(
        algorithm="dpcrowd_plus", seed=2, timestamps=60, users=2000, w=10,
        model=ModelConfig(d=3, q=(1.0,)), data=DataConfig(initial=(5.0,)),
        net=NetConfig(m=3, rho=1.0, seed=1),
    )
    res = runners.run_experiment(cfg)
    assert max(sizes) > 1
    for i, ledger in enumerate(res.ledgers):
        for k in range(cfg.model.d):
            charged = sorted(t for t, _ in ledger.spends[k])
            assert charged == [int(t) + 1 for t in np.flatnonzero(res.sampled[i, :, k])]


def _gated_run(cfg):
    """Run cfg and check its grouping gate against a replay from its own
    releases; returns the run and the timestamps group_regions was asked at.

    Each server-timestamp with two or more grants is recomputed with
    predict_region over the server's granted columns and the no-merge rule:
    the engine must gate every one of them, non-finite forecasts included,
    with forecasts of those bits, group_regions must be asked exactly where
    the rule lets a merge happen, and every other grant must draw with
    perturb_count, in (timestamp, server, dimension) order, bitwise as its
    singleton partition would.
    """
    asked, gated, drawn = [], [], []
    group_original, perturb_original, count_original, merge_original = (
        runners.group_regions, runners.perturb_groups, runners.perturb_count, runners.may_merge,
    )

    def grouping(sampled, *args):
        asked.append(list(sampled))
        return group_original(sampled, *args)

    def perturbing(partition, *args):
        assert sum(len(g) for g in partition.groups) > 1
        return perturb_original(partition, *args)

    def counting(value, sensitivity, eps_t, rng):
        before = copy.deepcopy(rng)
        singleton = perturb_original(
            GroupPartition(groups=((0,),)), [value], [eps_t], sensitivity, copy.deepcopy(rng)
        )[0]
        released = count_original(value, sensitivity, eps_t, rng)
        assert released.hex() == count_original(value, sensitivity, eps_t, before).hex()
        assert released.hex() == singleton.hex()
        drawn.append(released)
        return released

    def gate(forecasts, thresholds):
        gated.append(list(forecasts))
        return merge_original(forecasts, thresholds)

    with mock.patch.multiple(runners, group_regions=grouping, perturb_groups=perturbing,
                             perturb_count=counting, may_merge=gate):
        res = runners.run_experiment(cfg)
    thresholds, tau = runners._grouping_thresholds(cfg), cfg.grouping.tau
    want_asked, want_gated, want_drawn, asked_at = [], [], [], []
    for t in range(cfg.timestamps):
        for i in range(cfg.net.m):
            granted = np.flatnonzero(res.sampled[i, t]).tolist()
            if len(granted) > 1:
                forecasts = predict_region(res.releases[i, max(0, t - tau):t][:, granted], tau)
                forecasts = forecasts.tolist()
                want_gated.append(forecasts)
                if may_merge(forecasts, thresholds):
                    want_asked.append(granted)
                    asked_at.append(t)
                    continue
            want_drawn.extend(res.observations[i, t, granted].tolist())
    assert [[p.hex() for p in row] for row in gated] == \
        [[p.hex() for p in row] for row in want_gated]
    assert asked == want_asked
    assert [v.hex() for v in drawn] == [v.hex() for v in want_drawn]
    return res, asked_at


def test_lone_grant_skips_grouping():
    # a server granted one dimension, or several that the no-merge rule keeps
    # apart, perturbs each with perturb_count directly, the draws a
    # singleton partition would give, without grouping at all
    cfg = ExperimentConfig(
        algorithm="dpcrowd_plus", seed=2, timestamps=60, users=2000, w=10,
        model=ModelConfig(d=3, q=(1.0, 100.0, 1e4)), data=DataConfig(initial=(5.0, 50.0, 500.0)),
        net=NetConfig(m=3, rho=1.0, seed=1),
    )
    res, asked_at = _gated_run(cfg)
    per_server = res.sampled.sum(axis=2)  # (m, T) granted dimensions
    # every server merges at t = 1, where the empty history forecasts zeros
    assert asked_at.count(0) == cfg.net.m
    # lone grants, and multi-grant server-timestamps that skip grouping
    assert (per_server == 1).sum() > 0
    assert (per_server > 1).sum() > len(asked_at)


@settings(max_examples=60, deadline=None)
@given(
    tau=st.integers(1, 12),
    timestamps=st.integers(2, 20),
    d=st.integers(2, 4),
    fixed=st.booleans(),
    eta1=st.sampled_from((None, 1e9)),
    eta3=st.sampled_from((None, 0.0, 1e3)),
    seed=st.integers(0, 2**16),
)
def test_engine_forecasts_match_predict_region(tau, timestamps, d, fixed, eta1, eta3, seed):
    # the engine forecasts every server's dimensions in one pass a timestamp;
    # each granted column must have the bits predict_region gives it alone,
    # front-padded while t < tau, and at windows past numpy's pairwise block
    # of 8, and the gate must decide as the replay does
    cfg = ExperimentConfig(
        algorithm="dpcrowd_plus", seed=seed, timestamps=timestamps, users=300, w=5,
        model=ModelConfig(d=d, q=(100.0,)), data=DataConfig(initial=(500.0,)),
        net=NetConfig(m=3, rho=1.0, seed=1),
        sampling=SamplingConfig(mode="fixed" if fixed else "adaptive"),
        grouping=GroupingConfig(eta1=eta1, eta3=eta3, tau=tau),
    )
    _gated_run(cfg)


_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.0, 2.0, 3.0, 1e308, -1e308)


@settings(max_examples=500, deadline=None)
@given(
    forecasts=st.lists(
        st.one_of(st.sampled_from(_SPECIAL), st.integers(-6, 6).map(float),
                  st.floats(allow_nan=True, allow_infinity=True)),
        min_size=1, max_size=6,
    ),
    large=st.sampled_from((5e-324, 1.0, 3.0, 1e308, math.inf)),
    gap=st.sampled_from((0.0, 1.0, 2.0, 1e308, math.inf)),
    seed=st.integers(0, 2**16),
)
def test_no_merge_rule_means_singletons(forecasts, large, gap, seed):
    # where may_merge says no, the pairwise reference groups nothing: NaN,
    # infinities of either sign, equal infinities and gaps of exactly
    # value_gap (integer forecasts a whole gap apart) included
    thr = GroupingThresholds(large_value=large, value_gap=gap, trend_gap=1.0,
                             history_window=3)
    k = len(forecasts)
    history = np.random.default_rng(seed).uniform(0.0, 10.0, size=(4, k))
    if may_merge(forecasts, thr):
        return
    full_histories = [history[:, j] for j in range(k)]
    singletons = tuple((j,) for j in range(k))
    assert _reference_groups(list(range(k)), np.array(forecasts), full_histories, thr) == \
        singletons
    assert group_regions(list(range(k)), forecasts, history, thr).groups == singletons
