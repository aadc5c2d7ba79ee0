import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcrowd import runners
from dpcrowd.config import DataConfig, ExperimentConfig, ModelConfig, NetConfig
from dpcrowd.grouping import (
    GroupPartition,
    GroupingThresholds,
    group_regions,
    padded_history,
    perturb_groups,
    predict_region,
    trend_deviation,
)


THR = GroupingThresholds(large_value=100.0, value_gap=5.0, trend_gap=0.5, history_window=3)


# ------------------------------------------------------------- predictions

def test_predict_region_constant_history():
    assert predict_region([10.0, 10.0, 10.0], 3) == 10.0


def test_predict_region_mean_of_last_window():
    assert predict_region([1.0, 2.0, 3.0, 4.0, 5.0], 3) == pytest.approx(4.0)


def test_predict_region_cold_start():
    assert predict_region([], 3) == 0.0


def test_predict_region_pads_short_history():
    # (2, 2, 5) after padding with the earliest value
    assert predict_region([2.0, 5.0], 3) == pytest.approx(3.0)


def test_padded_history_repeats_earliest():
    assert padded_history([7.0], 3).tolist() == [7.0, 7.0, 7.0]


def test_history_column_matches_list():
    # the engine passes numpy columns releases[i, :tidx, k]
    releases = np.random.default_rng(3).normal(50.0, 10.0, size=(2, 1000, 3))
    for tidx in (1, 2, 1000):
        column = releases[1, :tidx, 2]
        values = column.tolist()
        for window in (1, 3, 5):
            assert padded_history(column, window).tolist() == padded_history(values, window).tolist()
            assert predict_region(column, window) == predict_region(values, window)
    short = releases[1, :2, 2]
    assert padded_history(short, 4).tolist() == [short[0]] * 3 + [short[1]]


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
    # be bitwise the forecast the 1-D form gives, at every window length
    history = np.random.default_rng(seed).uniform(0.0, 10.0**exponent, size=(rows, cols))
    got = predict_region(history, window)
    want = np.array([predict_region(history[:, k], window) for k in range(cols)])
    assert got.shape == (cols,)
    assert got.tobytes() == want.tobytes()


def test_trend_deviation_identical_histories():
    assert trend_deviation([1, 2, 3], [10, 20, 30], 3) == pytest.approx(0.0)


def test_trend_deviation_constant_history_is_zero_trend():
    assert trend_deviation([5, 5, 5], [1, 2, 3], 3) == pytest.approx(np.abs([0 - 0, 0 - 0.5, 0 - 1]).mean())


# ---------------------------------------------------------------- grouping

def test_all_large_all_singletons():
    hist = [[500.0]] * 3
    part = group_regions([0, 1, 2], [500.0, 600.0, 700.0], hist, THR)
    assert part.groups == ((0,), (1,), (2,))


def test_hand_traced_partition():
    # predictions (2, 2, 1000): the two small close dims merge, the big one solo
    hist = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [1000.0, 1000.0, 1000.0]]
    part = group_regions([0, 1, 2], [2.0, 2.0, 1000.0], hist, THR)
    assert part.groups == ((0, 1), (2,))


def test_single_dimension_is_singleton():
    part = group_regions([0], [1.0], [[1.0]], THR)
    assert part.groups == ((0,),)


def test_value_gap_blocks_merge():
    hist = [[1.0]] * 2
    part = group_regions([0, 1], [1.0, 50.0], hist, THR)
    assert part.groups == ((0,), (1,))


def test_trend_gap_blocks_merge():
    thr = GroupingThresholds(large_value=100.0, value_gap=5.0, trend_gap=0.1, history_window=3)
    part = group_regions([0, 1], [1.0, 1.0], [[1, 2, 3], [3, 2, 1]], thr)
    assert part.groups == ((0,), (1,))


def test_partition_is_deterministic():
    hist = [[3.0, 1.0], [1.0, 3.0], [2.0, 2.0], [9.0, 9.0]]
    preds = [2.0, 2.0, 2.0, 9.0]
    a = group_regions([0, 1, 2, 3], preds, hist, THR)
    b = group_regions([3, 2, 1, 0], preds, hist, THR)
    assert a.groups == b.groups


@given(
    st.lists(st.floats(0.0, 200.0), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_partition_always_valid(preds):
    dims = list(range(len(preds)))
    hist = [[p, p, p] for p in preds]
    part = group_regions(dims, preds, hist, THR)
    seen = [k for g in part.groups for k in g]
    assert sorted(seen) == dims  # disjoint cover
    assert all(len(g) >= 1 for g in part.groups)


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
