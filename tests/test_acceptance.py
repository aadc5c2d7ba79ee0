"""End-to-end acceptance gate.

Each test covers one numbered claim about the system as a whole and prints a
single verdict line (written past pytest's capture so the full scorecard is
visible in any run log). Heavy run grids are built once per module and shared.
"""

import filecmp
import functools
import math

import numpy as np
import pytest

import conftest

from dpcrowd.config import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    NetConfig,
    SamplingConfig,
)
from dpcrowd.datasets import gen_multilinear, save_csv
from dpcrowd.kcif import effective_variance
from dpcrowd.metrics import summarize
from dpcrowd.model import StreamPrefix
from dpcrowd.netsim import TopologySchedule, degrees
from dpcrowd.privacy import laplace_sample
from dpcrowd.report import write_report
from dpcrowd.runners import run_experiment

SEEDS = tuple(range(100, 120))  # 20 seeds for every averaged comparison
EPS_GRID = (0.1, 0.3, 0.5, 0.7, 1.0)
RHO_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    conftest.SCORECARD.append(f"{line}  ({detail})" if detail else line)
    print(line)
    assert ok, f"{label}: {detail}"


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _count_inversions(means, ses, want: str):
    """Pairs moving against the trend; a pair within one standard error of the
    difference is tolerated, anything larger is a hard failure (count 99)."""
    soft = 0
    for i in range(len(means) - 1):
        step = means[i + 1] - means[i]
        if (want == "nonincreasing" and step <= 0) or (
            want == "nondecreasing" and step >= 0
        ):
            continue
        if abs(step) <= math.hypot(ses[i], ses[i + 1]):
            soft += 1
        else:
            return 99
    return soft


# --------------------------------------------------------------- run grids

def _linear_cfg(algorithm, seed, eps, rho):
    # count stream with unit transition and process variance 1e5; 50 servers
    return ExperimentConfig(
        algorithm=algorithm, seed=seed, timestamps=1000, users=100000,
        epsilon=eps, net=NetConfig(m=50, rho=rho),
    )


def _record(res):
    s = summarize(res.releases, res.truth)
    quarter = res.config.timestamps // 4
    return {
        "are": s.are,
        "ace": s.ace,
        "ace_head": float(np.mean(s.ace_trace[:quarter])),
        "ace_tail": float(np.mean(s.ace_trace[-quarter:])),
        "max_broadcasts": int(np.max(res.stats.broadcasts)),
        "packets": res.stats.packets,
    }


@functools.cache
def _linear_record(algorithm, seed, eps, rho):
    """The _record of one _linear_cfg run. The grids share runs (rho_runs at
    rho = 0.3 is linear_grid's dpcrowd column at eps = 0.1), and each runs
    once; pass every argument, so that equal configs share one cache key."""
    return _record(run_experiment(_linear_cfg(algorithm, seed, eps, rho)))


@pytest.fixture(scope="module")
def linear_grid():
    table = {}
    for algo in ("dpcrowd", "fast"):
        for eps in EPS_GRID:
            for seed in SEEDS:
                table[algo, eps, seed] = _linear_record(algo, seed, eps, 0.3)
    return table


@pytest.fixture(scope="module")
def dfast_runs():
    return [_linear_record("dfast", seed, 0.1, 0.3) for seed in SEEDS]


@pytest.fixture(scope="module")
def rho_runs():
    table = {}
    for rho in RHO_GRID:
        for seed in SEEDS:
            table[rho, seed] = _linear_record("dpcrowd", seed, 0.1, rho)
    return table


@pytest.fixture(scope="module")
def sparse_csvs(tmp_path_factory):
    """Six-dimensional coupled streams with two dimensions shrunk to 1% of
    their magnitude — the regime where per-dimension noise dominates."""
    root = tmp_path_factory.mktemp("sparse_streams")
    paths = {}
    for seed in SEEDS:
        prefix = gen_multilinear(np.random.default_rng(seed))
        values = prefix.values.copy()
        values[:, 4:6] *= 0.01
        path = root / f"stream_{seed}.csv"
        save_csv(StreamPrefix(values=values), path)
        paths[seed] = str(path)
    return paths


def _multi_cfg(algorithm, seed, w, path):
    return ExperimentConfig(
        algorithm=algorithm, seed=seed, timestamps=1000, users=100000,
        epsilon=1.0, w=w,
        model=ModelConfig(d=6, a=0.8, a_offdiag=0.04, q=(1e4,) * 6),
        data=DataConfig(source="csv", path=path),
        net=NetConfig(m=20, rho=0.3),
    )


@pytest.fixture(scope="module")
def plus_w_grid(sparse_csvs):
    table = {}
    for w in (10, 20, 40, 80):
        for seed in SEEDS:
            res = run_experiment(_multi_cfg("dpcrowd_plus", seed, w, sparse_csvs[seed]))
            table[w, seed] = summarize(res.releases, res.truth).are
    return table


@pytest.fixture(scope="module")
def windowed_baseline_runs(sparse_csvs):
    runs = [run_experiment(_multi_cfg("dpcrowd_w", seed, 20, sparse_csvs[seed])) for seed in SEEDS]
    return [summarize(r.releases, r.truth).are for r in runs]


# ---------------------------------------------------------------- criteria

def test_criterion_01_total_budget_never_exceeded():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(200):
        cfg = ExperimentConfig(
            algorithm="dpcrowd",
            seed=int(rng.integers(0, 2**31)),
            timestamps=int(rng.integers(5, 41)),
            users=int(rng.integers(50, 5001)),
            epsilon=float(rng.uniform(0.05, 2.0)),
            net=NetConfig(m=int(rng.integers(1, 7)), rho=float(rng.uniform(0.1, 1.0))),
            model=ModelConfig(q=(float(rng.uniform(1.0, 1e5)),)),
            data=DataConfig(initial=(float(rng.uniform(10.0, 1e4)),)),
            sampling=SamplingConfig(
                mode=("adaptive", "fixed")[int(rng.integers(0, 2))],
                interval=int(rng.integers(1, 5)),
                max_fraction=float(rng.uniform(0.1, 1.0)),
            ),
        )
        res = run_experiment(cfg)
        for led in res.ledgers:
            spent = math.fsum(e for _, e in led.spends[0])
            worst = max(worst, spent / cfg.epsilon)
            if spent > cfg.epsilon:
                _verdict(1, "total budget never exceeded", False,
                         f"spent {spent} of {cfg.epsilon} (seed {cfg.seed})")
    _verdict(1, "total budget never exceeded", True,
             f"worst spend ratio {worst:.6f}")


def test_criterion_02_every_window_budget_never_exceeded():
    rng = np.random.default_rng(16082026)
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(6, 41))
        d = int(rng.integers(1, 4))
        offdiag = float(rng.uniform(0.0, 0.1)) if d > 1 else 0.0
        cfg = ExperimentConfig(
            algorithm="dpcrowd_plus",
            seed=int(rng.integers(0, 2**31)),
            timestamps=t,
            users=int(rng.integers(50, 5001)),
            epsilon=float(rng.uniform(0.1, 2.0)),
            w=int(rng.integers(2, min(t, 12) + 1)),
            mu=float(rng.uniform(0.2, 3.0)),
            p_max=float(rng.uniform(0.3, 1.0)),
            eps_max_fraction=float(rng.uniform(0.1, 1.0)),
            net=NetConfig(m=int(rng.integers(1, 6)), rho=float(rng.uniform(0.1, 1.0))),
            model=ModelConfig(d=d, a=1.0 - (d - 1) * offdiag, a_offdiag=offdiag,
                              q=(float(rng.uniform(1.0, 1e4)),)),
            data=DataConfig(initial=(float(rng.uniform(10.0, 1e4)),)),
            sampling=SamplingConfig(
                mode=("adaptive", "fixed")[int(rng.integers(0, 2))],
                interval=int(rng.integers(1, 4)),
                max_fraction=float(rng.uniform(0.2, 1.0)),
            ),
        )
        res = run_experiment(cfg)
        for led in res.ledgers:
            for k in range(led.dims):
                stamps = [ts for ts, _ in led.spends[k]]
                if not stamps:
                    continue
                for lo in range(min(stamps) - cfg.w + 1, max(stamps) + 1):
                    inside = math.fsum(
                        e for ts, e in led.spends[k] if lo <= ts <= lo + cfg.w - 1
                    )
                    worst = max(worst, inside / cfg.epsilon)
                    if inside > cfg.epsilon:
                        _verdict(2, "every sliding window within budget", False,
                                 f"window [{lo}, {lo + cfg.w - 1}] spent {inside} "
                                 f"of {cfg.epsilon} (seed {cfg.seed})")
    _verdict(2, "every sliding window within budget", True,
             f"worst window ratio {worst:.6f}")


def test_criterion_03_single_node_matches_reference_filter():
    cfg = ExperimentConfig(
        algorithm="nonprivate", seed=42, timestamps=100, users=100000,
        net=NetConfig(m=1, rho=1.0),
        sampling=SamplingConfig(mode="fixed", interval=1),
    )
    res = run_experiment(cfg)
    zs = res.observations[0, :, 0]
    h, q = 1.0, 1e5
    r = effective_variance(h * h * q, math.inf, 1.0)

    # plain scalar filter in gain form, written from the textbook equations;
    # the first observation seeds the prior and is then fused like any other
    x, p = zs[0] / h, h * h / r
    ref = []
    for z in zs:
        xp, pp = x, p + q
        gain = pp * h / (h * h * pp + r)
        x = xp + gain * (z - h * xp)
        p = (1.0 - gain * h) * pp
        ref.append(x)
    rel = np.abs(res.releases[0, :, 0] - np.asarray(ref)) / np.abs(ref)
    ok = bool(rel.max() <= 1e-10)
    _verdict(3, "single-node trace matches reference filter", ok,
             f"max relative error {rel.max():.3e}")


def test_criterion_04_tracked_variance_matches_closed_form():
    # budget chosen so the per-step grant 1/128 is exactly representable and
    # the grant sequence is constant through all 100 steps
    cfg = ExperimentConfig(
        algorithm="dpcrowd", seed=7, timestamps=100, users=100000,
        epsilon=0.78125,
        net=NetConfig(m=1, rho=1.0),
        sampling=SamplingConfig(mode="fixed", interval=1, max_fraction=1.0),
    )
    res = run_experiment(cfg)
    assert res.sampled.all(), "every step must spend and fuse"
    h, q = 1.0, 1e5
    r = effective_variance(h * h * q, cfg.epsilon / cfg.timestamps, 1.0)
    m_prev, ref = h * h / r, []
    for _ in range(cfg.timestamps):
        pp = m_prev + q
        m_prev = r * pp / (r + h * h * pp)
        ref.append(m_prev)
    rel = np.abs(res.posterior_var[0, :, 0] - np.asarray(ref)) / np.asarray(ref)
    ok = bool(rel.max() <= 1e-10)
    _verdict(4, "tracked variance matches closed-form recursion", ok,
             f"max relative error {rel.max():.3e}")


def test_criterion_05_laplace_sample_variance():
    rng = np.random.default_rng(5)
    detail, ok = [], True
    for b in (0.5, 1.0, 2.0):
        draws = np.array([laplace_sample(b, rng) for _ in range(100000)])
        ratio = draws.var() / (2.0 * b * b)
        detail.append(f"b={b}: var ratio {ratio:.4f}")
        ok = ok and abs(ratio - 1.0) <= 0.05
    _verdict(5, "laplace sample variance within 5%", ok, "; ".join(detail))


def test_criterion_06_error_falls_as_budget_grows(linear_grid):
    crowd = [float(np.mean([linear_grid["dpcrowd", e, s]["are"] for s in SEEDS])) for e in EPS_GRID]
    alone = [float(np.mean([linear_grid["fast", e, s]["are"] for s in SEEDS])) for e in EPS_GRID]
    decreasing = all(b < a for a, b in zip(crowd, crowd[1:]))
    beats = all(c < f for c, f in zip(crowd, alone))
    detail = (f"mean ARE over eps {EPS_GRID}: "
              f"{[round(v, 4) for v in crowd]} vs silo {[round(v, 4) for v in alone]}")
    _verdict(6, "error strictly falls with budget and beats the silo baseline",
             decreasing and beats, detail)


def test_criterion_07_consensus_convergence_and_ordering(linear_grid, dfast_runs):
    heads = [linear_grid["dpcrowd", 0.1, s]["ace_head"] for s in SEEDS]
    tails = [linear_grid["dpcrowd", 0.1, s]["ace_tail"] for s in SEEDS]
    crowd_ace = np.mean([linear_grid["dpcrowd", 0.1, s]["ace"] for s in SEEDS])
    alone_ace = np.mean([linear_grid["fast", 0.1, s]["ace"] for s in SEEDS])
    flood_aces = [r["ace"] for r in dfast_runs]
    converges = np.mean(tails) < np.mean(heads)
    ordered = crowd_ace < alone_ace
    flood_exact = all(a == 0.0 for a in flood_aces)
    detail = (f"head {np.mean(heads):.3f} -> tail {np.mean(tails):.3f}; "
              f"ACE {crowd_ace:.3f} vs silo {alone_ace:.3f}; "
              f"flood max {max(flood_aces)}")
    _verdict(7, "estimates converge, agree more than silos, flooding agrees exactly",
             converges and ordered and flood_exact, detail)


def test_criterion_08_error_non_increasing_in_density(rho_runs):
    oks, details = [], []
    for key in ("are", "ace"):
        stats = [_mean_se([rho_runs[r, s][key] for s in SEEDS]) for r in RHO_GRID]
        means, ses = [m for m, _ in stats], [se for _, se in stats]
        oks.append(_count_inversions(means, ses, "nonincreasing") <= 1)
        details.append(f"{key} over rho {RHO_GRID}: {[round(m, 4) for m in means]}")
    _verdict(8, "error and disagreement non-increasing in density",
             all(oks), "; ".join(details))


def test_criterion_09_communication_accounting(linear_grid):
    cfg = ExperimentConfig(
        algorithm="dpcrowd", seed=11, timestamps=1000, users=100000, epsilon=0.1,
        net=NetConfig(m=50, rho=0.3, seed=987),
    )
    res = run_experiment(cfg)
    topo = TopologySchedule(m=50, density=0.3, seed=987, dynamic=False)
    deg = degrees(topo.adjacency_at(1))
    expected = [int(deg[res.broadcast[:, t]].sum()) for t in range(cfg.timestamps)]
    packets_exact = res.stats.packets_by_t == expected

    caps = [linear_grid["dpcrowd", e, s]["max_broadcasts"] for e in EPS_GRID for s in SEEDS]
    caps.append(int(res.stats.broadcasts.max()))
    cap_ok = max(caps) <= 300  # 0.3 of 1000 timestamps

    flood_ok = True
    for rho in (0.1, 0.5, 0.9):
        for seed in SEEDS[:3]:
            flood = _linear_record("dfast", seed, 0.1, rho)["packets"]
            onehop = _linear_record("dpcrowd", seed, 0.1, rho)["packets"]
            flood_ok = flood_ok and flood > onehop

    _verdict(9, "packets equal broadcaster degree sums; caps and flood ordering hold",
             packets_exact and cap_ok and flood_ok,
             f"packets_exact={packets_exact} max_broadcasts={max(caps)} "
             f"flood_dominates={flood_ok}")


def test_criterion_10_grouping_beats_windowed_baseline(plus_w_grid, windowed_baseline_runs):
    plus = np.mean([plus_w_grid[20, s] for s in SEEDS])
    base = np.mean(windowed_baseline_runs)
    _verdict(10, "grouped sparse release at least as accurate as windowed baseline",
             plus <= base, f"mean ARE {plus:.4f} vs {base:.4f}")


def test_criterion_11_error_non_decreasing_in_window(plus_w_grid):
    stats = [_mean_se([plus_w_grid[w, s] for s in SEEDS]) for w in (10, 20, 40, 80)]
    means, ses = [m for m, _ in stats], [se for _, se in stats]
    ok = _count_inversions(means, ses, "nondecreasing") <= 1
    _verdict(11, "error non-decreasing in window length", ok,
             f"mean ARE over w (10, 20, 40, 80): {[round(m, 4) for m in means]}")


def test_criterion_12_reports_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        algorithm="dpcrowd", seed=100, timestamps=300, users=100000, epsilon=0.1,
        net=NetConfig(m=20, rho=0.3),
    )
    pairs = []
    for tag in ("first", "second"):
        res = run_experiment(cfg)
        csv_path = tmp_path / f"{tag}.csv"
        trace_path = tmp_path / f"{tag}_trace.csv"
        json_path = tmp_path / f"{tag}.json"
        write_report([res], "csv", csv_path, trace_path=trace_path)
        write_report([res], "json", json_path)
        pairs.append((csv_path, trace_path, json_path))
    same = all(
        filecmp.cmp(a, b, shallow=False) for a, b in zip(pairs[0], pairs[1])
    )
    _verdict(12, "identical config and seed give byte-identical reports", same,
             "csv, trace, and json outputs compared")
