import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcrowd import runners
from dpcrowd.config import ExperimentConfig, ModelConfig, NetConfig
from dpcrowd.datasets import generate_stream
from dpcrowd.model import ProcessModel, StreamPrefix, partition_users


def test_step_identity_no_noise():
    model = ProcessModel(transition=np.array([[1.0]]), noise_var=np.array([0.0]))
    values = generate_stream(model, [42.0], 2, np.random.default_rng(0), clamp=False).values
    assert values.tolist() == [[42.0], [42.0]]


def test_step_identity_2d():
    model = ProcessModel(transition=np.eye(2), noise_var=np.zeros(2))
    values = generate_stream(model, [3.0, 5.0], 4, np.random.default_rng(0), clamp=False).values
    assert np.array_equal(values, [[3.0, 5.0]] * 4)


def test_step_noise_variance():
    # A=1, Q=1e5: increments are N(0, 1e5); sample variance within 5%
    model = ProcessModel(transition=np.array([[1.0]]), noise_var=np.array([1e5]))
    values = generate_stream(model, [0.0], 10_001, np.random.default_rng(7), clamp=False).values
    assert 0.95e5 < np.diff(values[:, 0]).var() < 1.05e5


def test_step_dimension_mismatch():
    model = ProcessModel(transition=np.eye(2), noise_var=np.zeros(2))
    with pytest.raises(ValueError):
        generate_stream(model, [1.0, 2.0, 3.0], 3, np.random.default_rng(0))


def test_partition_single_server():
    sizes = partition_users(100, 1, np.random.default_rng(0))
    assert sizes.tolist() == [100]


def test_partition_exhaustive():
    rng = np.random.default_rng(1)
    sizes = partition_users(10_000, 7, rng)
    assert sizes.sum() == 10_000
    assert (sizes >= 0).all()


def test_partition_mean_size():
    # n=1e5, m=50: mean group size 2000 within 1% over 1000 trials
    rng = np.random.default_rng(2)
    totals = np.zeros(50)
    trials = 1000
    for _ in range(trials):
        totals += partition_users(100_000, 50, rng)
    means = totals / trials
    assert np.all(np.abs(means - 2000) < 20)


def test_partition_rejects_zero():
    with pytest.raises(ValueError):
        partition_users(0, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        partition_users(10, 0, np.random.default_rng(0))


@given(st.integers(1, 5000), st.integers(1, 60))
@settings(max_examples=50, deadline=None)
def test_partition_always_exhaustive(n, m):
    sizes = partition_users(n, m, np.random.default_rng(n * 61 + m))
    assert len(sizes) == m
    assert sizes.sum() == n


# The engine forms each server's raw aggregate H r(t) + N(0, H^2 q) with
# H = |G_i| / n; the non-private run publishes exactly those aggregates.

def _sensing_residuals(monkeypatch, sizes, q, timestamps):
    sizes = np.asarray(sizes)
    monkeypatch.setattr(runners, "partition_users", lambda n, m, rng: sizes.copy())
    cfg = ExperimentConfig(algorithm="nonprivate", timestamps=timestamps, users=int(sizes.sum()),
                           model=ModelConfig(q=(q,)), net=NetConfig(m=len(sizes), rho=1.0))
    result = runners.run_experiment(cfg)
    coeff = (sizes / cfg.users)[:, None, None]
    return result.observations - coeff * result.truth[None], coeff


def test_observe_noiseless(monkeypatch):
    residuals, _ = _sensing_residuals(monkeypatch, [50, 50], 0.0, 20)
    assert np.all(residuals == 0.0)


def test_observe_noise_variance(monkeypatch):
    # H=0.2 and 0.8, Q=25: residual / (H sqrt(Q)) is standard normal, 1e4 draws
    residuals, coeff = _sensing_residuals(monkeypatch, [20, 80], 25.0, 5000)
    z = residuals / (coeff * 5.0)
    assert 0.95 < z.var() < 1.05


def test_observe_unbiased(monkeypatch):
    residuals, coeff = _sensing_residuals(monkeypatch, [40, 60], 9.0, 5000)
    z = residuals / (coeff * 3.0)
    assert abs(z.mean()) < 3.0 / np.sqrt(z.size)


def test_stream_prefix_validation():
    sp = StreamPrefix(values=np.arange(6.0).reshape(3, 2))
    assert sp.timestamps == 3 and sp.d == 2
    with pytest.raises(ValueError):
        StreamPrefix(values=np.array([[np.inf]]))
