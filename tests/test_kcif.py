import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeze_golden_grid import BASE, VARIANTS

from dpcrowd import kcif, runners
from dpcrowd.config import ExperimentConfig, KcifConfig, ModelConfig, NetConfig, \
    config_from_mapping
from dpcrowd.datasets import build_transition
from dpcrowd.kcif import (
    UNINFORMED_VARIANCE_SCALE,
    effective_variance,
    initialize,
    predict,
    prediction_gain,
    update_from_delta,
)
from dpcrowd.netsim import TopologySchedule, flood_reachability
from dpcrowd.privacy import allocate_adaptive
from dpcrowd.runners import RunDivergedError


def _predict(posterior, posterior_var, transition, process_var):
    return predict(posterior, posterior_var, transition.T, prediction_gain(transition),
                   process_var)


def _initialize(released, coefficient, weight, transition, process_var):
    return initialize(released, coefficient, weight, transition.T, prediction_gain(transition),
                      process_var)


# -------------------------------------------------------- effective variance

def test_effective_variance_nonprivate():
    # inf budget drops the perturbation term: 0.5^2 * 4 = 1
    assert effective_variance(0.5 * 0.5 * 4.0, np.inf, 1.0) == 1.0


def test_effective_variance_pure_noise_observer():
    assert effective_variance(0.0 * 0.0 * 123.0, 1.0, 1.0) == 2.0


def test_effective_variance_hand_value():
    # alpha=2, scale=(1/0.5)=2 -> 2*(2*4 + 0.01*100) = 18
    assert effective_variance(0.1 * 0.1 * 100.0, 0.5, 1.0, alpha=2.0) == pytest.approx(18.0)


def test_effective_variance_rejects_zero_budget():
    with pytest.raises(ValueError):
        effective_variance(0.5 * 0.5 * 1.0, 0.0, 1.0)


def test_effective_variance_monotone_in_budget():
    lo = effective_variance(0.3 * 0.3 * 10.0, 0.2, 1.0)
    hi = effective_variance(0.3 * 0.3 * 10.0, 2.0, 1.0)
    assert hi < lo


def _masked_effective_variance(coefficient, eps_t, sensitivity, process_var, alpha):
    """The formula before the engine hoisted the sensing variance: the
    perturbation term masked to zero wherever eps_t is inf."""
    scale = sensitivity / eps_t
    perturb_var = np.where(np.isinf(eps_t), 0.0, 2.0 * scale * scale)
    return alpha * (perturb_var + coefficient * coefficient * process_var)


_budgets = st.one_of(st.just(math.inf), st.floats(1e-300, 1e300), st.floats(1e-4, 10.0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_effective_variance_matches_masked_formula(data):
    draw = data.draw
    m, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    coeff = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))[:, None]
    q = np.array(draw(st.lists(st.floats(0.0, 1e8), min_size=d, max_size=d)))[None, :]
    eps = np.array(draw(st.lists(_budgets, min_size=m * d, max_size=m * d))).reshape(m, d)
    sensitivity = draw(st.floats(1e-3, 1e3))
    alpha = draw(st.floats(1e-3, 1e3))
    sensing = (coeff[:, 0] * coeff[:, 0])[:, None] * q  # as the engine hoists it
    with np.errstate(over="ignore"):  # tiny budgets overflow both to inf alike
        got = effective_variance(sensing, eps, sensitivity, alpha=alpha)
        want = _masked_effective_variance(coeff, eps, sensitivity, q, alpha)
    assert got.tobytes() == want.tobytes()
    # at inf nothing is added to the sensing variance
    off = np.isinf(eps)
    assert got[off].tobytes() == (alpha * sensing)[off].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_predict_with_hoisted_constants_matches_direct_expression(data):
    draw = data.draw
    m, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6)
    transition = np.array(draw(st.lists(finite, min_size=d * d, max_size=d * d))).reshape(d, d)
    posterior = np.array(draw(st.lists(finite, min_size=m * d, max_size=m * d))).reshape(m, d)
    posterior_var = np.array(
        draw(st.lists(st.floats(0.0, 1e12), min_size=m * d, max_size=m * d))
    ).reshape(m, d)
    q = np.array(draw(st.lists(st.floats(0.0, 1e8), min_size=d, max_size=d)))
    prior, prior_var = predict(posterior, posterior_var, transition.T,
                               prediction_gain(transition), q)
    assert prior.tobytes() == (posterior @ np.asarray(transition, dtype=float).T).tobytes()
    assert prior_var.tobytes() == (prediction_gain(transition) * posterior_var + q).tobytes()


# ------------------------------------------------------------------ predict

def test_predict_static_noiseless():
    prior, prior_var = _predict(np.array([7.0]), np.array([2.0]), np.array([[1.0]]), np.array([0.0]))
    assert prior[0] == 7.0 and prior_var[0] == 2.0


def test_predict_variance_growth():
    _, prior_var = _predict(np.array([0.0]), np.array([1.0]), np.array([[1.0]]), np.array([1e5]))
    assert prior_var[0] == 100001.0


def test_predict_zero_transition():
    prior, _ = _predict(np.array([55.0]), np.array([1.0]), np.array([[0.0]]), np.array([1.0]))
    assert prior[0] == 0.0


def test_prediction_gain_row_sums():
    a = np.array([[0.8, 0.04], [0.04, 0.8]])
    assert np.allclose(prediction_gain(a), [0.84**2, 0.84**2])


# ------------------------------------------------------------------- update

# Information contributions as the engine forms them: u = H z / R, w = H^2 / R.

def test_update_no_information():
    post, var = update_from_delta(np.array([3.0]), np.array([2.0]), np.zeros(1), np.zeros(1),
                                  np.zeros(1), 0.05)
    assert post[0] == 3.0 and var[0] == 2.0


def test_update_agreeing_neighbors_drop_consensus_term():
    prior = np.array([4.0])
    h, z, r = 0.5, np.array([8.0]), 2.0
    u, w = h * z / r, np.array([h * h / r])
    delta = sum(nbr - prior for nbr in [prior, prior])
    with_nbrs, _ = update_from_delta(prior, np.array([1.0]), u, w, delta, 0.05)
    alone, _ = update_from_delta(prior, np.array([1.0]), u, w, np.zeros(1), 0.05)
    assert with_nbrs[0] == pytest.approx(alone[0])


def test_update_variance_contraction():
    h, z, r = 0.5, np.array([2.0]), 0.5
    _, var = update_from_delta(np.array([0.0]), np.array([4.0]), h * z / r,
                               np.array([h * h / r]), np.zeros(1), 0.05)
    assert var[0] == pytest.approx(1.0 / (1.0 / 4.0 + 0.5))
    assert var[0] <= 4.0


@given(
    st.floats(0.1, 100.0),
    st.floats(0.0, 1.0),
    st.floats(0.01, 100.0),
    st.floats(-10, 10),
    st.floats(-10, 10),
)
@settings(max_examples=100, deadline=None)
def test_update_never_inflates_variance(prior_var, h, r, prior, z):
    _, var = update_from_delta(np.array([prior]), np.array([prior_var]), np.array([h * z / r]),
                               np.array([h * h / r]), np.zeros(1), 0.05)
    assert var[0] <= prior_var * (1 + 1e-12)
    if h == 0:
        assert var[0] == pytest.approx(prior_var)


def test_update_from_delta_consensus_direction():
    # neighbors sitting above our prior pull the posterior up
    post_hi, _ = update_from_delta(np.array([0.0]), np.array([1.0]), np.zeros(1), np.zeros(1),
                                   np.array([10.0]), 0.05)
    post_lo, _ = update_from_delta(np.array([0.0]), np.array([1.0]), np.zeros(1), np.zeros(1),
                                   np.array([-10.0]), 0.05)
    assert post_hi[0] > 0 > post_lo[0]


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -3.5, 1e308, -1e308,
                math.inf, -math.inf, math.nan)
_edge_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)


def _same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=400, deadline=None)
@given(
    cols=st.lists(st.tuples(*[_edge_floats] * 5), min_size=1, max_size=6),
    step=st.sampled_from((0.0, -0.0, 5e-324, 0.01, 1.0, 1e300)) | st.floats(0.0, 1e308),
)
@example(cols=[(-0.0, 2.0, -0.0, 0.0, 0.0)], step=0.01)  # -0.0 + gain * 0.0 is +0.0
@example(cols=[(1.0, 1e300, 0.5, 1.0, 0.0)], step=1e300)  # step * prior_var overflows
@example(cols=[(1.0, -1e-310, 0.5, 1.0, 0.0)], step=0.0)
def test_update_without_neighbours_is_update_with_zero_delta(cols, step):
    # prior_delta=None leaves out the consensus term, gain * 0.0, and must
    # give the bits of a zero delta for any prior_var, including -0.0,
    # subnormals, infinities, NaN and an overflowing consensus_step * prior_var
    prior, prior_var, fused_value, fused_weight, extra = (np.array(c) for c in zip(*cols))
    args = (prior, prior_var, fused_value, fused_weight)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        post, post_var = update_from_delta(*args, None, step)
        want, want_var = update_from_delta(*args, np.zeros_like(extra), step)
    assert _same_bits(post, want)
    assert _same_bits(post_var, want_var)


# ------------------------------------------------------------------ coasting

# (moderate values, with edge values mixed in)
_coast_values = (st.floats(-1e6, 1e6), st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1.0, -3.5, 1e300, -1e300, 1.7e308)
) | st.floats(-1e6, 1e6))
_coast_variances = (st.floats(1e-3, 1e6), st.sampled_from(
    (0.0, -0.0, 5e-324, 1e-310, 1.0, 1e6, 1e300, 1.7e308)
) | st.floats(0.0, 1e6))
_coast_transitions = (st.floats(-2.0, 2.0), st.sampled_from(
    (0.0, 1.0, -1.0, 0.5, 1e-200, 1e150)
) | st.floats(-2.0, 2.0))


def _zero_evidence_rounds(posterior, posterior_var, transition, process_var, beta, steps,
                          link):
    """steps rounds of the engine's predict and update with nothing sampled."""
    zeros = np.zeros(posterior.shape)
    active = np.zeros(len(posterior), dtype=bool)
    out = []
    for _ in range(steps):
        prior, prior_var = _predict(posterior, posterior_var, transition, process_var)
        value, weight, delta = zeros, zeros, None
        if link is not None:  # a one-hop server whose neighbours all stay silent
            value, weight = zeros + link @ zeros, zeros + link @ zeros
            heard = link @ active.astype(float)
            delta = link @ (prior * active[:, None]) - heard[:, None] * prior
        posterior, posterior_var = update_from_delta(prior, prior_var, value, weight, delta, beta)
        out.append((prior_var, posterior, posterior_var))
    return out


@settings(max_examples=400, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 3)),
    steps=st.integers(1, 6),
    beta=st.sampled_from((0.0, 0.01, 1.0, 1e300)) | st.floats(0.0, 1e308),
    one_hop=st.booleans(),
    data=st.data(),
)
@example(shape=(2, 1), steps=3, beta=0.01, one_hop=True,
         data=[[[-0.0], [5e-324]], [[1.0], [1e-310]], [[1.0]], [1.0], [[0, 1], [1, 0]]])
@example(shape=(1, 2), steps=4, beta=0.0, one_hop=False,
         data=[[[1e300, -1.7e308]], [[1e300, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [0.0, 5e-324],
               [[0]]])
@example(shape=(1, 1), steps=2, beta=1e300, one_hop=False,  # beta * prior_var overflows
         data=[[[3.0]], [[1e10]], [[1.0]], [1.0], [[0]]])
def test_coast_is_rounds_of_predict_and_zero_evidence_update(shape, steps, beta, one_hop,
                                                             data):
    # kcif.coast over k steps must give the bits of k engine rounds that fuse
    # nothing, or refuse where a round leaves finite values
    m, d = shape
    if isinstance(data, list):  # an @example's arrays
        posterior, posterior_var, transition, process_var, link = map(np.array, data)
    else:
        draw = data.draw
        edges = draw(st.booleans())

        def block(values, rows, cols):
            return np.array(draw(st.lists(st.lists(values[edges], min_size=cols, max_size=cols),
                                          min_size=rows, max_size=rows)))

        posterior, posterior_var = block(_coast_values, m, d), block(_coast_variances, m, d)
        transition, process_var = block(_coast_transitions, d, d), block(_coast_variances, 1, d)[0]
        link = np.array(draw(st.lists(st.lists(st.sampled_from((0, 1)), min_size=m,
                                               max_size=m), min_size=m, max_size=m)))
    link = link.astype(float) if one_hop else None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # coast itself never warns
        coasted = kcif.coast(posterior, posterior_var, transition.T, prediction_gain(transition),
                             process_var, beta, steps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rounds = _zero_evidence_rounds(posterior, posterior_var, transition, process_var, beta,
                                       steps, link)
    if coasted is None:
        # refused only where a round leaves the values the shortcut needs
        assert any(not np.isfinite(post).all() or not ((var > 0) & (var < np.inf)).all()
                   or not np.isfinite(beta * prior_var).all()
                   for prior_var, post, var in rounds)
        return
    posteriors, variances = coasted
    assert posteriors.shape == variances.shape == (steps, m, d)
    for step, (_, post, var) in enumerate(rounds):
        assert posteriors[step].tobytes() == post.tobytes(), step
        assert variances[step].tobytes() == var.tobytes(), step


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 40),
    sets=st.integers(1, 6),
    density=st.sampled_from((0.2, 0.6, 1.0)),
    d=st.integers(1, 3),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_flood_average_of_a_stack_is_each_timestamps_average(m, sets, density, d, k, seed):
    # a stretch's releases must equal, bit for bit, the per-timestamp average
    # that sums each payload set's rows in index order; servers share one of
    # a few payload sets, most of them longer than numpy's 8-way unrolled sum
    rng = np.random.default_rng(seed)
    known = (rng.random((sets, m)) < density)[rng.integers(0, sets, m)] | np.eye(m, dtype=bool)
    stack = rng.standard_normal((k, m, d)) * 10.0 ** rng.integers(-8, 9, (k, m, d))
    got = np.broadcast_to(kcif.flood_average(known)(stack), stack.shape)
    uniq, inverse = np.unique(known, axis=0, return_inverse=True)
    for step, posterior in enumerate(stack):
        sums = np.stack([np.add.reduce(posterior[np.flatnonzero(row)], axis=0) for row in uniq])
        want = (sums / uniq.sum(axis=1).astype(float)[:, None])[inverse]
        assert got[step].tobytes() == want.tobytes(), step


# ------------------------------------------------- textbook Kalman reduction

def test_matches_textbook_kalman_50_steps():
    """Single server, H=1, no consensus: the information-form update must
    equal the covariance-form textbook filter to ~1e-10 relative error."""
    rng = np.random.default_rng(42)
    a, q, r = 1.0, 2.0, 3.0
    truth = np.cumsum(rng.normal(0, np.sqrt(q), 50))
    zs = truth + rng.normal(0, np.sqrt(r), 50)

    # textbook covariance form, seeded the same way as the filter under
    # test: pre-step posterior = first measurement with weight H^2/R
    xk, mk = zs[0], 1.0 / r
    ref = []
    for z in zs:
        xb, p = a * xk, a * a * mk + q
        k = p / (p + r)
        xk = xb + k * (z - xb)
        mk = (1 - k) * p
        ref.append(xk)

    # information form under test
    prior, prior_var = _initialize(np.array([zs[0]]), 1.0, np.array([1.0 / r]),
                                   np.array([[a]]), np.array([q]))
    post = None
    got = []
    for t, z in enumerate(zs, start=1):
        if t > 1:
            prior, prior_var = _predict(post, post_var, np.array([[a]]), np.array([q]))
        post, post_var = update_from_delta(prior, prior_var, np.array([z / r]),
                                           np.array([1.0 / r]), np.zeros(1), 0.05)
        got.append(post[0])

    np.testing.assert_allclose(got, ref, rtol=1e-10)


def test_initialize_empty_server_uninformative():
    prior, prior_var = _initialize(np.array([0.0]), 0.0, np.array([1.0]),
                                   np.array([[1.0]]), np.array([2.0]))
    assert prior[0] == 0.0
    assert prior_var[0] == 1e6 * 2.0 + 2.0




# ------------------------------------- engine against a per-neighbour loop

SIZES = np.array([0, 30, 50, 20, 40, 60])  # server 0 has no users


def _run_fixed_partition(monkeypatch, algorithm, rho=0.5, dynamic=False):
    monkeypatch.setattr(runners, "partition_users", lambda n, m, rng: SIZES.copy())
    cfg = ExperimentConfig(
        algorithm=algorithm, seed=7, timestamps=40, users=int(SIZES.sum()),
        model=ModelConfig(q=(100.0,)),
        net=NetConfig(m=len(SIZES), rho=rho, seed=11, dynamic=dynamic),
    )
    return cfg, runners.run_experiment(cfg)


def _isolated(t):
    return np.zeros((len(SIZES),) * 2, bool)


def _reference_releases(cfg, result, neighbours, flood=None, sizes=None, block=None):
    """Replay a run server by server, fusing over row i of neighbours(t) one
    neighbour at a time.

    Server i observes with coefficient sizes[t - 1, i] / users (SIZES at every
    timestamp by default), and with block every filter restarts uninformed at
    t = 1, block + 1, 2 block + 1, ... With flood(t) each server releases the
    plain average of the posteriors it holds after flooding that adjacency,
    while its filter carries on from its own posterior. Per-release budgets
    come from the ledgers (inf without one), observations and sampling masks
    from the run itself.
    """
    m, timestamps, d = result.releases.shape
    coeffs = (np.tile(SIZES, (timestamps, 1)) if sizes is None else sizes) / cfg.users
    transition = build_transition(d, cfg.model.a, cfg.model.a_offdiag)
    q = np.broadcast_to(np.asarray(cfg.model.q, dtype=float), (d,))
    eps = np.full((m, timestamps, d), np.inf)
    for i, ledger in enumerate(result.ledgers or []):
        for k in range(d):
            for t, e in ledger.spends[k]:
                eps[i, t - 1, k] = e
    releases = np.empty_like(result.releases)
    variances = np.empty_like(result.posterior_var)
    for tidx in range(timestamps):
        if tidx % (block or timestamps) == 0:
            post = np.zeros((m, d))
            post_var = np.tile(UNINFORMED_VARIANCE_SCALE * q, (m, 1))
            initialized = np.zeros((m, d), dtype=bool)
        adj = neighbours(tidx + 1)
        coeff = coeffs[tidx]
        z = result.observations[:, tidx]
        sampled = result.sampled[:, tidx]
        rhat = np.maximum(
            effective_variance(coeff[:, None] * coeff[:, None] * q, eps[:, tidx],
                               cfg.sensitivity_c, alpha=cfg.kcif.alpha),
            cfg.kcif.variance_floor,
        )
        prior = np.empty((m, d))
        prior_var = np.empty((m, d))
        for i in range(m):
            # a dimension's first observation since the restart seeds its prior
            first = sampled[i] & ~initialized[i]
            prior[i], prior_var[i] = _predict(post[i], post_var[i], transition, q)
            if first.any():
                init, init_var = _initialize(z[i], coeff[i], coeff[i] * coeff[i] / rhat[i],
                                             transition, q)
                prior[i] = np.where(first, init, prior[i])
                prior_var[i] = np.where(first, init_var, prior_var[i])
                initialized[i] |= first
        for i in range(m):
            value = np.where(sampled[i], coeff[i] * z[i] / rhat[i], 0.0)
            weight = np.where(sampled[i], coeff[i] ** 2 / rhat[i], 0.0)
            delta = np.zeros(d)
            for j in np.flatnonzero(adj[i]):
                if sampled[j].any():
                    value = value + np.where(sampled[j], coeff[j] * z[j] / rhat[j], 0.0)
                    weight = weight + np.where(sampled[j], coeff[j] ** 2 / rhat[j], 0.0)
                    delta = delta + (prior[j] - prior[i])
            post[i], post_var[i] = update_from_delta(
                prior[i], prior_var[i], value, weight, delta, cfg.kcif.beta
            )
        releases[:, tidx] = post
        if flood is not None:
            known = flood_reachability(flood(tidx + 1))[0]
            for i in range(m):
                releases[i, tidx] = post[known[i]].mean(axis=0)
        variances[:, tidx] = post_var
    return releases, variances


def test_fuse_matches_brute_force(monkeypatch):
    # a dynamic topology hands the engine a new adjacency every timestamp
    for algorithm, dynamic in itertools.product(("nonprivate", "dpcrowd"), (False, True)):
        cfg, result = _run_fixed_partition(monkeypatch, algorithm, dynamic=dynamic)
        topo = TopologySchedule(m=cfg.net.m, density=cfg.net.rho, seed=cfg.net.seed,
                                dynamic=dynamic)
        adj = topo.adjacency_at(1)
        assert adj.any() and not adj.all()
        if dynamic:
            assert not np.array_equal(adj, topo.adjacency_at(2))
        releases, variances = _reference_releases(cfg, result, topo.adjacency_at)
        np.testing.assert_allclose(result.releases, releases, rtol=1e-12)
        np.testing.assert_allclose(result.posterior_var, variances, rtol=1e-12)


def test_fuse_isolated_is_self(monkeypatch):
    # fast never communicates: each server fuses its own information only
    cfg, result = _run_fixed_partition(monkeypatch, "fast")
    releases, variances = _reference_releases(cfg, result, _isolated)
    np.testing.assert_allclose(result.releases, releases, rtol=1e-12)
    np.testing.assert_allclose(result.posterior_var, variances, rtol=1e-12)


@pytest.mark.parametrize("dynamic", [False, True])
def test_flood_average_matches_per_server_replay(monkeypatch, dynamic):
    # dfast filters locally, then each server averages the posteriors its
    # flood reaches; a dynamic topology floods a new adjacency every timestamp.
    # The sparse graphs split the servers into several averaging groups.
    cfg, result = _run_fixed_partition(monkeypatch, "dfast", rho=0.1, dynamic=dynamic)
    topo = TopologySchedule(m=cfg.net.m, density=cfg.net.rho, seed=cfg.net.seed, dynamic=dynamic)
    reach = [flood_reachability(topo.adjacency_at(t))[0] for t in range(1, 41)]
    assert not reach[0].all()
    if dynamic:
        assert len({known.tobytes() for known in reach}) > 1
    releases, variances = _reference_releases(cfg, result, _isolated, flood=topo.adjacency_at)
    np.testing.assert_allclose(result.releases, releases, rtol=1e-12)
    np.testing.assert_allclose(result.posterior_var, variances, rtol=1e-12)


def test_empty_server_observes_zero(monkeypatch):
    _, result = _run_fixed_partition(monkeypatch, "nonprivate")
    assert np.all(result.observations[SIZES == 0] == 0.0)
    assert np.all(result.observations[SIZES > 0] != 0.0)


def _run_grid_partition(monkeypatch, algorithm, **changes):
    # the golden grid's base config on SIZES: dpcrowd_plus merges dimensions there
    monkeypatch.setattr(runners, "partition_users", lambda n, m, rng: SIZES.copy())
    cfg = config_from_mapping({**BASE, "algorithm": algorithm, "users": str(SIZES.sum()),
                               "net.m": str(len(SIZES)), **changes})
    return cfg, runners.run_experiment(cfg)


@pytest.mark.parametrize("grouping", [True, False], ids=["grouping_on", "grouping_off"])
def test_plus_fusion_matches_per_server_replay(monkeypatch, grouping):
    # adaptive grants and grouped perturbation reach the filter only through
    # the observations and the ledger spends, which the replay reads
    merged = []
    group_regions = runners.group_regions

    def recording(*args):
        partition = group_regions(*args)
        merged.extend(g for g in partition.groups if len(g) > 1)
        return partition

    monkeypatch.setattr(runners, "group_regions", recording)
    cfg, result = _run_grid_partition(monkeypatch, "dpcrowd_plus", **{
        "model.d": "3", "grouping.enabled": str(grouping).lower(),
    })
    assert bool(merged) == grouping
    topo = TopologySchedule(m=cfg.net.m, density=cfg.net.rho, seed=cfg.net.seed)
    releases, variances = _reference_releases(cfg, result, topo.adjacency_at)
    np.testing.assert_allclose(result.releases, releases, rtol=1e-12)
    np.testing.assert_allclose(result.posterior_var, variances, rtol=1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_windowed_restarts_match_per_server_replay(monkeypatch, d):
    # dpcrowd_w restarts every filter at each block start t = 1, w + 1, ...
    cfg, result = _run_grid_partition(monkeypatch, "dpcrowd_w", **{"model.d": str(d)})
    assert cfg.timestamps > 2 * cfg.w
    topo = TopologySchedule(m=cfg.net.m, density=cfg.net.rho, seed=cfg.net.seed)
    releases, variances = _reference_releases(cfg, result, topo.adjacency_at, block=cfg.w)
    np.testing.assert_allclose(result.releases, releases, rtol=1e-12)
    np.testing.assert_allclose(result.posterior_var, variances, rtol=1e-12)


@pytest.mark.parametrize("algorithm", ["nonprivate", "dpcrowd"])
def test_repartitioned_run_takes_one_draw_per_timestamp(monkeypatch, algorithm):
    # Each call to partition_users returns a new order of SIZES, so a
    # different server is empty. Call 0 is the set-up draw, which a
    # repartitioned run leaves unused: timestamp t observes with call t.
    timestamps = 40
    rng = np.random.default_rng(5)
    draws = [rng.permutation(SIZES) for _ in range(timestamps + 1)]
    assert all((a != b).any() for a, b in zip(draws, draws[1:]))
    calls = iter(draws)
    monkeypatch.setattr(runners, "partition_users", lambda n, m, rng: next(calls).copy())
    cfg = ExperimentConfig(
        algorithm=algorithm, seed=7, timestamps=timestamps, users=int(SIZES.sum()),
        model=ModelConfig(q=(100.0,), freeze_partition=False),
        net=NetConfig(m=len(SIZES), rho=0.5, seed=11),
    )
    result = runners.run_experiment(cfg)
    assert next(calls, None) is None  # one set-up draw, then one per timestamp
    sizes = np.array(draws[1:])
    if algorithm == "nonprivate":
        # an empty server's raw aggregate is exactly zero, and only its
        assert ((result.observations[:, :, 0] == 0.0) == (sizes.T == 0)).all()
    topo = TopologySchedule(m=cfg.net.m, density=cfg.net.rho, seed=cfg.net.seed)
    releases, variances = _reference_releases(cfg, result, topo.adjacency_at, sizes=sizes)
    np.testing.assert_allclose(result.releases, releases, rtol=1e-12)
    np.testing.assert_allclose(result.posterior_var, variances, rtol=1e-12)


# ---------------------------------------- per-pair R_hat against per-timestamp R_hat

def _spent_eps(result, shape):
    """Per-release budget of every (server, timestamp, dimension): the ledger
    spends, inf where nothing was spent or the run has no ledger."""
    eps = np.full(shape, np.inf)
    for i, ledger in enumerate(result.ledgers or []):
        for k, spends in enumerate(ledger.spends):
            for t, e in spends:
                eps[i, t - 1, k] = e
    return eps


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(
        ("nonprivate", "dpcrowd", "dpcrowd_w", "fast", "dfast", "dpcrowd_plus")
    ),
    freeze=st.booleans(),
    # (epsilon, sensitivity_c): 1e-309 grants subnormal budgets at a scale
    # that stays finite; 1e-160 overflows (c / eps)^2, so R_hat is inf and a
    # private run is refused
    budget=st.sampled_from(((1e-309, 1e-300), (1e-160, 1.0), (1e-150, 1.0), (0.1, 1.0),
                            (1.0, 1.0), (5.0, 1.0))),
    alpha=st.sampled_from((1.0, 0.37, 3.0)),
    floor=st.sampled_from((1e-12, 50.0)),  # 50 lies above most R_hat here
    w=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
@example(algorithm="dfast", freeze=False, budget=(1.0, 1.0), alpha=1.0, floor=1e-12,
         w=1, seed=7)  # repartitioned
@example(algorithm="dpcrowd_w", freeze=True, budget=(1.0, 1.0), alpha=1.0, floor=1e-12,
         w=7, seed=7)  # block restarts
@example(algorithm="dpcrowd_w", freeze=False, budget=(0.1, 1.0), alpha=1.0, floor=1e-12,
         w=7, seed=7)
@example(algorithm="fast", freeze=True, budget=(1e-150, 1.0), alpha=1.0, floor=1e-12,
         w=1, seed=7)  # tiny eps_uniform
@example(algorithm="dpcrowd_plus", freeze=True, budget=(5.0, 1.0), alpha=0.37, floor=50.0,
         w=5, seed=7)  # the floor binds
@example(algorithm="dpcrowd_plus", freeze=False, budget=(1e-309, 1e-300), alpha=0.37,
         floor=50.0, w=5, seed=7)
@example(algorithm="dpcrowd_plus", freeze=True, budget=(1e-160, 1.0), alpha=3.0,
         floor=1e-12, w=5, seed=7)  # refused at its first grant
def test_per_pair_rhat_matches_per_timestamp_rhat(algorithm, freeze, budget, alpha, floor, w,
                                                  seed):
    # A private run writes R_hat, u and weight per granted pair, in Python
    # floats, from the pair's grant, whichever policy chose it. The fused
    # information the filter receives must keep the bits it has with the
    # array expressions: R_hat = max(effective_variance, floor) recomputed
    # every timestamp from the budgets the ledgers record, u and weight over
    # every pair. A grant whose R_hat overflows ends a private run with no
    # second path to weigh it out.
    timestamps = 40
    epsilon, sensitivity = budget
    rng = np.random.default_rng(seed)
    draws = [rng.permutation(SIZES) for _ in range(timestamps + 1)]
    calls = iter(draws)
    fused = []  # per timestamp: (value, weight), or None where the run coasted
    update, coast = kcif.update_from_delta, kcif.coast

    def recording(prior, prior_var, value, weight, delta, step):
        fused.append((value, weight))
        return update(prior, prior_var, value, weight, delta, step)

    def coasting(*args):
        coasted = coast(*args)
        if coasted is not None:
            fused.extend([None] * args[-1])
        return coasted

    cfg = ExperimentConfig(
        algorithm=algorithm, seed=seed, timestamps=timestamps, users=int(SIZES.sum()),
        epsilon=epsilon, w=w, sensitivity_c=sensitivity,
        model=ModelConfig(q=(100.0,), freeze_partition=freeze),
        net=NetConfig(m=len(SIZES), rho=0.5, seed=11),
        kcif=KcifConfig(alpha=alpha, variance_floor=floor),
    )
    with mock.patch.object(runners, "partition_users", lambda n, m, rng: next(calls).copy()), \
            mock.patch.object(kcif, "update_from_delta", recording), \
            mock.patch.object(kcif, "coast", coasting):
        if epsilon == 1e-160 and algorithm != "nonprivate":
            with pytest.raises(RunDivergedError, match=r"^run diverged: non-finite observation"
                               r" weight at server \d+, t=1, dimension 0 \(grant .*, R_hat inf\)$"):
                runners.run_experiment(cfg)
            return
        result = runners.run_experiment(cfg)
    assert len(fused) == timestamps
    sizes = np.array([draws[0]] * timestamps if freeze else draws[1:], dtype=float)
    coeffs = sizes[:, :, None] / float(cfg.users)
    eps = _spent_eps(result, result.releases.shape)
    link = TopologySchedule(m=cfg.net.m, density=cfg.net.rho, seed=11).adjacency_at(1)
    link = link.astype(float)
    policy = runners._POLICIES[algorithm]
    for tidx, terms in enumerate(fused):
        coeff, sampled = coeffs[tidx], result.sampled[:, tidx]
        if terms is None:  # a coasted timestamp fuses nothing
            assert not sampled.any(), tidx
            continue
        value, weight = terms
        z = result.observations[:, tidx]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rhat = np.maximum(
                effective_variance(coeff * coeff * 100.0, eps[:, tidx], sensitivity,
                                   alpha=alpha),
                floor,
            )
            u = np.where(sampled, coeff * z / rhat, 0.0)
            u_weight = np.where(sampled, coeff * coeff / rhat, 0.0)
            want, want_weight = u, u_weight
            if policy.communicate:
                want, want_weight = u + link @ u, u_weight + link @ u_weight
        assert value.tobytes() == want.tobytes(), tidx
        assert weight.tobytes() == want_weight.tobytes(), tidx
    planned = cfg.sampling.planned_samples
    if algorithm == "dpcrowd_w" and planned(w) != planned(timestamps % w or w):
        # a shorter last block that plans fewer samples grants more
        assert len({e for led in result.ledgers for sp in led.spends for _, e in sp}) > 1


# ------------------------------- dpcrowd_plus grants against the ledger history

@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("variant", ["default", "grouping_off", "eps0.1_w5", "w1"])
def test_plus_grants_replay_from_ledger_history(d, variant, monkeypatch):
    # Each dpcrowd_plus spend (t, e) must be the adaptive grant recomputed from
    # the spends before it: the window budget left over [t - w + 1, t - 1] and
    # the interval since the previous spend (sampling.interval for the first).
    # With no refusal, a schedule fires exactly at the previous spend plus its
    # interval, so the interval is the gap between spends.
    refusals = []
    note_skipped = runners.SamplingSchedule.note_skipped

    def refusing(self, t):
        refusals.append(t)
        note_skipped(self, t)

    monkeypatch.setattr(runners.SamplingSchedule, "note_skipped", refusing)
    cfg = config_from_mapping(
        {**BASE, "algorithm": "dpcrowd_plus", "model.d": str(d), **VARIANTS[variant]}
    )
    result = runners.run_experiment(cfg)
    assert refusals == []
    eps_max = cfg.epsilon * cfg.eps_max_fraction
    checked = 0
    for ledger in result.ledgers:
        for spends in ledger.spends:
            assert spends
            for j, (t, e) in enumerate(spends):
                interval = t - spends[j - 1][0] if j else cfg.sampling.interval
                spent = math.fsum(e0 for t0, e0 in spends[:j] if t0 >= t - cfg.w + 1)
                expected = allocate_adaptive(
                    cfg.epsilon - spent, interval, cfg.mu, cfg.p_max, eps_max
                )
                assert e.hex() == expected.hex(), (t, e, expected)
                checked += 1
    assert checked == int(result.sampled.sum())
