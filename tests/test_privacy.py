import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcrowd.privacy import (
    BudgetError,
    PrivacyLedger,
    allocate_adaptive,
    allocate_uniform,
    laplace_inverse_cdf,
    laplace_sample,
    perturb_count,
)


# ---------------------------------------------------------------- laplace

def test_inverse_cdf_median_is_exact_zero():
    assert laplace_inverse_cdf(0.5, 3.7) == 0.0


def test_inverse_cdf_symmetry():
    for u in (0.1, 0.25, 0.4):
        assert laplace_inverse_cdf(u, 2.0) == pytest.approx(-laplace_inverse_cdf(1 - u, 2.0))


def test_laplace_mean_near_zero():
    rng = np.random.default_rng(11)
    draws = np.array([laplace_sample(1.0, rng) for _ in range(100_000)])
    assert -0.02 < draws.mean() < 0.02


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_laplace_variance(b):
    # Var(Laplace(b)) = 2 b^2, within 5% at 1e5 draws
    rng = np.random.default_rng(int(b * 100))
    draws = np.array([laplace_sample(b, rng) for _ in range(100_000)])
    assert abs(draws.var() / (2 * b * b) - 1.0) < 0.05


def test_laplace_rejects_bad_scale():
    with pytest.raises(ValueError):
        laplace_sample(0.0, np.random.default_rng(0))


def test_perturb_vanishing_noise():
    z = perturb_count(100.0, 1.0, 1e9, np.random.default_rng(5))
    assert abs(z - 100.0) < 1e-6


def test_perturb_variance():
    rng = np.random.default_rng(6)
    resid = np.array([perturb_count(7.0, 1.0, 1.0, rng) - 7.0 for _ in range(100_000)])
    assert abs(resid.var() / 2.0 - 1.0) < 0.05


def test_perturb_sensitivity_scales_noise():
    # residual spread at c=3 is 3x the spread at c=1 (ratio within 10%)
    rng = np.random.default_rng(7)
    r1 = np.array([perturb_count(0.0, 1.0, 1.0, rng) for _ in range(100_000)])
    r3 = np.array([perturb_count(0.0, 3.0, 1.0, rng) for _ in range(100_000)])
    ratio = np.abs(r3).mean() / np.abs(r1).mean()
    assert abs(ratio - 3.0) < 0.3


def test_perturb_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        perturb_count(1.0, 1.0, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------- ledgers

def test_user_level_rejects_overspend():
    # user-level privacy: a window covering every charged timestamp
    led = PrivacyLedger(1.0, w=10)
    led.charge(0, 1, 0.4)
    with pytest.raises(BudgetError) as err:
        led.charge(0, 2, 0.7)
    assert err.value.window == (-7, 2)
    # rejection left no trace
    assert led.spends == [[(1, 0.4)]]


def test_w_event_accepts_spaced_charges():
    led = PrivacyLedger(1.0, w=3)
    for t, eps in [(1, 0.5), (2, 0.5), (3, 0.0), (4, 0.5)]:
        led.charge(0, t, eps)
    led.audit()


def test_w_event_rejects_tight_window():
    led = PrivacyLedger(1.0, w=2)
    led.charge(0, 1, 0.6)
    with pytest.raises(BudgetError) as err:
        led.charge(0, 2, 0.6)
    # the window ending at the charge's own timestamp is the one reported
    assert err.value.window == (1, 2)


def test_w_event_per_dimension_budgets():
    led = PrivacyLedger(1.0, dims=2, w=2)
    led.charge(0, 1, 0.9)
    led.charge(1, 1, 0.9)  # other dimension has its own window
    with pytest.raises(BudgetError):
        led.charge(0, 2, 0.2)


def test_remaining_window_user_mode():
    led = PrivacyLedger(1.0, w=5)
    led.charge(0, 1, 0.25)
    assert led.remaining_window(0, 5) == pytest.approx(0.75)


def _brute_force_ok(charges, epsilon, w):
    """Oracle: scan every w-window of an accepted history directly."""
    if not charges:
        return True
    tmax = max(t for t, _ in charges)
    for end in range(1, tmax + w + 1):
        tot = math.fsum(e for t, e in charges if end - w + 1 <= t <= end)
        if tot > epsilon:
            return False
    return True


@given(
    st.lists(
        st.tuples(st.integers(1, 30), st.floats(0.0, 0.5)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_ledger_never_exceeds_budget(charges, w):
    # feed an arbitrary charge sequence; whatever the ledger accepts must
    # pass an independent brute-force scan of every window
    epsilon = 1.0
    led = PrivacyLedger(epsilon, w=w)
    accepted = []
    for t, eps in sorted(charges):
        try:
            led.charge(0, t, eps)
            accepted.append((t, eps))
        except BudgetError:
            pass
    assert _brute_force_ok(accepted, epsilon, w)
    led.audit()


@given(st.lists(st.floats(0.0, 0.4), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_user_ledger_total_bounded(epsilons):
    led = PrivacyLedger(1.0, w=len(epsilons))
    accepted = []
    for t, eps in enumerate(epsilons, start=1):
        try:
            led.charge(0, t, eps)
            accepted.append(eps)
        except BudgetError:
            pass
    assert math.fsum(accepted) <= 1.0
    led.audit()


@given(
    st.integers(1, 3),
    st.integers(0, 20),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.floats(0.0, 0.6)),
        min_size=1,
        max_size=60,
    ),
)
@settings(max_examples=200, deadline=None)
def test_whole_run_window_matches_user_level_rule(dims, slack, steps):
    # steps are (dim, time increment, eps) with non-decreasing timestamps. A
    # window covering every charged timestamp grants exactly what the
    # whole-stream rule fsum(accepted) + eps <= epsilon grants.
    epsilon = 1.0
    stamps = list(itertools.accumulate((step for _, step, _ in steps), initial=1))[1:]
    w = stamps[-1] + slack
    led = PrivacyLedger(epsilon, dims=dims, w=w)
    accepted = [[] for _ in range(dims)]
    for (dim, _, eps), t in zip(steps, stamps):
        dim %= dims
        fits = math.fsum(accepted[dim] + [eps]) <= epsilon
        try:
            led.charge(dim, t, eps)
            granted = True
        except BudgetError as err:
            assert err.window == (t - w + 1, t)
            granted = False
        assert granted == fits
        if granted:
            accepted[dim].append(eps)
    assert [[e for _, e in spends] for spends in led.spends] == accepted
    led.audit()


@given(
    st.integers(1, 3),
    st.integers(1, 8),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.floats(0.0, 0.6)),
        min_size=1,
        max_size=60,
    ),
)
@settings(max_examples=200, deadline=None)
def test_windowed_charge_matches_every_window_rule(dims, w, steps):
    # steps are (dim, time increment, eps): timestamps never decrease and may
    # repeat. The old rule checked every window ending in [t, t + w - 1].
    epsilon = 1.0
    led = PrivacyLedger(epsilon, dims=dims, w=w)
    accepted = [[] for _ in range(dims)]
    t = 1
    for dim, step, eps in steps:
        dim %= dims
        t += step
        history = accepted[dim]
        spent = math.fsum(e for ts, e in history if t - w + 1 <= ts <= t - 1)
        assert led.remaining_window(dim, t) == epsilon - spent
        fits = all(
            math.fsum([e for ts, e in history if end - w + 1 <= ts <= end] + [eps]) <= epsilon
            for end in range(t, t + w)
        )
        try:
            led.charge(dim, t, eps)
            granted = True
        except BudgetError:
            granted = False
        assert granted == fits
        if granted:
            history.append((t, eps))
    assert led.spends == accepted
    led.audit()


@pytest.mark.parametrize("w", [pytest.param(5, id="user"), pytest.param(3, id="w_event")])
def test_out_of_order_charge_is_refused(w):
    led = PrivacyLedger(1.0, dims=2, w=w)
    led.charge(0, 5, 0.1)
    led.charge(0, 5, 0.1)  # a repeated timestamp is in order
    led.charge(1, 2, 0.1)
    before = [list(spends) for spends in led.spends]
    with pytest.raises(ValueError, match="timestamp order"):
        led.charge(0, 4, 0.1)
    assert led.spends == before


def _first_breach(spends, epsilon, w):
    """Oracle: scan the window starting at every timestamp, earliest first.

    The first window over budget, moved right to start at its earliest
    spend, holds all of its spends and so is over budget too, and no window
    that starts at an earlier spend is. Returns that moved window and its
    exact sum, or None when no window is over budget.
    """
    def window_sum(start):
        return math.fsum(e for t, e in spends if start <= t <= start + w - 1)

    stamps = [t for t, _ in spends]
    for start in range(min(stamps, default=1) - w + 1, max(stamps, default=0) + 1):
        if window_sum(start) > epsilon:
            first = min(t for t in stamps if t >= start)
            return (first, first + w - 1), window_sum(first)
    return None


@given(
    st.integers(1, 35),
    st.lists(
        st.lists(st.tuples(st.integers(1, 30), st.floats(0.0, 0.6)), max_size=25),
        min_size=1,
        max_size=2,
    ),
)
@example(1, [[(3, 0.6), (3, 0.5), (1, 0.2)]])  # w = 1, a repeated timestamp over budget
@example(1, [[(2, 0.6), (1, 0.6), (3, 0.6)]])
@example(30, [[(30, 0.3), (1, 0.3), (15, 0.3), (15, 0.2)]])  # w = T: every spend in one window
@example(30, [[(30, 0.3), (1, 0.3), (15, 0.3)], [(9, 0.6), (2, 0.5)]])
@settings(max_examples=300, deadline=None)
def test_audit_matches_brute_force_on_injected_spends(w, per_dim):
    # spends written straight into the ledger: unsorted, possibly over budget;
    # the audit rejects exactly what a scan of every window rejects, naming
    # the first dimension's first window over budget and its sum
    led = PrivacyLedger(1.0, dims=len(per_dim), w=w)
    led.stamps = [[t for t, _ in spends] for spends in per_dim]
    led.amounts = [[e for _, e in spends] for spends in per_dim]
    breaches = [(dim, _first_breach(spends, 1.0, w)) for dim, spends in enumerate(per_dim)]
    breaches = [(dim, found) for dim, found in breaches if found is not None]
    assert (not breaches) == all(_brute_force_ok(spends, 1.0, w) for spends in per_dim)
    if not breaches:
        led.audit()
        return
    with pytest.raises(BudgetError) as caught:
        led.audit()
    dim, (window, total) = breaches[0]
    assert (caught.value.dim, caught.value.window) == (dim, window)
    assert caught.value.attempted.hex() == total.hex()


# ------------------------------------------------------------- allocation

def test_allocate_uniform_values():
    assert allocate_uniform(1.0, 300) == 1.0 / 300
    assert allocate_uniform(1.0, 1) == 1.0
    assert allocate_uniform(0.1, 4) == 0.025


def test_allocate_adaptive_log_rule():
    led = PrivacyLedger(1.0, w=10)
    got = allocate_adaptive(led.remaining_window(0, 1), 1, mu=0.5, p_max=0.6, eps_max=0.5)
    assert got == pytest.approx(0.5 * math.log(2.0))  # ~0.3466


def test_allocate_adaptive_exhausted_window():
    led = PrivacyLedger(1.0, w=3)
    led.charge(0, 1, 1.0)
    assert allocate_adaptive(led.remaining_window(0, 2), 1, mu=0.5, p_max=0.6, eps_max=0.5) == 0.0


def test_allocate_adaptive_caps_bind():
    led = PrivacyLedger(1.0, w=10)
    assert allocate_adaptive(led.remaining_window(0, 1), 10**6, mu=0.5, p_max=0.6, eps_max=0.5) == 0.5


def test_allocate_adaptive_never_violates_ledger():
    # grant-then-charge in a loop can never raise
    led = PrivacyLedger(1.0, w=4)
    for t in range(1, 60):
        eps_t = allocate_adaptive(led.remaining_window(0, t), 1 + t % 3, mu=0.5, p_max=0.6, eps_max=0.5)
        if eps_t > 0:
            led.charge(0, t, eps_t)
    led.audit()



@given(
    epsilon=st.floats(1e-6, 1e3),
    w=st.integers(1, 12),
    earlier=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.sampled_from(("share", "subnormal", "rest")),
            st.floats(0.0, 1.0),
        ),
        max_size=25,
    ),
    gap=st.integers(1, 3),
    interval=st.integers(1, 10_000),
    mu=st.floats(0.0, 10.0),
    p_max=st.floats(0.0, 1.0, exclude_min=True),
    eps_max_share=st.floats(0.0, 1.0, exclude_min=True),
)
# all but a sliver of the window spent, then a subnormal spend
@example(epsilon=1.0, w=4, earlier=[(0, "rest", 1.0), (1, "subnormal", 1.0)], gap=1,
         interval=1, mu=1.0, p_max=1.0, eps_max_share=1.0)
@example(epsilon=0.3, w=12, earlier=[(0, "share", 1 - 2**-53)], gap=1, interval=10_000,
         mu=10.0, p_max=1.0, eps_max_share=1.0)
@settings(max_examples=500, deadline=None)
def test_adaptive_remainder_needs_no_clamp(
    epsilon, w, earlier, gap, interval, mu, p_max, eps_max_share
):
    # The engine hands a grant's leftover window budget, before - grant, to
    # next_interval_plus. before is epsilon minus an exact sum of
    # non-negative spends, so at most epsilon, and a grant is at most
    # p_max * before <= before: clamping into [0, epsilon] changes no bit.
    led = PrivacyLedger(epsilon, w=w)
    t = 1
    for step, kind, x in earlier:
        t += step
        amount = {
            "share": x * epsilon,
            "subnormal": x * 2.0**-1022,
            "rest": max(0.0, led.remaining_window(0, t)) * (1.0 - x * 2.0**-40),
        }[kind]
        try:
            led.charge(0, t, amount)
        except BudgetError:
            pass
    t += gap
    before = led.remaining_window(0, t)
    grant = allocate_adaptive(before, interval, mu, p_max, eps_max_share * epsilon)
    if grant > 0.0:
        assert before - grant >= 0.0
        assert (before - grant).hex() == max(0.0, min(before, epsilon) - grant).hex()
