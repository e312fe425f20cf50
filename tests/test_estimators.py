import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given
from reference_estimators import (
    EnumerationGuardError,
    pkpo_weights_argsort,
    pkpo_weights_bruteforce,
    sloo_weights_argsort,
    sloo_weights_bruteforce,
)

from phasevolve import estimators as est
from phasevolve.estimators import (
    BranchOutcome,
    InvalidGroupError,
    InvalidSubsetSizeError,
    PhaseSchedule,
    UnreachableBudgetError,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
reward_lists = st.lists(finite_floats, min_size=2, max_size=10)
# Drawn from a pool of at most three values, so most lists hold ties.
tied_lists = st.lists(finite_floats, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=9)
)
# The same with groups of 2 to 64, from a pool that may hold 0.0 and -0.0.
signed_zero_pools = st.lists(finite_floats | st.sampled_from([0.0, -0.0]), min_size=1, max_size=3)
tied_groups = signed_zero_pools.flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=64)
)


def kl_to_uniform(beta, rewards):
    rewards = np.asarray(rewards, dtype=float)
    z = beta * rewards
    z = z - z.max()
    logq = z - math.log(np.exp(z).sum())
    q = np.exp(logq)
    return float((q * logq).sum() + math.log(rewards.size))


# ---------------------------------------------------------------- grpo / raw


def test_grpo_constant_rewards_center_to_zero():
    assert est.grpo_advantage([1, 1, 1, 1], 1e-8) == pytest.approx([0, 0, 0, 0])


def test_grpo_two_point():
    assert est.grpo_advantage([0, 1], 0.0) == pytest.approx([-1.0, 1.0])


def test_grpo_four_point_population_std():
    out = est.grpo_advantage([0, 1, 2, 3], 0.0)
    expected = np.array([-1.5, -0.5, 0.5, 1.5]) / math.sqrt(1.25)
    assert out == pytest.approx(expected, abs=1e-12)


def test_grpo_rejects_small_group():
    with pytest.raises(InvalidGroupError):
        est.grpo_advantage([1.0], 1e-8)


def test_grpo_rejects_nonfinite():
    with pytest.raises(InvalidGroupError):
        est.grpo_advantage([1.0, float("nan")], 1e-8)


@pytest.mark.parametrize("rewards", [[1e308, -1e308], [1e308, 1e308, 0.0], [-1.0, 1e200] * 4])
def test_grpo_rejects_an_overflowing_std(rewards):
    # Finite rewards whose squared deviations overflow: dividing by the
    # infinite std would give all-zero advantages.
    with pytest.raises(InvalidGroupError, match="reward std overflows"):
        est.grpo_advantage(rewards, 1e-8)


def test_group_relative_raw_constant():
    assert est.group_relative_raw([5, 5, 5]) == pytest.approx([0, 0, 0])


def test_group_relative_raw_mean_subtraction():
    assert est.group_relative_raw([0, 1, 2, 3]) == pytest.approx([-1.5, -0.5, 0.5, 1.5])


@given(reward_lists)
def test_group_relative_raw_sums_to_zero(rewards):
    out = est.group_relative_raw(rewards)
    scale = max(1.0, np.max(np.abs(rewards)))
    assert abs(out.sum()) <= 1e-9 * len(rewards) * scale


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=8),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)
def test_group_relative_raw_affine(rewards, c, delta):
    base = est.group_relative_raw(rewards)
    shifted = est.group_relative_raw(c + delta * np.asarray(rewards))
    assert np.allclose(shifted, delta * base, rtol=1e-9, atol=1e-9)


# ------------------------------------------------------------------ entropic


def test_entropic_beta_zero_budget():
    assert est.entropic_beta([3.0, -1.0, 7.0], 0.0).beta == 0.0


def test_entropic_beta_two_point_budget():
    found = est.entropic_beta([0.0, 1.0], 0.13081)
    assert found.beta == pytest.approx(math.log(3), abs=1e-4)
    assert not found.saturated
    assert kl_to_uniform(found.beta, [0.0, 1.0]) == pytest.approx(0.13081, abs=1e-6)


def test_entropic_beta_constant_rewards_unreachable():
    with pytest.raises(UnreachableBudgetError):
        est.entropic_beta([2.0, 2.0, 2.0], 0.1)


def test_entropic_beta_constant_rewards_tiny_budget_ok():
    assert est.entropic_beta([2.0, 2.0], 0.1, tol=0.2).beta == 0.0


def test_entropic_beta_saturates_on_tiny_spread():
    found = est.entropic_beta([0.0, 1e-9], 0.5, beta_max=10.0)
    assert found.saturated
    assert found.beta == 10.0


@given(
    st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=2, max_size=8),
    st.floats(min_value=0.01, max_value=0.4),
)
def test_entropic_beta_meets_budget_or_saturates(rewards, gamma):
    rewards = np.asarray(rewards)
    if np.all(rewards == rewards[0]):
        rewards = rewards + np.arange(rewards.size)
    found = est.entropic_beta(rewards, gamma, beta_max=200.0, tol=1e-8)
    if not found.saturated:
        assert kl_to_uniform(found.beta, rewards) == pytest.approx(gamma, abs=1e-8)


@given(st.floats(min_value=0.0, max_value=20.0), reward_lists)
def test_entropic_kl_monotone_in_beta(beta, rewards):
    # The bisection relies on this; asserted rather than assumed.
    assert kl_to_uniform(beta + 0.5, rewards) >= kl_to_uniform(beta, rewards) - 1e-12


def test_entropic_advantage_zero_beta_is_zero():
    out = est.entropic_advantage([4.0, 1.0, -2.0], 0.0, 0.0)
    assert out == pytest.approx([0, 0, 0], abs=1e-15)


def test_entropic_advantage_two_point():
    out = est.entropic_advantage([0.0, 1.0], math.log(3), 0.0)
    assert out == pytest.approx([-2 / 3, 2.0], abs=1e-12)


def test_entropic_advantage_constant_rewards():
    assert est.entropic_advantage([1, 1, 1], 5.0, 0.0) == pytest.approx([0, 0, 0])


# ---------------------------------------------------------------------- pkpo


def test_pkpo_three_two():
    assert est.pkpo_weights([3, 2, 1], 2) == pytest.approx([2.0, 5 / 3, 5 / 3])


@given(reward_lists)
def test_pkpo_k1_is_mean_share(rewards):
    out = est.pkpo_weights(rewards, 1)
    assert np.allclose(out, np.asarray(rewards) / len(rewards))


@given(reward_lists)
def test_pkpo_full_subset_is_max(rewards):
    out = est.pkpo_weights(rewards, len(rewards))
    assert np.allclose(out, np.max(rewards))


@given(st.lists(finite_floats, min_size=2, max_size=8), st.data())
def test_pkpo_consistency_with_subset_max_expectation(rewards, data):
    from itertools import combinations

    n = len(rewards)
    k = data.draw(st.integers(min_value=1, max_value=n))
    w = est.pkpo_weights(rewards, k)
    exact = np.mean([max(rewards[i] for i in I) for I in combinations(range(n), k)])
    assert w.mean() * n / k == pytest.approx(exact, rel=1e-9, abs=1e-9)


@given(reward_lists | tied_lists, st.data())
def test_pkpo_matches_bruteforce_per_element(rewards, data):
    # Every weight is compared, not only the mean; tied rewards get one weight.
    k = data.draw(st.integers(min_value=1, max_value=len(rewards)))
    fast = est.pkpo_weights(rewards, k)
    brute = pkpo_weights_bruteforce(rewards, k)
    scale = max(1.0, float(np.max(np.abs(rewards))))
    assert np.allclose(fast, brute, rtol=0, atol=1e-12 * scale)
    for value in set(rewards):
        assert len(set(fast[np.asarray(rewards) == value].tolist())) == 1


def test_pkpo_invalid_k():
    with pytest.raises(InvalidSubsetSizeError):
        est.pkpo_weights([1, 2, 3], 0)
    with pytest.raises(InvalidSubsetSizeError):
        est.pkpo_weights([1, 2, 3], 4)


# ---------------------------------------------------------------------- sloo


def test_sloo_three_two():
    assert est.sloo_weights([3, 2, 1], 2) == pytest.approx([1.0, 1 / 3, 0.0])


def test_sloo_bruteforce_three_two():
    assert sloo_weights_bruteforce([3, 2, 1], 2) == pytest.approx([1.0, 1 / 3, 0.0])


def test_sloo_bruteforce_full_subset():
    assert sloo_weights_bruteforce([3, 2, 1], 3) == pytest.approx([1.0, 0.0, 0.0])


def test_sloo_invalid_k():
    for k in (1, 4):
        with pytest.raises(InvalidSubsetSizeError):
            est.sloo_weights([3, 2, 1], k)
        with pytest.raises(InvalidSubsetSizeError):
            sloo_weights_bruteforce([3, 2, 1], k)


def test_sloo_bruteforce_enumeration_guard():
    with pytest.raises(EnumerationGuardError):
        sloo_weights_bruteforce(list(range(21)), 2)


@given(reward_lists | tied_lists, st.data())
def test_sloo_matches_bruteforce(rewards, data):
    k = data.draw(st.integers(min_value=2, max_value=len(rewards)))
    fast = est.sloo_weights(rewards, k)
    brute = sloo_weights_bruteforce(rewards, k)
    assert np.allclose(fast, brute, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(rewards))))
    for value in set(rewards):
        assert len(set(fast[np.asarray(rewards) == value].tolist())) == 1


def test_sloo_compressed_gaps_keep_relative_precision():
    # Gaps of 2**-20 on rewards near 1e3 are exact in float64, and so are the
    # oracle's margins; the closed form must not lose them to the offset.
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(2, n + 1))
        rewards = 1e3 + rng.integers(0, 8, size=n) * 2.0**-20
        brute = sloo_weights_bruteforce(rewards, k)
        assert np.allclose(est.sloo_weights(rewards, k), brute, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "rewards,k",
    [
        ([2.0, 2.0, 1.0], 2),
        ([3.0, 2.0, 2.0], 2),
        ([3.0, 3.0, 2.0, 1.0], 2),
        ([3.0, 3.0, 2.0, 1.0], 3),
        ([1.0, 1.0, 1.0, 1.0], 3),
        ([5.0, 4.0, 4.0, 4.0, 1.0], 4),
    ],
)
def test_sloo_ties_match_bruteforce_exactly(rewards, k):
    assert est.sloo_weights(rewards, k) == pytest.approx(
        sloo_weights_bruteforce(rewards, k), abs=1e-15
    )


@given(
    st.lists(st.floats(min_value=-1, max_value=5, allow_nan=False), min_size=2, max_size=8),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    st.data(),
)
def test_sloo_affine_equivariance(rewards, c, delta, data):
    k = data.draw(st.integers(min_value=2, max_value=len(rewards)))
    base = est.sloo_weights(rewards, k)
    shifted = est.sloo_weights(c + delta * np.asarray(rewards), k)
    assert np.allclose(shifted, delta * base, rtol=1e-9, atol=1e-10)


def test_sloo_zero_tail_and_order():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(2, n + 1))
        rewards = rng.normal(size=n)
        while np.unique(rewards).size < n:
            rewards = rng.normal(size=n)
        w = est.sloo_weights(rewards, k)
        assert np.all(w >= 0)
        order = np.argsort(-rewards)
        ranked = w[order]
        # bottom k-1 never win a subset
        assert np.all(ranked[n - (k - 1) :] == 0.0)
        assert np.all(np.diff(ranked) <= 1e-12)


@given(st.integers(min_value=2, max_value=4096), st.data())
def test_best_of_k_weights_finite_at_any_group_size(n, data):
    k = data.draw(st.integers(min_value=2, max_value=n))
    rewards = np.random.default_rng(n).normal(size=n)
    assert np.all(np.isfinite(est.sloo_weights(rewards, k)))
    assert np.all(np.isfinite(est.pkpo_weights(rewards, k)))


@given(tied_lists | tied_groups, st.data())
def test_best_of_k_weights_equal_the_argsort_forms_bit_for_bit(rewards, data):
    # The list sort orders ties, -0.0 and 0.0 included, as a stable argsort
    # of the negated rewards does, so every weight is the same float.
    k = data.draw(st.integers(min_value=1, max_value=len(rewards)))
    pairs = [(est.pkpo_weights(rewards, k), pkpo_weights_argsort(rewards, k))]
    if k >= 2:
        pairs.append((est.sloo_weights(rewards, k), sloo_weights_argsort(rewards, k)))
    for got, want in pairs:
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_scaled_binomials_are_cached_tuples():
    first = est._scaled_binomials(0.25, 7, 1, 8)
    assert type(first) is tuple and len(first) == 8
    assert est._scaled_binomials(0.25, 7, 1, 8) is first


@pytest.mark.parametrize("k", [2, 2048, 4096])
def test_best_of_k_weights_finite_at_4096(k):
    rewards = np.random.default_rng(k).normal(size=4096)
    sloo = est.sloo_weights(rewards, k)
    pkpo = est.pkpo_weights(rewards, k)
    assert np.all(np.isfinite(sloo)) and np.all(sloo >= 0.0)
    assert np.all(np.isfinite(pkpo))
    if k == 4096:
        # Every subset is the whole group, so every weight is its max.
        assert np.allclose(pkpo, rewards.max(), rtol=0, atol=1e-9)


# --------------------------------------------------------------- standardize


def test_standardize_constant_is_skipped():
    out = est.standardize([1.0, 1.0, 1.0], 1e-8, 1e-6)
    assert out.skipped
    assert out.values is None
    assert out.std == 0.0


def test_standardize_matches_grpo_at_zero_eps():
    out = est.standardize([0, 1, 2, 3], 0.0, 1e-6)
    assert not out.skipped
    assert out.values == pytest.approx(est.grpo_advantage([0, 1, 2, 3], 0.0))


@st.composite
def branches(draw):
    """Branches of 2-64 values: any finite floats up to 1e300 in magnitude,
    a few tied values, a constant group, or gaps compressed to near 1e-12."""
    n = draw(st.integers(min_value=2, max_value=64))
    kind = draw(st.sampled_from(["wide", "ties", "constant", "compressed"]))
    if kind == "wide":
        values = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
    elif kind == "ties":
        pool = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=3))
        values = st.sampled_from(pool)
    elif kind == "constant":
        values = st.just(draw(st.floats(-1e300, 1e300, allow_nan=False)))
    else:
        base = draw(st.floats(-10, 10, allow_nan=False))
        gap = draw(st.sampled_from([1e-15, 1e-12, 1e-9]))
        values = st.integers(0, 8).map(lambda g: base + g * gap)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)))


@given(
    branches(),
    st.sampled_from([0.0, 1e-8, 1e-3]),
    st.sampled_from([1e-300, 1e-12, 1e-6]),
)
def test_standardize_equals_numpys_mean_and_std_exactly(values, eps_num, eps_skip):
    with np.errstate(over="ignore"):  # squares of 1e300 overflow in both
        out = est.standardize(values, eps_num, eps_skip)
        mean, std = float(values.mean()), float(values.std())
    assert out.mean == mean and out.std == std
    if not math.isfinite(std) or std < eps_skip:
        assert out.skipped
    else:
        assert out.values.tobytes() == ((values - mean) / (std + eps_num)).tobytes()


@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=10),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=0.5, max_value=100, allow_nan=False),
)
def test_standardize_affine_invariance(branch, a, b):
    assume(np.asarray(branch).std() >= 1e-2)  # cancellation noise dominates below
    base = est.standardize(branch, 0.0, 1e-9)
    shifted = est.standardize(a + b * np.asarray(branch), 0.0, 1e-9)
    assert not (base.skipped or shifted.skipped)
    assert np.allclose(base.values, shifted.values, rtol=1e-6, atol=1e-8)


@given(reward_lists, st.floats(min_value=0, max_value=1.0))
def test_standardize_norm_bound_and_centering(branch, eps_num):
    out = est.standardize(branch, eps_num, 1e-9)
    if not out.skipped:
        assert np.sum(out.values**2) <= len(branch) + 1e-9
        assert abs(out.values.mean()) <= 1e-9


@given(reward_lists, st.floats(min_value=0, max_value=1.0))
def test_standardize_preserves_argmax_set(branch, eps_num):
    out = est.standardize(branch, eps_num, 1e-9)
    if out.skipped:
        return
    branch = np.asarray(branch)
    before = set(np.flatnonzero(branch == branch.max()))
    after = set(np.flatnonzero(out.values == out.values.max()))
    # The transform is monotone even in floats, so the original argmax indices
    # always survive; rounding may merge near-ties into the set.
    assert before <= after


@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=2, max_size=8),
    st.floats(min_value=1e-12, max_value=1.0),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_standardize_skip_rule_threshold(rewards, delta, c):
    eps_skip = 1e-6
    compressed = c + delta * np.asarray(rewards)
    out = est.standardize(compressed, 1e-8, eps_skip)
    branch_std = compressed.std()
    if abs(branch_std - eps_skip) <= 1e-9 * eps_skip:
        return  # exactly at the threshold: either outcome is acceptable
    assert out.skipped == (branch_std < eps_skip)


def test_standardize_rejects_short_branch():
    with pytest.raises(InvalidGroupError):
        est.standardize([1.0], 1e-8, 1e-6)


# ----------------------------------------------------------------- mix/phase


def _std(values):
    return est.standardize(values, 0.0, 1e-9)


def test_mix_alpha_endpoints():
    g = _std([0.0, 1.0, 2.0])
    k = _std([2.0, 0.0, 1.0])
    assert np.array_equal(est.mix_advantages(g, k, 0.0), g.values)
    assert np.array_equal(est.mix_advantages(g, k, 1.0), k.values)


def test_mix_midpoint_cancels():
    g = BranchOutcome(values=np.array([-1.0, 1.0]), mean=0.0, std=1.0)
    k = BranchOutcome(values=np.array([1.0, -1.0]), mean=0.0, std=1.0)
    assert est.mix_advantages(g, k, 0.5) == pytest.approx([0.0, 0.0])


def test_mix_single_surviving_branch_scaled_not_renormalized():
    g = BranchOutcome(values=None, mean=0.0, std=0.0)
    k = _std([0.0, 1.0, 2.0])
    out = est.mix_advantages(g, k, 0.25)
    assert out == pytest.approx(0.25 * k.values)
    assert est.mix_advantages(g, k, 0.0) is None
    out2 = est.mix_advantages(k, g, 0.25)
    assert out2 == pytest.approx(0.75 * k.values)
    assert est.mix_advantages(k, g, 1.0) is None


def test_mix_both_skipped_is_skip():
    dead = BranchOutcome(values=None, mean=0.0, std=0.0)
    assert est.mix_advantages(dead, dead, 0.5) is None


def test_mix_length_mismatch_error():
    g = _std([0.0, 1.0, 2.0])
    k = _std([0.0, 1.0])
    with pytest.raises(ValueError):
        est.mix_advantages(g, k, 0.5)


def test_phase_alpha_schedule_points():
    assert est.phase_alpha(0, 1000) == 0.0
    assert est.phase_alpha(1000, 1000) == 1.0
    assert est.phase_alpha(500, 1000) == 0.5


def test_phase_alpha_out_of_range():
    with pytest.raises(ValueError):
        est.phase_alpha(-1, 10)
    with pytest.raises(ValueError):
        est.phase_alpha(11, 10)


@given(st.integers(min_value=1, max_value=10_000), st.data())
def test_phase_schedule_monotone(total, data):
    schedule = PhaseSchedule(total)
    t1 = data.draw(st.integers(min_value=0, max_value=total))
    t2 = data.draw(st.integers(min_value=t1, max_value=total))
    a1, a2 = schedule.alpha(t1), schedule.alpha(t2)
    assert 0.0 <= a1 <= a2 <= 1.0
    assert schedule.alpha(0) == 0.0
    assert schedule.alpha(total) == 1.0
