import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from phasevolve.policy import TokenSequence
from phasevolve.tasks.eplb import (
    EplbTask,
    HeuristicDescriptor,
    Placement,
    SortMode,
    WorkloadProfile,
    brute_force_balance,
    eplb_assign,
    eplb_decode,
    eplb_score,
)
from phasevolve.tasks.synthetic import (
    SyntheticLandscape,
    SyntheticTask,
    latent_quality,
    synthetic_eval,
)


def seq_of(tokens, mask=None):
    tokens = np.asarray(tokens, dtype=np.int64)
    if mask is None:
        mask = np.ones(len(tokens), dtype=np.int64)
    return TokenSequence(tokens=tokens, mask=np.asarray(mask), old_logprobs=np.zeros(len(tokens)))


token_lists = st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=8)


# ------------------------------------------------------------------- decode


def test_decode_zero_sequence_is_base_heuristic():
    h = eplb_decode(seq_of([0] * 8))
    assert h == HeuristicDescriptor(
        SortMode.DESCENDING_LOAD, Placement.GREEDY_LEAST_LOADED, 0, 1
    )


@given(token_lists)
def test_decode_total_and_valid(tokens):
    h = eplb_decode(seq_of(tokens))
    assert isinstance(h.sort_mode, SortMode)
    assert isinstance(h.placement, Placement)
    assert 0 <= h.rebalance_passes <= 3
    assert 1 <= h.swap_window <= 4


def test_decode_ignores_masked_tail():
    a = seq_of([1, 2, 3, 0, 5, 6], mask=[1, 1, 1, 1, 0, 0])
    b = seq_of([1, 2, 3, 0, 9, 9], mask=[1, 1, 1, 1, 0, 0])
    assert eplb_decode(a) == eplb_decode(b)


def test_decode_short_sequence_pads_with_zero():
    assert eplb_decode(seq_of([1])) == HeuristicDescriptor(
        SortMode.ASCENDING_LOAD, Placement.GREEDY_LEAST_LOADED, 0, 1
    )


# ------------------------------------------------------------------- assign


def test_greedy_equal_loads_one_per_device():
    w = WorkloadProfile(loads=np.array([[2.0, 2.0, 2.0]]), num_devices=3)
    assignment, _ = eplb_assign(HeuristicDescriptor(), w)
    assert sorted(assignment[0].tolist()) == [0, 1, 2]


def test_greedy_descending_known_instance():
    w = WorkloadProfile(loads=np.array([[5.0, 3.0, 2.0, 2.0]]), num_devices=2)
    assignment, _ = eplb_assign(HeuristicDescriptor(), w)
    device_loads = np.bincount(assignment[0], weights=w.loads[0], minlength=2)
    assert sorted(device_loads.tolist()) == [5.0, 7.0]


def test_round_robin_on_sorted_loads():
    w = WorkloadProfile(loads=np.array([[4.0, 3.0, 2.0, 1.0]]), num_devices=2)
    h = HeuristicDescriptor(SortMode.DESCENDING_LOAD, Placement.ROUND_ROBIN, 0, 1)
    assignment, _ = eplb_assign(h, w)
    device_loads = np.bincount(assignment[0], weights=w.loads[0], minlength=2)
    assert sorted(device_loads.tolist()) == [4.0, 6.0]


def test_blocked_placement_contiguous():
    w = WorkloadProfile(loads=np.array([[1.0, 1.0, 1.0, 1.0]]), num_devices=2)
    h = HeuristicDescriptor(SortMode.UNSORTED, Placement.BLOCKED, 0, 1)
    assignment, _ = eplb_assign(h, w)
    assert assignment[0].tolist() == [0, 0, 1, 1]


@given(
    token_lists,
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=80)
def test_assignment_totality_fuzzed(tokens, num_experts, num_devices, seed):
    num_devices = min(num_devices, num_experts)
    rng = np.random.default_rng(seed)
    w = WorkloadProfile(
        loads=rng.uniform(0.1, 10.0, size=(2, num_experts)), num_devices=num_devices
    )
    h = eplb_decode(seq_of(tokens))
    assignment, ops = eplb_assign(h, w)
    assert assignment.shape == (2, num_experts)
    assert np.all((assignment >= 0) & (assignment < num_devices))
    assert ops > 0


def test_rebalance_pass_moves_expert_off_hot_device():
    # Unsorted round-robin on (9, 1, 1, 1), D=2 -> (9+1, 1+1) = (10, 2);
    # one rebalance pass moves a unit expert to the cold device.
    w = WorkloadProfile(loads=np.array([[9.0, 1.0, 1.0, 1.0]]), num_devices=2)
    before = HeuristicDescriptor(SortMode.UNSORTED, Placement.ROUND_ROBIN, 0, 2)
    after = HeuristicDescriptor(SortMode.UNSORTED, Placement.ROUND_ROBIN, 1, 2)
    a0, _ = eplb_assign(before, w)
    a1, _ = eplb_assign(after, w)
    peak0 = np.bincount(a0[0], weights=w.loads[0], minlength=2).max()
    peak1 = np.bincount(a1[0], weights=w.loads[0], minlength=2).max()
    assert peak1 < peak0


# -------------------------------------------------------------------- score


def test_score_uniform_balancedness_one():
    w = WorkloadProfile(loads=np.array([[1.0, 1.0, 1.0, 1.0]]), num_devices=2)
    assignment = np.array([[0, 0, 1, 1]])
    balancedness, speed, score = eplb_score(assignment, w, op_count=4, c_ref=4.0)
    assert balancedness == 1.0
    assert speed == 1.0
    assert score == 1.0


def test_score_all_on_one_device():
    w = WorkloadProfile(loads=np.array([[3.0, 2.0]]), num_devices=2)
    assignment = np.array([[0, 0]])
    balancedness, _, _ = eplb_score(assignment, w, op_count=2, c_ref=2.0)
    assert balancedness == pytest.approx(0.5)


def test_score_known_split():
    w = WorkloadProfile(loads=np.array([[5.0, 3.0, 2.0, 2.0]]), num_devices=2)
    assignment = np.array([[0, 1, 1, 0]])  # {5,2} and {3,2}
    balancedness, speed, score = eplb_score(assignment, w, op_count=10, c_ref=5.0)
    assert balancedness == pytest.approx(6 / 7)
    assert speed == pytest.approx(0.5)
    assert score == pytest.approx(0.5 * (6 / 7 + 0.5))


def test_score_speed_clamped_to_one():
    w = WorkloadProfile(loads=np.array([[1.0, 1.0]]), num_devices=2)
    assignment = np.array([[0, 1]])
    _, speed, _ = eplb_score(assignment, w, op_count=2, c_ref=100.0)
    assert speed == 1.0


@pytest.mark.parametrize("bad_device", [5, 2, -1])
@pytest.mark.parametrize("profile", [0, 1])
def test_score_rejects_device_outside_range(profile, bad_device):
    # An index past the last device must neither drop the expert's load nor
    # spill into a neighbouring profile's bins in the batched device-load sum.
    w = WorkloadProfile(loads=np.ones((2, 4)), num_devices=2)
    assignment = np.array([[0, 1, 0, 1], [0, 1, 0, 1]])
    assignment[profile, 3] = bad_device
    with pytest.raises(ValueError, match=rf"profile {profile} .*outside \[0, 2\)"):
        eplb_score(assignment, w, op_count=4, c_ref=4.0)


@given(
    token_lists,
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60)
def test_score_bounds_fuzzed(tokens, num_experts, num_devices, seed):
    num_devices = min(num_devices, num_experts)
    rng = np.random.default_rng(seed)
    w = WorkloadProfile(
        loads=rng.uniform(0.1, 5.0, size=(3, num_experts)), num_devices=num_devices
    )
    h = eplb_decode(seq_of(tokens))
    assignment, ops = eplb_assign(h, w)
    base_ops = eplb_assign(HeuristicDescriptor(), w)[1]
    balancedness, speed, score = eplb_score(assignment, w, ops, base_ops)
    assert 0.0 < balancedness <= 1.0
    assert 0.0 < speed <= 1.0
    assert 0.0 < score <= 1.0


# -------------------------------------------------------------- brute force


def test_brute_force_trivial_pair():
    w = WorkloadProfile(loads=np.array([[1.0, 1.0]]), num_devices=2)
    assert brute_force_balance(w)[0] == 1.0


def test_brute_force_known_instance():
    w = WorkloadProfile(loads=np.array([[5.0, 3.0, 2.0, 2.0]]), num_devices=2)
    # Exhaustive check: no subset of (5,3,2,2) sums to 6, so the best split
    # is {5,2} vs {3,2} with peak 7.
    assert brute_force_balance(w)[0] == 7.0


def test_brute_force_perfect_split():
    w = WorkloadProfile(loads=np.array([[2.0, 2.0, 2.0]]), num_devices=3)
    assert brute_force_balance(w)[0] == 2.0


def test_brute_force_guard():
    w = WorkloadProfile(loads=np.ones((1, 13)), num_devices=2)
    with pytest.raises(ValueError):
        brute_force_balance(w)


def test_greedy_within_factor_two_of_optimum():
    rng = np.random.default_rng(17)
    for _ in range(15):
        num_experts = int(rng.integers(4, 13))
        num_devices = int(rng.integers(2, 5))
        w = WorkloadProfile(
            loads=rng.uniform(0.5, 10.0, size=(1, num_experts)), num_devices=num_devices
        )
        assignment, _ = eplb_assign(HeuristicDescriptor(), w)
        peak = np.bincount(assignment[0], weights=w.loads[0], minlength=num_devices).max()
        assert peak <= 2.0 * brute_force_balance(w)[0] + 1e-9


# ----------------------------------------------------------------- profiles


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(loads=np.zeros((1, 4)), num_devices=2)
    with pytest.raises(ValueError):
        WorkloadProfile(loads=np.ones((1, 2)), num_devices=3)
    with pytest.raises(ValueError):
        WorkloadProfile(loads=-np.ones((1, 4)), num_devices=2)


def test_profile_rejects_zero_profiles():
    with pytest.raises(ValueError, match=r"with at least one profile, got shape \(0, 4\)"):
        WorkloadProfile(loads=np.zeros((0, 4)), num_devices=2)


@pytest.mark.parametrize("header", ["4 2 0", "0 2 3", "4 2 -1"])
def test_profile_load_rejects_empty_header_before_reading_rows(tmp_path, header):
    path = tmp_path / "empty.txt"
    path.write_text(header + "\n1 2 3 4\n")
    with pytest.raises(ValueError, match="header needs E >= 1 and P >= 1"):
        WorkloadProfile.load(path)


def test_profile_generate_deterministic():
    a = WorkloadProfile.generate(num_profiles=3, num_experts=8, num_devices=2, seed=5)
    b = WorkloadProfile.generate(num_profiles=3, num_experts=8, num_devices=2, seed=5)
    assert np.array_equal(a.loads, b.loads)
    assert a.loads.shape == (3, 8)
    assert np.all(a.loads > 0)


def test_profile_file_roundtrip(tmp_path):
    profile = WorkloadProfile.generate(num_profiles=2, num_experts=5, num_devices=2, seed=1)
    path = tmp_path / "profiles.txt"
    profile.save(path)
    first_line = path.read_text().splitlines()[0]
    assert first_line == "5 2 2"
    loaded = WorkloadProfile.load(path)
    assert np.array_equal(loaded.loads, profile.loads)
    assert loaded.num_devices == 2


def test_profile_load_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 2\n1 2 3\n")
    with pytest.raises(ValueError):
        WorkloadProfile.load(path)


# ---------------------------------------------------------------- synthetic


def test_synthetic_identity_schedule():
    land = SyntheticLandscape(base=0.0, delta0=1.0, decay_horizon=1e12, tie_weight=0.0)
    seq = seq_of([0] * 6)
    outcome = synthetic_eval(seq, 0, land, np.random.default_rng(0))
    assert outcome.ok
    assert outcome.value == pytest.approx(latent_quality(seq, land))
    assert outcome.value == pytest.approx(1.0)  # all target tokens, all repeats


def test_synthetic_deterministic_without_noise():
    land = SyntheticLandscape()
    seq = seq_of([1, 0, 0, 2, 0])
    a = synthetic_eval(seq, 5, land, np.random.default_rng(1))
    b = synthetic_eval(seq, 5, land, np.random.default_rng(99))
    assert a.value == b.value


def test_synthetic_compression_limit():
    land = SyntheticLandscape(base=2.0, delta0=0.5, decay_horizon=3.0)
    seq = seq_of([4, 4, 4, 4])
    late = synthetic_eval(seq, 10_000, land, np.random.default_rng(0))
    assert late.value == pytest.approx(2.0, abs=1e-12)


def test_synthetic_delta_positive_decreasing():
    land = SyntheticLandscape(delta0=0.3, decay_horizon=50.0)
    deltas = [land.delta(t) for t in range(0, 500, 25)]
    assert all(d > 0 for d in deltas)
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


@given(token_lists)
def test_synthetic_quality_in_unit_interval(tokens):
    land = SyntheticLandscape()
    q = latent_quality(seq_of(tokens), land)
    assert 0.0 <= q <= 1.0


def test_synthetic_quality_ignores_masked_tail():
    land = SyntheticLandscape()
    a = seq_of([0, 0, 1, 7], mask=[1, 1, 1, 0])
    b = seq_of([0, 0, 1, 3], mask=[1, 1, 1, 0])
    assert latent_quality(a, land) == latent_quality(b, land)


def test_synthetic_noise_uses_rng():
    land = SyntheticLandscape(noise_scale=0.1)
    seq = seq_of([1, 2, 3])
    a = synthetic_eval(seq, 0, land, np.random.default_rng(1))
    b = synthetic_eval(seq, 0, land, np.random.default_rng(1))
    c = synthetic_eval(seq, 0, land, np.random.default_rng(2))
    assert a.value == b.value
    assert a.value != c.value


# ------------------------------------------------------------- task objects


def test_eplb_task_base_candidate_scores_speed_one():
    profile = WorkloadProfile.generate(num_profiles=2, num_experts=8, num_devices=2, seed=3)
    task = EplbTask(profile)
    outcome = task.evaluate(seq_of([0] * 8), 0, np.random.default_rng(0))
    assert outcome.ok
    assert outcome.metrics["speed"] == 1.0
    assert 0 < outcome.value <= 1.0


def test_synthetic_task_describe():
    task = SyntheticTask()
    seq = seq_of([0, 0, 5])
    desc = task.describe(seq)
    assert desc["tokens"] == [0, 0, 5]
    assert 0.0 <= desc["quality"] <= 1.0


def test_make_task_loads_profiles_from_file(tmp_path):
    from phasevolve.config import RunConfig
    from phasevolve.tasks import make_task

    profile = WorkloadProfile.generate(num_profiles=2, num_experts=6, num_devices=3, seed=2)
    path = tmp_path / "profiles.txt"
    profile.save(path)
    config = RunConfig(task="eplb", eplb_profiles_path=str(path))
    task = make_task(config)
    assert np.array_equal(task.profile.loads, profile.loads)
    assert task.profile.num_devices == 3
