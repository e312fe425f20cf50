import functools
import hashlib
import math
import re
import types

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
import reference_synthetic
from reference_eplb import brute_force_balance, save_profile, staged_assign, staged_score

from phasevolve.policy import PolicyParams, TokenSequence, context_table, sample_sequence
from phasevolve.tasks import eplb, synthetic
from phasevolve.tasks.eplb import (
    EplbTask,
    HeuristicDescriptor,
    Placement,
    SortMode,
    WorkloadProfile,
    eplb_decode,
)
from phasevolve.tasks.synthetic import (
    SyntheticLandscape,
    SyntheticTask,
    latent_quality,
    synthetic_eval,
)


def seq_of(tokens):
    return TokenSequence(tokens=tokens, old_logprobs=np.zeros(len(tokens)))


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


def test_decode_short_sequence_pads_with_zero():
    assert eplb_decode(seq_of([1])) == HeuristicDescriptor(
        SortMode.ASCENDING_LOAD, Placement.GREEDY_LEAST_LOADED, 0, 1
    )


# ------------------------------------------------------------------- assign


def test_greedy_equal_loads_one_per_device():
    w = WorkloadProfile(loads=np.array([[2.0, 2.0, 2.0]]), num_devices=3)
    assignment, _ = staged_assign(HeuristicDescriptor(), w)
    assert sorted(assignment[0].tolist()) == [0, 1, 2]


def test_greedy_descending_known_instance():
    w = WorkloadProfile(loads=np.array([[5.0, 3.0, 2.0, 2.0]]), num_devices=2)
    assignment, _ = staged_assign(HeuristicDescriptor(), w)
    device_loads = np.bincount(assignment[0], weights=w.loads[0], minlength=2)
    assert sorted(device_loads.tolist()) == [5.0, 7.0]


def test_round_robin_on_sorted_loads():
    w = WorkloadProfile(loads=np.array([[4.0, 3.0, 2.0, 1.0]]), num_devices=2)
    h = HeuristicDescriptor(SortMode.DESCENDING_LOAD, Placement.ROUND_ROBIN, 0, 1)
    assignment, _ = staged_assign(h, w)
    device_loads = np.bincount(assignment[0], weights=w.loads[0], minlength=2)
    assert sorted(device_loads.tolist()) == [4.0, 6.0]


def test_blocked_placement_contiguous():
    w = WorkloadProfile(loads=np.array([[1.0, 1.0, 1.0, 1.0]]), num_devices=2)
    h = HeuristicDescriptor(SortMode.UNSORTED, Placement.BLOCKED, 0, 1)
    assignment, _ = staged_assign(h, w)
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
    assignment, ops = staged_assign(h, w)
    assert assignment.shape == (2, num_experts)
    assert np.all((assignment >= 0) & (assignment < num_devices))
    assert ops > 0


def test_rebalance_pass_moves_expert_off_hot_device():
    # Unsorted round-robin on (9, 1, 1, 1), D=2 -> (9+1, 1+1) = (10, 2);
    # one rebalance pass moves a unit expert to the cold device.
    w = WorkloadProfile(loads=np.array([[9.0, 1.0, 1.0, 1.0]]), num_devices=2)
    before = HeuristicDescriptor(SortMode.UNSORTED, Placement.ROUND_ROBIN, 0, 2)
    after = HeuristicDescriptor(SortMode.UNSORTED, Placement.ROUND_ROBIN, 1, 2)
    a0, _ = staged_assign(before, w)
    a1, _ = staged_assign(after, w)
    peak0 = np.bincount(a0[0], weights=w.loads[0], minlength=2).max()
    peak1 = np.bincount(a1[0], weights=w.loads[0], minlength=2).max()
    assert peak1 < peak0


# -------------------------------------------------------------------- score


def test_score_uniform_balancedness_one():
    w = WorkloadProfile(loads=np.array([[1.0, 1.0, 1.0, 1.0]]), num_devices=2)
    assignment = np.array([[0, 0, 1, 1]])
    balancedness, speed, score = staged_score(assignment, w, op_count=4, c_ref=4.0)
    assert balancedness == 1.0
    assert speed == 1.0
    assert score == 1.0


def test_score_all_on_one_device():
    w = WorkloadProfile(loads=np.array([[3.0, 2.0]]), num_devices=2)
    assignment = np.array([[0, 0]])
    balancedness, _, _ = staged_score(assignment, w, op_count=2, c_ref=2.0)
    assert balancedness == pytest.approx(0.5)


def test_score_known_split():
    w = WorkloadProfile(loads=np.array([[5.0, 3.0, 2.0, 2.0]]), num_devices=2)
    assignment = np.array([[0, 1, 1, 0]])  # {5,2} and {3,2}
    balancedness, speed, score = staged_score(assignment, w, op_count=10, c_ref=5.0)
    assert balancedness == pytest.approx(6 / 7)
    assert speed == pytest.approx(0.5)
    assert score == pytest.approx(0.5 * (6 / 7 + 0.5))


def test_score_speed_clamped_to_one():
    w = WorkloadProfile(loads=np.array([[1.0, 1.0]]), num_devices=2)
    assignment = np.array([[0, 1]])
    _, speed, _ = staged_score(assignment, w, op_count=2, c_ref=100.0)
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
        staged_score(assignment, w, op_count=4, c_ref=4.0)


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
    assignment, ops = staged_assign(h, w)
    base_ops = staged_assign(HeuristicDescriptor(), w)[1]
    balancedness, speed, score = staged_score(assignment, w, ops, base_ops)
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
        assignment, _ = staged_assign(HeuristicDescriptor(), w)
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


def test_profile_loads_are_a_read_only_copy():
    loads = np.ones((2, 4))
    profile = WorkloadProfile(loads=loads, num_devices=2)
    task = EplbTask(profile)
    with pytest.raises(ValueError):
        task.profile.loads[0, 0] = 5.0
    loads[0, 0] = 5.0  # the caller's array stays writable and is not shared
    assert profile.loads[0, 0] == 1.0


def test_profile_generate_deterministic():
    a = WorkloadProfile.generate(num_profiles=3, num_experts=8, num_devices=2, seed=5)
    b = WorkloadProfile.generate(num_profiles=3, num_experts=8, num_devices=2, seed=5)
    assert np.array_equal(a.loads, b.loads)
    assert a.loads.shape == (3, 8)
    assert np.all(a.loads > 0)


def test_profile_file_roundtrip(tmp_path):
    profile = WorkloadProfile.generate(num_profiles=2, num_experts=5, num_devices=2, seed=1)
    path = tmp_path / "profiles.txt"
    save_profile(profile, path)
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


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1 2 3\n1 2\n", "line 3: expected E = 3 loads, found 2"),
        ("1 2 3 4\n1 2 3\n", "line 2: expected E = 3 loads, found 4"),
        ("1 2 3\n\n1 x 3\n", "line 4: could not convert string to float: 'x'"),
        ("1 2 3\n\n1 nan 3\n", "line 4: profile 1 holds nan; loads must be finite and nonnegative"),
        ("1 -2 3\n1 2 3\n", "line 2: profile 0 holds -2.0; loads must be finite and nonnegative"),
        ("1 2 3\n1 2 inf\n", "line 3: profile 1 holds inf; loads must be finite and nonnegative"),
        (
            "1 2 3\n0 0 0\n",
            "line 3: profile 1 holds no positive load; every profile needs at least one",
        ),
        (
            "\n0 0 0\n1 2 3\n",
            "line 3: profile 0 holds no positive load; every profile needs at least one",
        ),
    ],
    ids=[
        "short", "long", "unparsable-after-blank-line", "nan", "negative", "infinite",
        "all-zero", "all-zero-after-blank-line",
    ],
)
def test_profile_load_names_the_bad_line(tmp_path, rows, message):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 2\n" + rows)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WorkloadProfile.load(path)


@pytest.mark.parametrize(
    "header, message",
    [
        ("3 2 x", "line 1: invalid literal for int() with base 10: 'x'"),
        ("3 2", "line 1: expected header 'E D P', got ['3', '2']"),
        ("3 5 2", "line 1: need num_experts (3) >= num_devices (5) >= 1"),
        ("3 0 2", "line 1: need num_experts (3) >= num_devices (0) >= 1"),
    ],
    ids=["not-an-integer", "two-fields", "more-devices-than-experts", "no-devices"],
)
def test_profile_load_names_the_bad_header(tmp_path, header, message):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n1 2 3\n1 2 3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
    save_profile(profile, path)
    config = RunConfig(task="eplb", eplb_profiles_path=str(path))
    task = make_task(config)
    assert np.array_equal(task.profile.loads, profile.loads)
    assert task.profile.num_devices == 3


# ------------------------------------------------------ latent quality oracle


tokens_any = st.one_of(st.integers(0, 5), st.integers(-(2**63), 2**63 - 1))


@given(
    st.lists(tokens_any, min_size=0, max_size=8),
    tokens_any,
    st.floats(min_value=0.0, max_value=1.0),
)
def test_latent_quality_equals_the_reference_exactly(tokens, target, tie_weight):
    land = SyntheticLandscape(target_token=target, tie_weight=tie_weight)
    seq = seq_of(tokens)
    assert latent_quality(seq, land) == reference_synthetic.latent_quality(seq, land)


# ------------------------------------------------- describe, from the tokens

any_tokens = st.lists(st.integers(min_value=0, max_value=23), min_size=0, max_size=8)
SMALL_PROFILE = WorkloadProfile.generate(num_profiles=2, num_experts=8, num_devices=3, seed=4)
SMALL_TASKS = {
    "synthetic": lambda: SyntheticTask(SyntheticLandscape(target_token=3, tie_weight=0.3)),
    "eplb": lambda: EplbTask(SMALL_PROFILE),
}


@functools.cache
def fresh_task_view(kind, tokens):
    """What a new task describes ``tokens`` as, then their (value, metrics).

    The task sees no other tokens: it describes them before it has evaluated
    anything, then evaluates them. Kept per token tuple, so an example that
    repeats a token list builds no second task for it.
    """
    task = SMALL_TASKS[kind]()
    descriptor = task.describe(seq_of(list(tokens)))
    outcome = task.evaluate(seq_of(list(tokens)), 3, np.random.default_rng(0))
    return descriptor, (outcome.value, outcome.metrics)


@pytest.mark.parametrize("kind", sorted(SMALL_TASKS))
@given(a=any_tokens, b=any_tokens)
@settings(deadline=None)
def test_describe_after_evaluate_equals_a_fresh_task(kind, a, b):
    task = SMALL_TASKS[kind]()
    rng = np.random.default_rng(0)
    for evaluated in (a, b, a):
        outcome = task.evaluate(seq_of(evaluated), 3, rng)
        assert (outcome.value, outcome.metrics) == fresh_task_view(kind, tuple(evaluated))[1]
        for described in (a, b):
            assert task.describe(seq_of(described)) == fresh_task_view(kind, tuple(described))[0]


@pytest.mark.parametrize(
    "kind, module, name, evaluate_calls",
    [("synthetic", synthetic, "latent_quality", 1), ("eplb", eplb, "eplb_decode", 0)],
    ids=["synthetic", "eplb"],
)
def test_describe_decodes_the_tokens_on_every_call(
    kind, module, name, evaluate_calls, monkeypatch
):
    # Each describe runs the decoding once, also right after an evaluate of
    # the same tokens. EPLB's evaluate reads its outcome table and decodes
    # nothing.
    expected = fresh_task_view(kind, (3, 3, 1, 2))[0]
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(list(args[0].tokens))
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    task = SMALL_TASKS[kind]()
    task.evaluate(seq_of([3, 3, 1, 2]), 0, np.random.default_rng(0))
    assert calls == [[3, 3, 1, 2]] * evaluate_calls
    for _ in range(2):
        assert task.describe(seq_of([3, 3, 1, 2])) == expected
    assert calls == [[3, 3, 1, 2]] * (evaluate_calls + 2)


@pytest.mark.parametrize("case", ["synthetic", "eplb"])
def test_run_archive_descriptors_equal_a_fresh_describe(case):
    from test_golden_trace import CASES, CONFIGS

    from phasevolve.config import parse_config_text
    from phasevolve.orchestrator import run_evolution
    from phasevolve.tasks import make_task

    sample, overrides = CASES[case]
    text = (CONFIGS / sample).read_text()
    text += "\n" + "".join(f"{key} = {value}\n" for key, value in overrides.items())
    config = parse_config_text(text)
    result = run_evolution(config, make_task(config))
    assert len(result.archive) > 1
    assert len(result.descriptors) == len(result.archive)
    for entry, descriptor in zip(result.archive.entries, result.descriptors):
        assert descriptor == make_task(config).describe(entry.tokens)


# ------------------------------------------------- one sequence, however built


@pytest.mark.parametrize("kind", sorted(SMALL_TASKS))
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), length=st.integers(1, 8))
@settings(deadline=None)
def test_a_sampled_sequence_and_its_arrays_give_the_same_outcomes(kind, seed, length):
    rng = np.random.default_rng(seed)
    params = PolicyParams(rng.normal(size=(2, 3)), rng.normal(size=(3 + 24, 24)))
    sampled = sample_sequence(context_table(params, rng.normal(size=2)), rng, length)
    rebuilt = TokenSequence(
        np.array(sampled.tokens, dtype=np.int64), np.array(sampled.old_logprobs)
    )
    assert rebuilt == sampled
    views = []
    for seq in (sampled, rebuilt):
        task = SMALL_TASKS[kind]()
        first = task.describe(seq)
        outcome = task.evaluate(seq, 3, np.random.default_rng(0))
        views.append((first, task.describe(seq), outcome.value, outcome.metrics))
    assert views[0] == views[1]
    assert views[0][0] == views[0][1]


@pytest.mark.parametrize(
    "tokens", [[0], [3, 3, 1, 2], [23] * 8, [-1, 2**63 - 1, -(2**63)]], ids=str
)
def test_the_tie_break_hashes_the_tokens_as_little_endian_int64(tokens, monkeypatch):
    hashed = []

    def recording(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(synthetic, "hashlib", types.SimpleNamespace(sha256=recording))
    latent_quality(seq_of(tokens), SyntheticLandscape())
    assert hashed == [np.asarray(tokens, dtype="<i8").tobytes()]
