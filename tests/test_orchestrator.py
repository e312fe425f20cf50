


import numpy as np
import pytest
import reference_policy as ref

from phasevolve.config import RunConfig
from phasevolve.estimators import standardize, group_relative_raw, sloo_weights
from phasevolve.orchestrator import (
    Candidate,
    FrontierArchive,
    RewardBatch,
    init_run_state,
    random_search_best,
    rollout_group,
    run_evolution,
    select_parent,
    training_step,
    update_frontier,
)
from phasevolve.policy import PolicyDims, PolicyParams, TokenSequence
from phasevolve.rewards import EvaluationOutcome
from phasevolve.tasks import make_task
from phasevolve.trace import read_trace


class ConstantTask:
    """Every candidate scores the same: triggers the skip rule everywhere."""

    name = "constant"

    def __init__(self, value=0.5):
        self.value = value

    def describe(self, seq):
        return {}

    def evaluate(self, seq, iteration, rng):
        return EvaluationOutcome.parsed(self.value)


class TimeoutTask:
    name = "timeout"

    def describe(self, seq):
        return {}

    def evaluate(self, seq, iteration, rng):
        return EvaluationOutcome.timeout()


class PanicTask:
    name = "panic"

    def describe(self, seq):
        return {}

    def evaluate(self, seq, iteration, rng):
        raise RuntimeError("evaluator crashed")


class TokenSumTask:
    """Deterministic, spread-out scores; easy to reason about.

    Score is the mean token value scaled to [0, 1] for an 11-token headroom,
    so the policy can improve it by favoring high token ids.
    """

    name = "token_sum"

    def describe(self, seq):
        return {"sum": int(seq.tokens.sum())}

    def evaluate(self, seq, iteration, rng):
        visible = seq.tokens[seq.mask == 1]
        return EvaluationOutcome.parsed(float(visible.sum()) / (11.0 * len(visible)))


def make_candidate(cid, score, reward=None, status="ok"):
    seq = TokenSequence(
        tokens=np.zeros(4, dtype=np.int64),
        mask=np.ones(4, dtype=np.int64),
        old_logprobs=np.zeros(4),
    )
    if status == "ok":
        outcome = EvaluationOutcome.parsed(score)
    else:
        outcome = EvaluationOutcome.parse_failure()
    return Candidate(
        id=cid,
        tokens=seq,
        descriptor={},
        outcome=outcome,
        reward=reward if reward is not None else (score if status == "ok" else -1.0),
        iteration_born=0,
    )


def small_config(**overrides):
    base = dict(
        iterations=5,
        samples_per_group=4,
        top_k=2,
        learning_rate=0.05,
        weight_decay=0.0,
        seed=0,
        seq_length=6,
        context_dim=6,
        hidden_dim=8,
        vocab_size=12,
    )
    base.update(overrides)
    return RunConfig(**base)


# ------------------------------------------------------------ archive


def test_update_frontier_first_candidate():
    archive = FrontierArchive(4)
    improved = update_frontier(archive, make_candidate(1, 0.7))
    assert improved
    assert len(archive) == 1
    assert archive.cumulative_max == 0.7


def test_update_frontier_below_min_full_archive():
    archive = FrontierArchive(2)
    update_frontier(archive, make_candidate(1, 0.9))
    update_frontier(archive, make_candidate(2, 0.8))
    improved = update_frontier(archive, make_candidate(3, 0.1))
    assert not improved
    assert [c.id for c in archive.entries] == [1, 2]
    assert archive.cumulative_max == 0.9


def test_update_frontier_never_archives_failures():
    archive = FrontierArchive(4)
    improved = update_frontier(archive, make_candidate(1, 0.0, status="fail"))
    assert not improved
    assert len(archive) == 0
    assert archive.cumulative_max is None


def test_archive_sorted_unique_ids_capacity():
    archive = FrontierArchive(3)
    for cid, score in [(1, 0.2), (2, 0.9), (3, 0.5), (4, 0.7), (5, 0.1)]:
        update_frontier(archive, make_candidate(cid, score))
    scores = [c.raw_score for c in archive.entries]
    assert scores == sorted(scores, reverse=True)
    assert len({c.id for c in archive.entries}) == len(archive.entries) == 3
    assert archive.cumulative_max == 0.9


# ------------------------------------------------------------ parent choice


def test_select_parent_single_entry():
    archive = FrontierArchive(4)
    update_frontier(archive, make_candidate(1, 0.5))
    parent = select_parent(archive, np.random.default_rng(0), 0.5)
    assert parent.id == 1


def test_select_parent_low_temperature_is_argmax():
    archive = FrontierArchive(4)
    update_frontier(archive, make_candidate(1, 0.2))
    update_frontier(archive, make_candidate(2, 0.8))
    rng = np.random.default_rng(0)
    picks = [select_parent(archive, rng, 1e-4).id for _ in range(200)]
    assert all(p == 2 for p in picks)


def test_select_parent_symmetric_scores():
    archive = FrontierArchive(4)
    update_frontier(archive, make_candidate(1, 0.5))
    update_frontier(archive, make_candidate(2, 0.5))
    rng = np.random.default_rng(1)
    picks = np.array([select_parent(archive, rng, 0.5).id for _ in range(1000)])
    assert abs(np.mean(picks == 1) - 0.5) < 0.05


def test_select_parent_empty_archive_uses_seed():
    archive = FrontierArchive(4)
    seed = make_candidate(0, 0.3)
    parent = select_parent(archive, np.random.default_rng(0), 0.5, seed_candidate=seed)
    assert parent is seed


# ------------------------------------------------------------ rollout_group


def test_rollout_group_deterministic():
    def collect():
        config = small_config()
        state = init_run_state(config, TokenSumTask())
        batch, candidates = rollout_group(state, state.task, 4)
        return batch, [c.tokens.tokens.copy() for c in candidates]

    batch_a, toks_a = collect()
    batch_b, toks_b = collect()
    assert np.array_equal(batch_a.rewards, batch_b.rewards)
    for a, b in zip(toks_a, toks_b):
        assert np.array_equal(a, b)


def test_rollout_group_all_timeouts():
    config = small_config()
    state = init_run_state(config, TimeoutTask())
    batch, candidates = rollout_group(state, state.task, 4)
    assert batch.rewards == pytest.approx([-1.0] * 4)
    assert all(batch.failed)
    assert all(c.raw_score is None for c in candidates)


def test_rollout_group_evaluator_panic_becomes_error_reward():
    config = small_config()
    state = init_run_state(config, PanicTask())
    batch, candidates = rollout_group(state, state.task, 4)
    assert batch.rewards == pytest.approx([-1.0] * 4)
    assert all(c.outcome.status.value == "evaluator_error" for c in candidates)


def test_rollout_group_empty_archive_parent_is_seed():
    config = small_config()
    state = init_run_state(config, TimeoutTask())
    assert len(state.archive) == 0  # seed evaluation timed out, never archived
    _, candidates = rollout_group(state, state.task, 4)
    assert all(c.parent_id == state.seed_candidate.id for c in candidates)


def test_rollout_group_rejects_tiny_group():
    config = small_config()
    state = init_run_state(config, TokenSumTask())
    with pytest.raises(ValueError):
        rollout_group(state, state.task, 1)


# ------------------------------------------------------------ training_step


def _state_with_batch(task, mode="phase", **overrides):
    config = small_config(mode=mode, **overrides)
    state = init_run_state(config, task)
    batch, candidates = rollout_group(state, state.task, config.samples_per_group)
    return state, batch, candidates


def test_training_step_constant_batch_skips_and_freezes_params():
    state, batch, candidates = _state_with_batch(ConstantTask())
    before = state.params.fingerprint()
    diag = training_step(state, batch, candidates)
    assert diag.skipped
    assert diag.g_skipped and diag.k_skipped
    assert diag.optimizer_steps == 0
    assert diag.grad_norm == 0.0
    assert diag.loss is None
    assert state.params.fingerprint() == before


def test_training_step_alpha_zero_uses_group_branch():
    state, batch, candidates = _state_with_batch(TokenSumTask())
    state.iteration = 0
    diag = training_step(state, batch, candidates)
    expected = standardize(
        group_relative_raw(batch.rewards), state.config.eps_num, state.config.eps_skip
    )
    assert diag.alpha == 0.0
    assert diag.advantages == pytest.approx(expected.values, abs=0)


def test_training_step_alpha_one_uses_topk_branch():
    state, batch, candidates = _state_with_batch(TokenSumTask())
    state.iteration = state.config.iterations  # the t = T endpoint
    diag = training_step(state, batch, candidates)
    expected = standardize(
        sloo_weights(batch.rewards, state.config.top_k),
        state.config.eps_num,
        state.config.eps_skip,
    )
    assert diag.alpha == 1.0
    assert diag.advantages == pytest.approx(expected.values, abs=0)


def test_training_step_updates_params_once():
    state, batch, candidates = _state_with_batch(TokenSumTask())
    before = state.params.fingerprint()
    diag = training_step(state, batch, candidates)
    assert diag.optimizer_steps == 1
    assert not diag.skipped
    assert state.params.fingerprint() != before
    assert state.opt_state.step == 1
    assert diag.grad_norm > 0.0


def test_training_step_entropy_uses_each_candidates_context():
    # Zero parameters ignore the context, so start from random ones; a parent
    # per candidate gives the group several distinct contexts.
    config = small_config(per_candidate_parents=True, samples_per_group=6)
    state = init_run_state(config, TokenSumTask())
    dims = PolicyDims(context_dim=6, hidden_dim=8, vocab_size=12, max_tokens=6)
    state.params = PolicyParams.random(dims, np.random.default_rng(4), scale=0.5)
    for cand in rollout_group(state, state.task, 6)[1]:
        update_frontier(state.archive, cand)
    batch, candidates = rollout_group(state, state.task, 6)
    assert len({c.context.tobytes() for c in candidates}) > 1
    expected = [ref.token_entropy(state.params, c.context, c.tokens) for c in candidates]
    diag = training_step(state, batch, candidates)
    assert diag.entropy == float(np.mean(expected))


def test_training_step_grpo_mode_never_skips_on_constant():
    state, batch, candidates = _state_with_batch(ConstantTask(), mode="grpo")
    diag = training_step(state, batch, candidates)
    assert not diag.skipped
    assert diag.advantages == pytest.approx([0.0] * 4)


def test_training_step_entropic_constant_batch_skips():
    state, batch, candidates = _state_with_batch(ConstantTask(), mode="entropic")
    diag = training_step(state, batch, candidates)
    assert diag.skipped
    assert diag.optimizer_steps == 0


def test_training_step_entropic_mode_records_beta():
    state, batch, candidates = _state_with_batch(TokenSumTask(), mode="entropic")
    diag = training_step(state, batch, candidates)
    assert not diag.skipped
    assert diag.beta is not None and diag.beta >= 0.0


def test_training_step_maxk_mode():
    state, batch, candidates = _state_with_batch(TokenSumTask(), mode="maxk")
    diag = training_step(state, batch, candidates)
    assert not diag.skipped
    assert diag.k_skipped is False
    assert diag.optimizer_steps == 1


# ------------------------------------------------------------ run_evolution


def test_run_zero_iterations_archive_is_seed_only(tmp_path):
    config = small_config(iterations=0)
    trace_path = tmp_path / "trace.jsonl"
    result = run_evolution(config, TokenSumTask(), trace_path=trace_path)
    assert result.steps == []
    assert [c.id for c in result.archive.entries] == [0]
    records = read_trace(trace_path)
    assert [r["kind"] for r in records] == ["header"]


def test_run_minimal_archive_contains_seed():
    config = small_config(iterations=1)
    task = TokenSumTask()
    result = run_evolution(config, task)
    ids = [c.id for c in result.archive.entries]
    assert 0 in ids  # the seed program


def test_run_trace_is_deterministic(tmp_path):
    config = small_config(iterations=6)
    task = make_task(config)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    run_evolution(config, make_task(config), trace_path=p1)
    run_evolution(config, make_task(config), trace_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_cumulative_max_non_decreasing_and_replayable(tmp_path):
    config = small_config(iterations=8)
    trace_path = tmp_path / "trace.jsonl"
    result = run_evolution(config, make_task(config), trace_path=trace_path)

    series = [v for v in result.cumulative_max if v is not None]
    assert all(b >= a for a, b in zip(series, series[1:]))

    records = read_trace(trace_path)
    running = None
    by_iteration = {}
    for rec in records:
        if rec["kind"] == "candidate" and rec["raw_score"] is not None:
            running = rec["raw_score"] if running is None else max(running, rec["raw_score"])
            by_iteration[rec["iteration"]] = running
    for rec in records:
        if rec["kind"] == "step":
            assert rec["cumulative_max"] == by_iteration[rec["iteration"]]


def test_run_barrier_hashes_and_step_cardinality(tmp_path):
    config = small_config(iterations=10)
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(config, make_task(config), trace_path=trace_path)
    steps = [r for r in read_trace(trace_path) if r["kind"] == "step"]
    assert len(steps) == 10
    for rec in steps:
        assert rec["params_hash_start"] == rec["params_hash_end"]
        assert rec["optimizer_steps"] in (0, 1)
        if rec["skipped"]:
            assert rec["optimizer_steps"] == 0


def test_run_record_accounting(tmp_path):
    config = small_config(iterations=7)
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(config, make_task(config), trace_path=trace_path)
    records = read_trace(trace_path)
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "header"
    assert kinds.count("candidate") == 7 * config.samples_per_group
    assert kinds.count("step") == 7
    header = records[0]
    assert header["config"]["iterations"] == 7
    assert header["config"]["mode"] == "phase"


def test_run_failed_candidates_never_archived():
    config = small_config(iterations=4)
    result = run_evolution(config, TimeoutTask())
    assert len(result.archive) == 0
    assert result.best_score is None
    assert all(v is None for v in result.cumulative_max)


def test_run_learns_on_token_sum_task(tmp_path):
    config = small_config(iterations=60, learning_rate=0.1)
    trace_path = tmp_path / "trace.jsonl"
    result = run_evolution(config, TokenSumTask(), trace_path=trace_path)
    assert result.best_score is not None
    # The policy shifts mass toward high-value tokens: late rollout groups
    # should average clearly better than the earliest ones.
    rewards_by_iter = {}
    for rec in read_trace(trace_path):
        if rec["kind"] == "candidate":
            rewards_by_iter.setdefault(rec["iteration"], []).append(rec["reward"])
    means = [float(np.mean(rewards_by_iter[t])) for t in sorted(rewards_by_iter)]
    early = float(np.mean(means[:10]))
    late = float(np.mean(means[-10:]))
    assert late > early


def test_run_per_candidate_parents_mode():
    config = small_config(iterations=6, per_candidate_parents=True)
    result_a = run_evolution(config, TokenSumTask())
    result_b = run_evolution(config, TokenSumTask())
    assert result_a.best_score == result_b.best_score
    assert len(result_a.archive) > 0


def test_random_search_deterministic_and_comparable():
    task = TokenSumTask()
    a = random_search_best(task, 10, 4, 6, 12, seed=3)
    b = random_search_best(task, 10, 4, 6, 12, seed=3)
    assert a == b
    assert a is not None and 0.0 < a <= 1.0
