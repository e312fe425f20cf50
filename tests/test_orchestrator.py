import math
import warnings
from dataclasses import fields
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
import reference_policy as ref
from hypothesis import given, settings

from phasevolve import cli, orchestrator
from phasevolve.config import MODES, ConfigError, RunConfig, parse_config_text
from phasevolve.estimators import (
    InvalidGroupError,
    group_relative_raw,
    sloo_weights,
    standardize,
)
from phasevolve.orchestrator import (
    Candidate,
    FrontierArchive,
    StepDiagnostics,
    init_run_state,
    random_search_best,
    rollout_group,
    run_evolution,
    select_parent,
    training_step,
    update_frontier,
)
from phasevolve.policy import PolicyDims, TokenSequence
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
    """Every evaluation fails without raising."""

    name = "timeout"

    def describe(self, seq):
        return {}

    def evaluate(self, seq, iteration, rng):
        return EvaluationOutcome.parse_failure()


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
        return {"sum": sum(seq.tokens)}

    def evaluate(self, seq, iteration, rng):
        return EvaluationOutcome.parsed(float(sum(seq.tokens)) / (11.0 * len(seq)))


def make_candidate(cid, score, reward=None, status="ok"):
    seq = TokenSequence(tokens=np.zeros(4, dtype=np.int64), old_logprobs=np.zeros(4))
    if status == "ok":
        outcome = EvaluationOutcome.parsed(score)
    else:
        outcome = EvaluationOutcome.parse_failure()
    return Candidate(
        id=cid,
        tokens=seq,
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


def test_update_frontier_a_tie_is_not_a_gain():
    archive = FrontierArchive(4)
    assert update_frontier(archive, make_candidate(1, 0.7))
    assert not update_frontier(archive, make_candidate(2, 0.7))
    assert archive.cumulative_max == 0.7


def test_best_iteration_is_the_first_that_reaches_the_best_score(tmp_path):
    # EPLB scores tie often, so later candidates reach the best score again.
    text = (Path(__file__).resolve().parents[1] / "configs" / "eplb.cfg").read_text()
    config = parse_config_text(text + "\niterations = 40\n")
    trace_path = tmp_path / "trace.jsonl"
    result = run_evolution(config, make_task(config), trace_path)
    records = read_trace(trace_path)
    best = [rec for rec in records if rec["kind"] == "step"][-1]["cumulative_max"]
    reached = [
        rec["iteration"]
        for rec in records
        if rec["kind"] == "candidate" and rec["raw_score"] == best
    ]
    assert reached[-1] > reached[0], "the run must tie its best score later"
    assert result.best_iteration == reached[0]


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


def oracle_cdf(scores, temperature):
    """The selection CDF in numpy, with no memo: softmax of the scores shifted
    by their max, then divided by the temperature."""
    scores = np.array(scores)
    probs = np.exp((scores - scores.max()) / temperature)
    probs /= probs.sum()
    return np.cumsum(probs)


def oracle_index(scores, temperature, u):
    idx = int(np.searchsorted(oracle_cdf(scores, temperature), u, side="right"))
    return min(idx, len(scores) - 1)


class Uniforms:
    """An rng stand-in that returns given uniforms and counts the draws."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.values.pop(0)


def archive_of(scores):
    archive = FrontierArchive(32)
    for cid, score in enumerate(scores):
        update_frontier(archive, make_candidate(cid, score))
    return archive


def picks_the_oracles_index(archive, temperature, uniforms):
    scores = [c.raw_score for c in archive.entries]
    for u in uniforms:
        rng = Uniforms([u])
        parent = select_parent(archive, rng, temperature)
        assert rng.draws == 1
        assert parent is archive.entries[oracle_index(scores, temperature, u)]


# Ties come from a few shared values; the rest spread over [0, 1].
SCORES = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=32
)


@given(SCORES, st.sampled_from([0.5, 0.37, 3.0]), st.data())
@settings(max_examples=200, deadline=None)
def test_select_parent_picks_the_oracles_index(scores, temperature, data):
    archive = archive_of(scores)
    cdf = oracle_cdf([c.raw_score for c in archive.entries], temperature).tolist()
    # Uniforms on the CDF's own values are where bisect_right and
    # searchsorted(side="right") must agree on the boundary.
    uniforms = data.draw(st.lists(st.sampled_from(cdf) | st.floats(0.0, 1.0, exclude_max=True)))
    picks_the_oracles_index(archive, temperature, uniforms + cdf + [0.0])


@given(SCORES)
@settings(max_examples=200, deadline=None)
def test_mean_score_equals_np_mean(scores):
    archive = archive_of(scores)
    assert archive.mean_score() == np.mean([c.raw_score for c in archive.entries])


def test_the_shift_before_dividing_changes_no_cdf_at_temperature_one_half():
    # The shipped configs' temperature is a power of two, so dividing first
    # and shifting after, the order before the tiny-temperature fix, gives
    # the same floats, and so the same parents.
    scores = np.random.default_rng(4).random((200, 16))
    for row in scores:
        z = row / 0.5
        z -= z.max()
        probs = np.exp(z)
        probs /= probs.sum()
        assert np.cumsum(probs).tobytes() == oracle_cdf(row, 0.5).tobytes()


def test_the_memo_follows_every_change_to_the_entries():
    archive = archive_of([0.9, 0.6, 0.6, 0.3])

    def check(temperature=0.5):
        scores = [c.raw_score for c in archive.entries]
        uniforms = oracle_cdf(scores, temperature).tolist() + [0.0, 0.5, 0.99]
        picks_the_oracles_index(archive, temperature, uniforms)
        assert archive.mean_score() == np.mean(scores)

    check()
    update_frontier(archive, make_candidate(10, 0.95))  # an insert at the top
    check()
    check(temperature=3.0)  # another temperature, same scores
    check()
    archive.entries[1].raw_score = 0.1  # a direct edit of one entry's score
    check()
    archive.entries.pop(0)
    check()
    archive.entries[0] = make_candidate(11, 0.05)  # the same length, new content
    check()
    archive.entries.reverse()
    check()


def test_a_tiny_temperature_selects_greedily(tmp_path):
    # 1e-310 passes validate(); dividing the scores by it overflows.
    archive = archive_of([0.9, 0.8, 0.5, 0.2])
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert all(select_parent(archive, rng, 1e-310) is archive.entries[0] for _ in range(200))
        config = small_config(iterations=20, select_temperature=1e-310)
        result = run_evolution(config, TokenSumTask(), tmp_path / "trace.jsonl")
    assert len(result.steps) == 20


# ------------------------------------------------------------ rollout_group


def rewards_of(candidates):
    return [c.reward for c in candidates]


def test_rollout_group_deterministic():
    def collect():
        config = small_config()
        state = init_run_state(config, TokenSumTask())
        return rollout_group(state)

    table_a, cands_a = collect()
    table_b, cands_b = collect()
    assert len(cands_a) == small_config().samples_per_group
    assert rewards_of(cands_a) == rewards_of(cands_b)
    assert [c.tokens for c in cands_a] == [c.tokens for c in cands_b]
    assert np.array_equal(table_a.ctx, table_b.ctx)


def test_rollout_group_all_timeouts():
    config = small_config()
    state = init_run_state(config, TimeoutTask())
    _, candidates = rollout_group(state)
    assert rewards_of(candidates) == [-1.0] * 4
    assert all(not c.outcome.ok for c in candidates)
    assert all(c.raw_score is None for c in candidates)


def test_rollout_group_evaluator_panic_becomes_error_reward():
    config = small_config()
    state = init_run_state(config, PanicTask())
    _, candidates = rollout_group(state)
    assert rewards_of(candidates) == [-1.0] * 4
    assert all(c.outcome.status.value == "evaluator_error" for c in candidates)


def test_run_records_keep_the_evaluator_error(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(small_config(iterations=2), PanicTask(), trace_path=trace_path)
    candidates = [r for r in read_trace(trace_path) if r["kind"] == "candidate"]
    assert len(candidates) == 2 * 4
    for rec in candidates:
        assert rec["status"] == "evaluator_error"
        assert rec["error"] == "RuntimeError: evaluator crashed"


def test_rollout_group_empty_archive_parent_is_seed():
    config = small_config()
    state = init_run_state(config, TimeoutTask())
    assert len(state.archive) == 0  # seed evaluation timed out, never archived
    _, candidates = rollout_group(state)
    assert all(c.parent_id == state.seed_candidate.id for c in candidates)


def test_a_group_of_one_is_rejected():
    # The config refuses it before a run starts; a step handed one anyway
    # fails in the estimators, which check every group they are given.
    config = small_config(samples_per_group=1, top_k=1)
    with pytest.raises(ConfigError, match="^samples_per_group: need >= 2"):
        run_evolution(config, TokenSumTask())
    state = init_run_state(config, TokenSumTask())
    table, candidates = rollout_group(state)
    assert len(candidates) == 1
    with pytest.raises(InvalidGroupError, match="group size 1 below minimum 2"):
        training_step(state, table, candidates)


# ------------------------------------------------------------ training_step


def _state_with_group(task, mode="phase", **overrides):
    config = small_config(mode=mode, **overrides)
    state = init_run_state(config, task)
    table, candidates = rollout_group(state)
    return state, table, candidates


def test_training_step_constant_batch_skips_and_freezes_params():
    state, table, candidates = _state_with_group(ConstantTask())
    before = state.params.fingerprint()
    diag = training_step(state, table, candidates)
    assert diag.skipped
    assert diag.g_skipped and diag.k_skipped
    assert diag.optimizer_steps == 0
    assert diag.grad_norm == 0.0
    assert diag.loss is None
    assert state.params.fingerprint() == before


def test_training_step_alpha_zero_uses_group_branch():
    state, table, candidates = _state_with_group(TokenSumTask())
    state.iteration = 0
    diag = training_step(state, table, candidates)
    expected = standardize(
        group_relative_raw(rewards_of(candidates)), state.config.eps_num, state.config.eps_skip
    )
    assert diag.alpha == 0.0
    assert diag.advantages == pytest.approx(expected.values, abs=0)


def test_training_step_alpha_one_uses_topk_branch():
    state, table, candidates = _state_with_group(TokenSumTask())
    state.iteration = state.config.iterations  # the t = T endpoint
    diag = training_step(state, table, candidates)
    expected = standardize(
        sloo_weights(rewards_of(candidates), state.config.top_k),
        state.config.eps_num,
        state.config.eps_skip,
    )
    assert diag.alpha == 1.0
    assert diag.advantages == pytest.approx(expected.values, abs=0)


def test_training_step_updates_params_once():
    state = init_run_state(small_config(), TokenSumTask())
    # Random parameters make the entropy depend on the group's context.
    dims = PolicyDims(context_dim=6, hidden_dim=8, vocab_size=12)
    state.params = ref.random_params(dims, np.random.default_rng(4), scale=0.5)
    table, candidates = rollout_group(state)
    expected = [ref.token_entropy(state.params, table.ctx, c.tokens) for c in candidates]
    before = state.params.fingerprint()
    diag = training_step(state, table, candidates)
    assert diag.entropy == float(np.mean(expected))
    assert diag.optimizer_steps == 1
    assert not diag.skipped
    assert state.params.fingerprint() != before
    assert state.opt_state.step == 1
    assert diag.grad_norm > 0.0


def test_training_step_stacks_the_group_as_the_old_array_block(monkeypatch):
    # The tuples of a group give the (n, L) blocks np.stack gave of arrays.
    state = init_run_state(small_config(), TokenSumTask())
    table, candidates = rollout_group(state)
    seen = []
    loss_and_gradient = orchestrator.policy.loss_and_gradient

    def recorded(params, ctx, tokens, old_logprobs, advantages, clip):
        seen.append((tokens, old_logprobs))
        return loss_and_gradient(params, ctx, tokens, old_logprobs, advantages, clip)

    monkeypatch.setattr(orchestrator.policy, "loss_and_gradient", recorded)
    training_step(state, table, candidates)
    [(tokens, old_logprobs)] = seen
    want_tokens = np.stack([np.asarray(c.tokens.tokens, dtype=np.int64) for c in candidates])
    want_logprobs = np.stack([np.asarray(c.tokens.old_logprobs) for c in candidates])
    assert tokens.dtype == np.int64 and old_logprobs.dtype == np.float64
    assert np.array_equal(tokens, want_tokens)
    assert old_logprobs.tobytes() == want_logprobs.tobytes()


def test_training_step_grpo_mode_never_skips_on_constant():
    state, table, candidates = _state_with_group(ConstantTask(), mode="grpo")
    diag = training_step(state, table, candidates)
    assert not diag.skipped
    assert diag.advantages == pytest.approx([0.0] * 4)


def test_training_step_entropic_constant_batch_skips():
    state, table, candidates = _state_with_group(ConstantTask(), mode="entropic")
    diag = training_step(state, table, candidates)
    assert diag.skipped
    assert diag.optimizer_steps == 0


def test_training_step_entropic_mode_records_beta():
    state, table, candidates = _state_with_group(TokenSumTask(), mode="entropic")
    diag = training_step(state, table, candidates)
    assert not diag.skipped
    assert diag.beta is not None and diag.beta >= 0.0


def test_a_step_whose_gradient_norm_overflows_is_rejected(tmp_path):
    # One tilted term underflows, so the entropic advantages reach about
    # 1e300: the gradient is finite but its squares overflow. Runs under
    # pytest's error::RuntimeWarning, so the norm must overflow silently.
    text = (Path(__file__).resolve().parents[1] / "configs" / "synthetic.cfg").read_text()
    text += (
        "\nmode = entropic\nsamples_per_group = 2\ntop_k = 2\nestimator.eps_num = 1e-300\n"
        "estimator.gamma = 50\nshaping.c = 1e12\niterations = 20\n"
    )
    config = parse_config_text(text)
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(config, make_task(config), trace_path)
    steps = [r for r in read_trace(trace_path) if r["kind"] == "step"]
    assert len(steps) == 20
    for rec in steps:
        assert not rec["skipped"]
        assert not math.isfinite(rec["grad_norm"])
        assert rec["error"] == "non-finite gradient norm rejected"
        assert rec["optimizer_steps"] == 0
    assert steps[0]["params_hash_start"] == steps[-1]["params_hash_end"]


def test_a_step_whose_update_overflows_is_rejected(tmp_path):
    # The first step moves the parameters by about the learning rate, 1e300;
    # the second's weight decay would overflow them. Runs under pytest's
    # error::RuntimeWarning, so the overflow must be silent.
    config = small_config(iterations=3, learning_rate=1e300, weight_decay=0.1)
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(config, TokenSumTask(), trace_path)
    steps = [r for r in read_trace(trace_path) if r["kind"] == "step"]
    rejected = [rec for rec in steps if rec["error"] is not None]
    assert rejected
    for rec in rejected:
        assert rec["error"] == "non-finite gradient or update rejected by optimizer"
        assert rec["optimizer_steps"] == 0
    for step, next_step in zip(steps, steps[1:]):
        if step["optimizer_steps"] == 0:
            assert next_step["params_hash_start"] == step["params_hash_end"]


def test_training_step_maxk_mode():
    state, table, candidates = _state_with_group(TokenSumTask(), mode="maxk")
    diag = training_step(state, table, candidates)
    assert not diag.skipped
    assert diag.k_skipped is False
    assert diag.optimizer_steps == 1


@pytest.mark.parametrize("task", [TokenSumTask, ConstantTask])
@pytest.mark.parametrize("mode", MODES)
def test_estimate_prints_training_step_advantages(mode, task, tmp_path, capsys):
    state, table, candidates = _state_with_group(task(), mode=mode)
    state.iteration = 2  # alpha 0.4: both phase branches count
    diag = training_step(state, table, candidates)
    path = tmp_path / "rewards.txt"
    path.write_text("".join(f"{r!r}\n" for r in rewards_of(candidates)))
    # Only k and alpha are passed: the other estimator flags default to RunConfig's.
    argv = ["estimate", "--file", str(path), "--mode", mode,
            "--k", str(state.config.top_k), "--alpha", repr(diag.alpha)]
    assert cli.main(argv) == 0
    expected = ["SKIP"] if diag.skipped else [repr(a) for a in diag.advantages]
    assert capsys.readouterr().out.splitlines() == expected
    assert diag.skipped == (task is ConstantTask and mode != "grpo")


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


def test_a_rollout_that_rebinds_the_parameters_shows_in_the_barrier_hashes(
    tmp_path, monkeypatch
):
    # Parameters are read-only, so a rollout can change them only by
    # rebinding state.params; the step's hash pair must still differ.
    rollout = orchestrator.rollout_group

    def rebinding_rollout(state):
        out = rollout(state)
        if state.iteration == 3:
            state.params = ref.with_entry(state.params, "w_emit", (0, 0), 0.5)
        return out

    monkeypatch.setattr(orchestrator, "rollout_group", rebinding_rollout)
    config = small_config(iterations=6)
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(config, make_task(config), trace_path=trace_path)
    steps = [r for r in read_trace(trace_path) if r["kind"] == "step"]
    assert [rec["params_hash_start"] != rec["params_hash_end"] for rec in steps] == [
        t == 3 for t in range(6)
    ]


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


def test_run_record_schema(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(small_config(iterations=3), TokenSumTask(), trace_path=trace_path)
    records = read_trace(trace_path)
    assert set(records[0]) == {"kind", "version", "config"}
    candidate_keys = {
        "kind", "iteration", "candidate_id", "parent_id", "status", "raw_score", "reward",
        "error",
    }
    step_keys = {f.name for f in fields(StepDiagnostics)} | {
        "kind", "cumulative_max", "params_hash_start", "params_hash_end",
    }
    for rec in records[1:]:
        assert set(rec) == (candidate_keys if rec["kind"] == "candidate" else step_keys)
        if rec["kind"] == "candidate":
            assert rec["error"] is None
    assert {r["kind"] for r in records[1:]} == {"candidate", "step"}


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


def test_each_rollout_group_draws_one_parent(tmp_path, monkeypatch):
    # The estimators compare a group's rewards as draws from one search
    # state, so one rollout group selects exactly one parent.
    counts = {"select_parent": 0, "rollout_group": 0}
    for name in counts:
        original = getattr(orchestrator, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(orchestrator, name, counted)
    config = small_config(iterations=12, samples_per_group=6, top_k=3)
    trace_path = tmp_path / "trace.jsonl"
    result = run_evolution(config, TokenSumTask(), trace_path=trace_path)
    assert counts == {"select_parent": 12, "rollout_group": 12}
    assert len({c.raw_score for c in result.archive.entries}) > 1
    parents: dict[int, set] = {}
    for record in read_trace(trace_path):
        if record["kind"] == "candidate":
            parents.setdefault(record["iteration"], set()).add(record["parent_id"])
    assert sorted(parents) == list(range(12))
    assert all(len(ids) == 1 for ids in parents.values())
    # The parents come from an archive of several scores, not one fixed entry.
    assert len(set().union(*parents.values())) > 1


class DescribeCountingTask(TokenSumTask):
    """Logs each describe call with the step records the trace holds then."""

    def __init__(self, trace_path):
        self.trace_path = trace_path
        self.described = []

    def describe(self, seq):
        steps = sum(r["kind"] == "step" for r in read_trace(self.trace_path))
        self.described.append((seq.tokens, steps))
        return super().describe(seq)


@pytest.mark.parametrize("iterations", [0, 1, 9])
def test_a_run_describes_each_final_archive_entry_once_after_its_last_step(
    tmp_path, iterations
):
    trace_path = tmp_path / "trace.jsonl"
    task = DescribeCountingTask(trace_path)
    result = run_evolution(small_config(iterations=iterations), task, trace_path=trace_path)
    entries = result.archive.entries
    assert len(entries) >= 1
    assert task.described == [(c.tokens.tokens, iterations) for c in entries]
    assert result.descriptors == [{"sum": sum(c.tokens.tokens)} for c in entries]


def test_random_search_deterministic_and_comparable():
    task = TokenSumTask()
    a = random_search_best(task, 10, 4, 6, 12, seed=3)
    b = random_search_best(task, 10, 4, 6, 12, seed=3)
    assert a == b
    assert a is not None and 0.0 < a <= 1.0
