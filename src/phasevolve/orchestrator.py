"""The evolutionary training loop.

Each iteration: pick a parent from the frontier archive, sample a rollout
group under frozen policy parameters, evaluate and shape every candidate,
fold survivors into the archive, then take (at most) one clipped
policy-gradient step whose advantage source depends on the configured
estimator mode. Parameters only ever change inside ``training_step``, so the
rollout boundary is a hard synchronization barrier; the parameter
fingerprints recorded at group start and group end make that checkable from
the trace alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import estimators, policy
from .config import RunConfig, config_to_dict
from .estimators import PhaseSchedule, UnreachableBudgetError
from .policy import (
    AdamState,
    ClipConfig,
    PolicyDims,
    PolicyParams,
    RolloutContext,
    TokenSequence,
)
from .rewards import Direction, EvaluationOutcome, ShapingConfig, shape_reward
from .trace import TraceWriter


@dataclass
class Candidate:
    id: int
    tokens: TokenSequence
    descriptor: dict
    outcome: EvaluationOutcome
    reward: float
    iteration_born: int
    parent_id: int | None = None
    context: np.ndarray | None = None

    @property
    def raw_score(self) -> float | None:
        return self.outcome.value if self.outcome.ok else None


@dataclass
class RewardBatch:
    """One rollout group: ids, shaped rewards, raw scores, failure flags and
    each candidate's context table (valid until the parameters change)."""

    candidate_ids: list[int]
    rewards: np.ndarray
    raw_scores: list[float | None]
    failed: np.ndarray
    tables: dict[int, policy.ContextTable]  # by parent id


class FrontierArchive:
    """Bounded, score-sorted set of the best candidates found so far."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[Candidate] = []
        self.cumulative_max: float | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def best_score(self) -> float | None:
        return self.entries[0].raw_score if self.entries else None

    def mean_score(self) -> float | None:
        if not self.entries:
            return None
        return float(np.mean([c.raw_score for c in self.entries]))

    def _insert(self, candidate: Candidate) -> None:
        self.entries.append(candidate)
        self.entries.sort(key=lambda c: -c.raw_score)
        del self.entries[self.capacity :]

    def seed(self, candidate: Candidate) -> None:
        """Install the seed program without counting it as a search result."""
        if candidate.outcome.ok:
            self._insert(candidate)


def update_frontier(archive: FrontierArchive, candidate: Candidate) -> bool:
    """Archive a candidate if it qualifies; failed candidates never enter.

    Returns True when the candidate raised the cumulative max, i.e. it is a
    new best-so-far among all evaluated rollout candidates.
    """
    if not candidate.outcome.ok:
        return False
    score = candidate.outcome.value
    improved = archive.cumulative_max is None or score > archive.cumulative_max
    if improved:
        archive.cumulative_max = score
    if len(archive) < archive.capacity or score > archive.entries[-1].raw_score:
        archive._insert(candidate)
    return improved


def select_parent(
    archive: FrontierArchive,
    rng: np.random.Generator,
    temperature: float,
    seed_candidate: Candidate | None = None,
) -> Candidate:
    """Softmax-over-scores parent sampling; the seed backstops an empty archive."""
    if not temperature > 0:
        raise ValueError("selection temperature must be positive")
    if len(archive) == 0:
        if seed_candidate is None:
            raise RuntimeError("archive empty and no seed candidate configured")
        return seed_candidate
    scores = np.array([c.raw_score for c in archive.entries])
    z = scores / temperature
    z -= z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    return archive.entries[min(idx, len(archive) - 1)]


@dataclass
class RunState:
    config: RunConfig
    task: object
    schedule: PhaseSchedule
    params: PolicyParams
    opt_state: AdamState
    archive: FrontierArchive
    rng: np.random.Generator
    shaping: ShapingConfig
    clip: ClipConfig
    seed_candidate: Candidate | None = None
    iteration: int = 0
    next_id: int = 0
    recent_gains: deque = field(default_factory=lambda: deque(maxlen=32))


def init_run_state(config: RunConfig, task) -> RunState:
    dims = PolicyDims(
        context_dim=config.context_dim,
        hidden_dim=config.hidden_dim,
        vocab_size=config.vocab_size,
        max_tokens=config.seq_length,
    )
    params = PolicyParams.zeros(dims)
    shaping = ShapingConfig(
        direction=Direction(config.direction),
        y_min=config.y_min,
        y_max=config.y_max,
        multiplier=config.shaping_multiplier,
        exponent=config.shaping_exponent,
    )
    state = RunState(
        config=config,
        task=task,
        schedule=PhaseSchedule(max(config.iterations, 1)),
        params=params,
        opt_state=AdamState.zeros(params),
        archive=FrontierArchive(config.archive_capacity),
        rng=np.random.default_rng(config.seed),
        shaping=shaping,
        clip=ClipConfig(config.eps_lo, config.eps_hi),
    )

    # Seed program: the all-zero token sequence (the base heuristic for every
    # bundled task), evaluated once so parent selection never starts blind.
    seed_seq = TokenSequence(
        tokens=np.zeros(config.seq_length, dtype=np.int64),
        mask=np.ones(config.seq_length, dtype=np.int64),
        old_logprobs=np.full(config.seq_length, -math.log(config.vocab_size)),
    )
    outcome = _safe_evaluate(task, seed_seq, 0, state.rng)
    seed_cand = Candidate(
        id=0,
        tokens=seed_seq,
        descriptor=task.describe(seed_seq),
        outcome=outcome,
        reward=shape_reward(outcome, shaping),
        iteration_born=-1,
    )
    state.seed_candidate = seed_cand
    state.archive.seed(seed_cand)
    state.next_id = 1
    return state


def _safe_evaluate(task, seq, iteration, rng) -> EvaluationOutcome:
    try:
        return task.evaluate(seq, iteration, rng)
    except Exception:
        return EvaluationOutcome.evaluator_error()


def build_context(state: RunState, parent: Candidate) -> RolloutContext:
    gains = state.recent_gains
    return RolloutContext(
        parent_score=parent.raw_score if parent.raw_score is not None else 0.0,
        phase=state.schedule.alpha(state.iteration),
        frontier_best=state.archive.best_score() or 0.0,
        frontier_mean=state.archive.mean_score() or 0.0,
        improvement_rate=float(np.mean(gains)) if gains else 0.0,
    )


def rollout_group(
    state: RunState, task, n: int
) -> tuple[RewardBatch, list[Candidate]]:
    """Sample, evaluate and shape one group of n candidates under frozen
    parameters."""
    if n < 2:
        raise ValueError(f"group size must be >= 2, got {n}")
    cfg = state.config
    if cfg.per_candidate_parents:
        parents = [
            select_parent(
                state.archive, state.rng, cfg.select_temperature, state.seed_candidate
            )
            for _ in range(n)
        ]
    else:
        parent = select_parent(
            state.archive, state.rng, cfg.select_temperature, state.seed_candidate
        )
        parents = [parent] * n

    # The archive and the parameters do not change during a rollout, so a
    # parent's context table is the same for every candidate drawn from it.
    tables: dict[int, policy.ContextTable] = {}
    candidates: list[Candidate] = []
    for parent in parents:
        table = tables.get(parent.id)
        if table is None:
            ctx = build_context(state, parent).features(cfg.context_dim)
            table = tables[parent.id] = policy.context_table(state.params, ctx)
        seq = policy.sample_sequence(table, state.rng, cfg.seq_length)
        outcome = _safe_evaluate(task, seq, state.iteration, state.rng)
        candidates.append(
            Candidate(
                id=state.next_id,
                tokens=seq,
                descriptor=task.describe(seq),
                outcome=outcome,
                reward=shape_reward(outcome, state.shaping),
                iteration_born=state.iteration,
                parent_id=parent.id,
                context=table.ctx,
            )
        )
        state.next_id += 1

    batch = RewardBatch(
        candidate_ids=[c.id for c in candidates],
        rewards=np.array([c.reward for c in candidates]),
        raw_scores=[c.raw_score for c in candidates],
        failed=np.array([not c.outcome.ok for c in candidates]),
        tables=tables,
    )
    return batch, candidates


@dataclass
class StepDiagnostics:
    iteration: int
    alpha: float
    mode: str
    skipped: bool
    entropy: float
    grad_norm: float
    optimizer_steps: int
    loss: float | None = None
    g_skipped: bool | None = None
    k_skipped: bool | None = None
    g_branch: list[float] | None = None
    k_branch: list[float] | None = None
    advantages: list[float] | None = None
    beta: float | None = None
    beta_saturated: bool | None = None
    error: str | None = None


def _advantage_source(
    state: RunState, rewards: np.ndarray, alpha: float
) -> tuple[np.ndarray | None, dict]:
    """Per-candidate advantages for the configured estimator mode.

    Returns None when the step must be skipped (collapsed branches, or an
    unreachable entropic budget on a constant group).
    """
    cfg = state.config
    info: dict = {}
    if cfg.mode == "phase":
        g_std = estimators.standardize(
            estimators.group_relative_raw(rewards), cfg.eps_num, cfg.eps_skip
        )
        k_std = estimators.standardize(
            estimators.sloo_weights(rewards, cfg.top_k), cfg.eps_num, cfg.eps_skip
        )
        info["g_skipped"] = g_std.skipped
        info["k_skipped"] = k_std.skipped
        info["g_branch"] = None if g_std.skipped else g_std.values.tolist()
        info["k_branch"] = None if k_std.skipped else k_std.values.tolist()
        return estimators.mix_advantages(g_std, k_std, alpha), info
    if cfg.mode == "grpo":
        return estimators.grpo_advantage(rewards, cfg.eps_num), info
    if cfg.mode == "entropic":
        try:
            found = estimators.entropic_beta(
                rewards, cfg.gamma, cfg.beta_max, cfg.beta_tol
            )
        except UnreachableBudgetError:
            # Constant rewards: no tilting can meet the budget; treat the
            # group as uninformative rather than failing the run.
            return None, info
        info["beta"] = found.beta
        info["beta_saturated"] = found.saturated
        return estimators.entropic_advantage(rewards, found.beta, cfg.eps_num), info
    if cfg.mode == "maxk":
        std = estimators.standardize(
            estimators.pkpo_weights(rewards, cfg.top_k), cfg.eps_num, cfg.eps_skip
        )
        info["k_skipped"] = std.skipped
        info["k_branch"] = None if std.skipped else std.values.tolist()
        return std.values, info
    raise ValueError(f"unknown estimator mode {cfg.mode!r}")


def training_step(
    state: RunState, batch: RewardBatch, candidates: list[Candidate]
) -> StepDiagnostics:
    """One phase-adaptive policy update (or a recorded skip) for a group."""
    if batch.rewards.size < 2:
        raise ValueError("training step needs a group of at least 2 rewards")
    cfg = state.config
    alpha = state.schedule.alpha(state.iteration)
    # Parameters have not changed since the rollout, so its tables still hold.
    entropy = float(
        np.mean(
            [policy.token_entropy(batch.tables[c.parent_id], c.tokens) for c in candidates]
        )
    )
    advantages, info = _advantage_source(state, batch.rewards, alpha)
    diag = StepDiagnostics(
        iteration=state.iteration,
        alpha=alpha,
        mode=cfg.mode,
        skipped=advantages is None,
        entropy=entropy,
        grad_norm=0.0,
        optimizer_steps=0,
        **info,
    )
    if advantages is None:
        return diag

    diag.advantages = advantages.tolist()
    token_batch = [
        (c.context, c.tokens, policy.broadcast_advantage(float(a), c.tokens))
        for c, a in zip(candidates, advantages)
    ]
    try:
        loss, grad = policy.loss_and_gradient(state.params, token_batch, state.clip)
    except policy.NumericFailureError as exc:
        # Reject the step: parameters and optimizer state stay untouched.
        diag.error = str(exc)
        return diag
    diag.loss = loss
    diag.grad_norm = policy.grad_norm(grad)
    new_params, new_opt, applied = policy.optimizer_step(
        state.params,
        grad,
        state.opt_state,
        lr=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
    )
    if applied:
        state.params = new_params
        state.opt_state = new_opt
        diag.optimizer_steps = 1
    else:
        diag.error = "non-finite gradient rejected by optimizer"
    return diag


@dataclass
class RunResult:
    archive: FrontierArchive
    steps: list[StepDiagnostics]
    cumulative_max: list[float | None]
    best_score: float | None
    best_iteration: int | None
    skip_steps: int


def run_evolution(config: RunConfig, task, trace_path=None) -> RunResult:
    """Execute the full loop for config.iterations groups.

    Per group: rollout under frozen params, archive updates, one training
    step, then the barrier (parameters redistributed implicitly by the next
    group's sampling). Writes one trace record per candidate and per step.
    """
    config.validate()
    state = init_run_state(config, task)
    writer = TraceWriter(trace_path) if trace_path is not None else None
    steps: list[StepDiagnostics] = []
    cumulative: list[float | None] = []
    best_iteration: int | None = None
    skip_steps = 0
    try:
        if writer:
            writer.write_header(config_to_dict(config))
        for t in range(config.iterations):
            hash_start = state.params.fingerprint()
            batch, candidates = rollout_group(state, task, config.samples_per_group)
            for cand in candidates:
                improved = update_frontier(state.archive, cand)
                state.recent_gains.append(1.0 if improved else 0.0)
                if improved:
                    best_iteration = t
                if writer:
                    writer.write_candidate(
                        {
                            "iteration": t,
                            "candidate_id": cand.id,
                            "parent_id": cand.parent_id,
                            "status": cand.outcome.status.value,
                            "raw_score": cand.raw_score,
                            "reward": cand.reward,
                            "wall_time": cand.outcome.wall_time,
                        }
                    )
            hash_end = state.params.fingerprint()
            diag = training_step(state, batch, candidates)
            steps.append(diag)
            cumulative.append(state.archive.cumulative_max)
            if diag.skipped:
                skip_steps += 1
            if writer:
                writer.write_step(
                    {
                        "iteration": t,
                        "alpha": diag.alpha,
                        "mode": diag.mode,
                        "skipped": diag.skipped,
                        "g_skipped": diag.g_skipped,
                        "k_skipped": diag.k_skipped,
                        "g_branch": diag.g_branch,
                        "k_branch": diag.k_branch,
                        "advantages": diag.advantages,
                        "loss": diag.loss,
                        "entropy": diag.entropy,
                        "grad_norm": diag.grad_norm,
                        "optimizer_steps": diag.optimizer_steps,
                        "beta": diag.beta,
                        "beta_saturated": diag.beta_saturated,
                        "error": diag.error,
                        "cumulative_max": state.archive.cumulative_max,
                        "params_hash_start": hash_start,
                        "params_hash_end": hash_end,
                    }
                )
            state.iteration += 1
    finally:
        if writer:
            writer.close()
    return RunResult(
        archive=state.archive,
        steps=steps,
        cumulative_max=cumulative,
        best_score=state.archive.cumulative_max,
        best_iteration=best_iteration,
        skip_steps=skip_steps,
    )


def random_search_best(
    task,
    iterations: int,
    samples_per_group: int,
    seq_length: int,
    vocab_size: int,
    seed: int,
) -> float | None:
    """Best raw score of uniform random token sampling with the same
    evaluation budget as an evolution run. Baseline for loop-level tests."""
    rng = np.random.default_rng(seed)
    uniform_logp = -math.log(vocab_size)
    best: float | None = None
    for t in range(iterations):
        for _ in range(samples_per_group):
            seq = TokenSequence(
                tokens=rng.integers(0, vocab_size, size=seq_length),
                mask=np.ones(seq_length, dtype=np.int64),
                old_logprobs=np.full(seq_length, uniform_logp),
            )
            outcome = _safe_evaluate(task, seq, t, rng)
            if outcome.ok and (best is None or outcome.value > best):
                best = outcome.value
    return best
