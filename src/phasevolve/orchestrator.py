"""The evolutionary training loop.

Each iteration: pick a parent from the frontier archive, sample a rollout
group under frozen policy parameters, evaluate and shape every candidate,
fold survivors into the archive, then take (at most) one clipped
policy-gradient step with the advantages that ``estimators.advantages`` gives
for the configured estimator mode. Parameters are read-only and only
``training_step`` rebinds them, so the rollout boundary is a hard barrier;
the parameter fingerprints recorded at group start and group end make that
checkable from the trace alone.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import estimators, policy
from .config import RunConfig, config_to_dict
from .estimators import PhaseSchedule
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
    outcome: EvaluationOutcome
    reward: float
    iteration_born: int
    parent_id: int | None = None
    # Read from the outcome once; no code reassigns ``outcome``.
    raw_score: float | None = field(init=False)

    def __post_init__(self) -> None:
        self.raw_score = self.outcome.value if self.outcome.ok else None


class FrontierArchive:
    """Bounded, score-sorted set of the best candidates found so far.

    The mean score and the softmax selection CDF are kept in a one-entry
    memo keyed by the list of entry scores itself, compared by value: an
    insert or any direct edit of ``entries`` changes that list, so the next
    read recomputes both. The CDF is kept for one temperature at a time.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[Candidate] = []
        self.cumulative_max: float | None = None
        # [scores, mean, temperature, cdf]; the CDF is filled when first read.
        self._memo: list = [[], None, None, None]

    def __len__(self) -> int:
        return len(self.entries)

    def best_score(self) -> float | None:
        return self.entries[0].raw_score if self.entries else None

    def _scores_memo(self) -> list:
        scores = [c.raw_score for c in self.entries]
        if scores != self._memo[0]:
            mean = float(np.add.reduce(scores) / len(scores)) if scores else None
            self._memo = [scores, mean, None, None]
        return self._memo

    def mean_score(self) -> float | None:
        return self._scores_memo()[1]

    def selection_cdf(self, temperature: float) -> list[float]:
        """Cumulative softmax(scores / temperature) over the entries, in order.

        Scores are shifted by their max before the division, so a tiny
        temperature overflows to -inf and gives the greedy limit, not NaN.
        """
        memo = self._scores_memo()
        if memo[2] != temperature:
            scores = np.array(memo[0])
            with np.errstate(over="ignore"):
                z = (scores - scores.max()) / temperature
            probs = np.exp(z)
            probs /= probs.sum()
            memo[2:] = temperature, np.cumsum(probs).tolist()
        return memo[3]

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
    idx = bisect.bisect_right(archive.selection_cdf(temperature), rng.random())
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
        old_logprobs=np.full(config.seq_length, -math.log(config.vocab_size)),
    )
    outcome = _safe_evaluate(task, seed_seq, 0, state.rng)
    seed_cand = Candidate(
        id=0,
        tokens=seed_seq,
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
    except Exception as exc:
        return EvaluationOutcome.evaluator_error(exc)


def build_context(state: RunState, parent: Candidate) -> RolloutContext:
    gains = state.recent_gains
    return RolloutContext(
        parent_score=parent.raw_score if parent.raw_score is not None else 0.0,
        phase=state.schedule.alpha(state.iteration),
        frontier_best=state.archive.best_score() or 0.0,
        frontier_mean=state.archive.mean_score() or 0.0,
        improvement_rate=sum(gains) / len(gains) if gains else 0.0,
    )


def rollout_group(state: RunState) -> tuple[policy.ContextTable, list[Candidate]]:
    """Sample, evaluate and shape one group of ``samples_per_group`` candidates
    under frozen parameters, all from one parent and so from one context
    table, which is returned with them."""
    cfg = state.config
    parent = select_parent(
        state.archive, state.rng, cfg.select_temperature, state.seed_candidate
    )
    ctx = build_context(state, parent).features(cfg.context_dim)
    table = policy.context_table(state.params, ctx)
    candidates: list[Candidate] = []
    for _ in range(cfg.samples_per_group):
        seq = policy.sample_sequence(table, state.rng, cfg.seq_length)
        outcome = _safe_evaluate(state.task, seq, state.iteration, state.rng)
        candidates.append(
            Candidate(
                id=state.next_id,
                tokens=seq,
                outcome=outcome,
                reward=shape_reward(outcome, state.shaping),
                iteration_born=state.iteration,
                parent_id=parent.id,
            )
        )
        state.next_id += 1
    return table, candidates


@dataclass
class StepDiagnostics:
    """One training step's outcome; every field goes into its trace record."""

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


def training_step(
    state: RunState, table: policy.ContextTable, candidates: list[Candidate]
) -> StepDiagnostics:
    """One phase-adaptive policy update (or a recorded skip) for a group
    sampled from ``table``."""
    cfg = state.config
    alpha = state.schedule.alpha(state.iteration)
    # Parameters have not changed since the rollout, so its table still holds.
    entropies = [policy.token_entropy(table, c.tokens) for c in candidates]
    entropy = float(np.add.reduce(entropies) / len(entropies))  # np.mean's sum and division
    advantages, info = estimators.advantages(
        cfg.mode,
        np.array([c.reward for c in candidates]),
        alpha,
        k=cfg.top_k,
        eps_num=cfg.eps_num,
        eps_skip=cfg.eps_skip,
        gamma=cfg.gamma,
        beta_max=cfg.beta_max,
        beta_tol=cfg.beta_tol,
    )
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
    # Equal lengths make the group's tuples one (n, L) int64 and float64 block.
    tokens = np.array([c.tokens.tokens for c in candidates], dtype=np.int64)
    old_logprobs = np.array([c.tokens.old_logprobs for c in candidates], dtype=np.float64)
    try:
        loss, grad = policy.loss_and_gradient(
            state.params,
            table.ctx,
            tokens,
            old_logprobs,
            policy.broadcast_advantage(advantages, tokens.shape[1]),
            state.clip,
        )
    except policy.NumericFailureError as exc:
        # Reject the step: parameters and optimizer state stay untouched.
        diag.error = str(exc)
        return diag
    diag.loss = loss
    diag.grad_norm = policy.grad_norm(grad)
    if not math.isfinite(diag.grad_norm):
        # A finite gradient can still overflow its norm: reject the step as
        # optimizer_step rejects a non-finite gradient.
        diag.error = "non-finite gradient norm rejected"
        return diag
    state.params, state.opt_state, applied = policy.optimizer_step(
        state.params,
        grad,
        state.opt_state,
        lr=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
    )
    if applied:
        diag.optimizer_steps = 1
    else:
        diag.error = "non-finite gradient or update rejected by optimizer"
    return diag


@dataclass
class RunResult:
    """What a run leaves: the final archive, one diagnostics record per step,
    the cumulative max after each step, and ``descriptors``, the task's
    ``describe`` of each archive entry, in archive order. The loop never
    reads a descriptor, so they are computed once, when the last step ends."""

    archive: FrontierArchive
    steps: list[StepDiagnostics]
    cumulative_max: list[float | None]
    best_score: float | None
    best_iteration: int | None
    skip_steps: int
    descriptors: list[dict]


def run_evolution(config: RunConfig, task, trace_path=None) -> RunResult:
    """Execute the full loop for config.iterations groups.

    Per group: rollout under frozen params, archive updates, one training
    step, then the barrier (parameters redistributed implicitly by the next
    group's sampling). Writes one trace record per candidate and per step;
    once the last step ends, describes each final archive entry once.
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
            table, candidates = rollout_group(state)
            for cand in candidates:
                improved = update_frontier(state.archive, cand)
                state.recent_gains.append(1.0 if improved else 0.0)
                if improved:
                    best_iteration = t
                if writer:
                    writer.write_candidate(
                        t,
                        cand.id,
                        cand.parent_id,
                        cand.outcome.status.value,
                        cand.raw_score,
                        cand.reward,
                        cand.outcome.error,
                    )
            hash_end = state.params.fingerprint()
            diag = training_step(state, table, candidates)
            steps.append(diag)
            cumulative.append(state.archive.cumulative_max)
            if diag.skipped:
                skip_steps += 1
            if writer:
                writer.write_step(
                    {
                        **vars(diag),
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
        descriptors=[task.describe(c.tokens) for c in state.archive.entries],
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
                old_logprobs=np.full(seq_length, uniform_logp),
            )
            outcome = _safe_evaluate(task, seq, t, rng)
            if outcome.ok and (best is None or outcome.value > best):
                best = outcome.value
    return best
