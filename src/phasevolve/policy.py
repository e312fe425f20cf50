"""Tiny autoregressive mutation policy and its clipped policy-gradient update.

The policy is a categorical distribution over a mutation-token vocabulary,
conditioned on a search-state feature vector and the previous token:

    hidden     = ctx @ w_ctx                       (context_dim -> H)
    logits_t   = hidden @ w_emit[:H] + w_emit[H + prev_token]
    token_t    ~ softmax(logits_t)

Under fixed parameters and context this is a bigram: the next-token
distribution depends only on the previous token. So every distribution the
policy can use for one context fits in one (V + 1, V) log-softmax table.
Row 0 is position 0, which has no previous token, and row 1 + j is the
position after token j.

A rollout group has one parent and so one context: ``context_table`` gives
its table once per group, with the cumulative probabilities and per-row
p . log p that sampling and entropy read from it. A sampled
``TokenSequence`` holds plain tuples of Python ints and floats, which the
evaluators and the entropy read as they are. Every sequence in a group has
the same length L, so the training step stacks the group's tuples into
(n, L) arrays with one ``np.array`` each; ``loss_and_gradient`` takes those,
looks up the same table from (params, ctx) and runs both halves over that
block at once. ``optimizer_step`` runs AdamW over one flat vector of
all parameters.

``PolicyParams``, ``AdamState`` and ``TokenSequence`` are frozen, their arrays
read-only copies, and ``optimizer_step`` returns new objects. So a
``PolicyParams`` hashes itself once, and keeps one table with its row lists,
keyed by the bytes of the hidden vector: with ``w_emit`` fixed, the table
depends on nothing else. The loss reads the table the rollout just built.
The table also repeats across iterations: ``w_ctx`` and ``w_emit[:H]`` start
at zero and get exactly zero gradient, so the hidden vector is zero whatever
the context, and a skipped step keeps the parameters, and so the table.

Everything is float64 and hand-differentiated; ``loss_and_gradient`` is the
only code path that produces gradients, and it is checked against central
finite differences in the test suite. ``tests/reference_policy.py`` keeps a
token-by-token loop as the oracle. Table rows hold exactly the values a
per-token log-softmax gives, so tables, sampling, entropy and the loss match
that loop bit for bit. The gradient is summed per table row rather than per
token, so it matches the loop to rtol 1e-12, atol 1e-13; an entry no token
reaches, such as the bigram row of a token nothing follows, is exactly zero
in both.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from dataclasses import dataclass

import numpy as np


class InvalidTokenError(ValueError):
    """Token id outside the vocabulary."""


class EmptyBatchError(ValueError):
    """No tokens to average the loss over."""


class NumericFailureError(RuntimeError):
    """Non-finite intermediate in the loss/gradient computation."""


@dataclass(frozen=True)
class PolicyDims:
    context_dim: int = 8
    hidden_dim: int = 32
    vocab_size: int = 24

    def __post_init__(self) -> None:
        for name in ("context_dim", "hidden_dim", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ClipConfig:
    eps_lo: float = 0.2
    eps_hi: float = 0.28

    def __post_init__(self) -> None:
        if not (self.eps_lo > 0 and self.eps_hi > 0):
            raise ValueError("clip epsilons must be positive")
        if self.eps_lo >= 1.0:
            raise ValueError("eps_lo must be < 1 so the lower clip stays positive")


@dataclass(frozen=True)
class RolloutContext:
    """Search-state features the policy conditions on."""

    parent_score: float = 0.0
    phase: float = 0.0
    frontier_best: float = 0.0
    frontier_mean: float = 0.0
    improvement_rate: float = 0.0

    def features(self, context_dim: int) -> np.ndarray:
        raw = (
            1.0,  # bias
            self.parent_score,
            self.phase,
            self.frontier_best,
            self.frontier_mean,
            self.improvement_rate,
        )
        vec = np.zeros(context_dim)
        vec[: min(len(raw), context_dim)] = raw[:context_dim]
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"non-finite context features: {raw}")
        return vec


@dataclass(frozen=True)
class TokenSequence:
    """One sampled candidate: its tokens and the log-probabilities they were
    sampled with, as tuples of Python ints and floats.

    The constructor converts any 1-d input once, through an int64 and a
    float64 array, and raises ``ValueError`` for tokens that are not 1-d
    integers, log-probabilities that are not 1-d, or unequal lengths.
    ``sample_sequence`` builds its tuples itself and skips that check.
    """

    tokens: tuple[int, ...]
    old_logprobs: tuple[float, ...]

    def __post_init__(self) -> None:
        tokens = np.asarray(self.tokens)
        old_logprobs = np.asarray(self.old_logprobs, dtype=np.float64)
        if tokens.ndim != 1 or old_logprobs.ndim != 1:
            raise ValueError(
                f"tokens and old_logprobs must be 1-d, got shapes "
                f"{tokens.shape} and {old_logprobs.shape}"
            )
        if tokens.size and tokens.dtype.kind not in "iu":
            raise ValueError(f"tokens must be integers, got dtype {tokens.dtype}")
        if tokens.size != old_logprobs.size:
            raise ValueError("tokens and old_logprobs must have equal length")
        object.__setattr__(self, "tokens", tuple(np.asarray(tokens, dtype=np.int64).tolist()))
        object.__setattr__(self, "old_logprobs", tuple(old_logprobs.tolist()))

    @classmethod
    def _trusted(cls, tokens: tuple[int, ...], old_logprobs: tuple[float, ...]) -> "TokenSequence":
        """A sequence of tuples already in the constructor's form, unchecked."""
        seq = object.__new__(cls)
        fields = seq.__dict__  # a frozen instance's fields, written once here
        fields["tokens"] = tokens
        fields["old_logprobs"] = old_logprobs
        return seq

    def __len__(self) -> int:
        return len(self.tokens)


def _read_only(array) -> np.ndarray:
    """A float64 copy of ``array`` that no one can write into."""
    out = np.array(array, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Read-only float64 policy parameters: context projection + per-step emission."""

    w_ctx: np.ndarray
    w_emit: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_ctx", _read_only(self.w_ctx))
        object.__setattr__(self, "w_emit", _read_only(self.w_emit))
        h, v = self.hidden_dim, self.vocab_size
        if self.w_emit.shape[0] != h + v:
            raise ValueError(f"w_emit must have {h} + {v} rows, got {self.w_emit.shape[0]}")
        if not (np.isfinite(self.w_ctx).all() and np.isfinite(self.w_emit).all()):
            raise ValueError("policy parameters must be finite")
        # The digest once hashed; one table entry: (hidden bytes, table, row lists).
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_tabled", (b"", None, None))

    @property
    def context_dim(self) -> int:
        return self.w_ctx.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_ctx.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.w_emit.shape[1]

    @classmethod
    def zeros(cls, dims: PolicyDims) -> "PolicyParams":
        return cls(
            w_ctx=np.zeros((dims.context_dim, dims.hidden_dim)),
            w_emit=np.zeros((dims.hidden_dim + dims.vocab_size, dims.vocab_size)),
        )

    def fingerprint(self) -> str:
        """Stable content hash, used by the rollout-barrier checks.

        Hashes each tensor's shape and little-endian float64 bytes, on the
        first call only: the tensors cannot change.
        """
        if self._digest is None:
            digest = hashlib.sha256()
            for tensor in (self.w_ctx, self.w_emit):
                digest.update(struct.pack("<2q", *tensor.shape) + tensor.astype("<f8").tobytes())
            object.__setattr__(self, "_digest", digest.hexdigest())
        return self._digest


@dataclass
class PolicyGradient:
    w_ctx: np.ndarray
    w_emit: np.ndarray

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.w_ctx).all() and np.isfinite(self.w_emit).all())


@dataclass(frozen=True, eq=False)
class AdamState:
    """AdamW's step count and its first and second moments, each one flat
    read-only vector: ``w_ctx``'s entries, then ``w_emit``'s, in row-major order."""

    step: int
    m: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _read_only(self.m))
        object.__setattr__(self, "v", _read_only(self.v))

    @classmethod
    def zeros(cls, params: PolicyParams) -> "AdamState":
        size = params.w_ctx.size + params.w_emit.size
        return cls(step=0, m=np.zeros(size), v=np.zeros(size))


def _hidden(params: PolicyParams, ctx: np.ndarray) -> np.ndarray:
    ctx = np.asarray(ctx, dtype=np.float64)
    if ctx.shape != (params.context_dim,):
        raise ValueError(f"context must have shape ({params.context_dim},), got {ctx.shape}")
    return ctx @ params.w_ctx


def _log_prob_table(params: PolicyParams, hidden: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(V + 1, V) next-token log-probabilities for one context, read-only,
    and the table's row lists: log-probabilities, cumulative probabilities
    and each row's p . log p.

    Row 0 is position 0 (no previous token); row 1 + j follows token j.
    Both are kept on ``params`` under the bytes of ``hidden`` and returned
    again for a hidden vector with the same bytes: ``params.w_emit``, the
    table's other input, is fixed.
    """
    key = hidden.tobytes()
    if params._tabled[0] == key:
        return params._tabled[1:]
    base = hidden @ params.w_emit[: params.hidden_dim]
    logits = np.empty((params.vocab_size + 1, params.vocab_size))
    logits[0] = base
    logits[1:] = base + params.w_emit[params.hidden_dim :]
    shifted = logits - logits.max(axis=1, keepdims=True)
    table = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    table.flags.writeable = False
    p = np.exp(table)
    # einsum, not a BLAS dot: its bits do not depend on the BLAS library.
    dots = np.einsum("ij,ij->i", p, table)
    rows = (table.tolist(), np.cumsum(p, axis=1).tolist(), dots.tolist())
    object.__setattr__(params, "_tabled", (key, table, rows))
    return table, rows


@dataclass(frozen=True)
class ContextTable:
    """One context's (V + 1, V) table as row lists, with each row's cumulative
    probabilities and p . log p, under one ``PolicyParams``."""

    ctx: np.ndarray
    log_p_rows: list[list[float]]
    cdf_rows: list[list[float]]
    row_dots: list[float]


def context_table(params: PolicyParams, ctx: np.ndarray) -> ContextTable:
    """The table of context vector ``ctx`` under ``params``; a table that
    repeats shares its row lists too."""
    _, rows = _log_prob_table(params, _hidden(params, ctx))
    return ContextTable(np.asarray(ctx, dtype=np.float64), *rows)


def sample_sequence(table: ContextTable, rng: np.random.Generator, length: int) -> TokenSequence:
    """Autoregressively sample ``length`` tokens, recording their logprobs.

    Draws exactly ``length`` uniforms from ``rng``, one per token in order.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    cdf_rows, log_p_rows = table.cdf_rows, table.log_p_rows
    last = len(log_p_rows[0]) - 1
    tokens, logprobs = [], []
    row = 0
    for u in rng.random(length).tolist():
        # Same index as np.searchsorted(cdf_row, u, side="right").
        token = bisect.bisect_right(cdf_rows[row], u)
        if token > last:
            token = last
        tokens.append(token)
        logprobs.append(log_p_rows[row][token])
        row = token + 1
    return TokenSequence._trusted(tuple(tokens), tuple(logprobs))


def token_entropy(table: ContextTable, seq: TokenSequence) -> float:
    """Mean per-position categorical entropy (nats); 0.0 for no tokens."""
    row_dots = table.row_dots
    total, row = 0.0, 0
    for token in seq.tokens:
        total -= row_dots[row]
        row = token + 1
    return total / len(seq) if len(seq) else 0.0


def broadcast_advantage(advantages: np.ndarray, length: int) -> np.ndarray:
    """Each sequence's response-level scalar copied to its ``length`` tokens:
    the group's (n, length) advantage block."""
    return np.repeat(advantages[:, None], length, axis=1)


def _clip_terms(
    new_logp: np.ndarray,
    old_logp: np.ndarray,
    adv_tok: np.ndarray,
    clip: ClipConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token surrogate objective and its derivative wrt new_logp.

    The derivative follows the min structure: where the clipped branch is
    strictly smaller the objective is constant in the ratio, so the token
    contributes zero gradient.
    """
    ratio = np.exp(new_logp - old_logp)
    unclipped = ratio * adv_tok
    clipped = np.clip(ratio, 1.0 - clip.eps_lo, 1.0 + clip.eps_hi) * adv_tok
    objective = np.minimum(unclipped, clipped)
    dobj = np.where(unclipped <= clipped, unclipped, 0.0)
    return objective, dobj


def loss_and_gradient(
    params: PolicyParams,
    ctx: np.ndarray,
    tokens: np.ndarray,
    old_logprobs: np.ndarray,
    advantages: np.ndarray,
    clip: ClipConfig,
) -> tuple[float, PolicyGradient]:
    """Surrogate loss and its analytic gradient over one rollout group.

    ``tokens``, ``old_logprobs`` and per-token ``advantages`` are (n, L)
    arrays, one row per sequence, all sampled under the group's one context
    vector ``ctx``; the mean runs over all n * L tokens. The context's table
    is the one the rollout built, kept by ``_log_prob_table``, and the block
    is checked, looked up and clipped as one array. The backward pass sums
    each token's derivative into its table row with one bincount and then
    works per row, never per token, so a row that no token reads adds
    exactly zero.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    old_logprobs = np.asarray(old_logprobs, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    shapes = (tokens.shape, old_logprobs.shape, advantages.shape)
    if tokens.ndim != 2 or len(set(shapes)) != 1:
        raise ValueError(f"tokens, old_logprobs and advantages need one (n, L) shape, got {shapes}")
    total = tokens.size
    if total == 0:
        raise EmptyBatchError("no tokens in the batch")
    length = tokens.shape[1]
    outside = (tokens < 0) | (tokens >= params.vocab_size)
    if outside.any():
        bad = int(np.argmax(outside))
        raise InvalidTokenError(
            f"token {tokens.flat[bad]} at position {bad % length} "
            f"outside vocabulary of {params.vocab_size}"
        )

    hidden = _hidden(params, ctx)
    table, _ = _log_prob_table(params, hidden)
    # Table row of each position: 1 + the previous token of its own
    # sequence, or 0 at a sequence start.
    rows = np.zeros_like(tokens)
    rows[:, 1:] = tokens[:, :-1] + 1

    objective, dobj = _clip_terms(table[rows, tokens], old_logprobs, advantages, clip)
    nonfinite = ~np.isfinite(objective)
    if nonfinite.any():
        bad = int(np.argmax(nonfinite))
        raise NumericFailureError(f"non-finite surrogate term at token index {bad % length}")
    # Row sums, subtracted in row order, have each sequence's own .sum() bits.
    loss_acc = 0.0
    for seq_sum in objective.sum(axis=1).tolist():
        loss_acc -= seq_sum
    # dL/d new_logp_t, including the -1/M of the negated mean. A token adds
    # dlogp_t * (onehot(token) - p) to its row's dlogits, so each row's
    # dlogits are its weighted token counts C minus rowsum(C) * p.
    counts = np.bincount(
        (rows * params.vocab_size + tokens).ravel(),
        weights=(-dobj / total).ravel(),
        minlength=table.size,
    ).reshape(table.shape)
    dlogits = counts - counts.sum(axis=1, keepdims=True) * np.exp(table)
    # Every row of the table adds the base logits.
    dbase = dlogits.sum(axis=0)
    grad = PolicyGradient(
        w_ctx=np.outer(ctx, params.w_emit[: params.hidden_dim] @ dbase),
        w_emit=np.concatenate([np.outer(hidden, dbase), dlogits[1:]]),
    )

    loss = loss_acc / total
    if not (np.isfinite(loss) and grad.is_finite()):
        raise NumericFailureError("non-finite loss or gradient")
    return loss, grad


def grad_norm(grad: PolicyGradient) -> float:
    """Global L2 norm across all parameter gradients; inf where a square overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(grad.w_ctx**2) + np.sum(grad.w_emit**2)))


def optimizer_step(
    params: PolicyParams,
    grad: PolicyGradient,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.1,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-8,
) -> tuple[PolicyParams, AdamState, bool]:
    """One AdamW update with decoupled weight decay and bias correction.

    Runs over one flat vector of all parameters, in ``AdamState``'s order,
    and returns new params and state. A non-finite gradient, or an update
    that overflows a parameter, rejects the step: the original params and
    state are returned with ``applied`` False.
    """
    if not grad.is_finite():
        return params, state, False

    step = state.step + 1
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step

    w = np.concatenate([params.w_ctx.ravel(), params.w_emit.ravel()])
    g = np.concatenate([grad.w_ctx.ravel(), grad.w_emit.ravel()])
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + eps)
    with np.errstate(over="ignore", invalid="ignore"):
        new_w = w - lr * update - lr * weight_decay * w

    split = params.w_ctx.size
    try:
        new_params = PolicyParams(
            new_w[:split].reshape(params.w_ctx.shape),
            new_w[split:].reshape(params.w_emit.shape),
        )
    except ValueError:  # the update overflowed a parameter
        return params, state, False
    return new_params, AdamState(step=step, m=m, v=v), True
