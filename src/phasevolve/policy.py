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
block at once. Parameters, gradient and AdamW moments are each one flat
vector, ``w_ctx``'s entries then ``w_emit``'s, and ``w_ctx`` and ``w_emit``
are views of it: the loss writes one buffer and AdamW concatenates nothing.

``PolicyParams``, ``AdamState`` and ``TokenSequence`` are frozen, with
read-only arrays. Their public constructors copy and check their input;
``optimizer_step`` and ``sample_sequence`` build theirs over what they just
made, uncopied. So a ``PolicyParams`` hashes itself once, and keeps one
table with its row lists and exp(table), keyed by the bytes of the hidden
vector: with ``w_emit`` fixed, the table depends on nothing else.
The loss reads the table the rollout just built.
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
import math
import struct
from dataclasses import dataclass, field

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
        used = raw[:context_dim]
        if not all(map(math.isfinite, used)):
            raise ValueError(f"non-finite context features: {raw}")
        return np.array(used + (0.0,) * (context_dim - len(used)), dtype=np.float64)


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


def _split(flat: np.ndarray, ctx_shape: tuple, emit_shape: tuple) -> tuple:
    """The ``w_ctx`` and ``w_emit`` views of a flat parameter-ordered vector."""
    split = math.prod(ctx_shape)
    return flat[:split].reshape(ctx_shape), flat[split:].reshape(emit_shape)


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Read-only float64 policy parameters: context projection + per-step emission,
    views of ``flat``. The constructor copies its 2-d tensors into ``flat``."""

    w_ctx: np.ndarray
    w_emit: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w_ctx = np.asarray(self.w_ctx, dtype=np.float64)
        w_emit = np.asarray(self.w_emit, dtype=np.float64)
        if w_ctx.ndim != 2 or w_emit.ndim != 2:
            raise ValueError(f"w_ctx and w_emit must be 2-d, got {w_ctx.shape} and {w_emit.shape}")
        h, v = w_ctx.shape[1], w_emit.shape[1]
        if w_emit.shape[0] != h + v:
            raise ValueError(f"w_emit must have {h} + {v} rows, got {w_emit.shape[0]}")
        flat = np.concatenate((w_ctx.ravel(), w_emit.ravel()))
        if not np.isfinite(flat).all():
            raise ValueError("policy parameters must be finite")
        self._hold(flat, w_ctx.shape, w_emit.shape)

    def _hold(self, flat: np.ndarray, ctx_shape: tuple, emit_shape: tuple) -> None:
        """Keep ``flat``, a float64 vector no one else holds, uncopied and read-only."""
        flat.flags.writeable = False
        w_ctx, w_emit = _split(flat, ctx_shape, emit_shape)
        # A frozen instance's fields, written once here. The digest once hashed;
        # one table entry: (hidden bytes, table, row lists, exp(table)).
        self.__dict__.update(flat=flat, w_ctx=w_ctx, w_emit=w_emit, _digest=None,
                             _tabled=(b"", None, None, None))

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
                digest.update(struct.pack("<2q", *tensor.shape))
                digest.update(tensor.astype("<f8", copy=False))  # contiguous views: no copy
            object.__setattr__(self, "_digest", digest.hexdigest())
        return self._digest


@dataclass(eq=False)
class PolicyGradient:
    """Writable views of one float64 buffer ``flat``, in ``PolicyParams.flat``'s
    order. The constructor copies its tensors into ``flat``."""

    w_ctx: np.ndarray
    w_emit: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shapes = np.shape(self.w_ctx), np.shape(self.w_emit)
        self.flat = np.concatenate((np.ravel(self.w_ctx), np.ravel(self.w_emit)), dtype=np.float64)
        self.w_ctx, self.w_emit = _split(self.flat, *shapes)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


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
        return cls(step=0, m=np.zeros(params.flat.size), v=np.zeros(params.flat.size))


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
    Both are kept on ``params`` under the bytes of ``hidden``, with the
    table's probabilities exp(table) for the loss, and returned again for a
    hidden vector with the same bytes: ``params.w_emit``, the table's other
    input, is fixed.
    """
    key = hidden.tobytes()
    if params._tabled[0] == key:
        return params._tabled[1:3]
    base = hidden @ params.w_emit[: params.hidden_dim]
    logits = np.empty((params.vocab_size + 1, params.vocab_size))
    logits[0] = base
    logits[1:] = base + params.w_emit[params.hidden_dim :]
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    table = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    table.flags.writeable = False
    p = np.exp(table)
    # einsum, not a BLAS dot: its bits do not depend on the BLAS library.
    dots = np.einsum("ij,ij->i", p, table)
    rows = (table.tolist(), np.add.accumulate(p, axis=1).tolist(), dots.tolist())
    object.__setattr__(params, "_tabled", (key, table, rows, p))
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
    ctx = np.asarray(ctx, dtype=np.float64)
    log_p_rows, cdf_rows, row_dots = _log_prob_table(params, _hidden(params, ctx))[1]
    table = object.__new__(ContextTable)  # the fields __init__ sets, without its setattr calls
    table.__dict__.update(ctx=ctx, log_p_rows=log_p_rows, cdf_rows=cdf_rows, row_dots=row_dots)
    return table


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
    # np.clip's bits, without its Python-level dispatch.
    clipped = np.minimum(np.maximum(ratio, 1.0 - clip.eps_lo), 1.0 + clip.eps_hi) * adv_tok
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
    length, vocab = tokens.shape[1], params.vocab_size
    if tokens.min() < 0 or tokens.max() >= vocab:
        bad = int(np.argmax((tokens < 0) | (tokens >= vocab)))
        raise InvalidTokenError(
            f"token {tokens.flat[bad]} at position {bad % length} outside vocabulary of {vocab}"
        )

    ctx = np.asarray(ctx, dtype=np.float64)
    hidden = _hidden(params, ctx)
    table, _ = _log_prob_table(params, hidden)
    p = params._tabled[3]  # exp(table), kept with it
    # Flat table index of each position: its row is 1 + the previous token of
    # its own sequence, or 0 at a sequence start.
    index = tokens.copy()
    index[:, 1:] += (tokens[:, :-1] + 1) * vocab

    objective, dobj = _clip_terms(table.take(index), old_logprobs, advantages, clip)
    if not np.isfinite(objective).all():
        bad = int(np.argmax(~np.isfinite(objective)))
        raise NumericFailureError(f"non-finite surrogate term at token index {bad % length}")
    # Row sums, subtracted in row order, have each sequence's own .sum() bits.
    loss_acc = 0.0
    for seq_sum in np.add.reduce(objective, axis=1).tolist():
        loss_acc -= seq_sum
    # dL/d new_logp_t, including the -1/M of the negated mean. A token adds
    # dlogp_t * (onehot(token) - p) to its row's dlogits, so each row's
    # dlogits are its weighted token counts C minus rowsum(C) * p.
    counts = np.bincount(
        index.ravel(), weights=np.divide(dobj, -total).ravel(), minlength=table.size
    ).reshape(table.shape)
    dlogits = counts - np.add.reduce(counts, axis=1, keepdims=True) * p
    # Every row of the table adds the base logits. The outer products go
    # straight into the gradient's one buffer, with np.outer's bits.
    dbase = np.add.reduce(dlogits, axis=0)
    h = params.hidden_dim
    grad = object.__new__(PolicyGradient)
    grad.flat = np.empty(params.flat.size)
    grad.w_ctx, grad.w_emit = _split(grad.flat, params.w_ctx.shape, params.w_emit.shape)
    np.multiply(ctx[:, None], params.w_emit[:h] @ dbase, out=grad.w_ctx)
    np.multiply(hidden[:, None], dbase, out=grad.w_emit[:h])
    grad.w_emit[h:] = dlogits[1:]

    loss = loss_acc / total
    if not (math.isfinite(loss) and grad.is_finite()):
        raise NumericFailureError("non-finite loss or gradient")
    return loss, grad


def grad_norm(grad: PolicyGradient) -> float:
    """Global L2 norm across all parameter gradients; inf where a square overflows."""
    with np.errstate(over="ignore"):
        # np.sum's bits, one sum per tensor, without its Python-level dispatch.
        squares = np.add.reduce(grad.w_ctx**2, axis=None) + np.add.reduce(grad.w_emit**2, axis=None)
        return float(np.sqrt(squares))


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

    Runs over ``params.flat``, ``grad.flat`` and the moments, which must be
    flat vectors of one size (else ``ValueError``), and returns new params
    and state over the vectors it computed, uncopied. A non-finite gradient,
    or an update that overflows a parameter, rejects the step: the original
    params and state are returned with ``applied`` False.
    """
    if not grad.flat.shape == state.m.shape == state.v.shape == params.flat.shape:
        raise ValueError(f"gradient and moments must be flat vectors of {params.flat.size} entries,"
                         f" got {grad.flat.shape}, {state.m.shape} and {state.v.shape}")
    if not grad.is_finite():
        return params, state, False

    step = state.step + 1
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step

    w, g = params.flat, grad.flat
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    update = (m / bc1) / (np.sqrt(v / bc2) + eps)
    with np.errstate(over="ignore", invalid="ignore"):
        new_w = w - lr * update - lr * weight_decay * w
    if not np.isfinite(new_w).all():  # the update overflowed a parameter
        return params, state, False
    # New objects over the fresh vectors: the constructors' values, uncopied.
    new_params = object.__new__(PolicyParams)
    new_params._hold(new_w, params.w_ctx.shape, params.w_emit.shape)
    new_state = object.__new__(AdamState)
    m.flags.writeable = v.flags.writeable = False
    new_state.__dict__.update(step=step, m=m, v=v)
    return new_params, new_state, True
