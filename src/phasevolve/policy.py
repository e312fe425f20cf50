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
position after token j. A masked-out token is padding and leaves the row
unchanged. Sampling, log-probabilities, entropy and the loss each build the
table once per context and read every position from it.

Everything is float64 and hand-differentiated; ``loss_and_gradient`` is the
only code path that produces gradients, and it is checked against central
finite differences in the test suite. Table rows hold exactly the values a
per-token log-softmax gives, and the batched backward pass adds its terms in
the order of a token-by-token loop, so results match that loop bit for bit
(``tests/reference_policy.py`` keeps it as the oracle).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np


class InvalidTokenError(ValueError):
    """Token id outside the vocabulary."""


class EmptyBatchError(ValueError):
    """No masked-in tokens to average the loss over."""


class NumericFailureError(RuntimeError):
    """Non-finite intermediate in the loss/gradient computation."""


@dataclass(frozen=True)
class PolicyDims:
    context_dim: int = 8
    hidden_dim: int = 32
    vocab_size: int = 24
    max_tokens: int = 8

    def __post_init__(self) -> None:
        for name in ("context_dim", "hidden_dim", "vocab_size", "max_tokens"):
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


@dataclass
class TokenSequence:
    tokens: np.ndarray
    mask: np.ndarray
    old_logprobs: np.ndarray

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.mask = np.asarray(self.mask, dtype=np.int64)
        self.old_logprobs = np.asarray(self.old_logprobs, dtype=np.float64)
        if not (len(self.tokens) == len(self.mask) == len(self.old_logprobs)):
            raise ValueError("tokens, mask and old_logprobs must have equal length")
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise ValueError("mask entries must be 0 or 1")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def masked_in(self) -> np.ndarray:
        return self.mask == 1


@dataclass
class PolicyParams:
    """Float64 policy parameters: context projection + per-step emission."""

    w_ctx: np.ndarray
    w_emit: np.ndarray
    max_tokens: int = 8

    def __post_init__(self) -> None:
        self.w_ctx = np.asarray(self.w_ctx, dtype=np.float64)
        self.w_emit = np.asarray(self.w_emit, dtype=np.float64)
        h = self.w_ctx.shape[1]
        v = self.w_emit.shape[1]
        if self.w_emit.shape[0] != h + v:
            raise ValueError(
                f"w_emit must have {h} + {v} rows, got {self.w_emit.shape[0]}"
            )
        if not (np.all(np.isfinite(self.w_ctx)) and np.all(np.isfinite(self.w_emit))):
            raise ValueError("policy parameters must be finite")

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
            max_tokens=dims.max_tokens,
        )

    @classmethod
    def random(
        cls, dims: PolicyDims, rng: np.random.Generator, scale: float = 0.01
    ) -> "PolicyParams":
        return cls(
            w_ctx=scale * rng.standard_normal((dims.context_dim, dims.hidden_dim)),
            w_emit=scale
            * rng.standard_normal((dims.hidden_dim + dims.vocab_size, dims.vocab_size)),
            max_tokens=dims.max_tokens,
        )

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.w_ctx.copy(), self.w_emit.copy(), self.max_tokens)

    def fingerprint(self) -> str:
        """Stable content hash, used by the rollout-barrier checks."""
        digest = hashlib.sha256()
        for tensor in (self.w_ctx, self.w_emit):
            digest.update(struct.pack("<2q", *tensor.shape))
            digest.update(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
        return digest.hexdigest()

    def save(self, path) -> None:
        """Dump as an ASCII shape header plus raw little-endian float64 rows."""
        with open(path, "wb") as fh:
            fh.write(b"phasevolve-params 1\n")
            fh.write(f"max_tokens {self.max_tokens}\n".encode())
            for name in ("w_ctx", "w_emit"):
                tensor = getattr(self, name)
                dims = " ".join(str(d) for d in tensor.shape)
                fh.write(f"{name} {dims}\n".encode())
            fh.write(b"\n")
            for name in ("w_ctx", "w_emit"):
                fh.write(np.ascontiguousarray(getattr(self, name), dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "PolicyParams":
        with open(path, "rb") as fh:
            magic = fh.readline().strip()
            if magic != b"phasevolve-params 1":
                raise ValueError(f"unrecognized parameter dump header: {magic!r}")
            max_tokens = int(fh.readline().split()[1])
            shapes: list[tuple[str, tuple[int, ...]]] = []
            while True:
                line = fh.readline().strip()
                if not line:
                    break
                parts = line.split()
                shapes.append((parts[0].decode(), tuple(int(p) for p in parts[1:])))
            tensors = {}
            for name, shape in shapes:
                count = int(np.prod(shape))
                data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
                tensors[name] = data.reshape(shape).astype(np.float64)
        return cls(tensors["w_ctx"], tensors["w_emit"], max_tokens=max_tokens)


@dataclass
class PolicyGradient:
    w_ctx: np.ndarray
    w_emit: np.ndarray

    @classmethod
    def zeros_like(cls, params: PolicyParams) -> "PolicyGradient":
        return cls(np.zeros_like(params.w_ctx), np.zeros_like(params.w_emit))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.w_ctx)) and np.all(np.isfinite(self.w_emit)))


@dataclass
class AdamState:
    step: int
    m_ctx: np.ndarray
    v_ctx: np.ndarray
    m_emit: np.ndarray
    v_emit: np.ndarray

    @classmethod
    def zeros(cls, params: PolicyParams) -> "AdamState":
        return cls(
            step=0,
            m_ctx=np.zeros_like(params.w_ctx),
            v_ctx=np.zeros_like(params.w_ctx),
            m_emit=np.zeros_like(params.w_emit),
            v_emit=np.zeros_like(params.w_emit),
        )


def _hidden(params: PolicyParams, ctx: np.ndarray) -> np.ndarray:
    ctx = np.asarray(ctx, dtype=np.float64)
    if ctx.shape != (params.context_dim,):
        raise ValueError(f"context must have shape ({params.context_dim},), got {ctx.shape}")
    return ctx @ params.w_ctx


def _log_prob_table(params: PolicyParams, hidden: np.ndarray) -> np.ndarray:
    """(V + 1, V) next-token log-probabilities for one context.

    Row 0 is position 0 (no previous token); row 1 + j follows token j.
    """
    base = hidden @ params.w_emit[: params.hidden_dim]
    logits = np.empty((params.vocab_size + 1, params.vocab_size))
    logits[0] = base
    logits[1:] = base + params.w_emit[params.hidden_dim :]
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _table_rows(seq: TokenSequence) -> np.ndarray:
    """Table row of each position: 1 + the last masked-in token before it, else 0.

    Masked-out tokens are padding: they never enter the autoregressive state,
    so perturbing them cannot leak into the loss of later positions.
    """
    rows = np.empty(len(seq), dtype=np.intp)
    row = 0
    for t, (token, valid) in enumerate(zip(seq.tokens.tolist(), seq.mask.tolist())):
        rows[t] = row
        if valid:
            row = token + 1
    return rows


def _check_tokens(params: PolicyParams, seq: TokenSequence) -> None:
    if np.any(seq.tokens < 0) or np.any(seq.tokens >= params.vocab_size):
        bad = int(np.argmax((seq.tokens < 0) | (seq.tokens >= params.vocab_size)))
        raise InvalidTokenError(
            f"token {seq.tokens[bad]} at position {bad} outside vocabulary of {params.vocab_size}"
        )


def sample_sequence(
    params: PolicyParams, ctx: np.ndarray, rng: np.random.Generator, length: int
) -> TokenSequence:
    """Autoregressively sample ``length`` tokens, recording their logprobs.

    Draws exactly ``length`` uniforms from ``rng``, one per token in order.
    """
    if not 1 <= length <= params.max_tokens:
        raise ValueError(f"length {length} outside [1, {params.max_tokens}]")
    table = _log_prob_table(params, _hidden(params, ctx))
    cdf = np.cumsum(np.exp(table), axis=1)
    tokens = np.empty(length, dtype=np.int64)
    logprobs = np.empty(length)
    row = 0
    for t, u in enumerate(rng.random(length)):
        token = min(int(np.searchsorted(cdf[row], u, side="right")), params.vocab_size - 1)
        tokens[t] = token
        logprobs[t] = table[row, token]
        row = token + 1
    return TokenSequence(tokens=tokens, mask=np.ones(length, dtype=np.int64), old_logprobs=logprobs)


def sequence_logprobs(params: PolicyParams, ctx: np.ndarray, seq: TokenSequence) -> np.ndarray:
    """Log-probabilities of ``seq`` under the current parameters."""
    _check_tokens(params, seq)
    table = _log_prob_table(params, _hidden(params, ctx))
    return table[_table_rows(seq), seq.tokens]


def token_entropy(params: PolicyParams, ctx: np.ndarray, seq: TokenSequence) -> float:
    """Mean per-step categorical entropy (nats) over masked-in positions."""
    valid = seq.masked_in
    if not valid.any():
        return 0.0
    table = _log_prob_table(params, _hidden(params, ctx))
    log_p = table[_table_rows(seq)[valid]]
    # Stacked 1xV @ Vx1 products: one BLAS dot per position, as np.dot does.
    dots = np.matmul(np.exp(log_p)[:, None, :], log_p[:, :, None])
    total = 0.0
    for dot in dots.ravel().tolist():
        total -= dot
    return total / len(log_p)


def broadcast_advantage(advantage: float, seq: TokenSequence) -> np.ndarray:
    """Response-level scalar copied to every masked-in token (0 elsewhere)."""
    return advantage * seq.mask.astype(np.float64)


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
    batch: list[tuple[np.ndarray, TokenSequence, np.ndarray]],
    clip: ClipConfig,
) -> tuple[float, PolicyGradient]:
    """Surrogate loss and its analytic gradient over a rollout batch.

    ``batch`` holds (context vector, sequence, per-token advantages) triples;
    the mean runs over every masked-in token of the whole batch. The backward
    pass covers the M tokens with a nonzero derivative at once; every sum
    runs over those tokens in batch order, as a token-by-token loop would.
    """
    if not batch:
        raise EmptyBatchError("empty rollout batch")
    total_masked = sum(int(seq.mask.sum()) for _, seq, _ in batch)
    if total_masked == 0:
        raise EmptyBatchError("no masked-in tokens in the batch")

    h_dim = params.hidden_dim
    ctxs, hiddens = [], []
    seq_index, rows, tokens, log_p, dlogp = [], [], [], [], []
    loss_acc = 0.0
    for i, (ctx, seq, adv_tok) in enumerate(batch):
        _check_tokens(params, seq)
        hidden = _hidden(params, ctx)
        table = _log_prob_table(params, hidden)
        seq_rows = _table_rows(seq)
        objective, dobj = _clip_terms(
            table[seq_rows, seq.tokens], seq.old_logprobs, adv_tok, clip
        )
        valid = seq.masked_in
        if not np.all(np.isfinite(objective[valid])):
            bad = int(np.flatnonzero(valid & ~np.isfinite(objective))[0])
            raise NumericFailureError(f"non-finite surrogate term at token index {bad}")
        loss_acc -= float(objective[valid].sum())
        # dL/d new_logp_t, including the -1/M of the negated mean.
        seq_dlogp = np.where(valid, -dobj / total_masked, 0.0)
        live = seq_dlogp != 0.0
        ctxs.append(ctx)
        hiddens.append(hidden)
        seq_index.append(np.full(np.count_nonzero(live), i))
        rows.append(seq_rows[live])
        tokens.append(seq.tokens[live])
        log_p.append(table[seq_rows[live]])
        dlogp.append(seq_dlogp[live])

    seq_index = np.concatenate(seq_index)
    rows = np.concatenate(rows)
    dlogp = np.concatenate(dlogp)
    # dL/dlogits, one row per live token: (M, V).
    dlogits = -np.exp(np.concatenate(log_p)) * dlogp[:, None]
    dlogits[np.arange(len(dlogp)), np.concatenate(tokens)] += dlogp

    grad = PolicyGradient.zeros_like(params)
    hidden = np.stack(hiddens)[seq_index]
    grad.w_emit[:h_dim] = np.add.reduce(
        hidden[:, :, None] * dlogits[:, None, :], axis=0, initial=0.0
    )
    after = rows > 0
    np.add.at(grad.w_emit, h_dim - 1 + rows[after], dlogits[after])
    # W @ dlogits per token (one gemv each), summed per sequence in order.
    dhidden_tok = np.matmul(params.w_emit[:h_dim], dlogits[:, :, None])[:, :, 0]
    dhidden = np.zeros((len(batch), h_dim))
    np.add.at(dhidden, seq_index, dhidden_tok)
    grad.w_ctx[...] = np.add.reduce(
        np.stack(ctxs)[:, :, None] * dhidden[:, None, :], axis=0, initial=0.0
    )

    loss = loss_acc / total_masked
    if not (np.isfinite(loss) and grad.is_finite()):
        raise NumericFailureError("non-finite loss or gradient")
    return loss, grad


def grad_norm(grad: PolicyGradient) -> float:
    """Global L2 norm across all parameter gradients."""
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

    A non-finite gradient rejects the step: the original params and state are
    returned unchanged with ``applied`` False.
    """
    if not grad.is_finite():
        return params, state, False

    step = state.step + 1
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step

    new_tensors = {}
    new_moments = {}
    for name in ("ctx", "emit"):
        w = getattr(params, f"w_{name}")
        g = getattr(grad, f"w_{name}")
        m = beta1 * getattr(state, f"m_{name}") + (1.0 - beta1) * g
        v = beta2 * getattr(state, f"v_{name}") + (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        new_tensors[name] = w - lr * update - lr * weight_decay * w
        new_moments[name] = (m, v)

    new_params = PolicyParams(
        new_tensors["ctx"], new_tensors["emit"], max_tokens=params.max_tokens
    )
    new_state = AdamState(
        step=step,
        m_ctx=new_moments["ctx"][0],
        v_ctx=new_moments["ctx"][1],
        m_emit=new_moments["emit"][0],
        v_emit=new_moments["emit"][1],
    )
    return new_params, new_state, True
