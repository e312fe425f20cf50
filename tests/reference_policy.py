"""Per-token reference implementation of the policy's forward and backward passes.

This is the original position-by-position code: one log-softmax per token,
recomputed wherever it is needed. ``phasevolve.policy`` reads the same
distributions from one per-context table, and the oracle tests require
tables, sampling, entropy and the loss to agree with this code bit for bit.
Its backward pass sums the same terms per table row instead of per token, so
gradients agree to rtol 1e-12, atol 1e-13, and exactly where no token
contributes. ``surrogate_loss`` is the stand-alone form of the loss inside
``loss_and_gradient``; it takes a ragged list of (context, sequence,
advantages) triples, while the package's loss takes one group's (n, L)
block, which ``stack_group`` builds from equal-length sequences.
``optimizer_step`` is the two-tensor AdamW loop, with one pair of moments
per tensor in ``TwoTensorAdamState``; the package's flat update must give
the same bits. ``random_params`` builds the parameters the tests start
from, ``with_entry`` a copy with one entry changed, and ``save_params`` and
``load_params`` write and read them as a small binary dump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from phasevolve.policy import (
    ClipConfig,
    EmptyBatchError,
    InvalidTokenError,
    NumericFailureError,
    PolicyDims,
    PolicyGradient,
    PolicyParams,
    TokenSequence,
    _clip_terms,
    _hidden,
)


def random_params(
    dims: PolicyDims, rng: np.random.Generator, scale: float = 0.01
) -> PolicyParams:
    return PolicyParams(
        w_ctx=scale * rng.standard_normal((dims.context_dim, dims.hidden_dim)),
        w_emit=scale
        * rng.standard_normal((dims.hidden_dim + dims.vocab_size, dims.vocab_size)),
    )


def with_entry(params: PolicyParams, name: str, idx: tuple, value: float) -> PolicyParams:
    """A copy of ``params`` whose tensor ``name`` holds ``value`` at ``idx``;
    parameters are read-only, so a perturbation builds a new object."""
    tensors = {"w_ctx": params.w_ctx.copy(), "w_emit": params.w_emit.copy()}
    tensors[name][idx] = value
    return PolicyParams(**tensors)


def save_params(params: PolicyParams, path) -> None:
    """Dump as an ASCII shape header plus raw little-endian float64 rows."""
    with open(path, "wb") as fh:
        fh.write(b"phasevolve-params 1\n")
        for name in ("w_ctx", "w_emit"):
            tensor = getattr(params, name)
            dims = " ".join(str(d) for d in tensor.shape)
            fh.write(f"{name} {dims}\n".encode())
        fh.write(b"\n")
        for name in ("w_ctx", "w_emit"):
            fh.write(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes())


def load_params(path) -> PolicyParams:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"phasevolve-params 1":
            raise ValueError(f"unrecognized parameter dump header: {magic!r}")
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
    return PolicyParams(tensors["w_ctx"], tensors["w_emit"])


def zero_gradient(params: PolicyParams) -> PolicyGradient:
    return PolicyGradient(np.zeros_like(params.w_ctx), np.zeros_like(params.w_emit))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def step_logits(params: PolicyParams, hidden: np.ndarray, prev_token: int | None) -> np.ndarray:
    # One-hot previous token selects a single emission row; position 0 has no
    # predecessor and uses the all-zero one-hot.
    logits = hidden @ params.w_emit[: params.hidden_dim]
    if prev_token is not None:
        logits = logits + params.w_emit[params.hidden_dim + prev_token]
    return logits


def sample_sequence(
    params: PolicyParams, ctx: np.ndarray, rng: np.random.Generator, length: int
) -> TokenSequence:
    """Autoregressively sample ``length`` tokens, one uniform draw per token."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    hidden = _hidden(params, ctx)
    tokens = np.empty(length, dtype=np.int64)
    logprobs = np.empty(length)
    prev: int | None = None
    for t in range(length):
        log_p = log_softmax(step_logits(params, hidden, prev))
        cdf = np.cumsum(np.exp(log_p))
        token = int(np.searchsorted(cdf, rng.random(), side="right"))
        token = min(token, params.vocab_size - 1)
        tokens[t] = token
        logprobs[t] = log_p[token]
        prev = token
    return TokenSequence(tokens=tokens, old_logprobs=logprobs)


def sequence_logprobs(params: PolicyParams, ctx: np.ndarray, seq: TokenSequence) -> np.ndarray:
    tokens = np.asarray(seq.tokens, dtype=np.int64)
    if np.any(tokens < 0) or np.any(tokens >= params.vocab_size):
        bad = int(np.argmax((tokens < 0) | (tokens >= params.vocab_size)))
        raise InvalidTokenError(
            f"token {tokens[bad]} at position {bad} outside vocabulary of {params.vocab_size}"
        )
    hidden = _hidden(params, ctx)
    out = np.empty(len(seq))
    prev: int | None = None
    for t, token in enumerate(seq.tokens):
        log_p = log_softmax(step_logits(params, hidden, prev))
        out[t] = log_p[token]
        prev = int(token)
    return out


def token_entropy(params: PolicyParams, ctx: np.ndarray, seq: TokenSequence) -> float:
    hidden = _hidden(params, ctx)
    total = 0.0
    prev: int | None = None
    for token in seq.tokens:
        log_p = log_softmax(step_logits(params, hidden, prev))
        total -= float(np.einsum("i,i->", np.exp(log_p), log_p))
        prev = int(token)
    return total / len(seq) if len(seq) else 0.0


def surrogate_loss(
    new_logp: np.ndarray,
    old_logp: np.ndarray,
    adv_tok: np.ndarray,
    clip: ClipConfig,
) -> float:
    """Clipped surrogate: -mean over tokens of min(rA, clip(r)A)."""
    new_logp = np.asarray(new_logp, dtype=np.float64)
    old_logp = np.asarray(old_logp, dtype=np.float64)
    adv_tok = np.asarray(adv_tok, dtype=np.float64)
    if not (new_logp.shape == old_logp.shape == adv_tok.shape):
        raise ValueError("new_logp, old_logp and adv_tok must share a shape")
    if new_logp.size == 0:
        raise EmptyBatchError("no tokens in the batch")
    objective, _ = _clip_terms(new_logp, old_logp, adv_tok, clip)
    return float(-objective.mean())


def loss_and_gradient(
    params: PolicyParams,
    batch: list[tuple[np.ndarray, TokenSequence, np.ndarray]],
    clip: ClipConfig,
) -> tuple[float, PolicyGradient]:
    total = sum(len(seq) for _, seq, _ in batch)
    if total == 0:
        raise EmptyBatchError("no tokens in the batch")

    h_dim = params.hidden_dim
    grad = zero_gradient(params)
    loss_acc = 0.0
    for ctx, seq, adv_tok in batch:
        ctx = np.asarray(ctx, dtype=np.float64)
        new_logp = sequence_logprobs(params, ctx, seq)
        objective, dobj = _clip_terms(new_logp, seq.old_logprobs, adv_tok, clip)
        if not np.all(np.isfinite(objective)):
            bad = int(np.flatnonzero(~np.isfinite(objective))[0])
            raise NumericFailureError(f"non-finite surrogate term at token index {bad}")
        loss_acc -= float(objective.sum())
        # dL/d new_logp_t, including the -1/M of the negated mean.
        dlogp = -dobj / total

        hidden = _hidden(params, ctx)
        dhidden = np.zeros(h_dim)
        prev: int | None = None
        for t, token in enumerate(seq.tokens):
            token = int(token)
            if dlogp[t] != 0.0:
                log_p = log_softmax(step_logits(params, hidden, prev))
                dlogits = -np.exp(log_p) * dlogp[t]
                dlogits[token] += dlogp[t]
                grad.w_emit[:h_dim] += np.outer(hidden, dlogits)
                if prev is not None:
                    grad.w_emit[h_dim + prev] += dlogits
                dhidden += params.w_emit[:h_dim] @ dlogits
            prev = token
        grad.w_ctx += np.outer(ctx, dhidden)

    loss = loss_acc / total
    if not (np.isfinite(loss) and grad.is_finite()):
        raise NumericFailureError("non-finite loss or gradient")
    return loss, grad


def stack_group(
    batch: list[tuple[TokenSequence, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-length (sequence, per-token advantages) pairs as the (n, L)
    tokens, old log-probs and advantages of ``policy.loss_and_gradient``."""
    return (
        np.array([seq.tokens for seq, _ in batch]),
        np.array([seq.old_logprobs for seq, _ in batch]),
        np.array([adv for _, adv in batch]),
    )


@dataclass
class TwoTensorAdamState:
    step: int
    m_ctx: np.ndarray
    v_ctx: np.ndarray
    m_emit: np.ndarray
    v_emit: np.ndarray

    @classmethod
    def zeros(cls, params: PolicyParams) -> "TwoTensorAdamState":
        return cls(
            step=0,
            m_ctx=np.zeros_like(params.w_ctx),
            v_ctx=np.zeros_like(params.w_ctx),
            m_emit=np.zeros_like(params.w_emit),
            v_emit=np.zeros_like(params.w_emit),
        )


def optimizer_step(
    params: PolicyParams,
    grad: PolicyGradient,
    state: TwoTensorAdamState,
    lr: float,
    weight_decay: float = 0.1,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-8,
) -> tuple[PolicyParams, TwoTensorAdamState, bool]:
    """One AdamW update with decoupled weight decay and bias correction.

    A non-finite gradient, or an update that overflows a parameter, rejects
    the step: the original params and state are returned unchanged with
    ``applied`` False.
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
        with np.errstate(over="ignore", invalid="ignore"):
            new_tensors[name] = w - lr * update - lr * weight_decay * w
        new_moments[name] = (m, v)

    try:
        new_params = PolicyParams(new_tensors["ctx"], new_tensors["emit"])
    except ValueError:  # the update overflowed a parameter
        return params, state, False
    new_state = TwoTensorAdamState(
        step=step,
        m_ctx=new_moments["ctx"][0],
        v_ctx=new_moments["ctx"][1],
        m_emit=new_moments["emit"][0],
        v_emit=new_moments["emit"][1],
    )
    return new_params, new_state, True
