"""The table-driven policy passes against the per-token reference, bit for bit.

Every comparison is exact (``np.array_equal`` or ``==``): the table holds the
same values a per-token log-softmax computes, and the batched backward pass
adds its terms in the reference loop's order. Sampling and entropy read one
shared table per context; the loss builds one per distinct context.
"""

import math

import numpy as np
import pytest
import reference_policy as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from phasevolve import policy as P
from phasevolve.policy import (
    ClipConfig,
    EmptyBatchError,
    InvalidTokenError,
    NumericFailureError,
    PolicyDims,
    PolicyParams,
    TokenSequence,
)

CLIP = ClipConfig()
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def setups(draw, max_seqs=4, pool=False):
    """Random params, then a batch of (context, sequence, per-token advantages).

    Masks are drawn position by position, so masked-out tokens appear in the
    middle of sequences as well as at their ends. With ``pool``, contexts are
    copies of one of 1-3 vectors, so equal contexts repeat within the batch
    as separate arrays.
    """
    dims = PolicyDims(
        context_dim=draw(st.integers(1, 4)),
        hidden_dim=draw(st.integers(1, 6)),
        vocab_size=draw(st.integers(1, 9)),
        max_tokens=draw(st.integers(1, 8)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = PolicyParams.random(dims, rng, scale=draw(st.sampled_from([0.01, 0.5, 3.0])))
    contexts = [rng.normal(size=dims.context_dim) for _ in range(draw(st.integers(1, 3)))]
    batch = []
    for _ in range(draw(st.integers(1, max_seqs))):
        length = draw(st.integers(1, dims.max_tokens))
        mask = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=length, max_size=length)))
        seq = TokenSequence(
            tokens=rng.integers(0, dims.vocab_size, size=length),
            mask=mask,
            old_logprobs=-rng.uniform(0.0, 3.0, size=length),
        )
        if pool:
            ctx = contexts[draw(st.integers(0, len(contexts) - 1))].copy()
        else:
            ctx = rng.normal(size=dims.context_dim)
        batch.append((ctx, seq, rng.normal(size=length) * mask))
    return params, batch


def assert_same_loss_and_gradient(params, batch):
    loss, grad = P.loss_and_gradient(params, batch, CLIP)
    ref_loss, ref_grad = ref.loss_and_gradient(params, batch, CLIP)
    assert loss == ref_loss
    assert np.array_equal(grad.w_ctx, ref_grad.w_ctx)
    assert np.array_equal(grad.w_emit, ref_grad.w_emit)
    return loss, grad


@SETTINGS
@given(setups(), st.integers(0, 2**32 - 1))
def test_sequence_logprobs_match_reference(setup, seed):
    # The sampler records each token's log-probability from the table; the
    # reference recomputes them with one log-softmax per position.
    params, batch = setup
    rng = np.random.default_rng(seed)
    for ctx, seq, _ in batch:
        sampled = P.sample_sequence(P.context_table(params, ctx), rng, len(seq))
        assert np.array_equal(sampled.old_logprobs, ref.sequence_logprobs(params, ctx, sampled))


@SETTINGS
@given(setups())
def test_token_entropy_matches_reference(setup):
    params, batch = setup
    for ctx, seq, _ in batch:
        table = P.context_table(params, ctx)
        assert P.token_entropy(table, seq) == ref.token_entropy(params, ctx, seq)


@SETTINGS
@given(setups(max_seqs=6))
def test_group_entropy_from_one_shared_table(setup):
    params, batch = setup
    ctx = batch[0][0]
    table = P.context_table(params, ctx)
    for _, seq, _ in batch:
        assert P.token_entropy(table, seq) == ref.token_entropy(params, ctx, seq)


@SETTINGS
@given(setups(max_seqs=6, pool=True))
def test_loss_with_repeated_contexts_matches_reference(setup):
    params, batch = setup
    if not any(seq.mask.any() for _, seq, _ in batch):
        return
    assert_same_loss_and_gradient(params, batch)


@SETTINGS
@given(setups())
def test_loss_and_gradient_match_reference(setup):
    params, batch = setup
    if not any(seq.mask.any() for _, seq, _ in batch):
        for impl in (P, ref):
            with pytest.raises(EmptyBatchError):
                impl.loss_and_gradient(params, batch, CLIP)
        return
    loss, _ = assert_same_loss_and_gradient(params, batch)
    # The stand-alone reference loss over the concatenated batch is the same
    # mean, summed in another order.
    new = np.concatenate([ref.sequence_logprobs(params, ctx, seq) for ctx, seq, _ in batch])
    old = np.concatenate([seq.old_logprobs for _, seq, _ in batch])
    adv = np.concatenate([adv for _, _, adv in batch])
    mask = np.concatenate([seq.mask for _, seq, _ in batch])
    expected = ref.surrogate_loss(new, old, adv, mask, CLIP)
    assert loss == pytest.approx(expected, rel=1e-12, abs=1e-15)


@SETTINGS
@given(setups())
def test_zero_advantages_give_zero_gradient(setup):
    params, batch = setup
    batch[0][1].mask[0] = 1  # at least one masked-in token
    batch = [(ctx, seq, np.zeros(len(seq))) for ctx, seq, _ in batch]
    loss, grad = assert_same_loss_and_gradient(params, batch)
    assert loss == 0.0
    assert not grad.w_ctx.any() and not grad.w_emit.any()


@SETTINGS
@given(setups())
def test_deep_clipped_batch_gives_zero_gradient(setup):
    params, batch = setup
    batch[0][1].mask[0] = 1
    clipped = []
    for ctx, seq, _ in batch:
        # ratio e^2 > 1 + eps_hi with A > 0, or e^-2 < 1 - eps_lo with A < 0:
        # the clipped branch is strictly smaller, so no token has a derivative.
        sign = np.where(np.arange(len(seq)) % 2 == 0, 1.0, -1.0)
        new = ref.sequence_logprobs(params, ctx, seq)
        seq.old_logprobs = new - 2.0 * sign
        clipped.append((ctx, seq, sign * seq.mask))
    _, grad = assert_same_loss_and_gradient(params, clipped)
    assert not grad.w_ctx.any() and not grad.w_emit.any()


def test_masked_out_middle_tokens_match_reference():
    dims = PolicyDims(context_dim=3, hidden_dim=5, vocab_size=7, max_tokens=8)
    rng = np.random.default_rng(17)
    params = PolicyParams.random(dims, rng, scale=0.8)
    batch = []
    for mask in ([1, 0, 1, 0, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 1]):
        seq = TokenSequence(
            tokens=rng.integers(0, dims.vocab_size, size=len(mask)),
            mask=np.array(mask),
            old_logprobs=-rng.uniform(1.0, 2.5, size=len(mask)),
        )
        batch.append((rng.normal(size=3), seq, rng.normal() * seq.mask))
    _, grad = assert_same_loss_and_gradient(params, batch)
    assert grad.w_emit.any()
    for ctx, seq, _ in batch:
        table = P.context_table(params, ctx)
        assert P.token_entropy(table, seq) == ref.token_entropy(params, ctx, seq)


def two_sequence_batch():
    dims = PolicyDims(context_dim=3, hidden_dim=4, vocab_size=5, max_tokens=6)
    rng = np.random.default_rng(3)
    params = PolicyParams.random(dims, rng, scale=0.5)
    ctx = rng.normal(size=3)
    batch = []
    for length in (4, 5):
        seq = P.sample_sequence(P.context_table(params, ctx), rng, length)
        batch.append((ctx, seq, P.broadcast_advantage(1.0, seq)))
    return params, batch


def test_nonfinite_term_names_its_index_within_its_sequence():
    params, batch = two_sequence_batch()
    batch[1][1].old_logprobs[2] = np.nan
    for impl in (P, ref):
        with pytest.raises(NumericFailureError, match="at token index 2$"):
            impl.loss_and_gradient(params, batch, CLIP)


def test_invalid_token_names_its_position_within_its_sequence():
    params, batch = two_sequence_batch()
    batch[1][1].tokens[3] = params.vocab_size
    with pytest.raises(InvalidTokenError, match="token 5 at position 3 outside"):
        P.loss_and_gradient(params, batch, CLIP)


# ------------------------------------------------------------ sampler


@SETTINGS
@given(setups(max_seqs=1), st.integers(0, 2**32 - 1), st.data())
def test_sampler_matches_reference_and_uses_length_uniforms(setup, seed, data):
    params, [(ctx, _, _)] = setup
    length = data.draw(st.integers(1, params.max_tokens))
    rng, ref_rng, twin = (np.random.default_rng(seed) for _ in range(3))
    seq = P.sample_sequence(P.context_table(params, ctx), rng, length)
    ref_seq = ref.sample_sequence(params, ctx, ref_rng, length)
    assert np.array_equal(seq.tokens, ref_seq.tokens)
    assert np.array_equal(seq.old_logprobs, ref_seq.old_logprobs)
    assert np.array_equal(seq.mask, np.ones(length, dtype=np.int64))
    twin.random(length)
    after = twin.random()
    assert rng.random() == after
    assert ref_rng.random() == after


class FixedUniforms:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def test_sampler_clamps_a_draw_above_the_last_cdf_value():
    # With zero parameters and 9 tokens the uniform cdf ends below the
    # largest double under 1, so that draw finds no token and is clamped.
    dims = PolicyDims(context_dim=2, hidden_dim=3, vocab_size=9, max_tokens=4)
    params = PolicyParams.zeros(dims)
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(np.exp(ref.log_softmax(np.zeros(9))))[-1] < top
    ctx = np.array([1.0, 0.5])
    uniforms = [top, 0.3, top, 0.0]
    seq = P.sample_sequence(P.context_table(params, ctx), FixedUniforms(uniforms), 4)
    ref_seq = ref.sample_sequence(params, ctx, FixedUniforms(uniforms), 4)
    assert seq.tokens.tolist() == [8, 2, 8, 0]
    assert np.array_equal(seq.tokens, ref_seq.tokens)
    assert np.array_equal(seq.old_logprobs, ref_seq.old_logprobs)
    assert seq.old_logprobs == pytest.approx([-math.log(9)] * 4)


@pytest.mark.parametrize("vocab, token", [(4, 2), (6, 3)])
def test_sampler_draw_equal_to_a_cdf_value_takes_the_next_token(vocab, token):
    # Uniform rows whose cdf holds 0.5 exactly: searchsorted(side="right"),
    # and so the sampler, must pick the token after the one that ends at 0.5.
    dims = PolicyDims(context_dim=2, hidden_dim=3, vocab_size=vocab, max_tokens=3)
    params = PolicyParams.zeros(dims)
    ctx = np.array([1.0, 0.5])
    table = P.context_table(params, ctx)
    assert table.cdf_rows[0][token - 1] == 0.5
    seq = P.sample_sequence(table, FixedUniforms([0.5] * 3), 3)
    ref_seq = ref.sample_sequence(params, ctx, FixedUniforms([0.5] * 3), 3)
    assert seq.tokens.tolist() == [token] * 3
    assert np.array_equal(seq.tokens, ref_seq.tokens)
    assert np.array_equal(seq.old_logprobs, ref_seq.old_logprobs)
