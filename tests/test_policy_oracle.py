"""The table-driven policy passes against the per-token reference.

Tables, sampling, entropy and the loss are compared exactly (``np.array_equal``
or ``==``): the table holds the same values a per-token log-softmax computes.
A rollout group has one context and one sequence length: sampling and
entropy read its one shared table, and the loss takes the group as one
(n, L) block and builds that table once. The reference takes a ragged list
of (context, sequence, advantages) triples, so each comparison hands it the
group's one context with every sequence. The gradient sums its terms per table row, not
in the reference loop's token order, so two tests compare it within
``GRAD_TOL``.
Zero gradients (zero advantages, a fully clipped batch, bigram rows of tokens
nothing follows) are compared exactly, and so is the flat AdamW update
against the reference's two-tensor loop.
"""

import math

import numpy as np
import pytest
import reference_policy as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from phasevolve import policy as P
from phasevolve.policy import (
    AdamState,
    ClipConfig,
    InvalidTokenError,
    NumericFailureError,
    PolicyDims,
    PolicyGradient,
    PolicyParams,
    TokenSequence,
)

CLIP = ClipConfig()
SETTINGS = settings(max_examples=60, deadline=None)
# The gradient sums each table row's terms in another order than the
# reference's token loop. Over 8,000 random batches drawn like ``setups``
# (gradient entries up to 13) the largest absolute difference was 5.5e-15.
GRAD_TOL = dict(rtol=1e-12, atol=1e-13)


@st.composite
def bounded_setups(draw, max_seqs=4):
    """Random params and one context, then a group of (sequence, per-token
    advantages) pairs sampled under it, and the length bound drawn for it.

    One length is drawn from 1..max_tokens per group, and every sequence in
    the group has it, as in the loop.
    """
    dims = PolicyDims(
        context_dim=draw(st.integers(1, 4)),
        hidden_dim=draw(st.integers(1, 6)),
        vocab_size=draw(st.integers(1, 9)),
    )
    max_tokens = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ref.random_params(dims, rng, scale=draw(st.sampled_from([0.01, 0.5, 3.0])))
    ctx = rng.normal(size=dims.context_dim)
    length = draw(st.integers(1, max_tokens))
    batch = []
    for _ in range(draw(st.integers(1, max_seqs))):
        seq = TokenSequence(
            tokens=rng.integers(0, dims.vocab_size, size=length),
            old_logprobs=-rng.uniform(0.0, 3.0, size=length),
        )
        batch.append((seq, rng.normal(size=length)))
    return params, ctx, batch, max_tokens


def setups(max_seqs=4):
    """``bounded_setups`` without the bound: the same draws."""
    return bounded_setups(max_seqs).map(lambda setup: setup[:3])


def triples(ctx, batch):
    """The reference's form of a group: its one context with each sequence."""
    return [(ctx, seq, adv) for seq, adv in batch]


def assert_same_loss_and_gradient(params, ctx, batch, rtol=0.0, atol=0.0):
    """Equal losses; gradients equal, or within the given tolerance."""
    loss, grad = P.loss_and_gradient(params, ctx, *ref.stack_group(batch), CLIP)
    ref_loss, ref_grad = ref.loss_and_gradient(params, triples(ctx, batch), CLIP)
    assert loss == ref_loss
    np.testing.assert_allclose(grad.w_ctx, ref_grad.w_ctx, rtol=rtol, atol=atol)
    np.testing.assert_allclose(grad.w_emit, ref_grad.w_emit, rtol=rtol, atol=atol)
    return loss, grad


@SETTINGS
@given(setups(), st.integers(0, 2**32 - 1))
def test_sequence_logprobs_match_reference(setup, seed):
    # The sampler records each token's log-probability from the table; the
    # reference recomputes them with one log-softmax per position.
    params, ctx, batch = setup
    rng = np.random.default_rng(seed)
    for seq, _ in batch:
        sampled = P.sample_sequence(P.context_table(params, ctx), rng, len(seq))
        assert np.array_equal(sampled.old_logprobs, ref.sequence_logprobs(params, ctx, sampled))


@SETTINGS
@given(setups(max_seqs=6))
def test_token_entropy_matches_reference(setup):
    # One table for the group, read for every sequence, as the loop does.
    params, ctx, batch = setup
    table = P.context_table(params, ctx)
    for seq, _ in batch:
        assert P.token_entropy(table, seq) == ref.token_entropy(params, ctx, seq)


@SETTINGS
@given(setups(max_seqs=6))
def test_loss_with_repeated_contexts_matches_reference(setup):
    # One context repeated across 1-6 sequences of one length: the
    # reference recomputes it per sequence, the loss builds its table once.
    params, ctx, batch = setup
    assert_same_loss_and_gradient(params, ctx, batch, **GRAD_TOL)


@SETTINGS
@given(setups())
def test_loss_and_gradient_match_reference(setup):
    params, ctx, batch = setup
    loss, _ = assert_same_loss_and_gradient(params, ctx, batch, **GRAD_TOL)
    # The stand-alone reference loss over the concatenated batch is the same
    # mean, summed in another order.
    new = np.concatenate([ref.sequence_logprobs(params, ctx, seq) for seq, _ in batch])
    old = np.concatenate([seq.old_logprobs for seq, _ in batch])
    adv = np.concatenate([adv for _, adv in batch])
    expected = ref.surrogate_loss(new, old, adv, CLIP)
    assert loss == pytest.approx(expected, rel=1e-12, abs=1e-15)


@SETTINGS
@given(setups())
def test_zero_advantages_give_zero_gradient(setup):
    params, ctx, batch = setup
    batch = [(seq, np.zeros(len(seq))) for seq, _ in batch]
    loss, grad = assert_same_loss_and_gradient(params, ctx, batch)
    assert loss == 0.0
    assert not grad.w_ctx.any() and not grad.w_emit.any()


@SETTINGS
@given(setups())
def test_deep_clipped_batch_gives_zero_gradient(setup):
    params, ctx, batch = setup
    clipped = []
    for seq, _ in batch:
        # ratio e^2 > 1 + eps_hi with A > 0, or e^-2 < 1 - eps_lo with A < 0:
        # the clipped branch is strictly smaller, so no token has a derivative.
        sign = np.where(np.arange(len(seq)) % 2 == 0, 1.0, -1.0)
        new = ref.sequence_logprobs(params, ctx, seq)
        clipped.append((P.TokenSequence(seq.tokens, new - 2.0 * sign), sign))
    _, grad = assert_same_loss_and_gradient(params, ctx, clipped)
    assert not grad.w_ctx.any() and not grad.w_emit.any()


@SETTINGS
@given(setups(max_seqs=6))
def test_rows_after_unfollowed_tokens_get_exactly_zero_gradient(setup):
    # A bigram row whose token no sequence in the batch follows holds no
    # token, so its gradient is exactly zero, not a rounding residue: Adam's
    # m / sqrt(v) would turn any residue into a step of size lr.
    params, ctx, batch = setup
    followed = {int(token) for seq, _ in batch for token in seq.tokens[:-1]}
    unfollowed = [
        params.hidden_dim + token for token in range(params.vocab_size) if token not in followed
    ]
    _, grad = P.loss_and_gradient(params, ctx, *ref.stack_group(batch), CLIP)
    _, ref_grad = ref.loss_and_gradient(params, triples(ctx, batch), CLIP)
    assert not grad.w_emit[unfollowed].any()
    assert not ref_grad.w_emit[unfollowed].any()


def two_sequence_batch():
    dims = PolicyDims(context_dim=3, hidden_dim=4, vocab_size=5)
    rng = np.random.default_rng(3)
    params = ref.random_params(dims, rng, scale=0.5)
    ctx = rng.normal(size=3)
    batch = []
    for _ in range(2):
        seq = P.sample_sequence(P.context_table(params, ctx), rng, 5)
        batch.append((seq, np.ones(5)))
    return params, ctx, batch


def test_nonfinite_term_names_its_index_within_its_sequence():
    params, ctx, batch = two_sequence_batch()
    seq, adv = batch[1]
    old_logprobs = list(seq.old_logprobs)
    old_logprobs[2] = np.nan
    batch[1] = (P.TokenSequence(seq.tokens, old_logprobs), adv)
    with pytest.raises(NumericFailureError, match="at token index 2$"):
        P.loss_and_gradient(params, ctx, *ref.stack_group(batch), CLIP)
    with pytest.raises(NumericFailureError, match="at token index 2$"):
        ref.loss_and_gradient(params, triples(ctx, batch), CLIP)


def test_invalid_token_names_its_position_within_its_sequence():
    params, ctx, batch = two_sequence_batch()
    seq, adv = batch[1]
    tokens = list(seq.tokens)
    tokens[3] = params.vocab_size
    batch[1] = (P.TokenSequence(tokens, seq.old_logprobs), adv)
    with pytest.raises(InvalidTokenError, match="token 5 at position 3 outside"):
        P.loss_and_gradient(params, ctx, *ref.stack_group(batch), CLIP)


@pytest.mark.parametrize(
    "tokens, old_logprobs, advantages",
    [
        ([1, 2, 3], [-1.0, -1.0, -1.0], [0.5, 0.5, 0.5]),  # one sequence, 1-D
        ([[1, 2, 3]], [[-1.0, -1.0]], [[0.5, 0.5, 0.5]]),  # log-probs too short
        ([[1, 2, 3]], [[-1.0, -1.0, -1.0]], [[0.5], [0.5]]),  # advantages (2, 1)
        ([[[1, 2]]], [[[-1.0, -1.0]]], [[[0.5, 0.5]]]),  # 3-D
    ],
)
def test_loss_takes_only_one_n_by_L_block(tokens, old_logprobs, advantages):
    params, ctx, _ = two_sequence_batch()
    with pytest.raises(ValueError, match=r"need one \(n, L\) shape"):
        P.loss_and_gradient(params, ctx, tokens, old_logprobs, advantages, CLIP)


# ------------------------------------------------------------ optimizer

# Large enough that a second step overflows a parameter whatever the weight
# decay: the first moves each parameter by about lr, the second by about lr
# again in the same direction, since the gradients keep their signs.
OVERFLOW_LR = 1e308


@SETTINGS
@given(
    setups(max_seqs=1),
    st.sampled_from([0.0, 1e-3, 0.1]),
    st.sampled_from([1e-3, 0.05, 1.0, OVERFLOW_LR]),
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
def test_flat_adamw_matches_the_two_tensor_reference(setup, weight_decay, lr, steps, seed):
    params, _, _ = setup
    state, ref_state = AdamState.zeros(params), ref.TwoTensorAdamState.zeros(params)
    ref_params = params
    rng = np.random.default_rng(seed)
    # Each gradient entry keeps one sign over the steps, with magnitudes in [0.5, 2].
    signs = [rng.choice([-1.0, 1.0], size=t.shape) for t in (params.w_ctx, params.w_emit)]
    for _ in range(steps):
        grad = PolicyGradient(*(s * rng.uniform(0.5, 2.0, size=s.shape) for s in signs))
        new, new_state, applied = P.optimizer_step(
            params, grad, state, lr=lr, weight_decay=weight_decay
        )
        ref_new, ref_new_state, ref_applied = ref.optimizer_step(
            ref_params, grad, ref_state, lr=lr, weight_decay=weight_decay
        )
        assert applied == ref_applied
        if not applied:
            assert new is params and new_state is state
            assert ref_new is ref_params and ref_new_state is ref_state
            break
        assert np.array_equal(new.w_ctx, ref_new.w_ctx)
        assert np.array_equal(new.w_emit, ref_new.w_emit)
        assert new.w_ctx.base is new.w_emit.base  # views of one buffer
        assert new_state.step == ref_new_state.step
        for flat, pair in (("m", ("m_ctx", "m_emit")), ("v", ("v_ctx", "v_emit"))):
            expected = np.concatenate([getattr(ref_new_state, name).ravel() for name in pair])
            assert np.array_equal(getattr(new_state, flat), expected)
        params, state, ref_params, ref_state = new, new_state, ref_new, ref_new_state
    assert applied == (lr != OVERFLOW_LR)


# ------------------------------------------------------------ sampler


@SETTINGS
@given(bounded_setups(max_seqs=1), st.integers(0, 2**32 - 1), st.data())
def test_sampler_matches_reference_and_uses_length_uniforms(setup, seed, data):
    params, ctx, _, max_tokens = setup
    length = data.draw(st.integers(1, max_tokens))
    rng, ref_rng, twin = (np.random.default_rng(seed) for _ in range(3))
    seq = P.sample_sequence(P.context_table(params, ctx), rng, length)
    ref_seq = ref.sample_sequence(params, ctx, ref_rng, length)
    assert np.array_equal(seq.tokens, ref_seq.tokens)
    assert np.array_equal(seq.old_logprobs, ref_seq.old_logprobs)
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
    dims = PolicyDims(context_dim=2, hidden_dim=3, vocab_size=9)
    params = PolicyParams.zeros(dims)
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(np.exp(ref.log_softmax(np.zeros(9))))[-1] < top
    ctx = np.array([1.0, 0.5])
    uniforms = [top, 0.3, top, 0.0]
    seq = P.sample_sequence(P.context_table(params, ctx), FixedUniforms(uniforms), 4)
    ref_seq = ref.sample_sequence(params, ctx, FixedUniforms(uniforms), 4)
    assert seq.tokens == (8, 2, 8, 0)
    assert np.array_equal(seq.tokens, ref_seq.tokens)
    assert np.array_equal(seq.old_logprobs, ref_seq.old_logprobs)
    assert seq.old_logprobs == pytest.approx([-math.log(9)] * 4)


@pytest.mark.parametrize("vocab, token", [(4, 2), (6, 3)])
def test_sampler_draw_equal_to_a_cdf_value_takes_the_next_token(vocab, token):
    # Uniform rows whose cdf holds 0.5 exactly: searchsorted(side="right"),
    # and so the sampler, must pick the token after the one that ends at 0.5.
    dims = PolicyDims(context_dim=2, hidden_dim=3, vocab_size=vocab)
    params = PolicyParams.zeros(dims)
    ctx = np.array([1.0, 0.5])
    table = P.context_table(params, ctx)
    assert table.cdf_rows[0][token - 1] == 0.5
    seq = P.sample_sequence(table, FixedUniforms([0.5] * 3), 3)
    ref_seq = ref.sample_sequence(params, ctx, FixedUniforms([0.5] * 3), 3)
    assert seq.tokens == (token,) * 3
    assert np.array_equal(seq.tokens, ref_seq.tokens)
    assert np.array_equal(seq.old_logprobs, ref_seq.old_logprobs)
