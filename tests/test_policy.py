import math

import numpy as np
import pytest
import reference_policy as ref

from phasevolve import policy as P
from phasevolve.policy import (
    AdamState,
    ClipConfig,
    EmptyBatchError,
    InvalidTokenError,
    PolicyDims,
    PolicyParams,
    RolloutContext,
    TokenSequence,
)

DIMS = PolicyDims(context_dim=3, hidden_dim=5, vocab_size=7, max_tokens=6)
CLIP = ClipConfig()


def make_ctx(rng=None):
    if rng is None:
        return np.array([1.0, 0.3, -0.2])
    return rng.normal(size=DIMS.context_dim)


def make_seq(tokens, mask=None, old=None):
    tokens = np.asarray(tokens)
    if mask is None:
        mask = np.ones(len(tokens), dtype=np.int64)
    if old is None:
        old = np.full(len(tokens), -math.log(DIMS.vocab_size))
    return TokenSequence(tokens=tokens, mask=np.asarray(mask), old_logprobs=np.asarray(old))


def random_setup(seed, n_seqs=3, length=5):
    """Params, contexts and resampled sequences with off-policy old logprobs."""
    rng = np.random.default_rng(seed)
    params = PolicyParams.random(DIMS, rng, scale=0.5)
    batch = []
    for _ in range(n_seqs):
        ctx = make_ctx(rng)
        seq = P.sample_sequence(P.context_table(params, ctx), rng, length)
        # Shift old logprobs so ratios leave 1 and some tokens clip; keep them
        # away from the clip boundaries so finite differences stay valid.
        offsets = rng.uniform(-0.6, 0.6, size=length)
        ratios = np.exp(-offsets)
        for edge in (1 - CLIP.eps_lo, 1 + CLIP.eps_hi, 1.0):
            bad = np.abs(ratios - edge) < 5e-3
            offsets[bad] += 0.02
        seq.old_logprobs = seq.old_logprobs + offsets
        adv = rng.normal() * seq.mask
        batch.append((ctx, seq, adv))
    return params, batch


def finite_difference_gradient(params, batch, clip, h=1e-5):
    grads = {}
    for name in ("w_ctx", "w_emit"):
        tensor = getattr(params, name)
        grad = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            plus = params.copy()
            getattr(plus, name)[idx] += h
            minus = params.copy()
            getattr(minus, name)[idx] -= h
            f_plus, _ = P.loss_and_gradient(plus, batch, clip)
            f_minus, _ = P.loss_and_gradient(minus, batch, clip)
            grad[idx] = (f_plus - f_minus) / (2 * h)
        grads[name] = grad
    return grads


# ------------------------------------------------------------------ sampling


def test_zero_params_sample_uniform_logprobs():
    params = PolicyParams.zeros(DIMS)
    seq = P.sample_sequence(P.context_table(params, make_ctx()), np.random.default_rng(0), 6)
    assert len(seq) == 6
    assert np.all(seq.mask == 1)
    assert seq.old_logprobs == pytest.approx([-math.log(DIMS.vocab_size)] * 6)


def test_sampling_deterministic_under_seed():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    params = PolicyParams.random(DIMS, np.random.default_rng(7), scale=0.3)
    a = P.sample_sequence(P.context_table(params, make_ctx()), rng1, 6)
    b = P.sample_sequence(P.context_table(params, make_ctx()), rng2, 6)
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.old_logprobs, b.old_logprobs)


def test_saturated_logit_always_sampled():
    params = PolicyParams.zeros(DIMS)
    params.w_emit[DIMS.hidden_dim :, 4] = 0.0
    params.w_ctx[0, :] = 0.0
    # Huge bias toward token 4 regardless of context, via the hidden path.
    params.w_ctx[0, 0] = 1.0
    params.w_emit[0, 4] = 1e6
    seq = P.sample_sequence(P.context_table(params, make_ctx()), np.random.default_rng(5), 6)
    assert np.all(seq.tokens == 4)


def test_sample_length_guard():
    params = PolicyParams.zeros(DIMS)
    with pytest.raises(ValueError):
        P.sample_sequence(
            P.context_table(params, make_ctx()), np.random.default_rng(0), DIMS.max_tokens + 1
        )


# ------------------------------------------------------------ log-probs


def test_on_policy_logprobs_identical():
    rng = np.random.default_rng(3)
    params = PolicyParams.random(DIMS, rng, scale=0.8)
    ctx = make_ctx(rng)
    seq = P.sample_sequence(P.context_table(params, ctx), rng, 5)
    new = ref.sequence_logprobs(params, ctx, seq)
    assert np.max(np.abs(new - seq.old_logprobs)) <= 1e-12
    ratios = np.exp(new - seq.old_logprobs)
    assert ratios == pytest.approx(np.ones(5), abs=1e-12)


def test_zero_params_logprobs_uniform():
    params = PolicyParams.zeros(DIMS)
    seq = make_seq([0, 3, 6])
    out = ref.sequence_logprobs(params, make_ctx(), seq)
    assert out == pytest.approx([-math.log(DIMS.vocab_size)] * 3)


def test_logprobs_nonpositive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = PolicyParams.random(DIMS, rng, scale=2.0)
        ctx = make_ctx(rng)
        seq = make_seq(rng.integers(0, DIMS.vocab_size, size=5))
        assert np.all(ref.sequence_logprobs(params, ctx, seq) <= 0.0)


def test_invalid_token_rejected():
    params = PolicyParams.zeros(DIMS)
    seq = make_seq([0, DIMS.vocab_size, 1])
    with pytest.raises(InvalidTokenError):
        ref.sequence_logprobs(params, make_ctx(), seq)


# ------------------------------------------------------------ broadcast


def test_broadcast_respects_mask():
    seq = make_seq([1, 2, 3], mask=[1, 1, 0])
    assert P.broadcast_advantage(1.5, seq) == pytest.approx([1.5, 1.5, 0.0])


def test_broadcast_zero():
    seq = make_seq([1, 2, 3, 4])
    assert P.broadcast_advantage(0.0, seq) == pytest.approx([0, 0, 0, 0])
    assert P.broadcast_advantage(-2.0, seq) == pytest.approx([-2, -2, -2, -2])


# ------------------------------------------------------------ surrogate loss
# The stand-alone loss lives with the reference implementation; the oracle
# tests check that loss_and_gradient computes the same value.


def test_loss_on_policy_is_negative_mean_advantage():
    adv = np.array([0.5, -1.0, 2.0])
    logp = np.array([-1.0, -2.0, -0.5])
    mask = np.ones(3)
    loss = ref.surrogate_loss(logp, logp, adv, mask, CLIP)
    assert loss == pytest.approx(-adv.mean(), abs=1e-10)


def test_loss_clips_positive_advantage():
    new = np.array([math.log(2.0)])
    old = np.array([0.0])
    loss = ref.surrogate_loss(new, old, np.array([1.0]), np.ones(1), CLIP)
    assert loss == pytest.approx(-1.28)


def test_loss_clips_negative_advantage():
    new = np.array([math.log(0.5)])
    old = np.array([0.0])
    loss = ref.surrogate_loss(new, old, np.array([-1.0]), np.ones(1), CLIP)
    assert loss == pytest.approx(0.8)


def test_loss_needs_masked_in_tokens():
    z = np.zeros(3)
    with pytest.raises(EmptyBatchError):
        ref.surrogate_loss(z, z, z, np.zeros(3), CLIP)


def test_loss_clip_bound_per_token():
    rng = np.random.default_rng(9)
    for _ in range(200):
        new = rng.normal(scale=1.5, size=1)
        old = rng.normal(scale=1.5, size=1)
        adv = rng.normal(size=1)
        loss = ref.surrogate_loss(new, old, adv, np.ones(1), CLIP)
        ratio = float(np.exp(new[0] - old[0]))
        if adv[0] > 0:
            assert abs(loss) <= (1 + CLIP.eps_hi) * abs(adv[0]) + 1e-12
        else:
            assert abs(loss) <= max(ratio, 1.0) * abs(adv[0]) + 1e-12


# ------------------------------------------------------------ gradients


def test_zero_advantage_zero_gradient():
    params, batch = random_setup(0)
    batch = [(ctx, seq, np.zeros_like(adv)) for ctx, seq, adv in batch]
    loss, grad = P.loss_and_gradient(params, batch, CLIP)
    assert loss == 0.0
    assert P.grad_norm(grad) == 0.0


def test_on_policy_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    params = PolicyParams.random(DIMS, rng, scale=0.5)
    ctx = make_ctx(rng)
    seq = P.sample_sequence(P.context_table(params, ctx), rng, 5)
    adv = P.broadcast_advantage(0.7, seq)
    batch = [(ctx, seq, adv)]
    _, grad = P.loss_and_gradient(params, batch, CLIP)
    fd = finite_difference_gradient(params, batch, CLIP)
    for name in ("w_ctx", "w_emit"):
        assert np.allclose(getattr(grad, name), fd[name], rtol=1e-5, atol=1e-8)


def test_gradient_check_off_policy_with_clipping():
    worst = 0.0
    for seed in range(6):
        params, batch = random_setup(seed)
        # make sure the draw actually contains clipped tokens somewhere
        _, grad = P.loss_and_gradient(params, batch, CLIP)
        fd = finite_difference_gradient(params, batch, CLIP)
        for name in ("w_ctx", "w_emit"):
            a = getattr(grad, name)
            b = fd[name]
            significant = np.abs(a) > 1e-8
            if significant.any():
                rel = np.abs(a - b)[significant] / np.abs(a)[significant]
                worst = max(worst, float(rel.max()))
    assert worst <= 1e-4


def test_deep_clipped_token_contributes_no_gradient():
    rng = np.random.default_rng(13)
    params = PolicyParams.random(DIMS, rng, scale=0.5)
    ctx = make_ctx(rng)
    seq = P.sample_sequence(P.context_table(params, ctx), rng, 4)
    # ratio = exp(new - old) >> 1 + eps_hi with positive advantage: clipped flat
    seq.old_logprobs = seq.old_logprobs - 2.0
    _, grad = P.loss_and_gradient(params, [(ctx, seq, P.broadcast_advantage(1.0, seq))], CLIP)
    assert P.grad_norm(grad) == 0.0


def test_mask_soundness_loss_and_gradient():
    params, batch = random_setup(4, n_seqs=1, length=5)
    ctx, seq, adv = batch[0]
    seq.mask = np.array([1, 1, 0, 1, 0])
    adv = adv * seq.mask
    loss_a, grad_a = P.loss_and_gradient(params, [(ctx, seq, adv)], CLIP)

    perturbed = TokenSequence(
        tokens=seq.tokens.copy(), mask=seq.mask.copy(), old_logprobs=seq.old_logprobs.copy()
    )
    perturbed.tokens[2] = (perturbed.tokens[2] + 3) % DIMS.vocab_size
    perturbed.tokens[4] = (perturbed.tokens[4] + 1) % DIMS.vocab_size
    perturbed.old_logprobs[2] = -9.0
    loss_b, grad_b = P.loss_and_gradient(params, [(ctx, perturbed, adv)], CLIP)

    assert loss_a == loss_b
    assert np.array_equal(grad_a.w_ctx, grad_b.w_ctx)
    assert np.array_equal(grad_a.w_emit, grad_b.w_emit)


def test_empty_batch_rejected():
    params = PolicyParams.zeros(DIMS)
    with pytest.raises(EmptyBatchError):
        P.loss_and_gradient(params, [], CLIP)


# ------------------------------------------------------------ entropy


def test_entropy_uniform_is_log_vocab():
    params = PolicyParams.zeros(DIMS)
    seq = make_seq([0, 1, 2])
    out = P.token_entropy(P.context_table(params, make_ctx()), seq)
    assert out == pytest.approx(math.log(DIMS.vocab_size))


def test_entropy_saturated_is_zero():
    params = PolicyParams.zeros(DIMS)
    params.w_ctx[0, 0] = 1.0
    params.w_emit[0, 2] = 1e6
    seq = make_seq([2, 2, 2])
    out = P.token_entropy(P.context_table(params, make_ctx()), seq)
    assert out == pytest.approx(0.0, abs=1e-9)


def test_entropy_two_tokens():
    dims = PolicyDims(context_dim=2, hidden_dim=3, vocab_size=2, max_tokens=4)
    params = PolicyParams.zeros(dims)
    seq = make_seq([0, 1])
    out = P.token_entropy(P.context_table(params, np.array([1.0, 0.0])), seq)
    assert out == pytest.approx(math.log(2))


def test_entropy_bounds_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        params = PolicyParams.random(DIMS, rng, scale=3.0)
        ctx = make_ctx(rng)
        seq = make_seq(rng.integers(0, DIMS.vocab_size, size=5))
        out = P.token_entropy(P.context_table(params, ctx), seq)
        assert 0.0 <= out <= math.log(DIMS.vocab_size) + 1e-12


# ------------------------------------------------------------ grad_norm


def test_grad_norm_values():
    grad = P.PolicyGradient(np.zeros((2, 2)), np.zeros((3, 2)))
    assert P.grad_norm(grad) == 0.0
    grad.w_ctx[0, 0] = 3.0
    assert P.grad_norm(grad) == 3.0
    grad.w_emit[1, 1] = 4.0
    assert P.grad_norm(grad) == 5.0


# ------------------------------------------------------------ optimizer


def test_optimizer_zero_gradient_no_decay_is_identity():
    params = PolicyParams.random(DIMS, np.random.default_rng(0), scale=0.5)
    state = AdamState.zeros(params)
    grad = P.PolicyGradient.zeros_like(params)
    new_params, _, applied = P.optimizer_step(params, grad, state, lr=0.1, weight_decay=0.0)
    assert applied
    assert np.array_equal(new_params.w_ctx, params.w_ctx)
    assert np.array_equal(new_params.w_emit, params.w_emit)


def test_optimizer_first_step_magnitude_is_lr():
    params = PolicyParams.zeros(DIMS)
    state = AdamState.zeros(params)
    grad = P.PolicyGradient.zeros_like(params)
    grad.w_ctx[1, 2] = 0.5
    grad.w_emit[0, 3] = -1.25
    lr = 1e-3
    new_params, new_state, applied = P.optimizer_step(
        params, grad, state, lr=lr, weight_decay=0.0
    )
    assert applied and new_state.step == 1
    # bias-corrected first step: -lr * g / (|g| + eps) = -lr * sign(g)
    assert new_params.w_ctx[1, 2] == pytest.approx(-lr, rel=1e-6)
    assert new_params.w_emit[0, 3] == pytest.approx(lr, rel=1e-6)


def test_optimizer_decoupled_weight_decay():
    params = PolicyParams.random(DIMS, np.random.default_rng(1), scale=0.5)
    state = AdamState.zeros(params)
    grad = P.PolicyGradient.zeros_like(params)
    lr, wd = 0.01, 0.1
    new_params, _, applied = P.optimizer_step(params, grad, state, lr=lr, weight_decay=wd)
    assert applied
    assert np.allclose(new_params.w_ctx, params.w_ctx * (1 - lr * wd))
    assert np.allclose(new_params.w_emit, params.w_emit * (1 - lr * wd))


def test_optimizer_rejects_nonfinite_gradient():
    params = PolicyParams.random(DIMS, np.random.default_rng(2), scale=0.5)
    state = AdamState.zeros(params)
    grad = P.PolicyGradient.zeros_like(params)
    grad.w_ctx[0, 0] = float("nan")
    new_params, new_state, applied = P.optimizer_step(params, grad, state, lr=0.1)
    assert not applied
    assert new_params is params
    assert new_state is state
    assert new_state.step == 0


# ------------------------------------------------------------ params I/O


def test_params_save_load_roundtrip(tmp_path):
    params = PolicyParams.random(DIMS, np.random.default_rng(8), scale=0.4)
    path = tmp_path / "params.bin"
    params.save(path)
    loaded = PolicyParams.load(path)
    assert np.array_equal(loaded.w_ctx, params.w_ctx)
    assert np.array_equal(loaded.w_emit, params.w_emit)
    assert loaded.max_tokens == params.max_tokens


def test_fingerprint_tracks_content():
    params = PolicyParams.zeros(DIMS)
    before = params.fingerprint()
    assert before == PolicyParams.zeros(DIMS).fingerprint()
    params.w_ctx[0, 0] = 1e-12
    assert params.fingerprint() != before


def test_rollout_context_features():
    ctx = RolloutContext(parent_score=0.5, phase=0.25, frontier_best=0.9)
    vec = ctx.features(8)
    assert vec.shape == (8,)
    assert vec[0] == 1.0
    assert vec[1] == 0.5
    assert vec[2] == 0.25
    assert vec[3] == 0.9
    assert np.all(vec[6:] == 0.0)
    with pytest.raises(ValueError):
        RolloutContext(parent_score=float("nan")).features(8)
