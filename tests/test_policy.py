import dataclasses
import hashlib
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import reference_policy as ref

from phasevolve import policy as P
from phasevolve.config import parse_config_text
from phasevolve.orchestrator import run_evolution
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
from phasevolve.tasks import make_task

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DIMS = PolicyDims(context_dim=3, hidden_dim=5, vocab_size=7)
CLIP = ClipConfig()


def make_ctx(rng=None):
    if rng is None:
        return np.array([1.0, 0.3, -0.2])
    return rng.normal(size=DIMS.context_dim)


def make_seq(tokens):
    uniform = -math.log(DIMS.vocab_size)
    return TokenSequence(tokens=tokens, old_logprobs=np.full(len(tokens), uniform))


# ----------------------------------------------------------- TokenSequence


def test_token_sequence_holds_python_tuples_whatever_it_was_built_from():
    for tokens in ([3, 0, 2], (3, 0, 2), np.array([3, 0, 2], dtype=np.int32)):
        seq = TokenSequence(tokens, np.array([-1.5, -0.25, -2.0]))
        assert seq.tokens == (3, 0, 2)
        assert seq.old_logprobs == (-1.5, -0.25, -2.0)
        assert {type(t) for t in seq.tokens} == {int}
        assert {type(x) for x in seq.old_logprobs} == {float}


def test_token_sequence_rejects_2d_tokens():
    # Two rows of two tokens have length 2, as the log-probs do.
    with pytest.raises(ValueError, match="1-d"):
        TokenSequence([[1, 2], [3, 4]], [0.0, 0.0])


def test_token_sequence_rejects_non_integer_tokens():
    with pytest.raises(ValueError, match="integers"):
        TokenSequence([1.7, 2.2], [0.0, 0.0])


def test_token_sequence_rejects_a_scalar():
    with pytest.raises(ValueError, match="1-d"):
        TokenSequence(5, [0.0])


@pytest.mark.parametrize("old_logprobs", [-1.0, [[-1.0, -2.0]]], ids=["scalar", "2-d"])
def test_token_sequence_rejects_logprobs_that_are_not_1d(old_logprobs):
    with pytest.raises(ValueError, match="1-d"):
        TokenSequence([1, 2], old_logprobs)


def test_token_sequence_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        TokenSequence([1, 2, 3], [0.0, 0.0])


def random_setup(seed, n_seqs=3, length=5):
    """Params, one context and resampled sequences with off-policy old logprobs."""
    rng = np.random.default_rng(seed)
    params = ref.random_params(DIMS, rng, scale=0.5)
    ctx = make_ctx(rng)
    batch = []
    for _ in range(n_seqs):
        seq = P.sample_sequence(P.context_table(params, ctx), rng, length)
        # Shift old logprobs so ratios leave 1 and some tokens clip; keep them
        # away from the clip boundaries so finite differences stay valid.
        offsets = rng.uniform(-0.6, 0.6, size=length)
        ratios = np.exp(-offsets)
        for edge in (1 - CLIP.eps_lo, 1 + CLIP.eps_hi, 1.0):
            bad = np.abs(ratios - edge) < 5e-3
            offsets[bad] += 0.02
        seq = TokenSequence(seq.tokens, np.add(seq.old_logprobs, offsets))
        batch.append((seq, np.full(length, rng.normal())))
    return params, ctx, batch


def finite_difference_gradient(params, ctx, batch, clip, h=1e-5):
    grads = {}
    for name in ("w_ctx", "w_emit"):
        tensor = getattr(params, name)
        grad = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            plus = ref.with_entry(params, name, idx, tensor[idx] + h)
            minus = ref.with_entry(params, name, idx, tensor[idx] - h)
            f_plus, _ = P.loss_and_gradient(plus, ctx, *ref.stack_group(batch), clip)
            f_minus, _ = P.loss_and_gradient(minus, ctx, *ref.stack_group(batch), clip)
            grad[idx] = (f_plus - f_minus) / (2 * h)
        grads[name] = grad
    return grads


# ------------------------------------------------------------------ sampling


def test_zero_params_sample_uniform_logprobs():
    params = PolicyParams.zeros(DIMS)
    seq = P.sample_sequence(P.context_table(params, make_ctx()), np.random.default_rng(0), 6)
    assert len(seq) == 6
    assert seq.old_logprobs == pytest.approx([-math.log(DIMS.vocab_size)] * 6)


def test_sampling_deterministic_under_seed():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    params = ref.random_params(DIMS, np.random.default_rng(7), scale=0.3)
    a = P.sample_sequence(P.context_table(params, make_ctx()), rng1, 6)
    b = P.sample_sequence(P.context_table(params, make_ctx()), rng2, 6)
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.old_logprobs, b.old_logprobs)


def saturated_params(token):
    """Zero parameters but for a huge bias toward ``token`` regardless of
    context, via the hidden path."""
    params = ref.with_entry(PolicyParams.zeros(DIMS), "w_ctx", (0, 0), 1.0)
    return ref.with_entry(params, "w_emit", (0, token), 1e6)


def test_saturated_logit_always_sampled():
    params = saturated_params(4)
    seq = P.sample_sequence(P.context_table(params, make_ctx()), np.random.default_rng(5), 6)
    assert seq.tokens == (4,) * 6


def test_sample_length_guard():
    table = P.context_table(PolicyParams.zeros(DIMS), make_ctx())
    for length in (0, -1):
        with pytest.raises(ValueError, match="length must be >= 1"):
            P.sample_sequence(table, np.random.default_rng(0), length)
    assert len(P.sample_sequence(table, np.random.default_rng(0), 1)) == 1


# ------------------------------------------------------------ log-probs


def test_on_policy_logprobs_identical():
    rng = np.random.default_rng(3)
    params = ref.random_params(DIMS, rng, scale=0.8)
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
        params = ref.random_params(DIMS, rng, scale=2.0)
        ctx = make_ctx(rng)
        seq = make_seq(rng.integers(0, DIMS.vocab_size, size=5))
        assert np.all(ref.sequence_logprobs(params, ctx, seq) <= 0.0)


def test_invalid_token_rejected():
    params = PolicyParams.zeros(DIMS)
    seq = make_seq([0, DIMS.vocab_size, 1])
    with pytest.raises(InvalidTokenError):
        ref.sequence_logprobs(params, make_ctx(), seq)


# ------------------------------------------------------------ broadcast


def test_broadcast_zero():
    block = P.broadcast_advantage(np.array([0.0, -2.0]), 4)
    assert block.shape == (2, 4)
    assert block[0] == pytest.approx([0, 0, 0, 0])
    assert block[1] == pytest.approx([-2, -2, -2, -2])


# ------------------------------------------------------------ surrogate loss
# The stand-alone loss lives with the reference implementation; the oracle
# tests check that loss_and_gradient computes the same value.


def test_loss_on_policy_is_negative_mean_advantage():
    adv = np.array([0.5, -1.0, 2.0])
    logp = np.array([-1.0, -2.0, -0.5])
    loss = ref.surrogate_loss(logp, logp, adv, CLIP)
    assert loss == pytest.approx(-adv.mean(), abs=1e-10)


def test_loss_clips_positive_advantage():
    new = np.array([math.log(2.0)])
    old = np.array([0.0])
    loss = ref.surrogate_loss(new, old, np.array([1.0]), CLIP)
    assert loss == pytest.approx(-1.28)


def test_loss_clips_negative_advantage():
    new = np.array([math.log(0.5)])
    old = np.array([0.0])
    loss = ref.surrogate_loss(new, old, np.array([-1.0]), CLIP)
    assert loss == pytest.approx(0.8)


def test_loss_needs_masked_in_tokens():
    z = np.zeros(0)
    with pytest.raises(EmptyBatchError):
        ref.surrogate_loss(z, z, z, CLIP)
    params = PolicyParams.zeros(DIMS)
    empty = make_seq([])
    with pytest.raises(EmptyBatchError, match="no tokens"):
        P.loss_and_gradient(params, make_ctx(), *ref.stack_group([(empty, z), (empty, z)]), CLIP)
    with pytest.raises(EmptyBatchError, match="no tokens"):
        ref.loss_and_gradient(params, [(make_ctx(), empty, z), (make_ctx(), empty, z)], CLIP)


def test_loss_clip_bound_per_token():
    rng = np.random.default_rng(9)
    for _ in range(200):
        new = rng.normal(scale=1.5, size=1)
        old = rng.normal(scale=1.5, size=1)
        adv = rng.normal(size=1)
        loss = ref.surrogate_loss(new, old, adv, CLIP)
        ratio = float(np.exp(new[0] - old[0]))
        if adv[0] > 0:
            assert abs(loss) <= (1 + CLIP.eps_hi) * abs(adv[0]) + 1e-12
        else:
            assert abs(loss) <= max(ratio, 1.0) * abs(adv[0]) + 1e-12


# ------------------------------------------------------------ gradients


def test_zero_advantage_zero_gradient():
    params, ctx, batch = random_setup(0)
    batch = [(seq, np.zeros_like(adv)) for seq, adv in batch]
    loss, grad = P.loss_and_gradient(params, ctx, *ref.stack_group(batch), CLIP)
    assert loss == 0.0
    assert P.grad_norm(grad) == 0.0


def test_on_policy_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    params = ref.random_params(DIMS, rng, scale=0.5)
    ctx = make_ctx(rng)
    seq = P.sample_sequence(P.context_table(params, ctx), rng, 5)
    batch = [(seq, np.full(5, 0.7))]
    _, grad = P.loss_and_gradient(params, ctx, *ref.stack_group(batch), CLIP)
    fd = finite_difference_gradient(params, ctx, batch, CLIP)
    for name in ("w_ctx", "w_emit"):
        assert np.allclose(getattr(grad, name), fd[name], rtol=1e-5, atol=1e-8)


def test_gradient_check_off_policy_with_clipping():
    worst = 0.0
    for seed in range(6):
        params, ctx, batch = random_setup(seed)
        # make sure the draw actually contains clipped tokens somewhere
        _, grad = P.loss_and_gradient(params, ctx, *ref.stack_group(batch), CLIP)
        fd = finite_difference_gradient(params, ctx, batch, CLIP)
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
    params = ref.random_params(DIMS, rng, scale=0.5)
    ctx = make_ctx(rng)
    seq = P.sample_sequence(P.context_table(params, ctx), rng, 4)
    # ratio = exp(new - old) >> 1 + eps_hi with positive advantage: clipped flat
    seq = P.TokenSequence(seq.tokens, np.subtract(seq.old_logprobs, 2.0))
    _, grad = P.loss_and_gradient(params, ctx, *ref.stack_group([(seq, np.ones(4))]), CLIP)
    assert P.grad_norm(grad) == 0.0


def test_empty_batch_rejected():
    params = PolicyParams.zeros(DIMS)
    none = np.zeros((0, 4))
    with pytest.raises(EmptyBatchError):
        P.loss_and_gradient(params, make_ctx(), none.astype(np.int64), none, none, CLIP)


# ------------------------------------------------------------ entropy


def test_entropy_uniform_is_log_vocab():
    params = PolicyParams.zeros(DIMS)
    seq = make_seq([0, 1, 2])
    out = P.token_entropy(P.context_table(params, make_ctx()), seq)
    assert out == pytest.approx(math.log(DIMS.vocab_size))


def test_entropy_saturated_is_zero():
    params = saturated_params(2)
    seq = make_seq([2, 2, 2])
    out = P.token_entropy(P.context_table(params, make_ctx()), seq)
    assert out == pytest.approx(0.0, abs=1e-9)


def test_entropy_two_tokens():
    dims = PolicyDims(context_dim=2, hidden_dim=3, vocab_size=2)
    params = PolicyParams.zeros(dims)
    seq = make_seq([0, 1])
    out = P.token_entropy(P.context_table(params, np.array([1.0, 0.0])), seq)
    assert out == pytest.approx(math.log(2))


def test_entropy_bounds_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        params = ref.random_params(DIMS, rng, scale=3.0)
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
    params = ref.random_params(DIMS, np.random.default_rng(0), scale=0.5)
    state = AdamState.zeros(params)
    grad = ref.zero_gradient(params)
    new_params, _, applied = P.optimizer_step(params, grad, state, lr=0.1, weight_decay=0.0)
    assert applied
    assert np.array_equal(new_params.w_ctx, params.w_ctx)
    assert np.array_equal(new_params.w_emit, params.w_emit)


def test_optimizer_first_step_magnitude_is_lr():
    params = PolicyParams.zeros(DIMS)
    state = AdamState.zeros(params)
    grad = ref.zero_gradient(params)
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
    params = ref.random_params(DIMS, np.random.default_rng(1), scale=0.5)
    state = AdamState.zeros(params)
    grad = ref.zero_gradient(params)
    lr, wd = 0.01, 0.1
    new_params, _, applied = P.optimizer_step(params, grad, state, lr=lr, weight_decay=wd)
    assert applied
    assert np.allclose(new_params.w_ctx, params.w_ctx * (1 - lr * wd))
    assert np.allclose(new_params.w_emit, params.w_emit * (1 - lr * wd))


@pytest.mark.parametrize("tensor", ["w_ctx", "w_emit"])
def test_optimizer_rejects_an_update_that_overflows(tensor):
    # A finite gradient, but lr * weight_decay * w overflows one parameter.
    # Runs under pytest's error::RuntimeWarning, so the overflow must be silent.
    params = ref.random_params(DIMS, np.random.default_rng(2), scale=0.5)
    params = ref.with_entry(params, tensor, (0, 0), 1e300)
    state = AdamState.zeros(params)
    grad = ref.zero_gradient(params)
    new_params, new_state, applied = P.optimizer_step(params, grad, state, lr=1e300)
    assert not applied
    assert new_params is params
    assert new_state is state


def test_optimizer_rejects_nonfinite_gradient():
    params = ref.random_params(DIMS, np.random.default_rng(2), scale=0.5)
    state = AdamState.zeros(params)
    grad = ref.zero_gradient(params)
    grad.w_ctx[0, 0] = float("nan")
    new_params, new_state, applied = P.optimizer_step(params, grad, state, lr=0.1)
    assert not applied
    assert new_params is params
    assert new_state is state
    assert new_state.step == 0


# ------------------------------------------------------------ params I/O


def test_params_save_load_roundtrip(tmp_path):
    params = ref.random_params(DIMS, np.random.default_rng(8), scale=0.4)
    path = tmp_path / "params.bin"
    ref.save_params(params, path)
    loaded = ref.load_params(path)
    assert np.array_equal(loaded.w_ctx, params.w_ctx)
    assert np.array_equal(loaded.w_emit, params.w_emit)


# ------------------------------------------------------------ immutability


def hashed_fresh(params):
    """The fingerprint recomputed from the tensors, with no memo."""
    digest = hashlib.sha256()
    for tensor in (params.w_ctx, params.w_emit):
        digest.update(struct.pack("<2q", *tensor.shape))
        digest.update(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    return digest.hexdigest()


def table_of(params, ctx):
    return P._log_prob_table(params, P._hidden(params, ctx))[0]


def applied_step(seed):
    """Random params, fresh AdamW state, and one applied step from them."""
    params = ref.random_params(DIMS, np.random.default_rng(seed), scale=0.5)
    state = AdamState.zeros(params)
    grad = P.PolicyGradient(np.full(params.w_ctx.shape, 0.5), np.full(params.w_emit.shape, -0.25))
    new_params, new_state, applied = P.optimizer_step(params, grad, state, lr=0.01)
    assert applied
    return params, state, new_params, new_state


def arrays_of(params, state):
    return [a.tobytes() for a in (params.w_ctx, params.w_emit, state.m, state.v)]


@pytest.mark.parametrize("name", ["w_ctx", "w_emit", "m", "v"])
def test_an_element_write_raises(name):
    # Built by the constructor and by optimizer_step alike.
    for obj in applied_step(0):
        if not hasattr(obj, name):
            continue
        array = getattr(obj, name)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0
        assert np.array_equal(array, before)


def test_the_constructor_keeps_a_copy_of_what_it_is_given():
    w_ctx = np.zeros((DIMS.context_dim, DIMS.hidden_dim))
    w_emit = np.zeros((DIMS.hidden_dim + DIMS.vocab_size, DIMS.vocab_size))
    params = PolicyParams(w_ctx, w_emit)
    state = AdamState(0, np.zeros(w_ctx.size + w_emit.size), np.zeros(w_ctx.size + w_emit.size))
    digest = params.fingerprint()
    w_ctx[0, 0] = w_emit[0, 0] = 1.0  # the caller's arrays stay writable
    assert not params.w_ctx.any() and not params.w_emit.any()
    assert params.fingerprint() == digest == hashed_fresh(params)
    assert not state.m.flags.writeable and not state.v.flags.writeable


FROZEN = {
    "PolicyParams": lambda: PolicyParams.zeros(DIMS),
    "AdamState": lambda: AdamState.zeros(PolicyParams.zeros(DIMS)),
    "TokenSequence": lambda: TokenSequence([1, 2], [0.0, 0.0]),
    "sampled": lambda: P.sample_sequence(
        P.context_table(PolicyParams.zeros(DIMS), make_ctx()), np.random.default_rng(0), 3
    ),
}


@pytest.mark.parametrize(
    "kind,field",
    [
        ("PolicyParams", "w_ctx"),
        ("PolicyParams", "w_emit"),
        ("AdamState", "step"),
        ("AdamState", "m"),
        ("AdamState", "v"),
        ("TokenSequence", "old_logprobs"),
        ("sampled", "tokens"),
    ],
)
def test_assigning_a_field_raises(kind, field):
    obj = FROZEN[kind]()
    before = getattr(obj, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, before)
    assert getattr(obj, field) is before


def test_the_fingerprint_is_the_hash_of_the_content():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = ref.random_params(DIMS, rng, scale=float(rng.uniform(0.01, 3.0)))
        assert params.fingerprint() == hashed_fresh(params)
        assert params.fingerprint() == hashed_fresh(params)  # the kept digest
    params, _, new_params, _ = applied_step(1)
    assert new_params.fingerprint() == hashed_fresh(new_params) != params.fingerprint()
    # One entry of 1e-12 in place of zero moves the digest.
    zeros = PolicyParams.zeros(DIMS)
    for name in ("w_ctx", "w_emit"):
        changed = ref.with_entry(zeros, name, (0, 0), 1e-12)
        assert changed.fingerprint() == hashed_fresh(changed) != zeros.fingerprint()


def test_optimizer_step_leaves_its_inputs_unchanged():
    params, state, new_params, new_state = applied_step(2)
    nan_grad = ref.zero_gradient(params)
    nan_grad.w_ctx[0, 0] = float("nan")
    huge = ref.with_entry(params, "w_emit", (0, 0), 1e300)
    cases = [
        (params, state, ref.zero_gradient(params), 0.01, True),  # applied
        (new_params, new_state, ref.zero_gradient(params), 0.01, True),  # applied
        (params, state, nan_grad, 0.01, False),  # a non-finite gradient
        (huge, state, ref.zero_gradient(params), 1e300, False),  # an overflow
    ]
    for p, s, grad, lr, applied in cases:
        before, digest = arrays_of(p, s), p.fingerprint()
        out_params, out_state, was_applied = P.optimizer_step(p, grad, s, lr=lr)
        assert was_applied == applied
        assert arrays_of(p, s) == before
        assert p.fingerprint() == digest == hashed_fresh(p)
        assert (out_params is p, out_state is s) == (not applied, not applied)


def test_the_table_memo_keys_on_the_hidden_vector():
    params = ref.random_params(DIMS, np.random.default_rng(3), scale=0.5)
    fresh = PolicyParams(params.w_ctx, params.w_emit)
    rng = np.random.default_rng(4)
    for _ in range(10):
        ctx = make_ctx(rng)
        table = table_of(params, ctx)
        assert table_of(params, ctx) is table
        assert np.array_equal(table, table_of(fresh, ctx))
    # Zero parameters: every context has the zero hidden vector, so one table.
    zeros = PolicyParams.zeros(DIMS)
    assert table_of(zeros, make_ctx(rng)) is table_of(zeros, make_ctx(rng))


def test_the_memoized_table_is_read_only():
    params, ctx, _ = random_setup(2)
    table = table_of(params, ctx)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    assert table_of(params, ctx) is table


def run_recording_tables(monkeypatch, overrides: str):
    """Run synthetic.cfg with overrides; keep every table the run looked up
    and every rollout's ContextTable."""
    config = parse_config_text((CONFIGS / "synthetic.cfg").read_text() + overrides)
    looked_up, rollout_tables = [], []
    lookup, build = P._log_prob_table, P.context_table

    def recorded_lookup(params, hidden):
        table, rows = lookup(params, hidden)
        looked_up.append(table)
        return table, rows

    def recorded_build(params, ctx):
        rollout_tables.append(build(params, ctx))
        return rollout_tables[-1]

    monkeypatch.setattr(P, "_log_prob_table", recorded_lookup)
    monkeypatch.setattr(P, "context_table", recorded_build)
    result = run_evolution(config, make_task(config))
    return result, looked_up, rollout_tables


@pytest.mark.parametrize("overrides", ["iterations = 20\n", "synthetic.decay_horizon = 8\n"])
def test_one_log_prob_table_per_parameter_version(monkeypatch, overrides):
    # Every step of the first run trains; the second skips some and trains some.
    result, looked_up, _ = run_recording_tables(monkeypatch, overrides)
    trained = sum(step.optimizer_steps for step in result.steps)
    assert len(looked_up) == len(result.steps) + trained
    # The rollout builds the table of its parameters and the loss reads it, so
    # a new table appears only after the parameters changed.
    versions = 1 + sum(step.optimizer_steps for step in result.steps[:-1])
    assert len({id(table) for table in looked_up}) == versions


def test_a_skipped_step_reuses_the_row_lists_and_a_trained_one_does_not(monkeypatch):
    result, _, rollout_tables = run_recording_tables(
        monkeypatch, "synthetic.decay_horizon = 8\niterations = 120\n"
    )
    skipped = [step.optimizer_steps == 0 for step in result.steps]
    assert any(skipped) and not all(skipped)
    for was_skipped, before, after in zip(skipped, rollout_tables, rollout_tables[1:]):
        for rows in ("log_p_rows", "cdf_rows", "row_dots"):
            assert (getattr(after, rows) is getattr(before, rows)) == was_skipped


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
