"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance and budget is pinned here.
"""

import math
import time

import numpy as np
import pytest

from phasevolve import estimators as est
from phasevolve import policy as P
from phasevolve.config import RunConfig
from phasevolve.orchestrator import random_search_best, run_evolution
from phasevolve.rewards import (
    Direction,
    EvaluationOutcome,
    ShapingConfig,
    shape_reward,
)
from phasevolve.tasks import make_task
from phasevolve.tasks.eplb import (
    HeuristicDescriptor,
    WorkloadProfile,
    brute_force_balance,
    eplb_assign,
    eplb_decode,
    eplb_score,
)
from phasevolve.trace import read_trace


def _report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"\n[acceptance] criterion {number} ({label}): PASS in {elapsed:.2f}s")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget ({elapsed:.2f}s)"


# --------------------------------------------------------------- criterion 1


def test_criterion_1_sloo_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for n in range(2, 11):
        for k in range(2, n + 1):
            for _ in range(200):
                rewards = rng.normal(size=n)
                fast = est.sloo_weights(rewards, k)
                brute = est.sloo_weights_bruteforce(rewards, k)
                assert np.all(np.abs(fast - brute) <= 1e-12)
    _report(1, "SLOO closed form == subset enumeration", time.monotonic() - started, 5.0)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_scale_conditioning_suite():
    started = time.monotonic()
    rng = np.random.default_rng(202)

    # (a) positive homogeneity + translation invariance of SLOO weights
    for _ in range(500):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(2, n + 1))
        rewards = rng.uniform(-1.0, 5.0, size=n)
        c = rng.uniform(-100.0, 100.0)
        delta = 10.0 ** rng.uniform(-6, 3)
        shifted = est.sloo_weights(c + delta * rewards, k)
        scaled = delta * est.sloo_weights(rewards, k)
        assert np.all(np.abs(shifted - scaled) <= 1e-10)

    # (b) standardized branches have squared norm at most N
    for _ in range(500):
        n = int(rng.integers(2, 11))
        branch = rng.normal(scale=10.0 ** rng.uniform(-4, 3), size=n)
        eps_num = 10.0 ** rng.uniform(-12, 0)
        out = est.standardize(branch, eps_num, 1e-12)
        if not out.skipped:
            assert np.sum(out.values**2) <= n + 1e-9

    # (c) bottom k-1 weights are exactly zero under strict ordering
    for _ in range(500):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(2, n + 1))
        rewards = rng.normal(size=n)
        while np.unique(rewards).size < n:
            rewards = rng.normal(size=n)
        ranked = est.sloo_weights(rewards, k)[np.argsort(-rewards)]
        assert np.all(ranked >= 0.0)
        assert np.all(ranked[n - (k - 1) :] == 0.0)

    # (d) standardization preserves the argmax index set
    for _ in range(500):
        n = int(rng.integers(2, 11))
        branch = rng.normal(size=n)
        eps_num = 10.0 ** rng.uniform(-12, 0)
        out = est.standardize(branch, eps_num, 1e-9)
        if not out.skipped:
            assert set(np.flatnonzero(branch == branch.max())) == set(
                np.flatnonzero(out.values == out.values.max())
            )

    _report(2, "scale-conditioned credit assignment", time.monotonic() - started, 5.0)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_estimator_ground_truth():
    started = time.monotonic()

    grpo = est.grpo_advantage([0.0, 1.0, 2.0, 3.0], 0.0)
    assert np.all(np.abs(grpo - [-1.3416, -0.4472, 0.4472, 1.3416]) <= 1e-4)

    found = est.entropic_beta([0.0, 1.0], 0.13081)
    assert abs(found.beta - math.log(3)) <= 1e-4
    kl = _kl_to_uniform(found.beta, np.array([0.0, 1.0]))
    assert abs(kl - 0.13081) <= 1e-6

    adv = est.entropic_advantage([0.0, 1.0], math.log(3), 0.0)
    assert np.all(np.abs(adv - [-2.0 / 3.0, 2.0]) <= 1e-10)

    pkpo = est.pkpo_weights([3.0, 2.0, 1.0], 2)
    assert np.all(np.abs(pkpo - [2.0, 5.0 / 3.0, 5.0 / 3.0]) <= 1e-12)

    _report(3, "estimator ground truth", time.monotonic() - started, 5.0)


def _kl_to_uniform(beta, rewards):
    z = beta * rewards
    z = z - z.max()
    logq = z - math.log(np.exp(z).sum())
    return float(np.dot(np.exp(logq), logq) + math.log(rewards.size))


# --------------------------------------------------------------- criterion 4


def test_criterion_4_reward_shaping_table():
    started = time.monotonic()
    config = ShapingConfig(Direction.MAXIMIZE, 0.0, 1.0, 5.0, 1.0)

    for outcome in (
        EvaluationOutcome.parse_failure(),
        EvaluationOutcome.evaluator_error(),
        EvaluationOutcome.timeout(),
        EvaluationOutcome.parsed(float("nan")),
        EvaluationOutcome.parsed(float("inf")),
    ):
        assert shape_reward(outcome, config) == -1.0

    assert shape_reward(EvaluationOutcome.parsed(0.6), config) == 3.0
    assert shape_reward(EvaluationOutcome.parsed(-0.4), config) == 0.0
    assert shape_reward(EvaluationOutcome.parsed(0.0), config) == 0.0
    assert shape_reward(EvaluationOutcome.parsed(1.0), config) == 5.0
    assert shape_reward(EvaluationOutcome.parsed(1.7), config) == 5.0

    rng = np.random.default_rng(404)
    for _ in range(1000):
        y_min = rng.uniform(-100.0, 100.0)
        y_max = y_min + rng.uniform(0.1, 100.0)
        cfg = ShapingConfig(
            direction=Direction.MAXIMIZE if rng.random() < 0.5 else Direction.MINIMIZE,
            y_min=y_min,
            y_max=y_max,
            multiplier=rng.uniform(0.5, 10.0),
            exponent=rng.uniform(0.2, 3.0),
        )
        y = rng.uniform(y_min - 50.0, y_max + 50.0)
        gap = rng.uniform(0.0, 50.0)
        lo = shape_reward(EvaluationOutcome.parsed(y), cfg)
        hi = shape_reward(EvaluationOutcome.parsed(y + gap), cfg)
        if cfg.direction is Direction.MAXIMIZE:
            assert hi >= lo - 1e-12
        else:
            assert hi <= lo + 1e-12
        assert lo == -1.0 or 0.0 <= lo <= cfg.multiplier

    _report(4, "reward shaping table + monotonicity", time.monotonic() - started, 5.0)


# --------------------------------------------------------------- criterion 5


def test_criterion_5_gradient_check():
    started = time.monotonic()
    dims = P.PolicyDims(context_dim=3, hidden_dim=5, vocab_size=7, max_tokens=6)
    clip = P.ClipConfig()
    h = 1e-5
    worst = 0.0
    clipped_tokens_seen = 0

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        params = P.PolicyParams.random(dims, rng, scale=0.5)
        batch = []
        for _ in range(3):
            ctx = rng.normal(size=dims.context_dim)
            seq = P.sample_sequence(P.context_table(params, ctx), rng, 5)
            offsets = rng.uniform(-0.6, 0.6, size=5)
            # keep ratios away from the clip kinks so central differences
            # stay on one branch of the min
            ratios = np.exp(-offsets)
            for edge in (1 - clip.eps_lo, 1 + clip.eps_hi, 1.0):
                offsets[np.abs(ratios - edge) < 5e-3] += 0.02
            seq.old_logprobs = seq.old_logprobs + offsets
            adv = P.broadcast_advantage(float(rng.normal()), seq)
            ratios = np.exp(-offsets)
            clipped_tokens_seen += int(
                np.sum(
                    ((ratios > 1 + clip.eps_hi) & (adv > 0))
                    | ((ratios < 1 - clip.eps_lo) & (adv < 0))
                )
            )
            batch.append((ctx, seq, adv))

        _, grad = P.loss_and_gradient(params, batch, clip)
        for name in ("w_ctx", "w_emit"):
            tensor = getattr(params, name)
            analytic = getattr(grad, name)
            for idx in np.ndindex(tensor.shape):
                plus = params.copy()
                getattr(plus, name)[idx] += h
                minus = params.copy()
                getattr(minus, name)[idx] -= h
                fd = (
                    P.loss_and_gradient(plus, batch, clip)[0]
                    - P.loss_and_gradient(minus, batch, clip)[0]
                ) / (2 * h)
                if abs(analytic[idx]) > 1e-8:
                    worst = max(worst, abs(analytic[idx] - fd) / abs(analytic[idx]))

    assert clipped_tokens_seen > 0, "draws must include clipped tokens"
    assert worst <= 1e-4
    _report(
        5,
        f"analytic vs finite-difference gradients (max rel err {worst:.2e}, "
        f"{clipped_tokens_seen} clipped tokens)",
        time.monotonic() - started,
        30.0,
    )


# --------------------------------------------------------------- criterion 6


def _loop_config(seed: int) -> RunConfig:
    # Desk-scale learning rate: the shared-default 1e-6 targets LLM-sized
    # policies and cannot move this tiny model in 200 steps.
    return RunConfig(
        task="synthetic",
        seed=seed,
        iterations=200,
        samples_per_group=8,
        top_k=4,
        mode="phase",
        learning_rate=0.05,
        weight_decay=0.0,
        synthetic_delta0=0.3,
        synthetic_decay=1e12,
        synthetic_noise=0.0,
    )


def test_criterion_6_loop_beats_random_search(tmp_path):
    started = time.monotonic()
    wins = 0
    for seed in range(5):
        config = _loop_config(seed)
        task = make_task(config)
        result = run_evolution(config, task)
        series = [v for v in result.cumulative_max if v is not None]
        assert all(b >= a for a, b in zip(series, series[1:]))
        baseline = random_search_best(
            task,
            config.iterations,
            config.samples_per_group,
            config.seq_length,
            config.vocab_size,
            seed,
        )
        if result.best_score is not None and result.best_score >= baseline:
            wins += 1
    assert wins >= 4, f"phase-adaptive won only {wins}/5 seeds"

    config = _loop_config(0)
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    run_evolution(config, make_task(config), trace_path=first)
    run_evolution(config, make_task(config), trace_path=second)
    assert first.read_bytes() == second.read_bytes()

    _report(
        6,
        f"loop beats random search ({wins}/5 seeds), byte-identical reruns",
        time.monotonic() - started,
        120.0,
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_compression_regime_contrast(tmp_path):
    started = time.monotonic()
    config = RunConfig(
        task="synthetic",
        seed=0,
        iterations=50,
        samples_per_group=8,
        top_k=4,
        mode="phase",
        eps_skip=1e-2,
        synthetic_delta0=0.2,
        synthetic_decay=10.0,
        synthetic_noise=0.0,
        synthetic_tie_weight=0.2,
    )
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(config, make_task(config), trace_path=trace_path)
    records = read_trace(trace_path)

    rewards_by_iter: dict[int, list[float]] = {}
    for rec in records:
        if rec["kind"] == "candidate":
            rewards_by_iter.setdefault(rec["iteration"], []).append(rec["reward"])

    skipped = [r for r in records if r["kind"] == "step" and r["skipped"]]
    assert len(skipped) >= 10, "compression regime never reached"
    for rec in skipped:
        assert rec["grad_norm"] == 0.0
        assert rec["optimizer_steps"] == 0

    # The same collapsed batches, pushed through plain group z-scoring with a
    # tiny eps, blow the signal back up to (nearly) full norm.
    nonconstant = 0
    for rec in skipped:
        batch = np.array(rewards_by_iter[rec["iteration"]])
        if batch.std() == 0.0:
            continue
        nonconstant += 1
        amplified = est.grpo_advantage(batch, 1e-12)
        assert abs(np.sum(amplified**2) - batch.size) <= 1e-6
    assert nonconstant >= 0.8 * len(skipped)

    _report(
        7,
        f"skip rule vs z-score amplification ({len(skipped)} collapsed steps)",
        time.monotonic() - started,
        60.0,
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_eplb_evaluator():
    started = time.monotonic()
    rng = np.random.default_rng(808)

    for _ in range(50):
        num_experts = int(rng.integers(2, 13))
        num_devices = int(rng.integers(2, min(num_experts, 4) + 1))
        w = WorkloadProfile(
            loads=rng.uniform(0.1, 10.0, size=(1, num_experts)), num_devices=num_devices
        )
        assignment, ops = eplb_assign(HeuristicDescriptor(), w)
        peak = np.bincount(
            assignment[0], weights=w.loads[0], minlength=num_devices
        ).max()
        assert peak <= 2.0 * brute_force_balance(w)[0] + 1e-9

        base_ops = eplb_assign(HeuristicDescriptor(), w)[1]
        tokens = rng.integers(0, 24, size=8)
        seq = P.TokenSequence(
            tokens=tokens, mask=np.ones(8, dtype=np.int64), old_logprobs=np.zeros(8)
        )
        fuzzed, fuzz_ops = eplb_assign(eplb_decode(seq), w)
        balancedness, speed, score = eplb_score(fuzzed, w, fuzz_ops, base_ops)
        assert 0.0 < balancedness <= 1.0
        assert 0.0 < speed <= 1.0
        assert 0.0 < score <= 1.0

    # hand-checked instances
    w = WorkloadProfile(loads=np.array([[5.0, 3.0, 2.0, 2.0]]), num_devices=2)
    assignment, _ = eplb_assign(HeuristicDescriptor(), w)
    device_loads = np.bincount(assignment[0], weights=w.loads[0], minlength=2)
    assert sorted(device_loads.tolist()) == [5.0, 7.0]
    balancedness, _, _ = eplb_score(assignment, w, 10, 10.0)
    assert balancedness == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert brute_force_balance(w)[0] == 7.0

    rr = HeuristicDescriptor(placement=eplb_decode(
        P.TokenSequence(
            tokens=np.array([0, 1, 0, 0]),
            mask=np.ones(4, dtype=np.int64),
            old_logprobs=np.zeros(4),
        )
    ).placement)
    w2 = WorkloadProfile(loads=np.array([[4.0, 3.0, 2.0, 1.0]]), num_devices=2)
    rr_assignment, _ = eplb_assign(rr, w2)
    rr_loads = np.bincount(rr_assignment[0], weights=w2.loads[0], minlength=2)
    assert sorted(rr_loads.tolist()) == [4.0, 6.0]

    _report(8, "EPLB greedy bound + score bounds", time.monotonic() - started, 30.0)


# --------------------------------------------------------------- criterion 9


def test_criterion_9_barrier_discipline(tmp_path):
    started = time.monotonic()
    config = RunConfig(
        task="synthetic",
        seed=3,
        iterations=50,
        samples_per_group=8,
        top_k=4,
        mode="phase",
        learning_rate=0.05,
        weight_decay=0.0,
        synthetic_noise=0.0,
    )
    trace_path = tmp_path / "trace.jsonl"
    run_evolution(config, make_task(config), trace_path=trace_path)
    steps = [r for r in read_trace(trace_path) if r["kind"] == "step"]
    assert len(steps) == 50
    took_a_step = 0
    for rec in steps:
        assert rec["params_hash_start"] == rec["params_hash_end"]
        assert rec["optimizer_steps"] in (0, 1)
        if rec["skipped"]:
            assert rec["optimizer_steps"] == 0
        took_a_step += rec["optimizer_steps"]
    assert took_a_step > 0

    _report(9, "rollout-barrier hashes + one step per group", time.monotonic() - started, 60.0)
