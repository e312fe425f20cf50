"""The whole loop over the config space that ``RunConfig.validate`` accepts.

Each example draws a config with either task, any mode, group sizes 2 to 64,
vocabularies 1 to 24, 1 to 5 iterations, odd EPLB shapes (one expert, as
many devices as experts, one to four profiles) and extreme learning rates,
temperatures, estimator epsilons, shaping scales and landscape scales. It
runs the config to a trace twice, under pytest's ``error::RuntimeWarning``,
and checks what every run must keep: the trace re-reads, its numbers are
finite unless their step names an error, each group shares one parent, the
parameters move only through an applied optimizer step, the cumulative
maximum never falls, and the two runs write the same bytes.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from phasevolve.config import MODES, RunConfig
from phasevolve.orchestrator import run_evolution
from phasevolve.rewards import FAILURE_REWARD
from phasevolve.tasks import make_task
from phasevolve.trace import read_trace


def scale(lo: float, hi: float) -> st.SearchStrategy[float]:
    """Positive floats in [lo, hi]: the ends, powers of ten, and any between."""
    return st.one_of(
        st.sampled_from([lo, hi]),
        st.integers(math.ceil(math.log10(lo)), math.floor(math.log10(hi))).map(
            lambda e: 10.0**e
        ),
        st.floats(min_value=lo, max_value=hi),
    )


@st.composite
def configs(draw) -> RunConfig:
    group = draw(st.integers(2, 64))
    vocab = draw(st.integers(1, 24))
    experts = draw(st.integers(1, 12))
    eps_num = draw(scale(1e-300, 1e3))
    y_min = draw(st.floats(-1e3, 1e3))
    config = RunConfig(
        task=draw(st.sampled_from(["synthetic", "eplb"])),
        mode=draw(st.sampled_from(MODES)),
        seed=draw(st.integers(0, 2**32)),
        iterations=draw(st.integers(1, 5)),
        samples_per_group=group,
        top_k=draw(st.integers(2, group)),
        learning_rate=draw(scale(1e-300, 1e300)),
        eps_num=eps_num,
        eps_skip=eps_num * draw(scale(1.0, 1e6)),
        gamma=draw(st.sampled_from([0.0, 1e-9, 0.3, 50.0])),
        y_min=y_min,
        y_max=y_min + draw(scale(1e-6, 1e6)),
        shaping_multiplier=draw(scale(1e-12, 1e12)),
        shaping_exponent=draw(scale(1e-3, 1e3)),
        select_temperature=draw(scale(1e-300, 1e300)),
        context_dim=draw(st.integers(1, 6)),
        hidden_dim=draw(st.integers(1, 8)),
        vocab_size=vocab,
        seq_length=draw(st.integers(1, 8)),
        synthetic_base=draw(st.floats(-1e3, 1e3)),
        synthetic_delta0=draw(scale(1e-12, 1e12)),
        synthetic_decay=draw(scale(1e-12, 1e12)),
        synthetic_noise=draw(st.sampled_from([0.0, 1e-12, 0.1, 1e3])),
        synthetic_target_token=draw(st.integers(0, vocab - 1)),
        synthetic_tie_weight=draw(st.sampled_from([0.0, 0.05, 1.0])),
        eplb_num_experts=experts,
        eplb_num_devices=draw(st.sampled_from([1, experts]) | st.integers(1, experts)),
        eplb_num_profiles=draw(st.integers(1, 4)),
        eplb_profile_seed=draw(st.integers(0, 2**32)),
    )
    config.validate()
    return config


def numbers(value):
    """Every int and float inside a decoded JSON value."""
    if isinstance(value, dict):
        for item in value.values():
            yield from numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loop-properties")


@given(configs())
@settings(max_examples=150, deadline=None)
def test_every_accepted_config_runs_to_a_sound_trace(trace_dir, config):
    first, second = trace_dir / "first.jsonl", trace_dir / "second.jsonl"
    run_evolution(config, make_task(config), first)
    run_evolution(config, make_task(config), second)
    assert first.read_bytes() == second.read_bytes()

    records = read_trace(first)
    assert records[0]["kind"] == "header"
    steps = [record for record in records if record["kind"] == "step"]
    candidates = [record for record in records if record["kind"] == "candidate"]
    assert [step["iteration"] for step in steps] == list(range(config.iterations))
    assert len(candidates) == config.iterations * config.samples_per_group
    for record in records:
        if not all(math.isfinite(x) for x in numbers(record)):
            assert record["kind"] != "header"
            assert steps[record["iteration"]]["error"] is not None

    for step in steps:
        group = [c for c in candidates if c["iteration"] == step["iteration"]]
        assert len(group) == config.samples_per_group
        assert len({c["parent_id"] for c in group}) == 1
        for candidate in group:
            if candidate["status"] != "parsed":
                assert candidate["reward"] == FAILURE_REWARD
        assert step["params_hash_start"] == step["params_hash_end"]
        assert step["optimizer_steps"] in (0, 1)
    for step, next_step in zip(steps, steps[1:]):
        if next_step["params_hash_start"] != step["params_hash_end"]:
            assert step["optimizer_steps"] == 1
    maxima = [step["cumulative_max"] for step in steps]
    assert all(b is not None for a, b in zip(maxima, maxima[1:]) if a is not None)
    assert all(b >= a for a, b in zip(maxima, maxima[1:]) if a is not None)
