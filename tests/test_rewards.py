import math

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from phasevolve.rewards import (
    FAILURE_REWARD,
    Direction,
    EvaluationOutcome,
    OutcomeStatus,
    ShapingConfig,
    shape_reward,
)


def test_linear_maximize_midpoint():
    config = ShapingConfig(Direction.MAXIMIZE, 0.0, 1.0, 5.0, 1.0)
    assert shape_reward(EvaluationOutcome.parsed(0.6), config) == pytest.approx(3.0)


def test_all_failure_statuses_map_to_minus_one():
    config = ShapingConfig()
    for outcome in (
        EvaluationOutcome.parse_failure(),
        EvaluationOutcome.evaluator_error(),
    ):
        assert shape_reward(outcome, config) == FAILURE_REWARD


def test_nonfinite_parsed_becomes_parse_failure():
    for bad in (float("nan"), float("inf"), float("-inf")):
        outcome = EvaluationOutcome.parsed(bad)
        assert outcome.status is OutcomeStatus.PARSE_FAILURE
        assert shape_reward(outcome, ShapingConfig()) == FAILURE_REWARD


def test_nonfinite_value_guarded_even_when_status_forged():
    # Defensive path: a PARSED outcome carrying a non-finite value.
    outcome = EvaluationOutcome(OutcomeStatus.PARSED, float("nan"))
    assert shape_reward(outcome, ShapingConfig()) == FAILURE_REWARD


def test_clamped_endpoints_exact():
    config = ShapingConfig(Direction.MAXIMIZE, 0.0, 1.0, 5.0, 1.0)
    assert shape_reward(EvaluationOutcome.parsed(1.7), config) == 5.0
    assert shape_reward(EvaluationOutcome.parsed(-0.3), config) == 0.0
    assert shape_reward(EvaluationOutcome.parsed(0.0), config) == 0.0
    assert shape_reward(EvaluationOutcome.parsed(1.0), config) == 5.0


def test_minimize_direction():
    config = ShapingConfig(Direction.MINIMIZE, 0.0, 10.0, 5.0, 1.0)
    assert shape_reward(EvaluationOutcome.parsed(0.0), config) == 5.0
    assert shape_reward(EvaluationOutcome.parsed(10.0), config) == 0.0
    assert shape_reward(EvaluationOutcome.parsed(2.5), config) == pytest.approx(3.75)


def test_config_invariants():
    with pytest.raises(ValueError):
        ShapingConfig(y_min=1.0, y_max=1.0)
    with pytest.raises(ValueError):
        ShapingConfig(multiplier=0.0)
    with pytest.raises(ValueError):
        ShapingConfig(exponent=-1.0)


configs = st.builds(
    ShapingConfig,
    direction=st.sampled_from(list(Direction)),
    y_min=st.floats(min_value=-100, max_value=99, allow_nan=False),
    y_max=st.floats(min_value=100, max_value=200, allow_nan=False),
    multiplier=st.floats(min_value=0.1, max_value=10),
    exponent=st.floats(min_value=0.1, max_value=3),
)


@given(configs, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_output_range(config, y):
    out = shape_reward(EvaluationOutcome.parsed(y), config)
    assert out == FAILURE_REWARD or 0.0 <= out <= config.multiplier


@given(
    configs,
    st.floats(min_value=-500, max_value=500, allow_nan=False),
    st.floats(min_value=0, max_value=500, allow_nan=False),
)
def test_monotone_in_score(config, y, gap):
    lo = shape_reward(EvaluationOutcome.parsed(y), config)
    hi = shape_reward(EvaluationOutcome.parsed(y + gap), config)
    if config.direction is Direction.MAXIMIZE:
        assert hi >= lo - 1e-12
    else:
        assert hi <= lo + 1e-12


@given(
    configs,
    st.floats(min_value=-500, max_value=500, allow_nan=False),
)
def test_direction_symmetry(config, y):
    span = config.y_max - config.y_min
    # Exactly at a bound, the reflection is off by one ulp and a fractional
    # exponent amplifies that across the clamp kink; symmetry is exact
    # arithmetic everywhere else.
    assume(abs(y - config.y_min) > 1e-4 * span)
    assume(abs(y - config.y_max) > 1e-4 * span)
    mirrored = ShapingConfig(
        Direction.MAXIMIZE if config.direction is Direction.MINIMIZE else Direction.MINIMIZE,
        config.y_min,
        config.y_max,
        config.multiplier,
        config.exponent,
    )
    reflected = config.y_min + config.y_max - y
    a = shape_reward(EvaluationOutcome.parsed(y), config)
    b = shape_reward(EvaluationOutcome.parsed(reflected), mirrored)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@given(st.floats(min_value=0.1, max_value=3))
def test_strictly_monotone_inside_bounds(exponent):
    config = ShapingConfig(Direction.MAXIMIZE, 0.0, 1.0, 5.0, exponent)
    values = [shape_reward(EvaluationOutcome.parsed(y), config) for y in (0.2, 0.4, 0.6, 0.8)]
    assert all(b > a for a, b in zip(values, values[1:]))
