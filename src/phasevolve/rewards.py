"""Progress-normalized reward shaping.

Maps heterogeneous task metrics (maximized or minimized, any scale) onto a
shared reward scale: a clamped progress fraction in [0, 1] raised to a
shaping exponent and scaled by a multiplier. Every evaluation failure, a
score that does not parse or an evaluator that raised, collapses to -1.0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class Direction(enum.Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class OutcomeStatus(enum.Enum):
    PARSED = "parsed"
    PARSE_FAILURE = "parse_failure"
    EVALUATOR_ERROR = "evaluator_error"


FAILURE_REWARD = -1.0


@dataclass(frozen=True)
class ShapingConfig:
    direction: Direction = Direction.MAXIMIZE
    y_min: float = 0.0
    y_max: float = 1.0
    multiplier: float = 5.0
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.y_min < self.y_max:
            raise ValueError(f"y_min ({self.y_min}) must be < y_max ({self.y_max})")
        if not self.multiplier > 0:
            raise ValueError(f"multiplier must be positive, got {self.multiplier}")
        if not self.exponent > 0:
            raise ValueError(f"exponent must be positive, got {self.exponent}")


@dataclass(frozen=True)
class EvaluationOutcome:
    """One candidate's evaluation result, before shaping.

    ``error`` is ``"<ExceptionClass>: <message>"`` when the evaluator raised,
    else None.
    """

    status: OutcomeStatus
    value: float | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    @classmethod
    def parsed(cls, value: float, metrics: dict[str, float] | None = None) -> "EvaluationOutcome":
        # A parsed but non-finite score is a parse failure, not a number.
        if not math.isfinite(value):
            return cls(OutcomeStatus.PARSE_FAILURE, None, metrics or {})
        return cls(OutcomeStatus.PARSED, float(value), metrics or {})

    @classmethod
    def parse_failure(cls) -> "EvaluationOutcome":
        return cls(OutcomeStatus.PARSE_FAILURE)

    @classmethod
    def evaluator_error(cls, error: Exception | None = None) -> "EvaluationOutcome":
        text = None if error is None else f"{type(error).__name__}: {error}"
        return cls(OutcomeStatus.EVALUATOR_ERROR, error=text)

    @property
    def ok(self) -> bool:
        return self.status is OutcomeStatus.PARSED


def shape_reward(outcome: EvaluationOutcome, config: ShapingConfig) -> float:
    """Shaped reward: multiplier * progress^exponent, or -1.0 on any failure.

    Progress is the direction-aware position of the score inside the
    configured bounds, clamped to [0, 1] before the exponent is applied.
    """
    if outcome.status is not OutcomeStatus.PARSED:
        return FAILURE_REWARD
    y = outcome.value
    if y is None or not math.isfinite(y):
        return FAILURE_REWARD
    span = config.y_max - config.y_min
    if config.direction is Direction.MAXIMIZE:
        progress = (y - config.y_min) / span
    else:
        progress = (config.y_max - y) / span
    progress = min(max(progress, 0.0), 1.0)
    return config.multiplier * progress**config.exponent
