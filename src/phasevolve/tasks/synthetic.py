"""Synthetic compressed-reward landscape.

Scores are ``base + delta(t) * q(tokens)`` with a decaying compression scale
``delta(t)``: candidate rankings stay fixed while absolute gaps shrink, which
is exactly the regime where group standardization starts amplifying noise and
the skip rule must take over.

The latent quality ``q`` mixes a learnable structural part (hits on a target
token, repeated-token runs) with a tiny hash-based tiebreaker so that rollout
groups almost never have exactly constant rewards. Both read the sequence's
token tuple; the tiebreaker hashes it packed as little-endian int64s.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from ..policy import TokenSequence
from ..rewards import EvaluationOutcome


@dataclass(frozen=True)
class SyntheticLandscape:
    base: float = 0.5
    delta0: float = 0.25
    decay_horizon: float = 250.0
    noise_scale: float = 0.0
    target_token: int = 0
    tie_weight: float = 0.05

    def __post_init__(self) -> None:
        if not self.delta0 > 0:
            raise ValueError("delta0 must be positive")
        if not self.decay_horizon > 0:
            raise ValueError("decay_horizon must be positive")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if not 0.0 <= self.tie_weight <= 1.0:
            raise ValueError("tie_weight must be in [0, 1]")

    def delta(self, t: int) -> float:
        """Compression scale at iteration t: positive and decreasing."""
        if t < 0:
            raise ValueError(f"iteration must be >= 0, got {t}")
        return self.delta0 * math.exp(-t / self.decay_horizon)


def latent_quality(seq: TokenSequence, land: SyntheticLandscape) -> float:
    """Deterministic q(tokens) in [0, 1] over the sequence's tokens.

    The tie-breaker hashes the tokens as little-endian int64s.
    """
    visible = seq.tokens
    if not visible:
        return 0.0
    hits = visible.count(land.target_token) / len(visible)
    if len(visible) > 1:
        repeats = sum(map(operator.eq, visible, visible[1:])) / (len(visible) - 1)
    else:
        repeats = 0.0
    structural = 0.6 * hits + 0.4 * repeats
    digest = hashlib.sha256(struct.pack(f"<{len(visible)}q", *visible)).digest()
    tie = int.from_bytes(digest[:8], "little") / 2.0**64
    return (1.0 - land.tie_weight) * structural + land.tie_weight * tie


def synthetic_eval(
    seq: TokenSequence,
    t: int,
    land: SyntheticLandscape,
    rng: np.random.Generator,
) -> EvaluationOutcome:
    """Score a candidate on the compressing landscape at iteration t."""
    quality = latent_quality(seq, land)
    score = land.base + land.delta(t) * quality
    if land.noise_scale > 0:
        score += land.noise_scale * rng.standard_normal()
    return EvaluationOutcome.parsed(score, metrics={"quality": quality})


class SyntheticTask:
    """Evaluator wiring. Holds only its landscape: ``describe`` computes the
    sequence's quality from its tokens, so neither method depends on what
    the task saw before."""

    name = "synthetic"

    def __init__(self, landscape: SyntheticLandscape | None = None):
        self.landscape = landscape or SyntheticLandscape()

    def describe(self, seq: TokenSequence) -> dict:
        return {"tokens": list(seq.tokens), "quality": latent_quality(seq, self.landscape)}

    def evaluate(
        self, seq: TokenSequence, iteration: int, rng: np.random.Generator
    ) -> EvaluationOutcome:
        return synthetic_eval(seq, iteration, self.landscape, rng)
