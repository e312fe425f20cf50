"""The original latent quality of the synthetic landscape, kept as an oracle.

This is the tuple-and-generator form: hits and repeats are counted one token
at a time and the tie-breaker hashes a fresh ``<i8`` array built from the
token tuple. ``phasevolve.tasks.synthetic.latent_quality`` counts with tuple
methods and hashes the tokens packed with ``struct``; the integers, the
hashed bytes and the float expressions are the same, so both must agree
exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

from phasevolve.policy import TokenSequence
from phasevolve.tasks.synthetic import SyntheticLandscape


def hash_unit(tokens: tuple[int, ...]) -> float:
    digest = hashlib.sha256(np.asarray(tokens, dtype="<i8").tobytes()).digest()
    return int.from_bytes(digest[:8], "little") / 2.0**64


def latent_quality(seq: TokenSequence, land: SyntheticLandscape) -> float:
    visible = tuple(seq.tokens)
    if not visible:
        return 0.0
    hits = sum(1 for t in visible if t == land.target_token) / len(visible)
    if len(visible) > 1:
        repeats = sum(
            1 for a, b in zip(visible, visible[1:]) if a == b
        ) / (len(visible) - 1)
    else:
        repeats = 0.0
    structural = 0.6 * hits + 0.4 * repeats
    return (1.0 - land.tie_weight) * structural + land.tie_weight * hash_unit(visible)
