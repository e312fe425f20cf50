"""Deterministic desk-scale candidate evaluators.

A task turns a sampled token sequence into an evaluated candidate. Both
bundled tasks compute pure functions of (tokens, iteration, rng) so groups can
be evaluated in any order, or in parallel, without changing results. An
``EplbTask``'s outcomes, one per descriptor, are built with the task, one
rebalance pass per (sort mode, placement rule) pair and depth serving all
four swap windows, so ``evaluate`` only reads the table. ``describe``
turns a sequence into its JSON descriptor from the tokens alone; the loop
never reads one, so a run describes each final archive entry once, when its
last step ends. ``make_task`` builds a new task for each run, so nothing is
kept between runs.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..policy import TokenSequence
from ..rewards import EvaluationOutcome
from .eplb import EplbTask, WorkloadProfile
from .synthetic import SyntheticLandscape, SyntheticTask


class Task(Protocol):
    name: str

    def evaluate(
        self, seq: TokenSequence, iteration: int, rng: np.random.Generator
    ) -> EvaluationOutcome: ...

    def describe(self, seq: TokenSequence) -> dict: ...


def make_task(config) -> Task:
    """Instantiate the task named by a run config."""
    if config.task == "synthetic":
        landscape = SyntheticLandscape(
            base=config.synthetic_base,
            delta0=config.synthetic_delta0,
            decay_horizon=config.synthetic_decay,
            noise_scale=config.synthetic_noise,
            target_token=config.synthetic_target_token,
            tie_weight=config.synthetic_tie_weight,
        )
        return SyntheticTask(landscape)
    if config.task == "eplb":
        if config.eplb_profiles_path:
            try:
                profile = WorkloadProfile.load(config.eplb_profiles_path)
            except ValueError as exc:
                raise ValueError(f"eplb.profiles_path {config.eplb_profiles_path}: {exc}") from exc
        else:
            profile = WorkloadProfile.generate(
                num_profiles=config.eplb_num_profiles,
                num_experts=config.eplb_num_experts,
                num_devices=config.eplb_num_devices,
                seed=config.eplb_profile_seed,
            )
        return EplbTask(profile)
    raise KeyError(f"unknown task: {config.task!r}")


__all__ = [
    "Task",
    "make_task",
    "EplbTask",
    "WorkloadProfile",
    "SyntheticLandscape",
    "SyntheticTask",
]
