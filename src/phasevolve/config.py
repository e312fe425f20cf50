"""Run configuration: a flat `key = value` file with dotted section prefixes.

Example::

    task = synthetic
    iterations = 200
    mode = phase
    shaping.c = 5
    estimator.eps_skip = 1e-6

Each ``RunConfig`` field is one key: its dotted name is the field's
``metadata["key"]``, or the field name where they are the same. Parsing,
validation messages and the trace header's config echo all read that one
table. Unknown keys and malformed or out-of-range values raise
``ConfigError`` naming the key, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path


MODES = ("phase", "grpo", "entropic", "maxk")
DIRECTIONS = ("maximize", "minimize")
TASKS = ("synthetic", "eplb")


class ConfigError(ValueError):
    pass


def _keyed(key: str, default):
    """A field whose config key differs from its name."""
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    task: str = "synthetic"
    seed: int = 0
    iterations: int = 1000
    samples_per_group: int = 8
    top_k: int = 4
    mode: str = "phase"
    learning_rate: float = 1e-6
    weight_decay: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    eps_lo: float = _keyed("clip.eps_lo", 0.2)
    eps_hi: float = _keyed("clip.eps_hi", 0.28)
    eps_num: float = _keyed("estimator.eps_num", 1e-8)
    eps_skip: float = _keyed("estimator.eps_skip", 1e-6)
    gamma: float = _keyed("estimator.gamma", 0.3)
    beta_max: float = _keyed("estimator.beta_max", 50.0)
    beta_tol: float = _keyed("estimator.beta_tol", 1e-6)
    direction: str = _keyed("shaping.direction", "maximize")
    y_min: float = _keyed("shaping.y_min", 0.0)
    y_max: float = _keyed("shaping.y_max", 1.0)
    shaping_multiplier: float = _keyed("shaping.c", 5.0)
    shaping_exponent: float = _keyed("shaping.alpha_r", 1.0)
    archive_capacity: int = _keyed("archive.capacity", 16)
    select_temperature: float = _keyed("archive.select_temperature", 0.5)
    context_dim: int = _keyed("policy.context_dim", 8)
    hidden_dim: int = _keyed("policy.hidden_dim", 32)
    vocab_size: int = _keyed("policy.vocab_size", 24)
    seq_length: int = _keyed("policy.seq_length", 8)
    synthetic_base: float = _keyed("synthetic.base", 0.5)
    synthetic_delta0: float = _keyed("synthetic.delta0", 0.25)
    synthetic_decay: float = _keyed("synthetic.decay_horizon", 250.0)
    synthetic_noise: float = _keyed("synthetic.noise", 0.0)
    synthetic_target_token: int = _keyed("synthetic.target_token", 0)
    synthetic_tie_weight: float = _keyed("synthetic.tie_weight", 0.05)
    eplb_num_experts: int = _keyed("eplb.num_experts", 32)
    eplb_num_devices: int = _keyed("eplb.num_devices", 4)
    eplb_num_profiles: int = _keyed("eplb.num_profiles", 8)
    eplb_profile_seed: int = _keyed("eplb.profile_seed", 7)
    eplb_profiles_path: str = _keyed("eplb.profiles_path", "")

    def validate(self) -> None:
        def fail(name: str, problem: str):
            raise ConfigError(f"{_KEYS[name]}: {problem}")

        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                fail(f.name, f"must be finite, got {getattr(self, f.name)}")
        for name, allowed in (("task", TASKS), ("mode", MODES), ("direction", DIRECTIONS)):
            if getattr(self, name) not in allowed:
                fail(name, f"unknown value {getattr(self, name)!r} (expected one of {allowed})")
        for name in (
            "samples_per_group", "top_k", "learning_rate", "eps_lo", "eps_hi",
            "eps_num", "eps_skip", "beta_max", "beta_tol", "shaping_multiplier",
            "shaping_exponent", "archive_capacity", "select_temperature",
            "context_dim", "hidden_dim", "vocab_size", "seq_length",
            "synthetic_delta0", "synthetic_decay",
        ):
            if not getattr(self, name) > 0:
                fail(name, f"must be positive, got {getattr(self, name)}")
        if self.samples_per_group < 2:
            fail("samples_per_group", f"need >= 2, got {self.samples_per_group}")
        # Shaped rewards lie in [-1, shaping.c]; the estimators sum a group's
        # squared deviations, which must stay finite.
        spread = self.shaping_multiplier + 1.0
        if not math.isfinite(self.samples_per_group * spread * spread):
            fail("shaping_multiplier", f"{self.shaping_multiplier} too large: squares overflow")
        if not 2 <= self.top_k <= self.samples_per_group:
            fail("top_k", f"{self.top_k} outside [2, samples_per_group={self.samples_per_group}]")
        if self.eps_lo >= 1.0:
            fail("eps_lo", f"must be < 1 so the lower clip stays positive, got {self.eps_lo}")
        if self.eps_skip < self.eps_num:
            fail("eps_skip", f"{self.eps_skip} must be >= estimator.eps_num ({self.eps_num})")
        if not self.y_min < self.y_max:
            fail("y_min", f"{self.y_min} must be < shaping.y_max ({self.y_max})")
        for name in (
            "iterations", "seed", "eplb_profile_seed", "gamma", "weight_decay", "synthetic_noise",
        ):
            if not getattr(self, name) >= 0:
                fail(name, f"must be >= 0, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                fail(name, f"must be in [0, 1), got {getattr(self, name)}")
        if not 0 <= self.synthetic_target_token < self.vocab_size:
            fail(
                "synthetic_target_token",
                f"{self.synthetic_target_token} outside [0, policy.vocab_size={self.vocab_size})",
            )
        if not 0.0 <= self.synthetic_tie_weight <= 1.0:
            fail("synthetic_tie_weight", f"must be in [0, 1], got {self.synthetic_tie_weight}")
        if not self.eplb_profiles_path:
            if not 1 <= self.eplb_num_devices <= self.eplb_num_experts:
                fail(
                    "eplb_num_devices",
                    f"{self.eplb_num_devices} outside [1, eplb.num_experts={self.eplb_num_experts}]",
                )
            if self.eplb_num_profiles < 1:
                fail("eplb_num_profiles", f"must be >= 1, got {self.eplb_num_profiles}")


# field name -> dotted config key, and back
_KEYS = {f.name: f.metadata.get("key", f.name) for f in fields(RunConfig)}
_FIELDS = {_KEYS[f.name]: f for f in fields(RunConfig)}


def _parse_value(key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from exc


def parse_config_text(text: str) -> RunConfig:
    config = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        f = _FIELDS[key]
        setattr(config, f.name, _parse_value(key, f.type, raw))
    config.validate()
    return config


def load_config(path) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def config_to_dict(config: RunConfig) -> dict:
    """Fully resolved config as dotted keys, for the trace header echo."""
    return {key: getattr(config, name) for name, key in _KEYS.items()}
