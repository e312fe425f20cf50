"""The benchmark's per-layer split still sees the loop.

``perfbench/spans.py`` times each layer by wrapping named functions where the
loop looks them up. A speed-up that inlines a wrapped call, or calls it by
another path, moves that call's time into its caller's self time, and nothing
else fails. Short phase-mode runs of both sample configs, under the
benchmark's own wrappers (loaded by path, as ``test_perfbench_spans.py``
does), must record each (caller, callee) pair of span names that they record
today: the pairs pin which spans are called and from where.
"""

from pathlib import Path

import pytest
from test_perfbench_spans import load_spans

from phasevolve import orchestrator, tasks
from phasevolve.config import parse_config_text

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CALLS = {
    None: {"orchestrator.loop", "tasks.make_task"},
    "orchestrator.loop": {
        "config.validate",
        "config.config_to_dict",
        "orchestrator.init_run_state",
        "orchestrator.rollout_group",
        "orchestrator.update_frontier",
        "orchestrator.training_step",
        "policy.fingerprint",
        "tasks.describe",
        "trace.open",
        "trace.write",
        "trace.close",
    },
    "orchestrator.init_run_state": {"tasks.evaluate", "rewards.shape_reward"},
    "orchestrator.rollout_group": {
        "orchestrator.select_parent",
        "orchestrator.build_context",
        "policy.features",
        "policy.sample_sequence",
        "tasks.evaluate",
        "rewards.shape_reward",
    },
    "orchestrator.build_context": {"estimators.alpha"},
    "orchestrator.training_step": {
        "estimators.alpha",
        "estimators.group_relative_raw",
        "estimators.sloo_weights",
        "estimators.standardize",
        "estimators.mix_advantages",
        "policy.token_entropy",
        "policy.broadcast_advantage",
        "policy.loss_and_gradient",
        "policy.grad_norm",
        "policy.optimizer_step",
    },
}


@pytest.mark.parametrize("name", ["synthetic", "eplb"])
def test_a_traced_run_records_every_layer_from_its_caller(name, tmp_path):
    spans = load_spans()
    config = parse_config_text((CONFIGS / f"{name}.cfg").read_text() + "iterations = 5\n")
    assert config.mode == "phase"
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        orchestrator.run_evolution(config, tasks.make_task(config), tmp_path / "trace.jsonl")
    calls: dict = {}
    for callee, parent, _, _ in tracer.spans:
        caller = tracer.spans[parent][0] if parent >= 0 else None
        calls.setdefault(caller, set()).add(callee)
    assert calls == CALLS
