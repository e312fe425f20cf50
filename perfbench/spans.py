"""Span tracing for the benchmark's traced run, installed from outside the program.

Every wrapped call into a phasevolve module records one span: its name, the
id of the span that was open when it started (its parent), and its start and
end times. Spans are kept in memory and written out when the run ends. A
span's self time is its duration minus the durations of its child spans.

The wrappers replace module and class attributes for the duration of one
run and are removed afterwards; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

# Span names outside the loop: per-run set-up calls, reported on their own.
SETUP_SPANS = ("config.load_config", "tasks.make_task")
LOOP_SPAN = "orchestrator.loop"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent_id, start, end]; id = index
        self.kept: dict[str, list] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, keep: bool = False):
        """Return fn timed as span `name`; with keep, also record its results."""
        spans, open_ids, clock = self.spans, self._open, time.perf_counter
        results = self.kept.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_ids[-1] if open_ids else -1, clock(), 0.0]
            open_ids.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_ids.pop()
            if results is not None:
                results.append(result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, _, start, end), child in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start - child)
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def layer_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for each public call the loop makes.

    Names imported into ``orchestrator`` by value are wrapped where the loop
    looks them up. Trace writes share one span name.
    """
    from phasevolve import config, estimators, orchestrator, policy, tasks, trace

    targets = [
        (orchestrator, "run_evolution", LOOP_SPAN),
        (orchestrator, "init_run_state", "orchestrator.init_run_state"),
        (orchestrator, "select_parent", "orchestrator.select_parent"),
        (orchestrator, "build_context", "orchestrator.build_context"),
        (orchestrator, "rollout_group", "orchestrator.rollout_group"),
        (orchestrator, "update_frontier", "orchestrator.update_frontier"),
        (orchestrator, "training_step", "orchestrator.training_step"),
        (orchestrator, "shape_reward", "rewards.shape_reward"),
        (orchestrator, "config_to_dict", "config.config_to_dict"),
        (config.RunConfig, "validate", "config.validate"),
        (config, "load_config", "config.load_config"),
        (tasks, "make_task", "tasks.make_task"),
        (policy.PolicyParams, "fingerprint", "policy.fingerprint"),
        (policy.RolloutContext, "features", "policy.features"),
        (estimators.PhaseSchedule, "alpha", "estimators.alpha"),
        (trace.TraceWriter, "__init__", "trace.open"),
        (trace.TraceWriter, "close", "trace.close"),
    ]
    targets += [
        (policy, fn, f"policy.{fn}")
        for fn in (
            "sample_sequence",
            "token_entropy",
            "broadcast_advantage",
            "loss_and_gradient",
            "grad_norm",
            "optimizer_step",
        )
    ]
    targets += [
        (estimators, fn, f"estimators.{fn}")
        for fn in (
            "group_relative_raw",
            "grpo_advantage",
            "entropic_beta",
            "entropic_advantage",
            "pkpo_weights",
            "sloo_weights",
            "standardize",
            "mix_advantages",
        )
    ]
    targets += [
        (task_cls, fn, f"tasks.{fn}")
        for task_cls in (tasks.EplbTask, tasks.SyntheticTask)
        for fn in ("evaluate", "describe")
    ]
    targets += [
        (trace.TraceWriter, fn, "trace.write")
        for fn in ("write_header", "write_candidate", "write_step")
    ]
    return targets


@contextlib.contextmanager
def replaced(owner, attr: str, value):
    """Set owner.attr to value for the block, then restore the original."""
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install a span wrapper on every layer target for the block."""
    with contextlib.ExitStack() as stack:
        for owner, attr, name in layer_targets():
            fn = vars(owner)[attr]
            keep = name == "tasks.describe"
            stack.enter_context(replaced(owner, attr, tracer.wrap(name, fn, keep)))
        yield
