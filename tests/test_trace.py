"""TraceWriter: canonical bytes, and when records reach the file.

Every line must be the record as ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` writes it. The writer flushes after the header and
after each step record, so once ``write_step`` returns another reader sees
every record so far, and ``close`` writes out what an interrupted iteration
left.
"""

import json
import math

import pytest

from phasevolve import orchestrator
from phasevolve.config import RunConfig
from phasevolve.orchestrator import run_evolution
from phasevolve.tasks import make_task
from phasevolve.trace import TraceWriter, read_trace


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_lines_are_canonical_json_for_awkward_values(tmp_path):
    config = {"seed": 0, "note": None, "flags": [True, False]}
    candidates = [
        {"iteration": 0, "raw_score": None, "reward": math.nan, "error": None},
        {
            "iteration": 0,
            "raw_score": -math.inf,
            "error": "ValueError: ungültige Eingabe — 负载 ☃",
            "nested": [[1, [2.5, None]], {"b": True, "a": False}],
        },
    ]
    step = {"iteration": 0, "skipped": True, "loss": None, "advantages": [0.0, -0.0, 1e-300]}
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path)
    try:
        writer.write_header(config)
        for record in candidates:
            writer.write_candidate(record)
        writer.write_step(step)
    finally:
        writer.close()
    expected = [canonical({"kind": "header", "version": 2, "config": config})]
    expected += [canonical({"kind": "candidate", **rec}) for rec in candidates]
    expected += [canonical({"kind": "step", **step}), ""]
    assert path.read_text(encoding="utf-8").split("\n") == expected


def test_records_reach_the_file_when_write_step_returns(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path)
    try:
        writer.write_header({"seed": 0})
        assert [r["kind"] for r in read_trace(path)] == ["header"]
        for iteration in range(2):
            for cid in range(3):
                writer.write_candidate({"iteration": iteration, "candidate_id": cid})
            writer.write_step({"iteration": iteration})
            with open(path, encoding="utf-8") as other:
                lines = other.read().split("\n")
            assert lines[-1] == ""
            assert len(lines) - 1 == 1 + 4 * (iteration + 1)
            assert json.loads(lines[-2]) == {"kind": "step", "iteration": iteration}
    finally:
        writer.close()


def test_a_step_that_raises_leaves_its_candidates_in_the_file(tmp_path, monkeypatch):
    config = RunConfig(task="synthetic", iterations=5, samples_per_group=4, seed=3)
    training_step = orchestrator.training_step

    def fails_at_iteration_2(state, batch, candidates):
        if state.iteration == 2:
            raise RuntimeError("step crashed")
        return training_step(state, batch, candidates)

    monkeypatch.setattr(orchestrator, "training_step", fails_at_iteration_2)
    path = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError, match="step crashed"):
        run_evolution(config, make_task(config), path)
    kinds = [(r["kind"], r.get("iteration")) for r in read_trace(path)]
    expected = [("header", None)]
    for iteration in range(3):
        expected += [("candidate", iteration)] * 4
        if iteration < 2:
            expected.append(("step", iteration))
    assert kinds == expected
    assert path.read_text(encoding="utf-8").endswith("\n")
