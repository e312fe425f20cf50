"""TraceWriter: canonical bytes, and when records reach the file.

Every line must be the record as ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` writes it. The writer flushes after the header and
after each step record, so once ``write_step`` returns another reader sees
every record so far, and ``close`` writes out what an interrupted iteration
left.
"""

import io
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from phasevolve import orchestrator
from phasevolve.config import RunConfig
from phasevolve.orchestrator import run_evolution
from phasevolve.rewards import OutcomeStatus
from phasevolve.tasks import make_task
from phasevolve.trace import TraceWriter, read_trace


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# The seven candidate fields, in write_candidate's order.
CANDIDATE_FIELDS = ("iteration", "candidate_id", "parent_id", "status", "raw_score", "reward", "error")


def candidate_line(values: tuple) -> str:
    return canonical({"kind": "candidate", **dict(zip(CANDIDATE_FIELDS, values))})


def test_lines_are_canonical_json_for_awkward_values(tmp_path):
    config = {"seed": 0, "note": None, "flags": [True, False]}
    candidates = [
        (0, 1, None, "parse_failure", None, math.nan, None),
        (0, 2, 0, "evaluator_error", -math.inf, math.inf, "ValueError: ungültige Eingabe — 负载 ☃"),
        (0, 3, 0, "parsed", math.nan, -math.inf, "tab\tnew\nline \x00 \x1f \\ \"quoted\" \u2028"),
        (1, 4, 3, "parsed", -0.0, 5e-324, ""),
        (2**70, 2**63, 2**64 + 1, "parsed", 1e308, -1e308, "\ud83d\ude00 \U0001f600"),
    ]
    step = {"iteration": 0, "skipped": True, "loss": None, "advantages": [0.0, -0.0, 1e-300]}
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path)
    try:
        writer.write_header(config)
        for values in candidates:
            writer.write_candidate(*values)
        writer.write_step(step)
    finally:
        writer.close()
    expected = [canonical({"kind": "header", "version": 2, "config": config})]
    expected += [candidate_line(values) for values in candidates]
    expected += [canonical({"kind": "step", **step}), ""]
    assert path.read_text(encoding="utf-8").split("\n") == expected


# Any JSON value, and a numpy float (a float subclass json.dumps accepts).
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
) | st.builds(np.float64, st.floats())


@given(st.tuples(*[VALUES] * len(CANDIDATE_FIELDS)))
@settings(max_examples=300, deadline=None)
def test_a_candidate_line_is_json_dumps_of_its_record(values):
    buffer = io.StringIO()
    writer = TraceWriter.__new__(TraceWriter)
    writer._fh = buffer
    writer.write_candidate(*values)
    assert buffer.getvalue() == candidate_line(values) + "\n"


# The loop's own records take write_candidate's one-template path: int ids and
# iteration, an OutcomeStatus value, finite float scores and no error. Drawn
# around that domain and over its edges, where a record must fall back.
LOOP_INTS = st.integers(0, 2**64) | st.booleans()
LOOP_SCORES = (
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e308, -1e308, math.nan, math.inf, -math.inf])
    | st.floats()
    | st.builds(np.float64, st.floats())
)
LOOP_STATUSES = st.sampled_from([status.value for status in OutcomeStatus] + ["timeout"])


@given(
    LOOP_INTS,
    LOOP_INTS,
    LOOP_INTS,
    LOOP_STATUSES,
    LOOP_SCORES,
    LOOP_SCORES,
    st.none() | st.just("ValueError: boom"),
)
@example(3, 17, 2, "parsed", 0.71, 3.55, None)
@example(2**64, 2**63, 0, "parse_failure", -0.0, 5e-324, None)
@example(True, 1, False, "parsed", 0.5, 0.5, None)
@example(0, 1, 0, "parsed", np.float64(0.1), 1e16, None)
@example(0, 1, 0, "timeout", 0.5, 0.5, None)
@example(0, 1, 0, "parsed", math.inf, 1e308, None)
@example(0, 1, 0, "evaluator_error", 0.5, -math.inf, None)
@example(0, 1, 0, "parsed", math.nan, 0.5, None)
@settings(max_examples=300, deadline=None)
def test_a_loop_candidate_line_is_json_dumps_of_its_record(
    iteration, candidate_id, parent_id, status, raw_score, reward, error
):
    values = (iteration, candidate_id, parent_id, status, raw_score, reward, error)
    buffer = io.StringIO()
    writer = TraceWriter.__new__(TraceWriter)
    writer._fh = buffer
    writer.write_candidate(*values)
    assert buffer.getvalue() == candidate_line(values) + "\n"


def test_records_reach_the_file_when_write_step_returns(tmp_path):
    path = tmp_path / "trace.jsonl"
    writer = TraceWriter(path)
    try:
        writer.write_header({"seed": 0})
        assert [r["kind"] for r in read_trace(path)] == ["header"]
        for iteration in range(2):
            for cid in range(3):
                writer.write_candidate(iteration, cid, None, "parsed", 0.5, 0.5, None)
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

    def fails_at_iteration_2(state, table, candidates):
        if state.iteration == 2:
            raise RuntimeError("step crashed")
        return training_step(state, table, candidates)

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
