"""Correctness checks on one run's trace, and the counts the metrics need."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass


@dataclass
class TraceSummary:
    problems: list[str]
    digest: str
    bytes: int
    evaluations: int
    evals_not_parsed: int
    steps: int
    steps_with_error: int
    skipped: int
    g_skipped: int
    k_skipped: int
    frontier_gains: int
    best_score: float | None


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_trace(path, group_size: int, iterations: int) -> TraceSummary:
    """Check the trace against the loop's contract.

    One header first, `group_size` candidate records and one step record per
    iteration, equal parameter fingerprints at group start and end (the
    rollout barrier), and finite advantages, loss and gradient norm.
    """
    raw = path.read_bytes()
    problems: list[str] = []
    records = []
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno} does not parse: {exc}")

    kinds = Counter(rec.get("kind") for rec in records)
    if kinds["header"] != 1 or not records or records[0].get("kind") != "header":
        problems.append(f"expected one leading header, found {kinds['header']}")
    candidates = [rec for rec in records if rec.get("kind") == "candidate"]
    steps = [rec for rec in records if rec.get("kind") == "step"]

    per_iteration = Counter(rec["iteration"] for rec in candidates)
    if per_iteration != Counter({t: group_size for t in range(iterations)}):
        problems.append(f"expected {group_size} candidates in each of {iterations} iterations")
    if [rec["iteration"] for rec in steps] != list(range(iterations)):
        problems.append(f"expected one step record for each of {iterations} iterations")

    for rec in steps:
        t = rec["iteration"]
        if rec["params_hash_start"] != rec["params_hash_end"]:
            problems.append(f"iteration {t}: parameters changed during the rollout")
        if rec["advantages"] is not None and not all(map(_finite, rec["advantages"])):
            problems.append(f"iteration {t}: non-finite advantage")
        if rec["loss"] is not None and not _finite(rec["loss"]):
            problems.append(f"iteration {t}: non-finite loss")
        if not _finite(rec["grad_norm"]):
            problems.append(f"iteration {t}: non-finite grad_norm")

    # A candidate raises the frontier when it beats every earlier parsed score.
    gains, best = 0, None
    for rec in candidates:
        score = rec["raw_score"]
        if score is not None and (best is None or score > best):
            gains, best = gains + 1, score
    best_logged = steps[-1]["cumulative_max"] if steps else None
    if best_logged != best:
        problems.append(f"final cumulative_max {best_logged} != best candidate {best}")

    return TraceSummary(
        problems=problems,
        digest=hashlib.sha256(raw).hexdigest(),
        bytes=len(raw),
        evaluations=len(candidates),
        evals_not_parsed=sum(rec["status"] != "parsed" for rec in candidates),
        steps=len(steps),
        steps_with_error=sum(rec["error"] is not None for rec in steps),
        skipped=sum(bool(rec["skipped"]) for rec in steps),
        g_skipped=sum(bool(rec["g_skipped"]) for rec in steps),
        k_skipped=sum(bool(rec["k_skipped"]) for rec in steps),
        frontier_gains=gains,
        best_score=best_logged,
    )
