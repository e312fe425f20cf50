"""JSON Lines trace log for evolution runs.

One self-contained record per line: a header carrying the fully resolved
config, one record per evaluated candidate, and one per training step.
Records are whole lines, and the file is flushed once per iteration, after
its step record (and after the header), so a killed run loses at most its
unfinished iteration; ``read_trace`` skips a torn last line. The
serialization is canonical (sorted keys) so identical runs produce identical
bytes. Candidate lines, the most numerous, are filled into a fixed
template rather than encoded as a dict; each is byte-equal to what
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` writes. A
record as the loop makes it for a parsed candidate (int ids and iteration,
an ``OutcomeStatus`` value, finite float scores, no error) is one ``%``
operation; any other record, such as a failed candidate's, has each value
encoded on its own.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .rewards import OutcomeStatus

TRACE_VERSION = 2


# json.dumps(record, sort_keys=True, separators=(",", ":")), built once.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# A candidate record, keys in sorted order; write_candidate fills it in that order.
_CANDIDATE = (
    '{"candidate_id":%s,"error":%s,"iteration":%s,"kind":"candidate",'
    '"parent_id":%s,"raw_score":%s,"reward":%s,"status":%s}\n'
)
# A loop-made record: json.dumps writes an int and a finite float as %d and %r do.
_LOOP_CANDIDATE = (
    '{"candidate_id":%d,"error":null,"iteration":%d,"kind":"candidate",'
    '"parent_id":%d,"raw_score":%r,"reward":%r,"status":"%s"}\n'
)
# Plain ASCII letters and "_", which json.dumps writes as they are.
_STATUSES = frozenset(status.value for status in OutcomeStatus)


class TraceWriter:
    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write_header(self, config: dict) -> None:
        self._write({"kind": "header", "version": TRACE_VERSION, "config": config})
        self._fh.flush()

    def write_candidate(
        self, iteration, candidate_id, parent_id, status, raw_score, reward, error
    ) -> None:
        if (
            type(iteration) is type(candidate_id) is type(parent_id) is int
            and type(raw_score) is type(reward) is float
            and math.isfinite(raw_score)
            and math.isfinite(reward)
            and error is None
            and type(status) is str
            and status in _STATUSES
        ):
            loop_made = (candidate_id, iteration, parent_id, raw_score, reward, status)
            self._fh.write(_LOOP_CANDIDATE % loop_made)
            return
        values = (candidate_id, error, iteration, parent_id, raw_score, reward, status)
        self._fh.write(_CANDIDATE % tuple(map(_dumps, values)))

    def write_step(self, record: dict) -> None:
        self._write({"kind": "step", **record})
        self._fh.flush()

    def _write(self, record: dict) -> None:
        self._fh.write(_dumps(record) + "\n")

    def close(self) -> None:
        self._fh.close()


def read_trace(path) -> list[dict]:
    """All records of a trace, in file order.

    A last line that has no newline and does not parse is a record torn by a
    run killed mid-write, and is skipped. Any other line that does not parse
    raises ``json.JSONDecodeError`` with its position in the whole file. A
    line that parses but is not a JSON object, or a step record without an
    integer ``iteration``, raises ``ValueError`` naming its line.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")  # the last item is "" unless that line is torn
    records = []
    offset = 0
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if number == len(lines):
                    break
                raise json.JSONDecodeError(exc.msg, text, offset + exc.pos) from None
            if not isinstance(record, dict):
                raise ValueError(f"line {number}: not a JSON object")
            if record.get("kind") == "step" and not isinstance(record.get("iteration"), int):
                raise ValueError(f"line {number}: step record has no integer iteration")
            records.append(record)
        offset += len(line) + 1
    return records


def step_series(records: list[dict], name: str) -> list[tuple[int, float]]:
    """(iteration, value) pairs of one step-record field, sorted by iteration.

    Any field whose values are all numbers, booleans or null can be read.
    Booleans read as 0.0 and 1.0; null values (e.g. loss on a skipped step)
    are omitted. Any other name raises ``ValueError`` listing the fields that
    can be read. Records without steps give no pairs, whatever the name.
    """
    steps = [rec for rec in records if rec.get("kind") == "step"]
    numeric = [
        key for key in (steps[0] if steps else ())
        if all(isinstance(rec.get(key), (int, float, type(None))) for rec in steps)
    ]
    if steps and name not in numeric:
        raise ValueError(f"{name!r} is not a numeric step field; valid: {', '.join(numeric)}")
    pairs = [(rec["iteration"], float(rec[name])) for rec in steps if rec.get(name) is not None]
    return sorted(pairs, key=lambda item: item[0])
