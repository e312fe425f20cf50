"""JSON Lines trace log for evolution runs.

One self-contained record per line: a header carrying the fully resolved
config, one record per evaluated candidate, and one per training step.
Records are whole lines, and the file is flushed once per iteration, after
its step record (and after the header), so a killed run loses at most its
unfinished iteration; ``read_trace`` skips a torn last line. The
serialization is canonical (sorted keys) so identical runs produce identical
bytes. Candidate lines, the most numerous, are filled into one fixed
template rather than encoded as a dict; each is byte-equal to what
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` writes.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

TRACE_VERSION = 2


# json.dumps(record, sort_keys=True, separators=(",", ":")), built once.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# A candidate record, keys in sorted order; write_candidate fills it in that order.
_CANDIDATE = (
    '{"candidate_id":%s,"error":%s,"iteration":%s,"kind":"candidate",'
    '"parent_id":%s,"raw_score":%s,"reward":%s,"status":%s}\n'
)


def _json_value(value) -> str:
    """``_dumps(value)``, without the encoder for the types a candidate holds."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is str:
        return encode_basestring_ascii(value)
    return _dumps(value)  # NaN, infinities, bools, numpy scalars, ...


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
        j = _json_value
        self._fh.write(_CANDIDATE % (
            j(candidate_id), j(error), j(iteration), j(parent_id), j(raw_score), j(reward),
            j(status),
        ))

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
