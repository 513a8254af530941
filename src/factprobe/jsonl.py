"""The one line format of every JSONL input and artifact.

A file is UTF-8, one compact JSON object per line. Corpus files, bundle
artifacts, record stores and score tables open with a header line
``{"schema_version": 1, "kind": ...}``; replay fixtures have none. A line
that is not a JSON object, or a header of another version or kind, is a
``MalformedRecord`` naming the file and line.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import MalformedRecord

SCHEMA_VERSION = 1


def dump(obj) -> str:
    """Canonical serialization: the bytes of a value are a pure function of it."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def iter_lines(path, kind: str | None = None):
    """Yield ``(line_number, record)`` for each non-blank line of ``path``.

    With ``kind``, the first line must be the header of that kind; it is
    checked and not yielded.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.isspace():
                continue
            try:
                record = json.loads(raw)
            except ValueError as exc:
                raise MalformedRecord(
                    f"invalid JSON: {exc}", file=str(path), line=lineno
                ) from exc
            if not isinstance(record, dict):
                raise MalformedRecord("record is not an object", file=str(path), line=lineno)
            if kind is not None:
                for field, expected in (("schema_version", SCHEMA_VERSION), ("kind", kind)):
                    if record.get(field) != expected:
                        raise MalformedRecord(
                            f"expected {field} {expected!r}, found {record.get(field)!r}",
                            file=str(path), line=lineno, field=field,
                        )
                kind = None
                continue
            yield lineno, record


def read_jsonl(path, kind: str) -> list[dict]:
    """The records of a ``kind`` file, header checked and dropped."""
    return [record for _, record in iter_lines(path, kind)]


def write_jsonl(path: Path, kind: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump({"schema_version": SCHEMA_VERSION, "kind": kind}) + "\n")
        for line in lines:
            fh.write(dump(line) + "\n")
