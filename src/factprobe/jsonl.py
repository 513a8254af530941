"""The one line format of every JSONL file, and the fields of each kind read.

A file is UTF-8, one compact JSON object per line (never ``NaN`` or
``Infinity``, which are not JSON), opened by a header line
``{"schema_version": 1, "kind": ...}`` (replay fixtures have none). ``SPECS``
maps each field of a kind to a check of its value: ``?`` marks an optional
field, a nested mapping an object, ``*`` every member of a map of objects,
and unnamed fields are ignored. A line that fails is a ``MalformedRecord``
naming file, line and field. A file is written whole or not at all: its
lines, or the text of a manifest or report file, go to a temporary file
beside it that replaces it only once the last line is written. A log
(progress, cache, recorded fixtures) is instead appended to, whole lines at
a time, and survives a killed append."""

from __future__ import annotations

import contextlib
import json
import os
import re
import reprlib
import sys
from pathlib import Path

from .errors import ConfigError, MalformedRecord, MissingInput

SCHEMA_VERSION = 1


def _check(name: str, test):
    test.__name__ = name  # what a failure says the value should be
    return test


# A JSON number must fit in a float: a larger integer, which ``json`` reads
# exactly, fails every float sum, mean and conversion it reaches.
_FLOAT_MAX = sys.float_info.max
STRING = _check("a string", lambda v: type(v) is str)
TEXT = _check("a non-blank string", lambda v: type(v) is str and v.strip() != "")
INT = _check("an integer within float range",
             lambda v: type(v) is int and -_FLOAT_MAX <= v <= _FLOAT_MAX)
NUMBER = _check("a finite number within float range", lambda v: (
    (type(v) is int or type(v) is float) and -_FLOAT_MAX <= v <= _FLOAT_MAX))
BOOL = _check("a boolean", lambda v: type(v) is bool)


def _list_of(item, name: str):
    return _check(name, lambda v: type(v) is list and all(map(item, v)))


def _map_of(item, name: str):
    return _check(name, lambda v: type(v) is dict and all(map(item, v.values())))


def _or_null(check):
    return _check(f"null or {check.__name__}", lambda v: v is None or check(v))


_INFLECTION_PAIR = _check("an object of string noninflected and inflected forms", lambda v: (
    type(v) is dict and type(v.get("noninflected")) is str and type(v.get("inflected")) is str))
_RANK = _check("an integer >= 1 within float range",
               lambda v: type(v) is int and 1 <= v <= _FLOAT_MAX)
_RECORD = {
    "fact_id": STRING, "language": STRING, "relation_id": STRING, "source": STRING,
    "best_correct_rank": _RANK, "best_correct_form?": STRING,
    "form_ranks?": _or_null(_map_of(_RANK, "a map of integers >= 1")),
    "qe_score?": _or_null(NUMBER), "subject_gender?": _or_null(STRING), "prompt?": STRING,
}
SPECS = {
    "entities": {
        "id": TEXT, "labels": _map_of(TEXT, "a map of non-blank strings"),
        "aliases?": _map_of(_list_of(TEXT, ""), "a map of lists of non-blank strings"),
    },
    "relations": {
        "id": TEXT, "english_template": STRING, "templates": _map_of(STRING, "a map of strings"),
        "object_final?": _map_of(BOOL, "a map of booleans"), "inflection_expected?": BOOL,
    },
    "facts": {
        "id": TEXT, "subject_id": STRING, "relation_id": STRING, "object_id": STRING,
        "language": STRING, "subject_gender?": _or_null(STRING),
    },
    "candidate_sets": {  # one line per fact; its sets differ only in prompt and QE score
        "fact_id": STRING, "language": STRING, "relation_id": STRING,
        "correct_forms": _check("a non-empty list of strings", lambda v: (
            type(v) is list and v != [] and all(type(form) is str for form in v))),
        # One comprehension over the pairs: a bundle line holds k of them.
        "distractors": _check("a list of [entity id, form] string pairs", lambda v: (
            type(v) is list and all([type(p) is list and len(p) == 2 and type(p[0]) is str
                                     and type(p[1]) is str for p in v]))),
        "no_space?": BOOL, "inflection_pair?": _or_null(_INFLECTION_PAIR),
        "subject_gender?": _or_null(STRING),
        "sources": {"*": {"prompt": STRING, "qe_score?": _or_null(NUMBER)}},
    },
    "records": _RECORD,
    "progress": _RECORD,  # the record of each set, appended as it is scored
    "scores": {"prompt": STRING, "continuation": STRING, "logprob": NUMBER, "token_count?": INT},
    "fixture": {  # a replay fixture line; a response-cache entry is one such line
        "request": {"client_id": STRING, "text": STRING, "source_language": STRING,
                    "target_language": STRING, "extra?": _map_of(STRING, "a map of strings")},
        "response": STRING,
    },
}


def _compile(spec: dict) -> tuple:
    """``(name, required, check)`` per field; a nested spec is compiled too."""
    return tuple((name.rstrip("?"), not name.endswith("?"),
                  _compile(check) if isinstance(check, dict) else check)
                 for name, check in spec.items())


_COMPILED = {kind: _compile(spec) for kind, spec in SPECS.items()}


def _generate(fields: tuple, namespace: dict) -> str:
    """Define in ``namespace`` a function of one value that is true exactly
    when ``_check_object(fields, value, ...)`` would not raise, and return
    its name. Each leaf check is called under the name ``c<n>``, and each
    nested spec gets a function of its own."""
    terms = ["type(r) is dict"]
    for name, required, check in fields:
        if type(check) is tuple:
            call = _generate(check, namespace)
        else:
            call = f"c{len(namespace)}"
            namespace[call] = check
        value = f"r[{name!r}]"
        if name == "*":
            terms.append(f"all(map({call}, r.values()))")
        elif required:
            terms.append(f"{name!r} in r and {call}({value})")
        elif type(check) is tuple:  # an optional object may be null
            terms.append(f"({name!r} not in r or {value} is None or {call}({value}))")
        else:
            terms.append(f"({name!r} not in r or {call}({value}))")
    function = f"f{len(namespace)}"
    exec(f"def {function}(r):\n    return {' and '.join(terms)}\n", namespace)
    return function


def _predicate(fields: tuple):
    """Whether a value passes ``fields``, as one generated function, so a
    valid line costs one call per leaf; only a line that fails is walked
    by ``_check_object`` for its message."""
    namespace: dict = {}
    return namespace[_generate(fields, namespace)]


_VALID = {kind: _predicate(fields) for kind, fields in _COMPILED.items()}
_IS_OBJECT = _predicate(())  # the check of a kind without a spec


def _check_object(fields: tuple, record, where: dict, at: str | None = None,
                  error=MalformedRecord, noun: str = "field", closed: bool = False) -> None:
    """Raise ``error`` with ``where`` and, under ``noun``, the first field of
    ``record`` that fails its check, or with ``closed`` that ``fields`` does
    not name. An optional object may be null."""
    if type(record) is not dict:
        context = where if at is None else dict(where, **{noun: at})
        raise error(f"{at or 'record'} is not an object", **context)
    if closed:
        names = {name for name, _, _ in fields}
        for key in record:
            if key not in names:
                field = f"{key}" if at is None else f"{at}.{key}"
                raise error(f"unknown {noun} {field!r}", **{noun: field}, **where)
    for name, required, check in fields:
        if name == "*":
            for key, value in record.items():
                _check_object(check, value, where, key if at is None else f"{at}.{key}",
                              error, noun, closed)
            continue
        field = name if at is None else f"{at}.{name}"
        if name not in record:
            if required:
                raise error(f"missing {noun} {field!r}", **{noun: field}, **where)
        elif type(check) is tuple:
            if required or record[name] is not None:
                _check_object(check, record[name], where, field, error, noun, closed)
        elif not check(record[name]):
            raise error(f"{noun} {field!r} is not {check.__name__}: "
                        f"{reprlib.repr(record[name])}", **{noun: field}, **where)


def check_line(kind: str, record, **where):
    """``record`` if it is a valid line of ``kind``, else a ``MalformedRecord``
    carrying ``where`` and the field at fault."""
    if not _VALID[kind](record):
        _check_object(_COMPILED[kind], record, where)
    return record


# Built once, since ``json.dumps`` and ``json.loads`` given arguments build one
# per call. Neither lets NaN or Infinity through: they are not JSON.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"),
                            allow_nan=False)
# The C encoder that ``_ENCODER.encode`` builds on every call, built once: the
# arguments ``JSONEncoder.iterencode`` passes for its options, without the
# markers of circular references, which no value written here holds.
_ENCODE = json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def loads(raw):
    """The value of one JSON text, given as UTF-8 bytes or as a string; the
    ``NaN``, ``Infinity`` and ``-Infinity`` that ``json.loads`` accepts, and
    nesting deeper than the decoder can recurse, are a ``ValueError`` like
    any other invalid JSON."""
    try:
        return _DECODER.decode(raw if type(raw) is str else raw.decode("utf-8"))
    except RecursionError as exc:
        raise ValueError("nesting too deep") from exc


def dump(obj) -> str:
    """Canonical serialization: the bytes of a value are a pure function of it."""
    return "".join(_ENCODE(obj, 0))


_BACKSLASH = ord("\\")
# Each escape is matched whole, so an escaped backslash never starts one.
_ESCAPE = re.compile(rb"\\(?:ud[89ab]..\\ud[c-f]..|(ud[89a-f]..)|.)", re.IGNORECASE)


def lone_surrogate(raw: bytes) -> bool:
    """Whether the JSON text ``raw`` escapes one half of a surrogate pair
    without the other, which decodes to a string no UTF-8 file can hold."""
    return any(m[1] for m in _ESCAPE.finditer(raw))


def _header(kind: str, header: dict) -> tuple:
    """The header line of ``kind``, extended by the ``header`` fields, and
    its check; ``(None, None)`` for ``fixture``, the one headerless kind."""
    if kind == "fixture":
        return None, None
    line = {"schema_version": SCHEMA_VERSION, "kind": kind, **header}
    return line, _compile({name: _check(repr(value), lambda v, value=value: v == value)
                           for name, value in line.items()})


def iter_lines(path, kind: str, torn_tail: bool = False, **header):
    """Yield ``(line_number, record)`` for each non-blank line of ``path``,
    checked against the spec of ``kind`` (a kind without one, such as
    ``audit``, need only be objects). Every kind but ``fixture`` opens with
    its header line, here extended by the ``header`` fields; the header is
    checked and not yielded. With ``torn_tail``, a last line without its
    newline that does not decode, which is what a killed append leaves, is
    skipped instead of being an error. A line that escapes a lone surrogate
    is refused: its text could be read but never written again."""
    fields, valid = _COMPILED.get(kind, ()), _VALID.get(kind, _IS_OBJECT)
    _, expected = _header(kind, header)
    scan = _DECODER.scan_once
    try:
        fh = open(path, "rb")  # json decodes each line, so bad UTF-8 names its line
    except FileNotFoundError as exc:
        raise MissingInput("input file is missing", path=str(path)) from exc
    except IsADirectoryError as exc:
        raise ConfigError("a directory is in the way of a file", path=str(path)) from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.isspace():
                continue
            # One scan of a line whose value ends it, before its newline if
            # it has one; any other line, such as one with whitespace around
            # its value or one that does not decode, is left to ``loads``,
            # which reads it or raises the error that names it.
            try:
                text = raw.decode("utf-8")
                record, end = scan(text, 0)
                whole = end == len(text) - text.endswith("\n")
            except (ValueError, StopIteration, RecursionError):
                whole = False
            if not whole:
                try:
                    record = loads(raw)
                except ValueError as exc:
                    if torn_tail and not raw.endswith(b"\n"):
                        return
                    raise MalformedRecord(f"invalid JSON: {exc}", file=str(path),
                                          line=lineno) from exc
            # A line with no escape costs one search for a byte, which is
            # several times faster than one for the two bytes of ``\u``; the
            # byte is given as an int, which ``bytes.__contains__`` takes
            # straight to ``memchr``.
            if _BACKSLASH in raw and lone_surrogate(raw):
                raise MalformedRecord("a \\u escape of a lone surrogate is not text",
                                      file=str(path), line=lineno)
            if expected is not None:
                _check_object(expected, record, {"file": str(path), "line": lineno})
                expected = None
                continue
            if not valid(record):
                _check_object(fields, record, {"file": str(path), "line": lineno})
            yield lineno, record


def read_jsonl(path, kind: str) -> list[dict]:
    """The checked records of a ``kind`` file, header dropped."""
    return [record for _, record in iter_lines(path, kind)]


def make_dir(path) -> None:
    """Make the directory ``path`` and its missing parents. A file in the
    way is a ``ConfigError`` naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        in_the_way = next(p for p in (path, *path.parents) if p.exists())
        raise ConfigError("a file is in the way of a directory",
                          path=str(in_the_way)) from exc


def open_log(path, kind: str, **header) -> int:
    """An ``O_APPEND`` descriptor of the ``kind`` log at ``path``, for
    ``append``. A headed log that is empty or opens with another header
    (``header`` extends that of ``kind``) is started afresh. A last line
    without its newline is cut off if it does not decode, which is what a
    killed append leaves and what ``iter_lines`` with ``torn_tail`` skips,
    and ended with its newline if it does. The repair assumes that no other
    process appends to the log meanwhile."""
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        line, expected = _header(kind, header)
        if line is not None:
            with open(fd, "rb", closefd=False) as fh:  # the header is its first non-blank line
                first = next((raw for raw in fh if not raw.isspace()), b"")
            try:
                _check_object(expected, loads(first), {})
            except (ValueError, MalformedRecord):
                os.ftruncate(fd, 0)
                append(fd, dump(line) + "\n")
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = os.pread(fd, size, 0)
            start = data.rfind(b"\n") + 1
            try:
                loads(data[start:])
            except ValueError:
                os.ftruncate(fd, start)
            else:
                append(fd, "\n")
    except BaseException:
        os.close(fd)
        raise
    return fd


def append(fd: int, text: str) -> None:
    """Append ``text``, whole lines, to the log at ``fd`` with one write; a
    short write is an ``OSError`` and leaves a torn tail."""
    data = text.encode("utf-8")
    written = os.write(fd, data)
    if written != len(data):
        raise OSError(f"short write: {written} of {len(data)} bytes")


@contextlib.contextmanager
def _replacing(path):
    """Yield a text file ``<name>.tmp`` beside ``path``, which replaces
    ``path`` when the block ends without an error and is deleted when it
    raises. So ``path`` holds either all that the block wrote or what it held
    before; a killed process may leave the temporary file, which the next
    write of ``path`` overwrites."""
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as fh:
            yield fh
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    os.replace(temporary, path)


@contextlib.contextmanager
def writing(path: Path, kind: str, **header):
    """Yield ``write(line)``, which adds one line to the ``kind`` file at
    ``path`` under its header, extended by the ``header`` fields, and
    returns the line's text. A line is a value, encoded by ``dump``, or a
    string: the ``dump`` text of a value, written as it is. The file is
    written whole or not at all (see ``_replacing``)."""
    with _replacing(path) as fh:
        fh.write(dump({"schema_version": SCHEMA_VERSION, "kind": kind, **header}) + "\n")

        def write(line) -> str:
            text = line if type(line) is str else dump(line)
            fh.write(text + "\n")
            return text

        yield write


def write_text(path, text: str) -> None:
    """``text`` as the whole of the file at ``path``, written whole or not at
    all (see ``_replacing``): a manifest or a report file."""
    with _replacing(path) as fh:
        fh.write(text)


def write_jsonl(path: Path, kind: str, lines, **header) -> None:
    """``lines`` under the header of ``kind``, extended by the ``header``
    fields, written whole or not at all (see ``writing``, which also says
    what a line may be)."""
    with writing(path, kind, **header) as write:
        for line in lines:
            write(line)
