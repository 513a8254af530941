import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe.errors import MalformedRecord

from conftest import tear_writes_of
from factprobe.jsonl import (_COMPILED, _VALID, _check_object, _header, _predicate, append,
                             check_line, dump, iter_lines, open_log, read_jsonl, write_jsonl,
                             write_text, writing)

# A bundle line as build-dataset writes it: 2 correct forms, 50 distractors
# and three sources.
_CANDIDATE_SET = {
    "fact_id": "f-1-aa-00",
    "language": "aa",
    "relation_id": "R1",
    "correct_forms": ["o1aa0aa", "o1aa0aazu"],
    "distractors": [[f"Q{i:04d}", f"Q{i:04d}-label"] for i in range(50)],
    "salt": "toy-salt",
    "subject_gender": "male",
    "inflection_pair": {"noninflected": "o1aa0aa", "inflected": "o1aa0aazu"},
    "no_space": False,
    "sources": {
        "LLM": {"prompt": "s1aa0aa wqr1", "qe_score": 0.711},
        "MT": {"prompt": "s1aa0aa wqr1", "qe_score": 0.811},
        "TEMPLATE": {"prompt": "s1aa0aa wqr1", "qe_score": 0.611},
    },
}


def test_unknown_fields_are_ignored():
    line = dict(_CANDIDATE_SET, note="kept as is")
    line["sources"] = dict(line["sources"], MT=dict(line["sources"]["MT"], note="kept"))
    assert check_line("candidate_sets", line) is line


def test_optional_fields_may_be_absent_or_null_where_allowed():
    line = dict(_CANDIDATE_SET, inflection_pair=None,
                sources={"MT": {"prompt": "p", "qe_score": None}, "LLM": {"prompt": "p"}})
    del line["no_space"]
    check_line("candidate_sets", line)
    with pytest.raises(MalformedRecord) as info:
        check_line("candidate_sets", dict(line, no_space=None), file="f", line=2)
    assert info.value.context == {"file": "f", "line": 2, "field": "no_space"}


@pytest.mark.parametrize("mt, field", [
    ({"qe_score": 0.5}, "sources.MT.prompt"),
    ({"prompt": 5}, "sources.MT.prompt"),
    ({"prompt": "p", "qe_score": "high"}, "sources.MT.qe_score"),
    ("p", "sources.MT"),
    (None, "sources.MT"),
    ({"prompt": "p", "qe_score": float("inf")}, "sources.MT.qe_score"),  # e.g. from 1e999
    ({"prompt": "p", "qe_score": float("nan")}, "sources.MT.qe_score"),
])
def test_a_bad_source_entry_is_named_by_path(mt, field):
    line = dict(_CANDIDATE_SET, sources=dict(_CANDIDATE_SET["sources"], MT=mt))
    with pytest.raises(MalformedRecord) as info:
        check_line("candidate_sets", line, file="f", line=2)
    assert info.value.context == {"file": "f", "line": 2, "field": field}


@pytest.mark.parametrize("sources", [None, [], "MT"])
def test_sources_must_be_an_object(sources):
    with pytest.raises(MalformedRecord) as info:
        check_line("candidate_sets", dict(_CANDIDATE_SET, sources=sources), file="f")
    assert info.value.context == {"file": "f", "field": "sources"}


def test_nested_fields_are_named_by_path():
    record = {"request": {"client_id": "mt", "text": "hi", "source_language": "en",
                          "target_language": 3}, "response": "ahoj"}
    with pytest.raises(MalformedRecord) as info:
        check_line("fixture", record, file="f")
    assert info.value.context == {"file": "f", "field": "request.target_language"}


def test_a_line_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(b'{"schema_version":1,"kind":"scores"}\n'
                     b'{"prompt":"a","continuation":"\xff","logprob":1}\n')
    with pytest.raises(MalformedRecord) as info:
        read_jsonl(path, "scores")
    assert info.value.context == {"file": str(path), "line": 2}


# Pieces of text that escaped as JSON hold whole and half surrogate pairs,
# backslashes and text that looks like an escape.
_PIECES = st.one_of(st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff", "\ud83d\ude00",
                                     "\\", "\\u", "ud800", "\"", "\n"]), st.characters())


@given(pieces=st.lists(_PIECES, max_size=8), upper=st.booleans())
@settings(max_examples=300, deadline=None)
def test_a_line_is_refused_exactly_when_it_escapes_a_lone_surrogate(tmp_path_factory, pieces,
                                                                    upper):
    # Such a line was read, and its text ended the stage that wrote it with
    # a UnicodeEncodeError traceback.
    raw = json.dumps({"prompt": "".join(pieces), "continuation": "c", "logprob": 1})
    if upper:
        raw = raw.replace("\\ud", "\\uD")
    try:
        json.loads(raw)["prompt"].encode("utf-8")
        lone = False
    except UnicodeEncodeError:
        lone = True
    path = tmp_path_factory.getbasetemp() / "surrogate.scores.jsonl"
    path.write_text('{"schema_version":1,"kind":"scores"}\n' + raw + "\n", encoding="utf-8")
    if not lone:
        assert len(read_jsonl(path, "scores")) == 1
        return
    with pytest.raises(MalformedRecord, match="lone surrogate") as info:
        read_jsonl(path, "scores")
    assert info.value.context == {"file": str(path), "line": 2}


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_constant_is_invalid_json(tmp_path, text):
    # Python's json reads and writes these, but they are not JSON.
    path = tmp_path / "scores.jsonl"
    path.write_text('{"schema_version":1,"kind":"scores"}\n'
                    f'{{"prompt":"a","continuation":"b","logprob":{text}}}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord, match="invalid JSON") as info:
        read_jsonl(path, "scores")
    assert info.value.context == {"file": str(path), "line": 2}
    with pytest.raises(ValueError):
        dump({"logprob": float(text)})


def test_a_written_file_appears_only_when_its_block_ends(tmp_path):
    path = tmp_path / "scores.jsonl"
    line = {"prompt": "a", "continuation": " b", "logprob": -1.5}
    with writing(path, "scores") as write:
        write(line)
        assert not path.exists()
    assert read_jsonl(path, "scores") == [line]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.jsonl"]


class _Failed(Exception):
    pass


def _failing_lines(count):
    for index in range(count):
        yield {"prompt": "p", "continuation": str(index), "logprob": -1.0}
    raise _Failed("the lines stopped")


@pytest.mark.parametrize("existing", [None, b"kept as it was\n"], ids=["new", "existing"])
def test_a_failed_write_leaves_the_file_as_it_was(tmp_path, existing):
    # Enough lines to spill the file buffer, so some reached the disk.
    path = tmp_path / "scores.jsonl"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(_Failed):
        write_jsonl(path, "scores", _failing_lines(2000))
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else [path.name])
    if existing is not None:
        assert path.read_bytes() == existing


@pytest.mark.parametrize("existing", [None, b"kept as it was\n"], ids=["new", "existing"])
def test_a_text_torn_midway_leaves_the_file_as_it_was(tmp_path, monkeypatch, existing):
    path = tmp_path / "manifest.json"
    if existing is not None:
        path.write_bytes(existing)
    tear_writes_of(monkeypatch, path.name)
    with pytest.raises(OSError):
        write_text(path, '{"complete": true}\n' * 100)
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else [path.name])
    if existing is not None:
        assert path.read_bytes() == existing


def test_the_temporary_file_a_killed_write_left_is_overwritten(tmp_path):
    path = tmp_path / "scores.jsonl"
    (tmp_path / "scores.jsonl.tmp").write_text("torn", encoding="utf-8")
    write_jsonl(path, "scores", [{"prompt": "p", "continuation": "c", "logprob": 0}])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.jsonl"]
    assert path.read_text(encoding="utf-8") == (
        '{"kind":"scores","schema_version":1}\n{"continuation":"c","logprob":0,"prompt":"p"}\n')


# A line of each log kind, told apart by ``text``; each holds a "ř".
_LOG_LINES = {
    "fixture": lambda text: {"request": {"client_id": "mt", "text": text,
                                         "source_language": "en", "target_language": "cs"},
                             "response": "řádek"},
    "progress": lambda text: {"fact_id": text, "language": "cs", "relation_id": "P1",
                              "source": "MT", "best_correct_rank": 1, "hits": {"1": True},
                              "prompt": "řádek"},
}
_PROGRESS_HEADER = {"config_digest": "c0ffee", "inputs": {"bundle": "d1"}}


def _log_header(kind) -> bytes:
    if kind == "fixture":
        return b""
    return (dump({"kind": kind, "schema_version": 1, **_PROGRESS_HEADER}) + "\n").encode()


def _append_to_log(path, kind, *lines):
    fd = open_log(path, kind, **({} if kind == "fixture" else _PROGRESS_HEADER))
    try:
        append(fd, "".join(dump(line) + "\n" for line in lines))
    finally:
        os.close(fd)


@pytest.mark.parametrize("tear, whole", [
    (lambda raw: raw[: len(raw) // 2], False),
    (lambda raw: raw[: raw.index("ř".encode("utf-8")) + 1], False),  # inside a character
    (lambda raw: raw[:-1], True),  # only the newline is missing: the line decodes
], ids=["cut-mid-line", "cut-mid-character", "cut-before-newline"])
@pytest.mark.parametrize("kind", ["fixture", "progress"])
def test_a_log_cuts_a_torn_last_line_that_its_reader_skips(tmp_path, kind, tear, whole):
    # A cache log or record fixtures (``fixture``), and evaluate's progress.
    kept, torn, later = map(_LOG_LINES[kind], ("zůstane", "utržený", "pozdější"))
    path = tmp_path / "log.jsonl"
    path.write_bytes(_log_header(kind) + (dump(kept) + "\n").encode()
                     + tear((dump(torn) + "\n").encode()))
    header = {} if kind == "fixture" else _PROGRESS_HEADER
    read = [record for _, record in iter_lines(path, kind, torn_tail=True, **header)]
    assert read == ([kept, torn] if whole else [kept])
    # The append cuts the torn tail off or ends it, so no line is glued onto it.
    _append_to_log(path, kind, later)
    assert path.read_bytes() == _log_header(kind) + "".join(
        dump(line) + "\n" for line in read + [later]).encode()


@pytest.mark.parametrize("existing", [
    None, b"", b"\n",
    b'{"kind":"progress","schema_version":1,"config_digest":"other","inputs":{}}\n{"x":1}\n',
    b'{"type":"header","config_digest":"c0ffee"}\n',  # an older format
    b'{"kind":"progress","schema_ver',  # a header cut short
], ids=["missing", "empty", "blank", "another-run", "older-format", "torn-header"])
def test_a_log_that_does_not_open_with_its_header_starts_afresh(tmp_path, existing):
    path = tmp_path / "progress.jsonl"
    if existing is not None:
        path.write_bytes(existing)
    line = _LOG_LINES["progress"]("f-1")
    _append_to_log(path, "progress", line)
    assert path.read_bytes() == _log_header("progress") + (dump(line) + "\n").encode()


def test_benchmark_check_candidate_set_line(benchmark):
    line = benchmark.pedantic(
        check_line, args=("candidate_sets", _CANDIDATE_SET), rounds=200, iterations=10
    )
    assert line is _CANDIDATE_SET


def test_benchmark_dump_candidate_set_line(benchmark):
    text = benchmark.pedantic(dump, args=(_CANDIDATE_SET,), rounds=200, iterations=10)
    assert json.loads(text) == _CANDIDATE_SET


def test_benchmark_read_candidate_set_lines(benchmark, tmp_path):
    path = tmp_path / "candidate_sets.jsonl"
    write_jsonl(path, "candidate_sets", [_CANDIDATE_SET] * 200)
    lines = benchmark.pedantic(read_jsonl, args=(path, "candidate_sets"), rounds=20,
                               iterations=1)
    assert lines == [_CANDIDATE_SET] * 200


# A valid line of each kind with a spec, every optional field present.
_VALID_LINES = {
    "entities": {"id": "Q1", "labels": {"aa": "x"}, "aliases": {"aa": ["y", "z"]}},
    "relations": {"id": "R1", "english_template": "[X] in [Y]",
                  "templates": {"aa": "[X] [Y]"}, "object_final": {"aa": True},
                  "inflection_expected": False},
    "facts": {"id": "f-1", "subject_id": "Q1", "relation_id": "R1", "object_id": "Q2",
              "language": "aa", "subject_gender": "female"},
    "candidate_sets": dict(_CANDIDATE_SET, distractors=_CANDIDATE_SET["distractors"][:2]),
    "records": {"fact_id": "f-1", "language": "aa", "relation_id": "R1", "source": "MT",
                "best_correct_rank": 2, "best_correct_form": "o", "hits": {"1": False, "5": True},
                "form_ranks": {"noninflected": 2, "inflected": 3}, "qe_score": 0.5,
                "subject_gender": None, "prompt": "p"},
    "scores": {"prompt": "p", "continuation": " c", "logprob": -1.5, "token_count": 2},
    "fixture": {"request": {"client_id": "mt", "text": "t", "source_language": "en",
                            "target_language": "aa", "extra": {"source_text": "s"}},
                "response": "r"},
}
_VALID_LINES["progress"] = _VALID_LINES["records"]
_HEADER_EXTRA = {"config_digest": "c0ffee", "inputs": {"bundle": "d1"}}
# Each kind's compiled fields and valid line, and those of the header lines,
# which are compiled per file and checked by the walk; their predicates are
# made here only to test the generator on more specs.
_SPECS = {kind: (_COMPILED[kind], line) for kind, line in _VALID_LINES.items()}
for kind in ("candidate_sets", "progress"):
    line, fields = _header(kind, _HEADER_EXTRA)
    _SPECS[f"header:{kind}"] = (fields, line)
_PREDICATES = {name: _VALID.get(name) or _predicate(fields)
               for name, (fields, _) in _SPECS.items()}
_DROP = object()
# A value of each JSON type, and values that some checks refuse: blank
# strings, non-finite floats and integers too large for a float.
_VALUES = [None, True, False, 0, 1, -3, 2.5, 10**400, float("inf"), float("nan"), "", " ",
           "x", "7", [], ["x"], [["Q1", "x"]], [["Q1"]], {}, {"7": True}, {"prompt": "p"},
           {"noninflected": "a", "inflected": "b"}, "candidate_sets", _DROP]


def _paths(value, at=()):
    """The path of ``value`` and of every value nested in it."""
    yield at
    if type(value) is dict:
        items = value.items()
    else:
        items = enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield from _paths(item, at + (key,))


def _set(line, path, value):
    """``line`` with the value at ``path`` replaced by ``value`` or dropped."""
    if not path:
        return {} if value is _DROP else value
    line = copy.deepcopy(line)
    *parents, last = path
    obj = line
    for key in parents:
        obj = obj[key]
    if value is _DROP:
        del obj[last]
    else:
        obj[last] = value
    return line


def _walk_accepts(fields, line) -> bool:
    try:
        _check_object(fields, line, {})
    except MalformedRecord:
        return False
    return True


@given(data=st.data(), name=st.sampled_from(sorted(_SPECS)), changes=st.integers(0, 3))
@settings(max_examples=1500, deadline=None)
def test_the_compiled_check_agrees_with_the_walk(data, name, changes):
    fields, line = _SPECS[name]
    for _ in range(changes):
        path = data.draw(st.sampled_from(list(_paths(line))))
        line = _set(line, path, data.draw(st.sampled_from(_VALUES)))
    assert bool(_PREDICATES[name](line)) is _walk_accepts(fields, line)


def test_a_header_line_fails_the_check_of_its_kind():
    for kind in _VALID:
        header = {"schema_version": 1, "kind": kind}
        assert not _VALID[kind](header)
        assert not _walk_accepts(_COMPILED[kind], header)


_TEXT = st.text(st.characters() | st.sampled_from("\u2028\u2029\u0000\"\\řž😀"))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=20,
)


@given(value=_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_dump_is_the_canonical_json_dumps(value):
    assert dump(value) == json.dumps(value, ensure_ascii=False, sort_keys=True,
                                     separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), [{"x": float("-inf")}]])
def test_dump_refuses_a_non_finite_float(value):
    with pytest.raises(ValueError):
        dump(value)


_SCORES_LINE = b'{"continuation":"c","logprob":1,"prompt":"p"}'
_SCORES_RECORD = {"continuation": "c", "logprob": 1, "prompt": "p"}


# What each line reads as: its records, or the message of its error. A
# line that is not its value and a newline is read by ``loads``.
@pytest.mark.parametrize("raw, torn_tail, expected", [
    (_SCORES_LINE + b"\n", False, [_SCORES_RECORD]),
    (_SCORES_LINE, False, [_SCORES_RECORD]),
    (b"  " + _SCORES_LINE + b"\n", False, [_SCORES_RECORD]),
    (_SCORES_LINE + b"\r\n", False, [_SCORES_RECORD]),
    (_SCORES_LINE + b" \t\n", False, [_SCORES_RECORD]),
    (_SCORES_LINE + b"\n\n", False, [_SCORES_RECORD]),
    (_SCORES_LINE + b"{}\n", False, "invalid JSON: Extra data: line 1 column 46 (char 45)"),
    (_SCORES_LINE + b"\r{}\n", False, "invalid JSON: Extra data: line 1 column 47 (char 46)"),
    (b'{"prompt":"\xff"}\n', False,
     "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
    (b'{"logprob":NaN}\n', False, "invalid JSON: NaN is not a JSON value"),
    (b"-Infinity\n", False, "invalid JSON: -Infinity is not a JSON value"),
    (b"}\n", False, "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    (b"\xef\xbb\xbf" + _SCORES_LINE + b"\n", False,
     "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    (b'"a string"\n', False, "record is not an object"),
    (b'{"prompt":"p"}\n', False, "missing field 'continuation'"),
    (_SCORES_LINE[:-9], True, []),
    (_SCORES_LINE[:-9], False,
     "invalid JSON: Unterminated string starting at: line 1 column 33 (char 32)"),
    (_SCORES_LINE[:-9] + b"\n", True,  # only a last line without its newline is torn
     "invalid JSON: Invalid control character at: line 1 column 37 (char 36)"),
], ids=["plain", "no-newline", "leading-spaces", "crlf", "trailing-whitespace", "blank-after",
        "trailing-data", "carriage-return-then-data", "bad-utf8", "nan", "minus-infinity",
        "no-value", "bom", "not-an-object", "missing-field", "torn-tail-skipped",
        "torn-tail-refused", "cut-line-with-newline"])
def test_a_line_reads_as_its_value_or_as_its_error(tmp_path, raw, torn_tail, expected):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(b'{"kind":"scores","schema_version":1}\n' + raw)
    if type(expected) is list:
        assert [r for _, r in iter_lines(path, "scores", torn_tail=torn_tail)] == expected
        return
    with pytest.raises(MalformedRecord) as info:
        list(iter_lines(path, "scores", torn_tail=torn_tail))
    assert info.value.args[0] == expected
    assert {"file": str(path), "line": 2}.items() <= info.value.context.items()
