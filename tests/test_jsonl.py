import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe.errors import MalformedRecord

from conftest import tear_writes_of
from factprobe.jsonl import (append, check_line, dump, iter_lines, open_log, read_jsonl,
                             write_jsonl, write_text, writing)

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
