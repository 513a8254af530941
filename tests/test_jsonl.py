import pytest

from factprobe.errors import MalformedRecord
from factprobe.jsonl import check_line, read_jsonl

# A bundle line as build-dataset writes it: 2 correct forms and 50 distractors.
_CANDIDATE_SET = {
    "fact_id": "f-1-aa-00",
    "source": "MT",
    "language": "aa",
    "relation_id": "R1",
    "prompt": "s1aa0aa wqr1",
    "correct_forms": ["o1aa0aa", "o1aa0aazu"],
    "distractors": [[f"Q{i:04d}", f"Q{i:04d}-label"] for i in range(50)],
    "salt": "toy-salt",
    "subject_gender": "male",
    "inflection_pair": {"noninflected": "o1aa0aa", "inflected": "o1aa0aazu"},
    "qe_score": 0.811,
    "no_space": False,
}


def test_unknown_fields_are_ignored():
    line = dict(_CANDIDATE_SET, note="kept as is")
    assert check_line("candidate_sets", line) is line


def test_optional_fields_may_be_absent_or_null_where_allowed():
    line = dict(_CANDIDATE_SET, inflection_pair=None, qe_score=None)
    del line["no_space"]
    check_line("candidate_sets", line)
    with pytest.raises(MalformedRecord) as info:
        check_line("candidate_sets", dict(line, no_space=None), file="f", line=2)
    assert info.value.context == {"file": "f", "line": 2, "field": "no_space"}


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


def test_benchmark_check_candidate_set_line(benchmark):
    line = benchmark.pedantic(
        check_line, args=("candidate_sets", _CANDIDATE_SET), rounds=200, iterations=10
    )
    assert line is _CANDIDATE_SET
