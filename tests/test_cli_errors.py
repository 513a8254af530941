"""Every bad input ends the CLI with one coded error line, never a traceback.

The tests copy one prebuilt toy workspace per case, spoil one input and run
``factprobe`` in-process: a line of a read kind with a field dropped or of
another JSON type, a missing input, a config value its spec refuses or a bad
gender-patterns file.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe import cli, pipeline
from factprobe.config import SPEC, load_config
from factprobe.score import candidate_continuations

from conftest import make_toy_workspace

BUILD = ["build-dataset", "--config", "config.yaml", "--replay"]
EVALUATE = ["evaluate", "--config", "config.yaml", "--bundle", "out/bundle"]
REPORT = ["report", "--config", "config.yaml", "--records", "out/records"]

# Per read kind: the files holding it, the command that reads it, and its
# required fields, optional fields and the optional fields that may be null.
# Nested fields are dotted.
KINDS = {
    "entities": (["corpus/entities.jsonl"], BUILD, ["id", "labels"], ["aliases"], []),
    "relations": (
        ["corpus/relations.jsonl"], BUILD, ["id", "english_template", "templates"],
        ["object_final", "inflection_expected"], [],
    ),
    "facts": (
        ["corpus/facts.jsonl"], BUILD,
        ["id", "subject_id", "relation_id", "object_id", "language"],
        ["subject_gender"], ["subject_gender"],
    ),
    "fixture": (
        ["fixtures/mt.jsonl", "fixtures/llm.jsonl", "fixtures/qe.jsonl"], BUILD + ["--force"],
        ["request", "response", "request.client_id", "request.text",
         "request.source_language", "request.target_language"],
        ["request.extra"], [],
    ),
    "candidate_sets": (
        ["out/bundle/candidate_sets.jsonl"], EVALUATE,
        ["fact_id", "source", "language", "relation_id", "prompt", "correct_forms",
         "distractors", "salt"],
        ["no_space", "inflection_pair", "qe_score", "subject_gender"],
        ["inflection_pair", "qe_score", "subject_gender"],
    ),
    "scores": (
        ["scores.jsonl"], ["evaluate", "--config", "table.yaml", "--bundle", "out/bundle"],
        ["prompt", "continuation", "logprob"], ["token_count"], [],
    ),
    "records": (
        ["out/records/records.jsonl"], REPORT,
        ["fact_id", "language", "relation_id", "source", "best_correct_rank", "hits"],
        ["form_ranks", "qe_score", "subject_gender", "prompt"],
        ["form_ranks", "qe_score", "subject_gender"],
    ),
    "progress": (
        ["out/records/progress.jsonl"], EVALUATE,
        ["fact_id", "language", "relation_id", "source", "best_correct_rank", "hits"],
        ["form_ranks", "qe_score", "subject_gender", "prompt"],
        ["form_ranks", "qe_score", "subject_gender"],
    ),
}

# One value of each JSON type.
JSON_VALUES = {"null": None, "boolean": True, "number": 7, "string": "x", "array": [],
               "object": {}}


def _json_type(value) -> str:
    for name, example in JSON_VALUES.items():
        if type(value) is type(example) or (name == "number" and type(value) is float):
            return name
    raise AssertionError(value)


class _Interrupted(BaseException):
    # A BaseException, like a KeyboardInterrupt mid-run.
    pass


class _TrippingScorer:
    def __init__(self, inner, after: int):
        self.inner, self.remaining = inner, after

    def score_batch(self, prompt, continuations):
        if self.remaining <= 0:
            raise _Interrupted()
        self.remaining -= 1
        return self.inner.score_batch(prompt, continuations)


@pytest.fixture(scope="session")
def built(tmp_path_factory) -> Path:
    """A toy workspace run through all three stages, plus a table scorer
    config with its scores and, in ``progress.jsonl``, the progress file an
    interrupted evaluate left."""
    root = (tmp_path_factory.mktemp("built") / "ws").resolve()
    config = load_config(make_toy_workspace(root, facts_per_cell=3))
    bundle = pipeline.cmd_build_dataset(config, replay=True)
    lines = pipeline.read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    oracle = pipeline.make_scorer(config, lines)
    with pytest.raises(_Interrupted):
        pipeline.cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=6))
    shutil.copy(root / "out" / "records" / "progress.jsonl", root / "progress.jsonl")
    pipeline.cmd_report(config, pipeline.cmd_evaluate(config, bundle, scorer=oracle))

    pipeline.write_jsonl(root / "scores.jsonl", "scores", [
        {"prompt": cs.prompt, "continuation": c, "logprob": -1.0, "token_count": 1}
        for line, cs in pipeline._pending_sets(lines, set())
        for c in candidate_continuations(cs, bool(line.get("no_space")))
    ])
    data = yaml.safe_load((root / "config.yaml").read_text(encoding="utf-8"))
    data["scorer"] = {"backend": "table", "fixtures": "scores.jsonl"}
    (root / "table.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
    return root


def _copy(built: Path, tmp: Path, kind: str | None = None) -> Path:
    ws = (tmp / "ws").resolve()
    shutil.copytree(built, ws)
    if kind == "progress":
        # The evaluate stage is run again and resumes from the kept progress.
        shutil.copy(ws / "progress.jsonl", ws / "out" / "records" / "progress.jsonl")
        (ws / "out" / "records" / "manifest.json").unlink()
    return ws


def _run(ws: Path, argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI, with workspace-relative paths."""
    argv = [str(ws / arg) if "/" in arg or arg.endswith(".yaml") else arg for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_coded(code: int, err: str, error: str, **named) -> None:
    assert code == 1, err
    assert err.startswith(f"error: [{error}]"), err
    assert len(err.splitlines()) == 1, err
    for key, value in named.items():
        assert f"{key}={value!r}" in err, (key, err)
    assert "Traceback" not in err


_DROP = object()


def _spoil(path: Path, lineno: int, field: str, value) -> None:
    """Set the (dotted) ``field`` of line ``lineno`` to ``value``, or drop it."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[lineno - 1])
    *parents, name = field.split(".")
    obj = record
    for parent in parents:
        obj = obj[parent]
    if value is _DROP:
        del obj[name]
    else:
        obj[name] = value
    lines[lineno - 1] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_reports_a_spoiled_line_of_each_kind(built, tmp_path_factory, kind, data):
    files, argv, required, optional, nullable = KINDS[kind]
    name = data.draw(st.sampled_from(files), label="file")
    ws = _copy(built, tmp_path_factory.mktemp(kind), kind)
    path = ws / name
    lines = path.read_text(encoding="utf-8").splitlines()
    first = 1 if kind == "fixture" else 2
    lineno = data.draw(st.integers(first, len(lines)), label="line")
    record = json.loads(lines[lineno - 1])

    def value_of(field):
        value = record
        for part in field.split("."):
            if not isinstance(value, dict) or part not in value:
                return _DROP
            value = value[part]
        return value

    # A null optional field is left alone: a value of its own type would pass.
    present = [f for f in required + optional if value_of(f) not in (_DROP, None)]
    field = data.draw(st.sampled_from(present), label="field")
    current = _json_type(value_of(field))
    swaps = [t for t in JSON_VALUES if t != current and not (t == "null" and field in nullable)]
    choices = swaps + (["drop"] if field in required else [])
    change = data.draw(st.sampled_from(choices), label="change")
    _spoil(path, lineno, field, _DROP if change == "drop" else JSON_VALUES[change])

    code, err = _run(ws, argv)
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(path), line=lineno, field=field)


# Each case raised a traceback before lines were checked against their spec.
@pytest.mark.parametrize(
    "name, lineno, field, value, argv",
    [
        ("out/bundle/candidate_sets.jsonl", 2, "prompt", _DROP, EVALUATE),
        ("out/bundle/candidate_sets.jsonl", 3, "distractors", [["o1aa0"]], EVALUATE),
        ("out/records/records.jsonl", 2, "hits", _DROP, REPORT),
        ("out/records/records.jsonl", 4, "best_correct_rank", "one", REPORT),
        ("scores.jsonl", 2, "logprob", _DROP, KINDS["scores"][1]),
        ("corpus/entities.jsonl", 3, "aliases", ["o1aa0alias"], BUILD),
    ],
    ids=["no-prompt", "one-element-distractor", "no-hits", "string-rank", "no-logprob",
         "aliases-list"],
)
def test_cli_reports_a_former_traceback_line(built, tmp_path, name, lineno, field, value,
                                             argv):
    ws = _copy(built, tmp_path)
    _spoil(ws / name, lineno, field, value)
    code, err = _run(ws, argv)
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(ws / name), line=lineno,
                  field=field)


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["build-dataset", "--config", "absent.yaml"], "absent.yaml"),
        (["evaluate", "--config", "config.yaml", "--bundle", "absent/bundle"],
         "absent/bundle/candidate_sets.jsonl"),
        (["report", "--config", "config.yaml", "--records", "absent/records"],
         "absent/records/records.jsonl"),
        (BUILD + ["--force"], "corpus/facts.jsonl"),
    ],
    ids=["config", "bundle", "records", "corpus-file"],
)
def test_cli_reports_a_missing_input(built, tmp_path, argv, missing):
    ws = _copy(built, tmp_path)
    (ws / "corpus" / "facts.jsonl").unlink()
    code, err = _run(ws, argv)
    _assert_coded(code, err, "MISSING_INPUT", path=str(ws / missing))


@pytest.mark.parametrize(
    "key, value",
    [
        ("k_distractors", "many"),
        ("n_values", ["a"]),
        ("min_unique_objects", []),
        ("report_max_rank_bucket", "x"),
        ("scorer.port", "x"),
        ("match.min_prefix_chars", "x"),
        ("min_unique_objects", 1),
        # Blocks and lists of the wrong shape each raised a traceback.
        ("scorer", "x"),
        ("mt", "x"),
        ("llm", "x"),
        ("qe", "x"),
        ("match", "x"),
        ("languages", 5),
        ("exclude_relations", 5),
        ("mt.fixtures", "fixtures/mt.jsonl"),
        # Reached evaluate and raised there.
        ("scorer.mode", "x"),
        # A client id names the client's log in cache_dir.
        ("mt.client_id", "../mt"),
        ("llm.client_id", ".llm"),
        ("qe.client_id", 5),
        # Coerced or used as given: aliases counted as correct, k rounded
        # down, a directory named "[1]", a TypeError traceback.
        ("include_aliases", "false"),
        ("k_distractors", 2.7),
        ("output_dir", [1]),
        ("mt.record_fixtures", 5),
        ("scorer.fixtures", 5),
        # The resolver took the port modulo 65536: 70000 connected to 4464.
        ("scorer.port", 70000),
        ("scorer.port", 0),
    ],
)
def test_cli_reports_a_bad_config_value(built, tmp_path, key, value):
    ws = _copy(built, tmp_path)
    data = yaml.safe_load((ws / "config.yaml").read_text(encoding="utf-8"))
    *parents, name = key.split(".")
    section = data
    for parent in parents:
        section = section.setdefault(parent, {})
    section[name] = value
    (ws / "config.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
    code, err = _run(ws, BUILD)
    _assert_coded(code, err, "CONFIG_ERROR", key=key)


def _config_keys(spec: dict, at: str = ""):
    """``(dotted key, optional, check)`` of every key of ``spec``, nested ones too."""
    for name, check in spec.items():
        key = at + name.rstrip("?")
        yield key, name.endswith("?"), check
        if isinstance(check, dict):
            yield from _config_keys(check, key + ".")


CONFIG_KEYS = list(_config_keys(SPEC))
# YAML values of each type; a key is given one that its spec refuses.
YAML_VALUES = [None, True, 7, 2.7, "x", [], {}]


def _refuses(optional: bool, check, value) -> bool:
    if isinstance(check, dict):  # a block; an optional one may be null
        return type(value) is not dict and not (optional and value is None)
    return not check(value)


@pytest.mark.parametrize("key, optional, check", CONFIG_KEYS, ids=[k for k, _, _ in CONFIG_KEYS])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cli_reports_a_config_key_of_another_type(built, tmp_path_factory, key, optional,
                                                  check, data):
    choices = [v for v in YAML_VALUES if _refuses(optional, check, v)]
    value = data.draw(st.sampled_from(choices + ([] if optional else [_DROP])), label="value")
    config = yaml.safe_load((built / "config.yaml").read_text(encoding="utf-8"))
    *parents, name = key.split(".")
    section = config
    for parent in parents:
        section = section.setdefault(parent, {})
    if value is _DROP:
        del section[name]
    else:
        section[name] = value
    # The config is checked before any input is read, so it needs no workspace.
    ws = tmp_path_factory.mktemp("config")
    (ws / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    code, err = _run(ws, BUILD)
    _assert_coded(code, err, "CONFIG_ERROR", key=key)


def test_cli_reports_a_yaml_error_on_one_line(built, tmp_path):
    ws = _copy(built, tmp_path)
    (ws / "config.yaml").write_text("config_version: [1\n", encoding="utf-8")
    code, err = _run(ws, BUILD)
    _assert_coded(code, err, "CONFIG_ERROR", path=str(ws / "config.yaml"), line=2, column=1)
    assert "expected ',' or ']'" in err, err


@pytest.mark.parametrize("spoil", [
    lambda path: path.write_bytes(b"config_version: 1\nsalt: \xff\n"),
    lambda path: (path.unlink(), path.mkdir()),
], ids=["not-utf8", "a-directory"])
def test_cli_reports_an_unreadable_config(built, tmp_path, spoil):
    ws = _copy(built, tmp_path)
    spoil(ws / "config.yaml")
    code, err = _run(ws, BUILD)
    _assert_coded(code, err, "CONFIG_ERROR", path=str(ws / "config.yaml"))


@pytest.mark.parametrize(
    "text",
    [
        "aa: {R1: [wqr1la\n",
        "- aa\n",
        "aa: [R1]\n",
        "aa: {R1: [m]}\n",
        "aa: {R1: {feminine: wqr1la}}\n",
        "aa: {R1: {feminine: [1]}}\n",
        b"aa: {R1: {feminine: [\xff]}}\n",
        None,
    ],
    ids=["bad-yaml", "list-of-languages", "list-of-relations", "list-for-markers",
         "marker-string", "marker-number", "not-utf8", "a-directory"],
)
def test_report_checks_the_gender_patterns_file(built, tmp_path, text):
    ws = _copy(built, tmp_path)
    path = ws / "gender_patterns.yaml"
    if text is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code, err = _run(ws, REPORT + ["--force"])
    _assert_coded(code, err, "CONFIG_ERROR", file=str(ws / "gender_patterns.yaml"))
