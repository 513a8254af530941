"""Every bad input ends the CLI with one coded error line, never a traceback.

The tests copy one prebuilt toy workspace per case, spoil one input and run
``factprobe`` in-process: a line of a read kind with a field dropped or of
another JSON type, a missing input, a config value its spec refuses or a bad
gender-patterns file.
"""

import contextlib
import io
import json
import os
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

SOURCES = ("TEMPLATE", "MT", "LLM")

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
        ["fact_id", "language", "relation_id", "correct_forms", "distractors", "salt",
         "sources"] + [f"sources.{source}.prompt" for source in SOURCES],
        ["no_space", "inflection_pair", "subject_gender"]
        + [f"sources.{source}.qe_score" for source in SOURCES],
        ["inflection_pair", "subject_gender"] + [f"sources.{source}.qe_score"
                                                 for source in SOURCES],
    ),
    "scores": (
        ["scores.jsonl"], ["evaluate", "--config", "table.yaml", "--bundle", "out/bundle"],
        ["prompt", "continuation", "logprob"], ["token_count"], [],
    ),
    "records": (
        ["out/records/records.jsonl"], REPORT,
        ["fact_id", "language", "relation_id", "source", "best_correct_rank", "hits"],
        ["best_correct_form", "form_ranks", "qe_score", "subject_gender", "prompt"],
        ["form_ranks", "qe_score", "subject_gender"],
    ),
    "progress": (
        ["out/records/progress.jsonl"], EVALUATE,
        ["fact_id", "language", "relation_id", "source", "best_correct_rank", "hits"],
        ["best_correct_form", "form_ranks", "qe_score", "subject_gender", "prompt"],
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
        for line, _, cs in pipeline._pending_sets(lines, set())
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
        ("out/bundle/candidate_sets.jsonl", 2, "sources.LLM.prompt", _DROP, EVALUATE),
        ("out/bundle/candidate_sets.jsonl", 3, "distractors", [["o1aa0"]], EVALUATE),
        ("out/records/records.jsonl", 2, "hits", _DROP, REPORT),
        ("out/records/records.jsonl", 4, "best_correct_rank", "one", REPORT),
        ("scores.jsonl", 2, "logprob", _DROP, KINDS["scores"][1]),
        ("corpus/entities.jsonl", 3, "aliases", ["o1aa0alias"], BUILD),
        ("out/bundle/candidate_sets.jsonl", 2, "correct_forms", [], EVALUATE),
        ("out/records/records.jsonl", 3, "best_correct_rank", 0, REPORT),
        ("out/records/records.jsonl", 5, "best_correct_rank", -2, REPORT),
        # Reached metrics.inflection_delta, and report exited 0.
        ("out/records/records.jsonl", 2, "form_ranks", {"NONINFLECTED": 0, "INFLECTED": -1},
         REPORT),
        # A rank-1 record whose every hit is false: report exited 0.
        ("out/records/records.jsonl", 2, "hits", {str(n): False for n in range(1, 6)}, REPORT),
        # Integers too large for a float: an OverflowError from math.fsum in
        # qe_delta_correlation and inflection_delta, from float() in the
        # table load, and a rank refused under the hits it disagreed with.
        ("out/records/records.jsonl", 2, "qe_score", 10**400, REPORT),
        ("out/records/records.jsonl", 2, "form_ranks", {"NONINFLECTED": 1, "INFLECTED": 10**400},
         REPORT),
        ("out/records/records.jsonl", 3, "best_correct_rank", 10**400, REPORT),
        ("scores.jsonl", 2, "logprob", -10**400, KINDS["scores"][1]),
    ],
    ids=["no-prompt", "one-element-distractor", "no-hits", "string-rank", "no-logprob",
         "aliases-list", "no-correct-form", "zero-rank", "negative-rank", "form-rank-below-1",
         "hits-contradict-rank", "qe-score-beyond-float", "form-rank-beyond-float",
         "rank-beyond-float", "logprob-beyond-float"],
)
def test_cli_reports_a_former_traceback_line(built, tmp_path, name, lineno, field, value,
                                             argv):
    ws = _copy(built, tmp_path)
    _spoil(ws / name, lineno, field, value)
    code, err = _run(ws, argv)
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(ws / name), line=lineno,
                  field=field)


# Each was read, and its text ended build-dataset with a UnicodeEncodeError
# traceback when the verbalization that held it was written.
@pytest.mark.parametrize(
    "name, lineno, field, value",
    [
        ("corpus/entities.jsonl", 3, "labels.aa", "o1aa0aa\ud800"),
        ("fixtures/mt.jsonl", 1, "response", "s1aa0aa wqr1 o1aa0aazu\udc00."),
    ],
    ids=["entity-label", "fixture-response"],
)
def test_cli_refuses_a_lone_surrogate(built, tmp_path, name, lineno, field, value):
    ws = _copy(built, tmp_path)
    _spoil(ws / name, lineno, field, value)
    code, err = _run(ws, BUILD + ["--force"])
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(ws / name), line=lineno)


def test_cli_refuses_a_bundle_of_the_per_source_layout(built, tmp_path):
    # Bundles used to hold one candidate-set line per (fact, source).
    ws = _copy(built, tmp_path)
    path = ws / "out" / "bundle" / "candidate_sets.jsonl"
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    per_source = [header]
    for raw in lines:
        line = json.loads(raw)
        for source, entry in sorted(line.pop("sources").items()):
            per_source.append(json.dumps(dict(line, source=source, **entry)))
    path.write_text("\n".join(per_source) + "\n", encoding="utf-8")
    code, err = _run(ws, EVALUATE)
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(path), line=2, field="sources")


def test_a_malformed_bundle_line_fails_evaluate_where_it_is_reached(built, tmp_path):
    # The table scorer does not read the bundle, so evaluate scores the sets
    # before the bad line and keeps them in its progress.
    ws = _copy(built, tmp_path)
    shutil.rmtree(ws / "out" / "records")
    path = ws / "out" / "bundle" / "candidate_sets.jsonl"
    lineno = 5
    _spoil(path, lineno, "distractors", "x")
    code, err = _run(ws, KINDS["scores"][1])
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(path), line=lineno,
                  field="distractors")
    records = ws / "out" / "records"
    assert not (records / "manifest.json").exists()
    before = [json.loads(raw) for raw in path.read_text(encoding="utf-8").splitlines()[1:lineno - 1]]
    progress = pipeline.read_jsonl(records / "progress.jsonl", "progress")
    assert sorted((r["fact_id"], r["source"]) for r in progress) == sorted(
        (line["fact_id"], source) for line in before for source in line["sources"])


@pytest.mark.parametrize("argv", [EVALUATE, KINDS["scores"][1]], ids=["oracle", "table"])
def test_cli_refuses_a_bundle_that_holds_a_fact_twice(built, tmp_path, argv):
    # The second line's sets were scored by an uninterrupted run but skipped
    # by a resumed one, whose record stores then differed.
    ws = _copy(built, tmp_path)
    shutil.rmtree(ws / "out" / "records")
    path = ws / "out" / "bundle" / "candidate_sets.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines + [lines[1]]), encoding="utf-8")
    code, err = _run(ws, argv)
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(path), line=len(lines) + 1,
                  field="fact_id")
    assert "line 2" in err
    assert not (ws / "out" / "records" / "manifest.json").exists()


# Python's json writes a nan or infinite float as NaN or Infinity, and reads
# them back, but they are not JSON; 1e999 is, and reads back as infinite.
@pytest.mark.parametrize(
    "name, field, text, argv",
    [
        ("out/bundle/candidate_sets.jsonl", "sources.LLM.qe_score", "NaN", EVALUATE),
        ("out/records/records.jsonl", "qe_score", "Infinity", REPORT),
        ("scores.jsonl", "logprob", "-Infinity", KINDS["scores"][1]),
        ("scores.jsonl", "logprob", "1e999", KINDS["scores"][1]),
    ],
    ids=["bundle-nan", "records-infinity", "scores-minus-infinity", "scores-overflow"],
)
def test_cli_refuses_a_number_that_is_not_finite(built, tmp_path, name, field, text, argv):
    ws = _copy(built, tmp_path)
    _spoil(ws / name, 2, field, 0.123456789)
    (ws / name).write_text((ws / name).read_text(encoding="utf-8").replace("0.123456789", text),
                           encoding="utf-8")
    code, err = _run(ws, argv)
    named = {"field": field} if text == "1e999" else {}
    _assert_coded(code, err, "MALFORMED_RECORD", file=str(ws / name), line=2, **named)


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
        # The stem rule has no settings, so a ``match`` block is an unknown
        # key, whatever it holds.
        pytest.param("match", {"min_prefix_chars": "x"}, id="match.min_prefix_chars-x"),
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
        # Unknown keys were ignored: a typo left its key at the default.
        ("k_distractor", 3),
        pytest.param("match", {"lemmatiser": "x"}, id="match.lemmatiser-x"),
        ("mt.endpont", "http://127.0.0.1:1/"),
        ("scorer.hots", "127.0.0.1"),
        # Repeats gave repeated report columns and another config digest.
        ("languages", ["aa", "bb", "aa"]),
        ("n_values", [1, 2, 2]),
        ("exclude_relations", ["R1", "R1"]),
        ("no_space_languages", ["aa", "aa"]),
        # Loaded without a word: no language has this code.
        ("no_space_languages", ["zz9"]),
        # Put every rank in the overflow bucket, under another digest each.
        ("report_max_rank_bucket", 0),
        ("report_max_rank_bucket", -3),
        # The matcher has no lemma pass; a lemmatizer name was refused by build only.
        pytest.param("match", {"lemmatizer": "x"}, id="match.lemmatizer-x"),
        pytest.param("match", {"lemmatizer": None}, id="match.lemmatizer-None"),
        # An escaped lone surrogate: a UnicodeEncodeError from RunConfig.digest.
        pytest.param("salt", "example-\ud800", id="salt-lone-surrogate"),
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


# Each raised a traceback from mkdir: FileExistsError, NotADirectoryError.
@pytest.mark.parametrize(
    "settings, argv",
    [
        ({"cache_dir": "corpus/facts.jsonl"}, BUILD),
        ({"output_dir": "corpus/facts.jsonl"}, BUILD),
        ({"output_dir": "corpus/facts.jsonl/out"}, BUILD),
        # Refused before the client asks anything.
        ({"mt.mode": "record", "mt.endpoint": "http://127.0.0.1:1/",
          "mt.record_fixtures": "corpus/facts.jsonl/mt.jsonl"}, BUILD[:-1]),
    ],
    ids=["cache-dir-is-a-file", "output-dir-is-a-file", "output-dir-under-a-file",
         "record-fixtures-under-a-file"],
)
def test_cli_reports_a_file_in_the_way_of_a_directory(built, tmp_path, settings, argv):
    ws = _copy(built, tmp_path)
    data = yaml.safe_load((ws / "config.yaml").read_text(encoding="utf-8"))
    for key, value in settings.items():
        *parents, name = key.split(".")
        section = data
        for parent in parents:
            section = section[parent]
        section[name] = value
    (ws / "config.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
    code, err = _run(ws, argv + ["--force"])
    _assert_coded(code, err, "CONFIG_ERROR", path=str(ws / "corpus" / "facts.jsonl"))


def test_cli_refuses_an_input_file_name_that_is_not_utf8(built, tmp_path):
    # A stray exemplar file of such a name matched its language's glob, and
    # build wrote the whole bundle before its manifest, which names every
    # input, ended it with a UnicodeEncodeError traceback.
    ws = _copy(built, tmp_path)
    shutil.rmtree(ws / "out")
    stray = ws / "exemplars" / os.fsdecode(b"\xff.aa.txt")
    shutil.copy(ws / "exemplars" / "R1.aa.txt", stray)
    code, err = _run(ws, BUILD)
    _assert_coded(code, err, "CONFIG_ERROR", path=str(stray))
    assert not (ws / "out").exists()  # refused before any work


def test_cli_reports_a_directory_in_the_way_of_a_file(built, tmp_path):
    # The response cache read the directory as a log: IsADirectoryError.
    ws = _copy(built, tmp_path)
    (ws / "cache" / "mt.jsonl").mkdir(parents=True)
    data = yaml.safe_load((ws / "config.yaml").read_text(encoding="utf-8"))
    data["cache_dir"] = "cache"
    (ws / "config.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
    code, err = _run(ws, BUILD + ["--force"])
    _assert_coded(code, err, "CONFIG_ERROR", path=str(ws / "cache" / "mt.jsonl"))


# A manifest that parses but is of the wrong shape raised AttributeError
# from the current-check; like an unparsable one, it means "run again".
@pytest.mark.parametrize("stage, argv", [("bundle", BUILD), ("records", EVALUATE),
                                         ("report", REPORT)], ids=["build", "evaluate", "report"])
@pytest.mark.parametrize("spoil", [
    lambda manifest: [],
    lambda manifest: None,
    lambda manifest: "x",
    lambda manifest: dict(manifest, artifacts=[]),
    lambda manifest: dict(manifest, artifacts={"": "0" * 64}),
], ids=["list", "null", "string", "artifacts-list", "artifact-names-the-stage-directory"])
def test_a_manifest_of_the_wrong_shape_runs_its_stage_again(built, tmp_path, stage, argv,
                                                             spoil):
    ws = _copy(built, tmp_path)
    path = ws / "out" / stage / "manifest.json"
    before = path.read_bytes()
    path.write_text(json.dumps(spoil(json.loads(before))), encoding="utf-8")
    code, err = _run(ws, argv)
    assert (code, err) == (0, "")
    assert path.read_bytes() == before


@pytest.mark.parametrize("argv", [BUILD, EVALUATE], ids=["build", "evaluate"])
def test_cli_reports_a_protocol_scorer_without_a_port(built, tmp_path, argv):
    # It passed the config check and build, then evaluate connected to port 0.
    ws = _copy(built, tmp_path)
    data = yaml.safe_load((ws / "config.yaml").read_text(encoding="utf-8"))
    data["scorer"] = {"backend": "protocol", "host": "127.0.0.1"}
    (ws / "config.yaml").write_text(yaml.safe_dump(data), encoding="utf-8")
    code, err = _run(ws, argv)
    _assert_coded(code, err, "CONFIG_ERROR", key="scorer.port", path=str(ws / "config.yaml"))


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
        "aa: {R1: {feminine: ['']}}\n",
        "aa: {R1: {masculine: [wqr1, ' ']}}\n",
        'aa: {R1: {feminine: ["wqr1\\ud800"]}}\n',
    ],
    ids=["bad-yaml", "list-of-languages", "list-of-relations", "list-for-markers",
         "marker-string", "marker-number", "not-utf8", "a-directory", "marker-empty",
         "marker-blank", "marker-lone-surrogate"],
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
