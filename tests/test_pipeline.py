import contextlib
import itertools
import json
import os
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
import yaml

from factprobe import candidates, cli, jsonl, pipeline, split, verbalize
from factprobe.clients import ResponseCache, TextRequest, record_line
from factprobe.config import load_config
from factprobe.corpus import load_corpus, unique_object_pool
from factprobe.errors import (
    BackendError,
    MalformedRecord,
    NoExemplars,
)
from factprobe.pipeline import (
    cmd_build_dataset,
    cmd_evaluate,
    cmd_report,
    load_records,
    make_scorer,
    read_jsonl,
)
from factprobe.score import candidate_continuations

from conftest import count_parsed_lines, make_toy_workspace, tear_writes_of


def _build(tmp_path, name="ws", **kwargs):
    config_path = make_toy_workspace(tmp_path / name, **kwargs)
    return load_config(config_path), config_path


def _oracle(config, bundle):
    return make_scorer(config, read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets"))


def _sets(bundle):
    """The (fact, source) candidate sets of a bundle, one line per fact."""
    lines = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    return [(line["fact_id"], source) for line in lines for source in line["sources"]]


def _parse_fixture_line(raw):
    """The request and response of a replay fixture line."""
    record = json.loads(raw)
    req = record["request"]
    extra = tuple(sorted(req.get("extra", {}).items()))
    request = TextRequest(req["client_id"], req["text"], req["source_language"],
                          req["target_language"], extra)
    return request, record["response"]


def _records_by_source(records):
    by_source = {}
    for record in records:
        by_source.setdefault(record.source, []).append(record)
    return by_source


def test_build_dataset_counts(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=5)
    bundle = cmd_build_dataset(config, replay=True)
    sets = _sets(bundle)
    # 2 languages x 3 relations x 5 facts x 3 sources = 90 potential sets;
    # the three object-initial MT sentences in "bb" are rejected.
    assert len(sets) <= 90
    assert len(sets) == len(set(sets)) == 87
    # One line per fact, since every fact keeps at least one source.
    assert len(read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")) == 30
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["counts"]["facts_eligible"] == 30
    assert manifest["counts"]["candidate_sets"] == 87
    blocking_total = sum(manifest["counts"]["audit_blocking"].values())
    assert manifest["counts"]["candidate_sets"] + blocking_total == 30 * 3


def test_audit_plus_records_cover_every_fact_source(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=5)
    bundle = cmd_build_dataset(config, replay=True)
    sets = _sets(bundle)
    audit = read_jsonl(bundle / "audit.jsonl", "audit")
    blocking = [a for a in audit if not a["kind"].startswith("NOTE_")]
    for source in ("TEMPLATE", "MT", "LLM"):
        emitted = sum(1 for _, s in sets if s == source)
        audited = sum(1 for a in blocking if a["source"] == source)
        assert emitted + audited == 30, source


def test_rejections_and_stem_flags_audited(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=5)
    bundle = cmd_build_dataset(config, replay=True)
    audit = read_jsonl(bundle / "audit.jsonl", "audit")
    rejections = [a for a in audit if a["kind"] == "REJECTION"]
    assert len(rejections) == 3
    assert all(a["detail"] == "NOT_SENTENCE_FINAL" for a in rejections)
    assert all(a["source"] == "MT" for a in rejections)
    # Relation R3's MT form truncates the label: confidence 5/7 < 0.75.
    flags = [a for a in audit if a["kind"] == "NOTE_LOW_CONFIDENCE_STEM"]
    assert len(flags) == 9
    assert {a["source"] for a in flags} == {"MT"}


@pytest.mark.parametrize("sources,with_qe,set_count", [
    (("TEMPLATE",), False, 18),
    (("TEMPLATE", "MT", "LLM"), True, 51),
], ids=["template-only", "all-sources"])
def test_template_only_run_touches_no_clients(tmp_path, sources, with_qe, set_count):
    config, _ = _build(tmp_path, facts_per_cell=3, sources=sources, with_qe=with_qe)
    bundle = cmd_build_dataset(config, replay=True)
    assert len(_sets(bundle)) == set_count
    # Replay responses come from the fixtures and are never cached, so
    # the response cache stays empty whatever the sources.
    assert list(Path(config.cache_dir).iterdir()) == []


def test_replay_build_from_a_prefilled_cache_matches_fixture_build(tmp_path):
    config, _ = _build(tmp_path, "fixtures", facts_per_cell=4)
    expected = json.loads((cmd_build_dataset(config, replay=True) / "manifest.json").read_text())

    config, config_path = _build(tmp_path, "cache", facts_per_cell=4)
    cache = ResponseCache(config.cache_dir)
    for path in sorted((config_path.parent / "fixtures").glob("*.jsonl")):
        for raw in path.read_text(encoding="utf-8").splitlines():
            request, response = _parse_fixture_line(raw)
            cache.put(request.digest(), request, response)
        path.write_text("", encoding="utf-8")
    bundle = cmd_build_dataset(config, replay=True)
    manifest = json.loads((bundle / "manifest.json").read_text())
    # The fixture files are inputs of a replay build, so the emptied ones
    # are the only difference.
    assert {name for name, digest in manifest.pop("inputs").items()
            if expected["inputs"][name] != digest} == {
        "fixtures/mt.jsonl", "fixtures/llm.jsonl", "fixtures/qe.jsonl"}
    del expected["inputs"]
    assert manifest == expected


def test_missing_exemplars_fatal(tmp_path):
    config, config_path = _build(tmp_path, facts_per_cell=3)
    (Path(config.exemplars_dir) / "R1.aa.txt").unlink()
    with pytest.raises(NoExemplars):
        cmd_build_dataset(config, replay=True)


def test_perfect_oracle_bounds(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=5, scorer_mode="perfect")
    bundle = cmd_build_dataset(config, replay=True)
    records_dir = cmd_evaluate(config, bundle)
    records = load_records(records_dir)
    assert records
    for group in _records_by_source(records).values():
        assert all(r.best_correct_rank == 1 for r in group)


def test_adversarial_oracle_lower_bound(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=5, scorer_mode="adversarial")
    bundle = cmd_build_dataset(config, replay=True)
    records_dir = cmd_evaluate(config, bundle)
    lines = read_jsonl(records_dir / "records.jsonl", "records")
    # Pools have 5 objects, so every fact gets 4 distractors; with every
    # correct form at the bottom the best correct rank is 5: R@n is zero
    # for all n below the distractor-plus-one boundary.
    assert lines and all(line["best_correct_rank"] == 5 for line in lines)
    assert not any("hits" in line for line in lines)


def _run_all(config):
    """The bundle, record and report directories of a full run."""
    bundle = cmd_build_dataset(config, replay=True)
    records_dir = cmd_evaluate(config, bundle)
    return bundle, records_dir, cmd_report(config, records_dir)


def _add_to_every_line(path, field, value_of):
    """Give each line of the JSONL file at ``path`` but its header the
    ``field`` of value ``value_of(line)``."""
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(header + "".join(
        jsonl.dump(dict(line, **{field: value_of(line)})) + "\n" for line in map(json.loads, lines)
    ), encoding="utf-8")


def test_a_run_that_changes_only_n_values_writes_the_same_records(tmp_path):
    # Each record held a hit for each of the run's n values, so its store
    # changed with them.
    config, config_path = _build(tmp_path, facts_per_cell=3)
    _, records_dir, _ = _run_all(config)
    before = (records_dir / "records.jsonl").read_bytes()
    data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    assert data["n_values"] == [1, 2, 3, 4, 5]
    data["n_values"] = [1, 10]
    config_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    _, records_dir, report_dir = _run_all(load_config(config_path))
    assert (records_dir / "records.jsonl").read_bytes() == before
    assert "r_at_10" in (report_dir / "cells.csv").read_text(encoding="utf-8")


def test_a_store_whose_lines_hold_hits_reports_the_same_bytes(tmp_path):
    # A store written while records held ``hits`` still reads.
    config, _ = _build(tmp_path, facts_per_cell=3)
    _, records_dir, report_dir = _run_all(config)
    before = {p.name: p.read_bytes() for p in report_dir.iterdir() if p.name != "manifest.json"}
    _add_to_every_line(records_dir / "records.jsonl", "hits", lambda line: {
        str(n): line["best_correct_rank"] <= n for n in config.n_values})
    cmd_report(config, records_dir, force=True)
    assert {p.name: p.read_bytes() for p in report_dir.iterdir()
            if p.name != "manifest.json"} == before


def test_a_bundle_whose_lines_hold_salt_evaluates_to_the_same_bytes(tmp_path):
    # A bundle written while its lines held ``salt`` still reads.
    config, _ = _build(tmp_path, facts_per_cell=3)
    bundle, records_dir, _ = _run_all(config)
    before = (records_dir / "records.jsonl").read_bytes()
    _add_to_every_line(bundle / "candidate_sets.jsonl", "salt", lambda line: config.salt)
    cmd_evaluate(config, bundle, force=True)
    assert (records_dir / "records.jsonl").read_bytes() == before


class _Interrupted(BaseException):
    # A BaseException, exactly like a KeyboardInterrupt mid-run.
    pass


class _TrippingScorer:
    """Delegates to an inner backend, then trips after N batches."""

    def __init__(self, inner, after: int):
        self.inner = inner
        self.remaining = after

    def score_batch(self, prompt, continuations):
        if self.remaining <= 0:
            raise _Interrupted("simulated crash")
        self.remaining -= 1
        return self.inner.score_batch(prompt, continuations)


def test_interrupt_and_resume_identical_store(tmp_path):
    config_a, _ = _build(tmp_path, "a", facts_per_cell=4)
    bundle_a = cmd_build_dataset(config_a, replay=True)
    oracle = _oracle(config_a, bundle_a)
    with pytest.raises(_Interrupted):
        cmd_evaluate(config_a, bundle_a, scorer=_TrippingScorer(oracle, after=10))
    assert (config_a.output_dir / "records" / "progress.jsonl").exists()
    records_a = cmd_evaluate(config_a, bundle_a, scorer=oracle)

    config_b, _ = _build(tmp_path, "b", facts_per_cell=4)
    bundle_b = cmd_build_dataset(config_b, replay=True)
    records_b = cmd_evaluate(config_b, bundle_b)

    assert (records_a / "records.jsonl").read_bytes() == (
        records_b / "records.jsonl"
    ).read_bytes()
    assert not (records_a / "progress.jsonl").exists()


def test_a_run_killed_at_the_records_manifest_resumes_without_scoring(tmp_path, monkeypatch):
    # The killed run had already deleted its progress log, so the rerun
    # scored every set again.
    config, _ = _build(tmp_path, "a", facts_per_cell=4)
    bundle = cmd_build_dataset(config, replay=True)
    manifest = config.output_dir / "records" / "manifest.json"
    write_json = pipeline._write_json

    def killed_at_manifest(path, obj):
        if path == manifest:
            raise _Interrupted("killed before the manifest")
        write_json(path, obj)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_write_json", killed_at_manifest)
        with pytest.raises(_Interrupted):
            cmd_evaluate(config, bundle)
    scorer = _CountingScorer(_oracle(config, bundle))
    records = cmd_evaluate(config, bundle, scorer=scorer)
    assert scorer.requests == Counter()
    assert not (records / "progress.jsonl").exists()

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=4)
    records_clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    assert (records / "records.jsonl").read_bytes() == (
        records_clean / "records.jsonl").read_bytes()


def _interrupted_progress(tmp_path, name, after=10):
    """A workspace whose evaluate stopped after ``after`` sets; returns the
    config, bundle, scorer and progress file."""
    config, _ = _build(tmp_path, name, facts_per_cell=4)
    bundle = cmd_build_dataset(config, replay=True)
    oracle = _oracle(config, bundle)
    with pytest.raises(_Interrupted):
        cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=after))
    return config, bundle, oracle, config.output_dir / "records" / "progress.jsonl"


@pytest.mark.parametrize(
    "tear",
    [lambda raw: raw[: len(raw) // 2], lambda raw: raw[:-1]],
    ids=["cut-mid-line", "cut-before-newline"],
)
def test_torn_last_progress_line_resumes(tmp_path, tear):
    config, bundle, oracle, progress = _interrupted_progress(tmp_path, "a")
    # A run killed mid-write leaves its last progress entry cut short.
    lines = progress.read_bytes().splitlines(keepends=True)
    progress.write_bytes(b"".join(lines[:-1]) + tear(lines[-1]))
    # Entries appended after the repaired tail must read back on a later resume.
    with pytest.raises(_Interrupted):
        cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=5))
    records = cmd_evaluate(config, bundle, scorer=oracle)

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=4)
    records_clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    assert (records / "records.jsonl").read_bytes() == (
        records_clean / "records.jsonl"
    ).read_bytes()


def test_resume_from_progress_lines_that_are_not_canonical(tmp_path):
    config, bundle, oracle, progress = _interrupted_progress(tmp_path, "a")
    header, *lines = progress.read_text(encoding="utf-8").splitlines(keepends=True)
    # Valid lines in another key order, with spaces and escaped non-ASCII.
    progress.write_text(header + "".join(
        json.dumps(dict(reversed(json.loads(line).items()))) + "\n" for line in lines),
        encoding="utf-8")
    records = cmd_evaluate(config, bundle, scorer=oracle)

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=4)
    records_clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    assert (records / "records.jsonl").read_bytes() == (
        records_clean / "records.jsonl"
    ).read_bytes()


def test_undecodable_progress_line_before_the_last_is_an_error(tmp_path):
    config, bundle, oracle, progress = _interrupted_progress(tmp_path, "ws")
    lines = progress.read_bytes().splitlines(keepends=True)
    lines[3] = b'{"type":"rec\n'
    progress.write_bytes(b"".join(lines))
    with pytest.raises(MalformedRecord) as info:
        cmd_evaluate(config, bundle, scorer=oracle)
    assert info.value.context == {"file": str(progress), "line": 4}


def test_a_resumed_evaluate_only_appends_to_progress(tmp_path):
    config, bundle, oracle, progress = _interrupted_progress(tmp_path, "ws")
    before, inode = progress.read_bytes(), progress.stat().st_ino
    assert len(before.splitlines()) > 5
    with pytest.raises(_Interrupted):
        cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=5))
    # The earlier lines keep their bytes, in the same file: nothing rewrote it.
    after = progress.read_bytes()
    assert after.startswith(before) and len(after.splitlines()) > len(before.splitlines())
    assert progress.stat().st_ino == inode


_MISSING = object()

# A progress entry is a record line. Each case drops a field or gives it
# another type; its id names the case of the old wrapped-entry format
# (``{"type": "record", "data": {...}}``) it replaces.
WRONG_PROGRESS_ENTRIES = {
    "no-type": ("best_correct_rank", "one"),
    "no-data": ("relation_id", _MISSING),
    "data-not-object": ("best_correct_form", ["1"]),
    "fact-id-not-string": ("fact_id", 5),
    "no-source": ("source", _MISSING),
}


@pytest.mark.parametrize("at_end", [False, True], ids=["middle", "last"])
@pytest.mark.parametrize("entry", sorted(WRONG_PROGRESS_ENTRIES))
def test_cli_reports_wrong_shape_progress_line(tmp_path, capsys, entry, at_end):
    config, bundle, _, progress = _interrupted_progress(tmp_path, "ws")
    lines = progress.read_bytes().splitlines(keepends=True)
    record = json.loads(lines[1])
    field, value = WRONG_PROGRESS_ENTRIES[entry]
    if value is _MISSING:
        del record[field]
    else:
        record[field] = value
    lineno = len(lines) + 1 if at_end else 3
    lines.insert(lineno - 1, (json.dumps(record) + "\n").encode())
    progress.write_bytes(b"".join(lines))
    config_path = tmp_path / "ws" / "config.yaml"
    argv = ["evaluate", "--config", str(config_path), "--bundle", str(bundle)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [MALFORMED_RECORD]")
    assert f"file={str(progress)!r}" in err
    assert f"line={lineno}" in err
    assert f"field={field!r}" in err
    assert "Traceback" not in err


def test_progress_of_the_older_wrapped_format_is_discarded(tmp_path):
    config, bundle, oracle, progress = _interrupted_progress(tmp_path, "ws")
    lines = progress.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    older = [{"type": "header", "config_digest": header["config_digest"],
              "inputs": header["inputs"]}]
    older += [{"type": "record", "data": json.loads(line)} for line in lines[1:]]
    progress.write_text("".join(json.dumps(entry) + "\n" for entry in older), encoding="utf-8")
    # A resumed run would score only the requests not yet done; this one
    # scores every request again, so it trips.
    done = {(entry["data"]["fact_id"], entry["data"]["source"]) for entry in older[1:]}
    pending = pipeline._pending_sets(
        read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets"), done)
    with pytest.raises(_Interrupted):
        cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=len(list(pending))))
    assert progress.read_text(encoding="utf-8").splitlines()[0] == lines[0]


class _FailingOnceScorer:
    """Raises one BackendError on its first batch, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.failed = False

    def score_batch(self, prompt, continuations):
        if not self.failed:
            self.failed = True
            raise BackendError("transient scorer failure")
        return self.inner.score_batch(prompt, continuations)


def test_backend_error_leaves_evaluate_incomplete_until_a_healthy_rerun(tmp_path):
    config, _ = _build(tmp_path, "ws", facts_per_cell=3)
    bundle = cmd_build_dataset(config, replay=True)
    oracle = _oracle(config, bundle)
    records = cmd_evaluate(config, bundle, scorer=_FailingOnceScorer(oracle))
    manifest = json.loads((records / "manifest.json").read_text())
    assert manifest["complete"] is False
    # The first request is shared by the three sources of f-1-aa-00.
    assert manifest["counts"]["backend_errors"] == 3
    assert (records / "progress.jsonl").exists()

    # The rerun, without --force, scores only the request that failed.
    records = cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=1))
    manifest = json.loads((records / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["counts"]["backend_errors"] == 0
    assert not (records / "progress.jsonl").exists()

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=3)
    clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    for name in ("records.jsonl", "audit.jsonl", "manifest.json"):
        assert (records / name).read_bytes() == (clean / name).read_bytes(), name


class _CountingScorer:
    """Delegates to an inner backend and counts each distinct request; fails
    with a BackendError every request whose prompt is in ``failing``."""

    def __init__(self, inner, failing=()):
        self.inner = inner
        self.failing = set(failing)
        self.requests = Counter()

    def score_batch(self, prompt, continuations):
        self.requests[(prompt, tuple(continuations))] += 1
        if prompt in self.failing:
            raise BackendError("scorer backend unavailable")
        return self.inner.score_batch(prompt, continuations)


def _distinct_requests(bundle) -> set[tuple[str, str]]:
    """The (fact, prompt) pairs of a bundle: one request each."""
    lines = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    return {(line["fact_id"], entry["prompt"])
            for line in lines for entry in line["sources"].values()}


def test_each_distinct_prompt_of_a_fact_is_scored_once(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=4)
    bundle = cmd_build_dataset(config, replay=True)
    scorer = _CountingScorer(_oracle(config, bundle))
    records = load_records(cmd_evaluate(config, bundle, scorer=scorer))
    distinct = _distinct_requests(bundle)
    assert set(scorer.requests.values()) == {1}
    assert {prompt for prompt, _ in scorer.requests} == {prompt for _, prompt in distinct}
    assert len(scorer.requests) == len(distinct)
    # Sources share prompts, and each set still gets its own record.
    assert len(distinct) < len(records) == len(_sets(bundle))


def test_backend_error_on_a_shared_request_audits_every_source_sharing_it(tmp_path):
    config, _ = _build(tmp_path, "ws", facts_per_cell=3)
    bundle = cmd_build_dataset(config, replay=True)
    lines = {line["fact_id"]: line
             for line in read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")}
    # f-1-aa-00 has one prompt for its three sources; the subject of
    # f-1-aa-01 is female, so MT and LLM share a prompt that TEMPLATE lacks.
    first = lines["f-1-aa-00"]["sources"]
    second = lines["f-1-aa-01"]["sources"]
    assert first["LLM"]["prompt"] == first["MT"]["prompt"] == first["TEMPLATE"]["prompt"]
    assert second["LLM"]["prompt"] == second["MT"]["prompt"] != second["TEMPLATE"]["prompt"]
    failing = {first["MT"]["prompt"], second["MT"]["prompt"]}
    oracle = _oracle(config, bundle)
    records = cmd_evaluate(config, bundle, scorer=_CountingScorer(oracle, failing))
    audit = read_jsonl(records / "audit.jsonl", "audit")
    assert [(a["fact_id"], a["source"], a["kind"]) for a in audit] == [
        ("f-1-aa-00", "LLM", "BACKEND_ERROR"), ("f-1-aa-00", "MT", "BACKEND_ERROR"),
        ("f-1-aa-00", "TEMPLATE", "BACKEND_ERROR"), ("f-1-aa-01", "LLM", "BACKEND_ERROR"),
        ("f-1-aa-01", "MT", "BACKEND_ERROR"),
    ]
    manifest = json.loads((records / "manifest.json").read_text())
    assert manifest["complete"] is False
    assert manifest["counts"]["backend_errors"] == 5

    # A healthy rerun sends only the two failed requests, once each.
    rerun = _CountingScorer(oracle)
    records = cmd_evaluate(config, bundle, scorer=rerun)
    assert sorted(prompt for prompt, _ in rerun.requests) == sorted(failing)
    assert set(rerun.requests.values()) == {1}

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=3)
    clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    for name in ("records.jsonl", "audit.jsonl", "manifest.json"):
        assert (records / name).read_bytes() == (clean / name).read_bytes(), name


def test_resume_scores_a_shared_prompt_once_when_one_of_its_sources_is_done(tmp_path):
    # Two requests done: f-1-aa-00's one prompt (three records), then the
    # prompt f-1-aa-01's MT and LLM share (two records, LLM first).
    config, bundle, oracle, progress = _interrupted_progress(tmp_path, "a", after=2)
    lines = progress.read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + 3 + 2
    last = json.loads(lines[-1])
    assert (last["fact_id"], last["source"]) == ("f-1-aa-01", "MT")
    # As if the run was killed between the records of the shared prompt.
    progress.write_bytes(b"".join(lines[:-1]))
    rerun = _CountingScorer(oracle)
    records = cmd_evaluate(config, bundle, scorer=rerun)
    assert sum(n for (prompt, _), n in rerun.requests.items() if prompt == last["prompt"]) == 1
    assert set(rerun.requests.values()) == {1}
    assert len(rerun.requests) == len(_distinct_requests(bundle)) - 1

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=4)
    clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    assert (records / "records.jsonl").read_bytes() == (clean / "records.jsonl").read_bytes()


def test_evaluate_sorts_its_audit_by_fact_and_source(tmp_path):
    # LLM and TEMPLATE share a prompt, so MT's request comes last.
    line = _line("f1", "shared:", no_space=False)
    line["sources"] = {"LLM": {"prompt": "shared:"}, "MT": {"prompt": "own:"},
                       "TEMPLATE": {"prompt": "shared:"}}
    config, bundle = _manual_bundle(tmp_path, [line])
    scorer = _CountingScorer(_RecordingScorer(), failing={"shared:", "own:"})
    records = cmd_evaluate(config, bundle, scorer=scorer)
    assert [prompt for prompt, _ in scorer.requests] == ["shared:", "own:"]
    audit = read_jsonl(records / "audit.jsonl", "audit")
    assert [a["source"] for a in audit] == ["LLM", "MT", "TEMPLATE"]


class _BuggyOnceScorer:
    """Raises one RuntimeError, a fault no rerun can mend, then delegates."""

    def __init__(self, inner, at: int):
        self.inner = inner
        self.remaining = at

    def score_batch(self, prompt, continuations):
        self.remaining -= 1
        if self.remaining == 0:
            raise RuntimeError("scorer bug")
        return self.inner.score_batch(prompt, continuations)


def test_scorer_fault_fails_evaluate_instead_of_auditing_a_backend_error(tmp_path):
    config, _ = _build(tmp_path, "ws", facts_per_cell=3)
    bundle = cmd_build_dataset(config, replay=True)
    oracle = _oracle(config, bundle)
    records = config.output_dir / "records"
    with pytest.raises(RuntimeError, match="scorer bug"):
        cmd_evaluate(config, bundle, scorer=_BuggyOnceScorer(oracle, at=4))
    assert not (records / "manifest.json").exists()
    assert not (records / "audit.jsonl").exists()
    # The three requests done are the one prompt of f-1-aa-00's three
    # sources and the two of f-1-aa-01 (MT and LLM use the feminine marker).
    assert len((records / "progress.jsonl").read_text().splitlines()) == 1 + 3 + 3

    # The rerun scores only the sets after the six already done.
    cmd_evaluate(config, bundle, scorer=oracle)
    manifest = json.loads((records / "manifest.json").read_text())
    assert manifest["complete"] is True

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=3)
    clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    for name in ("records.jsonl", "audit.jsonl", "manifest.json"):
        assert (records / name).read_bytes() == (clean / name).read_bytes(), name


def test_bundle_of_another_kind_is_malformed(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=2)
    bundle = cmd_build_dataset(config, replay=True)
    path = bundle / "candidate_sets.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = '{"kind":"records","schema_version":1}\n'
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        cmd_evaluate(config, bundle)
    assert info.value.context == {"file": str(path), "line": 1, "field": "kind"}


class _ClosableScorer:
    def __init__(self, inner):
        self.inner = inner
        self.closed = 0

    def score_batch(self, prompt, continuations):
        return self.inner.score_batch(prompt, continuations)

    def close(self):
        self.closed += 1


def test_evaluate_closes_only_the_scorer_it_opened(tmp_path, monkeypatch):
    config, _ = _build(tmp_path, facts_per_cell=2)
    bundle = cmd_build_dataset(config, replay=True)
    opened = _ClosableScorer(_oracle(config, bundle))
    monkeypatch.setattr(pipeline, "make_scorer", lambda config, lines: opened)
    cmd_evaluate(config, bundle)
    assert opened.closed == 1

    passed = _ClosableScorer(opened.inner)
    cmd_evaluate(config, bundle, scorer=passed, force=True)
    assert passed.closed == 0


def test_stale_progress_discarded_after_rebuild(tmp_path):
    import yaml

    config, config_path = _build(tmp_path, "ws", facts_per_cell=4)
    bundle = cmd_build_dataset(config, replay=True)
    oracle = _oracle(config, bundle)
    with pytest.raises(_Interrupted):
        cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=5))

    # Changing the salt rebuilds the bundle with different distractors; the
    # partial progress no longer applies and must be dropped, not folded in.
    data = yaml.safe_load(config_path.read_text())
    data["salt"] = "different-salt"
    config_path.write_text(yaml.safe_dump(data, sort_keys=True))
    config2 = load_config(config_path)
    bundle2 = cmd_build_dataset(config2, replay=True, force=True)
    records_dir = cmd_evaluate(config2, bundle2)

    config_clean, _ = _build(tmp_path, "clean", facts_per_cell=4)
    clean_path = tmp_path / "clean" / "config.yaml"
    clean_data = yaml.safe_load(clean_path.read_text())
    clean_data["salt"] = "different-salt"
    clean_path.write_text(yaml.safe_dump(clean_data, sort_keys=True))
    config_clean = load_config(clean_path)
    bundle_clean = cmd_build_dataset(config_clean, replay=True)
    records_clean = cmd_evaluate(config_clean, bundle_clean)

    assert (records_dir / "records.jsonl").read_bytes() == (
        records_clean / "records.jsonl"
    ).read_bytes()


def test_disabling_source_preserves_other_rows(tmp_path):
    config_full, _ = _build(tmp_path, "full", facts_per_cell=4)
    bundle = cmd_build_dataset(config_full, replay=True)
    report_full = cmd_report(config_full, cmd_evaluate(config_full, bundle))

    config_two, _ = _build(
        tmp_path, "two", facts_per_cell=4, sources=("TEMPLATE", "MT")
    )
    bundle_two = cmd_build_dataset(config_two, replay=True)
    report_two = cmd_report(config_two, cmd_evaluate(config_two, bundle_two))

    full_lines = (report_full / "report.md").read_text().splitlines()
    two_lines = (report_two / "report.md").read_text().splitlines()
    for row_label in ("| Template |", "| MT |"):
        full_rows = [l for l in full_lines if l.startswith(row_label)]
        two_rows = [l for l in two_lines if l.startswith(row_label)]
        assert two_rows == full_rows
    assert any(l.startswith("| LLM |") for l in full_lines)
    assert not any(l.startswith("| LLM |") for l in two_lines)


def test_inflection_pairs_only_for_expected_relation(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=4)
    bundle = cmd_build_dataset(config, replay=True)
    sets = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    with_pair = {s["relation_id"] for s in sets if s["inflection_pair"]}
    assert with_pair == {"R1"}
    records = load_records(cmd_evaluate(config, bundle))
    tagged = [r for r in records if r.form_ranks]
    assert tagged
    assert {r.relation_id for r in tagged} == {"R1"}


def test_report_artifacts_written(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=4)
    bundle = cmd_build_dataset(config, replay=True)
    report_dir = cmd_report(config, cmd_evaluate(config, bundle))
    for name in ("report.md", "cells.csv", "curves.csv", "rank_counts.csv",
                 "rank_quartiles.csv", "qe_correlation.csv", "manifest.json"):
        assert (report_dir / name).exists(), name
    text = (report_dir / "report.md").read_text()
    assert "## Retrieval by verbalization" in text
    assert "## Female-subject subset" in text
    assert "%(F) aa" in text


def _report_files(report_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(report_dir.iterdir())}


def test_report_holds_only_the_artifacts_its_manifest_lists(tmp_path):
    config, config_path = _build(tmp_path, facts_per_cell=3)
    _run_stages(config)
    report_dir = config.output_dir / "report"
    assert (report_dir / "qe_correlation.csv").exists()
    # A run without the QE client writes no QE cells, so it leaves no QE CSV.
    data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    del data["qe"]
    config_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    _run_stages(load_config(config_path))
    manifest = json.loads((report_dir / "manifest.json").read_text(encoding="utf-8"))
    assert "qe_correlation.csv" not in manifest["artifacts"]
    assert sorted(_report_files(report_dir)) == sorted([*manifest["artifacts"], "manifest.json"])


def test_report_bytes_do_not_depend_on_record_order(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=4)
    records_dir = cmd_evaluate(config, cmd_build_dataset(config, replay=True))
    path = records_dir / "records.jsonl"
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    # One (language, relation, source) group gets QE scores whose
    # left-to-right float sum differs between the two orders: 0.0 forwards,
    # 1.0 backwards; ``math.fsum`` gives 1.0 both ways.
    group = [r for r in records
             if (r["language"], r["relation_id"], r["source"]) == ("aa", "R2", "MT")]
    assert len(group) == 4
    for record, score in zip(group, (1.0, 1e16, -1e16, 0.0)):
        record["qe_score"] = score
    path.write_text(header + "".join(jsonl.dump(r) + "\n" for r in records), encoding="utf-8")
    forwards = _report_files(cmd_report(config, records_dir, force=True))
    path.write_text(header + "".join(jsonl.dump(r) + "\n" for r in reversed(records)),
                    encoding="utf-8")
    backwards = _report_files(cmd_report(config, records_dir, force=True))
    # The manifests differ only in the digest of the reordered records.
    del forwards["manifest.json"], backwards["manifest.json"]
    assert "qe_correlation.csv" in forwards
    assert backwards == forwards


def test_stage_reuse_skips_completed_build(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=3)
    bundle = cmd_build_dataset(config, replay=True)
    manifest_before = (bundle / "manifest.json").read_bytes()
    mtime_before = (bundle / "candidate_sets.jsonl").stat().st_mtime_ns
    again = cmd_build_dataset(config, replay=True)
    assert again == bundle
    assert (bundle / "manifest.json").read_bytes() == manifest_before
    assert (bundle / "candidate_sets.jsonl").stat().st_mtime_ns == mtime_before


def _outputs(config) -> dict[str, tuple[bytes, int]]:
    """Bytes and modification time of every file the stages wrote."""
    out = config.output_dir
    return {path.relative_to(out).as_posix(): (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(out.rglob("*")) if path.is_file()}


def _run_stages(config, force=False):
    bundle = cmd_build_dataset(config, replay=True, force=force)
    cmd_report(config, cmd_evaluate(config, bundle, force=force), force=force)


def _replace_in(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


# Each case edits one file a stage reads but the config does not name as
# a corpus file; the artifact is one the edit must change.
EDITED_INPUTS = {
    "exemplar": ("exemplars/R1.aa.txt", "Exsource", "Othersource",
                 "bundle/candidate_sets.jsonl"),
    "replay-fixture": ("fixtures/mt.jsonl", "o1aa1aazu.", "o1aa1aaku.",
                       "bundle/verbalizations.jsonl"),
    "gender-patterns": ("gender_patterns.yaml", "la", "lx", "report/report.md"),
}


@pytest.mark.parametrize("case", sorted(EDITED_INPUTS))
def test_a_stage_reruns_when_a_file_it_reads_changes(tmp_path, case):
    name, old, new, artifact = EDITED_INPUTS[case]
    config, config_path = _build(tmp_path, facts_per_cell=3)
    _run_stages(config)
    complete = _outputs(config)
    _run_stages(config)
    assert _outputs(config) == complete  # a no-op: nothing rewritten

    _replace_in(config_path.parent / name, old, new)
    _run_stages(config)
    rerun = _outputs(config)
    assert rerun[artifact][0] != complete[artifact][0]
    _run_stages(config, force=True)
    assert {path: data for path, (data, _) in _outputs(config).items()} == {
        path: data for path, (data, _) in rerun.items()}


def test_stage_inputs_are_named_relative_to_the_config(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=3)
    _run_stages(config)
    inputs = {stage: sorted(json.loads((config.output_dir / stage / "manifest.json")
                                       .read_text())["inputs"])
              for stage in ("bundle", "records", "report")}
    assert inputs == {
        "bundle": ["corpus/entities.jsonl", "corpus/facts.jsonl", "corpus/relations.jsonl",
                   *(f"exemplars/R{r}.{lang}.txt" for r in (1, 2, 3) for lang in ("aa", "bb")),
                   "fixtures/llm.jsonl", "fixtures/mt.jsonl", "fixtures/qe.jsonl"],
        "records": ["out/bundle/candidate_sets.jsonl"],
        "report": ["gender_patterns.yaml", "out/records/records.jsonl"],
    }


def test_evaluate_reruns_when_the_table_scores_change(tmp_path):
    config, bundle = _manual_bundle(tmp_path, [_line("f1", "P:", False)])
    config_path = bundle.parent / "config.yaml"
    data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    data["scorer"] = {"backend": "table", "fixtures": "scores.jsonl"}
    config_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    config = load_config(config_path)
    scores = bundle.parent / "scores.jsonl"
    jsonl.write_jsonl(scores, "scores", [
        {"prompt": "P:", "continuation": " gold", "logprob": -1.0},
        {"prompt": "P:", "continuation": " lead", "logprob": -2.0},
    ])
    assert [r.best_correct_rank for r in load_records(cmd_evaluate(config, bundle))] == [1]
    _replace_in(scores, "-2.0", "-0.5")
    records = cmd_evaluate(config, bundle)
    assert [r.best_correct_rank for r in load_records(records)] == [2]
    rerun = (records / "records.jsonl").read_bytes()
    assert (cmd_evaluate(config, bundle, force=True) / "records.jsonl").read_bytes() == rerun


@pytest.mark.parametrize("repeat, conflict", [(-1.0, False), (-0.5, True)],
                         ids=["same-score", "other-score"])
def test_a_table_scores_pair_given_twice_must_repeat_its_score(tmp_path, repeat, conflict):
    config, bundle = _manual_bundle(tmp_path, [_line("f1", "P:", False)])
    config_path = bundle.parent / "config.yaml"
    data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    data["scorer"] = {"backend": "table", "fixtures": "scores.jsonl"}
    config_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    config = load_config(config_path)
    scores = bundle.parent / "scores.jsonl"
    jsonl.write_jsonl(scores, "scores", [
        {"prompt": "P:", "continuation": " gold", "logprob": -1.0},
        {"prompt": "P:", "continuation": " lead", "logprob": -2.0},
        {"prompt": "P:", "continuation": " gold", "logprob": repeat},
    ])
    if not conflict:
        assert [r.best_correct_rank for r in load_records(cmd_evaluate(config, bundle))] == [1]
        return
    with pytest.raises(MalformedRecord) as caught:
        cmd_evaluate(config, bundle)
    message = str(caught.value)
    assert f"file={str(scores)!r}" in message
    assert "prompt='P:'" in message and "continuation=' gold'" in message


def test_build_writes_each_fact_before_building_the_next(tmp_path, monkeypatch):
    config, _ = _build(tmp_path, facts_per_cell=3)
    events = []
    build_fact, writing = pipeline.build_fact, pipeline.writing

    def noting_build(fact, ctx):
        events.append(("build", fact.id))
        lines = build_fact(fact, ctx)
        events.append(("built", dict(zip(("candidate_sets", "verbalizations", "audit"), lines))))
        return lines

    @contextlib.contextmanager
    def noting_writing(path, kind, **header):
        with writing(path, kind, **header) as write:
            def noting_write(line):
                events.append(("write", kind, line))
                write(line)
            yield noting_write

    monkeypatch.setattr(pipeline, "build_fact", noting_build)
    monkeypatch.setattr(pipeline, "writing", noting_writing)
    bundle = cmd_build_dataset(config, replay=True)

    # Between a fact's return and the next fact's build, exactly the lines
    # that fact returned are written, each to its own file.
    starts = [i for i, event in enumerate(events) if event[0] == "build"]
    assert len(starts) == 18
    for start, end in zip(starts, starts[1:] + [len(events)]):
        (_, expected), *writes = events[start + 1:end]
        written = {kind: [] for kind in expected}
        for _, kind, line in writes:
            written[kind].append(line)
        assert written == expected

    # The manifest counts what the files hold.
    counts = json.loads((bundle / "manifest.json").read_text())["counts"]
    assert counts["candidate_sets"] == len(_sets(bundle))
    kinds = Counter(entry["kind"] for entry in read_jsonl(bundle / "audit.jsonl", "audit"))
    assert counts["audit_blocking"] == {k: n for k, n in kinds.items() if not k.startswith("NOTE_")}
    assert counts["audit_notes"] == {k: n for k, n in kinds.items() if k.startswith("NOTE_")}


def _fail_build_at(monkeypatch, index):
    """Make ``build_fact`` raise on the ``index``-th fact."""
    build_fact, built = pipeline.build_fact, []

    def failing(fact, ctx):
        built.append(fact.id)
        if len(built) == index:
            raise RuntimeError("build failed mid-run")
        return build_fact(fact, ctx)

    monkeypatch.setattr(pipeline, "build_fact", failing)


def test_a_failed_first_build_leaves_an_empty_bundle(tmp_path, monkeypatch):
    config, _ = _build(tmp_path, facts_per_cell=3)
    _fail_build_at(monkeypatch, 5)
    with pytest.raises(RuntimeError, match="mid-run"):
        cmd_build_dataset(config, replay=True)
    # No artifact, temporary file or manifest.
    assert list((config.output_dir / "bundle").iterdir()) == []


def test_a_failed_forced_rebuild_leaves_the_bundle_as_it_was(tmp_path, monkeypatch):
    config, _ = _build(tmp_path, facts_per_cell=3)
    bundle = cmd_build_dataset(config, replay=True)
    before = {path.name: path.read_bytes() for path in bundle.iterdir()}
    _fail_build_at(monkeypatch, 5)
    with pytest.raises(RuntimeError, match="mid-run"):
        cmd_build_dataset(config, replay=True, force=True)
    assert {path.name: path.read_bytes() for path in bundle.iterdir()} == before
    # A plain rerun finds the stage current and builds nothing.
    _fail_build_at(monkeypatch, 1)
    assert cmd_build_dataset(config, replay=True) == bundle


def test_cli_end_to_end(tmp_path):
    config_path = make_toy_workspace(tmp_path / "ws", facts_per_cell=3)
    assert cli.main(["build-dataset", "--config", str(config_path), "--replay"]) == 0
    out = tmp_path / "ws" / "out"
    assert cli.main([
        "evaluate", "--config", str(config_path), "--bundle", str(out / "bundle")
    ]) == 0
    assert cli.main([
        "report", "--config", str(config_path), "--records", str(out / "records")
    ]) == 0
    assert (out / "report" / "report.md").exists()


def test_cli_reports_config_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("config_version: 99\n", encoding="utf-8")
    assert cli.main(["build-dataset", "--config", str(bad)]) == 1


def _first_fixture(workspace: Path) -> dict:
    with open(workspace / "fixtures" / "mt.jsonl", encoding="utf-8") as fh:
        return json.loads(fh.readline())


def test_cli_reports_corrupt_cache_entry(tmp_path, capsys):
    config_path = make_toy_workspace(tmp_path / "ws", facts_per_cell=3)
    cache = ResponseCache(tmp_path / "ws" / "cache")
    fixtures = (tmp_path / "ws" / "fixtures" / "mt.jsonl").read_text(encoding="utf-8")
    for raw in fixtures.splitlines()[:2]:
        request, response = _parse_fixture_line(raw)
        cache.put(request.digest(), request, response)
    # A cut line before the last is corruption, not a torn tail.
    log = tmp_path / "ws" / "cache" / "mt.jsonl"
    first, second = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(first[:20] + b"\n" + second)
    assert cli.main(["build-dataset", "--config", str(config_path), "--replay"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [MALFORMED_RECORD]")
    assert f"file={str(log)!r}" in err and "line=1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("store", ["fixture", "cache"])
def test_cli_reports_wrong_shape_record(tmp_path, capsys, store):
    config_path = make_toy_workspace(tmp_path / "ws", facts_per_cell=3)
    if store == "fixture":
        path = tmp_path / "ws" / "fixtures" / "mt.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"response": "x"}) + "\n")
    else:
        record = _first_fixture(tmp_path / "ws")
        path = tmp_path / "ws" / "cache" / "mt.jsonl"
        path.parent.mkdir()
        path.write_text(json.dumps({"request": record["request"], "response": 5}) + "\n")
    assert cli.main(["build-dataset", "--config", str(config_path), "--replay"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [MALFORMED_RECORD]")
    assert str(path) in err
    assert "Traceback" not in err


def test_cli_evaluate_fails_when_backend_errors_leave_it_incomplete(tmp_path, capsys):
    config_path = make_toy_workspace(
        tmp_path / "ws", facts_per_cell=3, sources=("TEMPLATE",), with_qe=False
    )
    data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    data["scorer"] = {"backend": "table", "fixtures": "scores.jsonl"}
    config_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert cli.main(["build-dataset", "--config", str(config_path), "--replay"]) == 0
    bundle = tmp_path / "ws" / "out" / "bundle"
    lines = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    # Every continuation is scored except the last one of the last set.
    scores = [
        {"prompt": cs.prompt, "continuation": c, "logprob": -1.0, "token_count": 1}
        for _, _, cs in pipeline._pending_sets(lines, set())
        for c in candidate_continuations(cs)
    ][:-1]
    pipeline.write_jsonl(tmp_path / "ws" / "scores.jsonl", "scores", scores)
    capsys.readouterr()
    assert cli.main(
        ["evaluate", "--config", str(config_path), "--bundle", str(bundle)]
    ) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [BACKEND_ERROR] 1 candidate sets failed to score")
    assert "a rerun of evaluate retries them" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    manifest = json.loads((tmp_path / "ws" / "out" / "records" / "manifest.json").read_text())
    assert manifest["complete"] is False


@pytest.mark.parametrize("response", ["high", "nan", "inf", "-Infinity", "1e999"])
def test_a_qe_score_that_is_no_finite_number_is_a_qe_error(tmp_path, response):
    config, _ = _build(tmp_path, "clean", facts_per_cell=3)
    expected = _sets(cmd_build_dataset(config, replay=True))
    assert expected
    config, config_path = _build(tmp_path, "spoiled", facts_per_cell=3)
    path = config_path.parent / "fixtures" / "qe.jsonl"
    fixtures = [json.loads(raw) for raw in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("".join(json.dumps(dict(fixture, response=response)) + "\n"
                            for fixture in fixtures), encoding="utf-8")
    bundle = cmd_build_dataset(config, replay=True)
    audit = read_jsonl(bundle / "audit.jsonl", "audit")
    assert sorted((e["fact_id"], e["source"]) for e in audit if e["kind"] == "QE_ERROR") == \
        sorted(expected)
    assert _sets(bundle) == []


class _NextScoreHandler(BaseHTTPRequestHandler):
    """A live QE endpoint that answers each call with the next score: 0.0,
    0.1, 0.2, ..., so two calls with one request get two answers."""

    calls = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"text": f"{type(self).calls / 10}"}).encode("utf-8")
        type(self).calls += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _record_qe_workspace(tmp_path, cache_dir):
    """A toy workspace whose QE client records from a ``_NextScoreHandler``
    into ``recorded/qe.jsonl``, which its replay reads; yields the config
    and the handler, whose server stops when the block ends."""
    handler = type("Handler", (_NextScoreHandler,), {"calls": 0})
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        config_path = make_toy_workspace(tmp_path / "ws", facts_per_cell=3)
        data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
        data["cache_dir"] = cache_dir
        data["qe"] = {"client_id": "qe", "mode": "record",
                      "endpoint": f"http://127.0.0.1:{server.server_port}/",
                      "record_fixtures": "recorded/qe.jsonl", "fixtures": ["recorded/qe.jsonl"]}
        config_path.write_text(yaml.safe_dump(data), encoding="utf-8")
        yield load_config(config_path), handler
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_a_record_build_asks_once_per_request_and_replays_to_its_bundle(tmp_path):
    # An R1 fact's MT and LLM sentences are the same text, so their QE
    # requests are one. Without a cache, that request reached the client
    # twice, was recorded twice, and replay gave both sets the last answer.
    with _record_qe_workspace(tmp_path, cache_dir=None) as (config, handler):
        bundle = cmd_build_dataset(config)
        recorded = Path(config.qe.record_fixtures).read_text(encoding="utf-8").splitlines()
        distinct = {_parse_fixture_line(raw)[0].digest() for raw in recorded}
        assert handler.calls == len(recorded) == len(distinct) < len(_sets(bundle))
        built = (bundle / "candidate_sets.jsonl").read_bytes()
        replayed = cmd_build_dataset(config, replay=True)
        assert handler.calls == len(recorded)
    assert (replayed / "candidate_sets.jsonl").read_bytes() == built


def test_a_second_record_build_asks_only_what_is_not_recorded(tmp_path):
    # Each record build used to ask every request again and append its new
    # answer, so the bundles differed and replay gave the last one.
    with _record_qe_workspace(tmp_path, cache_dir=None) as (config, handler):
        bundles = []
        for replay in (False, False, True):
            bundle = cmd_build_dataset(config, replay=replay, force=True)
            bundles.append({name: (bundle / name).read_bytes() for name in (
                "candidate_sets.jsonl", "verbalizations.jsonl", "audit.jsonl")})
        recorded = Path(config.qe.record_fixtures).read_text(encoding="utf-8").splitlines()
        distinct = {_parse_fixture_line(raw)[0].digest() for raw in recorded}
    assert handler.calls == len(recorded) == len(distinct)
    assert bundles[0] == bundles[1] == bundles[2]


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="no /proc/self/fd")
def test_record_build_and_resumed_evaluate_leave_no_descriptor_open(tmp_path):
    # A raw descriptor left open raises no ResourceWarning, so it is counted.
    open_before = set(os.listdir("/proc/self/fd"))
    with _record_qe_workspace(tmp_path, cache_dir="cache") as (config, handler):
        bundle = cmd_build_dataset(config)
        assert handler.calls > 0 and list(Path(config.cache_dir).iterdir())
        oracle = _oracle(config, bundle)
        with pytest.raises(_Interrupted):
            cmd_evaluate(config, bundle, scorer=_TrippingScorer(oracle, after=5))
        assert (config.output_dir / "records" / "progress.jsonl").exists()
        cmd_evaluate(config, bundle, scorer=oracle)
    assert set(os.listdir("/proc/self/fd")) - open_before == set()


def test_records_carry_qe_and_gender(tmp_path):
    config, _ = _build(tmp_path, facts_per_cell=4)
    bundle = cmd_build_dataset(config, replay=True)
    records = load_records(cmd_evaluate(config, bundle))
    assert all(r.qe_score is not None for r in records)
    assert {r.subject_gender for r in records} == {"female", "male"}
    assert all(r.prompt for r in records)


class _RecordingScorer:
    def __init__(self, table=None):
        self.continuations = []
        self.table = table or {}

    def score_batch(self, prompt, continuations):
        self.continuations.extend(continuations)
        return [self.table.get(c, (-1.0, 1)) for c in continuations]


def _manual_bundle(tmp_path, lines, normalization="SUM"):
    import yaml

    from factprobe.pipeline import write_jsonl

    workspace = tmp_path / "manual"
    (workspace / "bundle").mkdir(parents=True)
    write_jsonl(workspace / "bundle" / "candidate_sets.jsonl", "candidate_sets", lines)
    corpus = workspace / "corpus"
    corpus.mkdir()
    for name, kind in (("entities", "entities"), ("relations", "relations"),
                       ("facts", "facts")):
        write_jsonl(corpus / f"{name}.jsonl", kind, [])
    config_path = workspace / "config.yaml"
    config_path.write_text(yaml.safe_dump({
        "config_version": 1,
        "languages": ["aa"],
        "sources": ["TEMPLATE"],
        "salt": "s",
        "entities": "corpus/entities.jsonl",
        "relations": "corpus/relations.jsonl",
        "facts": "corpus/facts.jsonl",
        "output_dir": "out",
        "normalization": normalization,
    }), encoding="utf-8")
    return load_config(config_path), workspace / "bundle"


def _line(fact_id, prompt, no_space, correct="gold", distractor="lead"):
    return {
        "fact_id": fact_id, "language": "aa", "relation_id": "R1",
        "correct_forms": [correct], "distractors": [["d1", distractor]],
        "subject_gender": None, "inflection_pair": None, "no_space": no_space,
        "sources": {"TEMPLATE": {"prompt": prompt, "qe_score": None}},
    }


def test_evaluate_applies_no_space_join(tmp_path):
    lines = [
        _line("f-space", "Ends without space:", no_space=False),
        _line("f-nospace", "词尾", no_space=True, correct="北京", distractor="上海"),
    ]
    config, bundle = _manual_bundle(tmp_path, lines)
    scorer = _RecordingScorer()
    cmd_evaluate(config, bundle, scorer=scorer)
    assert " gold" in scorer.continuations and " lead" in scorer.continuations
    assert "北京" in scorer.continuations and "上海" in scorer.continuations
    assert not any(c.startswith(" 北") for c in scorer.continuations)


def test_evaluate_normalization_changes_ranking(tmp_path):
    # Correct form: many cheap tokens; distractor: one expensive token.
    # SUM ranks the distractor first, MEAN flips the order.
    table = {" gold": (-4.0, 8), " lead": (-1.0, 1)}
    for normalization, expected_rank in (("SUM", 2), ("MEAN", 1)):
        lines = [_line("f1", "Prompt without trailing space:", no_space=False)]
        config, bundle = _manual_bundle(
            tmp_path / normalization.lower(), lines, normalization
        )
        records_dir = cmd_evaluate(config, bundle, scorer=_RecordingScorer(table))
        record = load_records(records_dir)[0]
        assert record.best_correct_rank == expected_rank, normalization


def test_build_keys_each_pool_entity_once(tmp_path, monkeypatch):
    # Keys do not depend on the fact, so a build hashes each entity of a
    # (relation, language) pool once, not once per fact of the cell.
    config, _ = _build(tmp_path, facts_per_cell=6)
    calls = []
    key = candidates.distractor_key
    monkeypatch.setattr(candidates, "distractor_key", lambda *a: calls.append(a) or key(*a))
    bundle = cmd_build_dataset(config, replay=True)
    corpus = load_corpus(config.entities_path, config.relations_path, config.facts_path)
    retained = json.loads((bundle / "relation_filter.json").read_text())["retained"]
    pools = [
        unique_object_pool(corpus, relation_id, language)
        for relation_id in retained for language in config.languages
    ]
    assert len(calls) == sum(len(pool) for pool in pools) == 36


def _audit_of(bundle, fact_id):
    return [(entry["source"], entry["kind"], entry["detail"])
            for entry in read_jsonl(bundle / "audit.jsonl", "audit")
            if entry["fact_id"] == fact_id]


def _line_ids(bundle):
    return [line["fact_id"]
            for line in read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")]


def test_an_object_without_an_english_label_fails_only_its_qe(tmp_path, monkeypatch):
    # The MT and LLM verbalizations are made from a corpus that still has the
    # object's English label, so all three sources reach QE, whose English
    # source sentence then cannot be built.
    config, _ = _build(tmp_path, facts_per_cell=3)
    full = load_corpus(config.entities_path, config.relations_path, config.facts_path)
    path = config.entities_path
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    for record in records:
        if record["id"] == "o1aa1":
            del record["labels"]["en"]
    path.write_text(header + "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    mt, llm = pipeline.make_mt_verbalization, pipeline.make_llm_verbalization
    monkeypatch.setattr(pipeline, "make_mt_verbalization",
                        lambda fact, corpus, *rest: mt(fact, full, *rest))
    monkeypatch.setattr(pipeline, "make_llm_verbalization",
                        lambda fact, corpus, *rest: llm(fact, full, *rest))

    bundle = cmd_build_dataset(config, replay=True)
    assert json.loads((bundle / "manifest.json").read_text())["complete"]
    assert _audit_of(bundle, "f-1-aa-01") == [
        (source, "QE_ERROR", "MISSING_LABEL") for source in ("TEMPLATE", "MT", "LLM")]
    assert "f-1-aa-01" not in _line_ids(bundle)
    assert len(_line_ids(bundle)) == 17


def test_build_makes_each_fact_english_sentence_once(tmp_path, monkeypatch):
    config, _ = _build(tmp_path, facts_per_cell=3)
    made = Counter()
    for module in (pipeline, verbalize):
        monkeypatch.setattr(module, "english_sentence", lambda fact, corpus, make=(
            module.english_sentence): made.update([fact.id]) or make(fact, corpus))
    cmd_build_dataset(config, replay=True)
    assert len(made) == 18
    assert set(made.values()) == {1}


def test_build_assembles_each_fact_once(tmp_path, monkeypatch):
    config, _ = _build(tmp_path, facts_per_cell=3)
    assembled = Counter()
    assemble = pipeline.assemble_candidate_set

    def counting(fact_id, *args):
        assembled[fact_id] += 1
        return assemble(fact_id, *args)

    monkeypatch.setattr(pipeline, "assemble_candidate_set", counting)
    bundle = cmd_build_dataset(config, replay=True)
    assert sorted(assembled) == _line_ids(bundle)
    assert set(assembled.values()) == {1}
    # The object-initial MT sentence of "bb" fact 0 is rejected before
    # assembly; the set is assembled for the other two sources.
    audit = _audit_of(bundle, "f-2-bb-00")
    assert [a for a in audit if a[1] != "NOTE_CONSTRAINT_VIOLATION"] == [
        ("MT", "REJECTION", "NOT_SENTENCE_FINAL")]
    lines = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    assert [sorted(line["sources"]) for line in lines if line["fact_id"] == "f-2-bb-00"] == [
        ["LLM", "TEMPLATE"]]


def test_a_pool_entity_named_like_a_correct_form_is_no_distractor(tmp_path):
    # The alias of o1aa0 is made the label of o1aa1, another object of the
    # (R1, aa) cell, so it is a correct form of fact f-1-aa-00.
    config, config_path = _build(tmp_path, facts_per_cell=3, include_aliases=True)
    path = config_path.parent / "corpus" / "entities.jsonl"
    header, *raws = path.read_text(encoding="utf-8").splitlines()
    entities = [json.loads(raw) for raw in raws]
    for entity in entities:
        if entity["id"] == "o1aa0":
            entity["aliases"]["aa"] = ["o1aa1aa"]
    path.write_text("\n".join([header] + [json.dumps(e) for e in entities]) + "\n",
                    encoding="utf-8")
    bundle = cmd_build_dataset(config, replay=True)
    lines = {line["fact_id"]: line
             for line in read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")}
    assert "o1aa1aa" in lines["f-1-aa-00"]["correct_forms"]
    assert lines["f-1-aa-00"]["distractors"] == [["o1aa2", "o1aa2aa"]]
    # o1aa1 stays a distractor of the cell's other facts.
    assert ["o1aa1", "o1aa1aa"] in lines["f-1-aa-02"]["distractors"]
    for line in lines.values():
        assert not {form for _, form in line["distractors"]} & set(line["correct_forms"])


class _ReadAheadScorer:
    """Notes, as each request arrives, how many entries ``parsed`` holds."""

    def __init__(self, inner, parsed):
        self.inner, self.parsed, self.parsed_at = inner, parsed, []

    def score_batch(self, prompt, continuations):
        self.parsed_at.append(len(self.parsed))
        return self.inner.score_batch(prompt, continuations)


def test_evaluate_parses_each_bundle_line_when_its_sets_are_reached(tmp_path, monkeypatch):
    config, _ = _build(tmp_path, facts_per_cell=5)
    bundle = cmd_build_dataset(config, replay=True)
    scorer = _ReadAheadScorer(_oracle(config, bundle),
                              count_parsed_lines(monkeypatch, "candidate_sets"))
    cmd_evaluate(config, bundle, scorer=scorer)
    assert sorted(scorer.parsed) == list(range(2, 32))
    for k, parsed in enumerate(scorer.parsed_at, 1):
        assert parsed <= k + 1, k


def test_the_oracle_answers_a_shared_prompt_with_the_correct_forms_of_every_line(tmp_path):
    # Each distractor sorts before the correct form, so a tie would rank it first.
    lines = [_line("f1", "Shared:", False, correct="one", distractor="a"),
             _line("f2", "Shared:", False, correct="two", distractor="b")]
    config, bundle = _manual_bundle(tmp_path, lines)
    oracle = make_scorer(config, iter(lines))
    assert oracle.score_batch("Shared:", [" one", " two", " a"]) == [
        (0.0, 1), (0.0, 1), (-1.0, 1)]
    records = load_records(cmd_evaluate(config, bundle))
    assert [(r.fact_id, r.best_correct_rank) for r in records] == [("f1", 1), ("f2", 1)]


def test_bundle_line_order_does_not_change_the_records(tmp_path):
    stores = []
    for name in ("in-order", "reversed"):
        config, _ = _build(tmp_path, name, facts_per_cell=3)
        bundle = cmd_build_dataset(config, replay=True)
        if name == "reversed":
            path = bundle / "candidate_sets.jsonl"
            header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text(header + "".join(reversed(lines)), encoding="utf-8")
        stores.append((cmd_evaluate(config, bundle) / "records.jsonl").read_bytes())
    assert stores[0] == stores[1]


# Micro-benchmark of build's per-fact work over the toy workspace (18 facts,
# three sources, QE), in the context of a real build. Run alone with
# ``pytest tests --benchmark-only``.
def test_benchmark_build_fact(tmp_path, monkeypatch, benchmark):
    config, _ = _build(tmp_path, facts_per_cell=3)
    seen = []
    build_fact = pipeline.build_fact
    monkeypatch.setattr(pipeline, "build_fact",
                        lambda fact, ctx: seen.append((fact, ctx)) or build_fact(fact, ctx))
    cmd_build_dataset(config, replay=True)
    # One fact per round, each fact of the build in turn, so a round's time
    # is the cost of one fact.
    rounds = itertools.cycle(seen)
    lines = benchmark.pedantic(build_fact, setup=lambda: (next(rounds), {}),
                               rounds=5 * len(seen), iterations=1)
    assert len(seen) == 18
    assert len(lines[0]) == 1


@pytest.mark.parametrize("name", ["report.md", "manifest.json"])
def test_a_report_file_torn_midway_keeps_its_previous_bytes(tmp_path, monkeypatch, name):
    config, _ = _build(tmp_path, facts_per_cell=3)
    records_dir = cmd_evaluate(config, cmd_build_dataset(config, replay=True))
    report_dir = cmd_report(config, records_dir)
    (report_dir / name).write_text("previous\n", encoding="utf-8")
    tear_writes_of(monkeypatch, name)
    with pytest.raises(OSError):
        cmd_report(config, records_dir, force=True)
    assert (report_dir / name).read_text(encoding="utf-8") == "previous\n"
    assert not list(report_dir.glob("*.tmp"))


def _english_only_llm_build(tmp_path):
    """The config of a toy workspace in which only the English label of the
    object of f-1-aa-00 matches its LLM sentence, and that sentence. The
    object is renamed in "aa" and the LLM fixture of its new prompt added."""
    config, config_path = _build(tmp_path, facts_per_cell=3, with_qe=False)
    root = config_path.parent
    header, *raws = config.entities_path.read_text(encoding="utf-8").splitlines()
    entities = [json.loads(raw) for raw in raws]
    for entity in entities:
        if entity["id"] == "o1aa0":
            entity["labels"]["aa"] = "qqqaa"
            entity["aliases"]["aa"] = ["qqqalias"]
    config.entities_path.write_text(
        "\n".join([header] + [json.dumps(e) for e in entities]) + "\n", encoding="utf-8")
    corpus = load_corpus(config.entities_path, config.relations_path, config.facts_path)
    prompt = verbalize.build_fewshot_prompt(
        corpus.relations["R1"], "aa",
        verbalize.parse_exemplar_file(root / "exemplars" / "R1.aa.txt"),
        corpus.facts["f-1-aa-00"], corpus,
    )
    sentence = "s1aa0aa wqr1 o1aa0en."
    request = TextRequest("llm", prompt, "en", "aa", (("decoding", "deterministic"),))
    with open(root / "fixtures" / "llm.jsonl", "a", encoding="utf-8") as fh:
        fh.write(record_line(request, sentence))
    return config, sentence


def test_an_llm_sentence_only_the_english_label_matches_is_noted(tmp_path):
    config, sentence = _english_only_llm_build(tmp_path)
    bundle = cmd_build_dataset(config, replay=True)
    assert ("LLM", "NOTE_CONSTRAINT_VIOLATION", sentence) in _audit_of(bundle, "f-1-aa-00")
    verbalizations = read_jsonl(bundle / "verbalizations.jsonl", "verbalizations")
    assert [line.get("warning") for line in verbalizations
            if line["fact_id"] == "f-1-aa-00" and line["source"] == "LLM"] == [
        "CONSTRAINT_VIOLATION"]
    # The English label still splits the sentence.
    line = next(line for line in read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
                if line["fact_id"] == "f-1-aa-00")
    assert line["sources"]["LLM"]["prompt"] == "s1aa0aa wqr1 "
    assert "o1aa0en" in line["correct_forms"]


def test_build_searches_each_mt_and_llm_sentence_once(tmp_path, monkeypatch):
    config, english_only = _english_only_llm_build(tmp_path)
    searched = Counter()
    for module in (split, verbalize):
        monkeypatch.setattr(module, "match_object_form", lambda sentence, labels,
                            match=module.match_object_form: (
                                searched.update([sentence]) or match(sentence, labels)))
    bundle = cmd_build_dataset(config, replay=True)
    expected = Counter(line["sentence"]
                       for line in read_jsonl(bundle / "verbalizations.jsonl", "verbalizations")
                       if line["source"] != "TEMPLATE")
    # Only the English label matched this sentence, so the enforced labels
    # are searched for on their own.
    expected[english_only] += 1
    assert {sentence: searched[sentence] for sentence in expected} == expected
