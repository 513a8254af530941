"""Run orchestration: build-dataset, evaluate, report.

Each stage writes plain files plus a manifest (config digest, input and
artifact digests, audit counts). A completed stage whose config digest and
input digests still match is reused on rerun; the evaluate stage is
additionally resumable at (fact, source) granularity through a progress
file that is folded into the final sorted record store.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
from pathlib import Path

import yaml

from . import report as report_mod
from .candidates import CandidateSet, Distractor, assemble_candidate_set, sample_distractors
from .clients import HttpClient, RecordingClient, ReplayClient, ResponseCache, TextRequest, TextService
from .config import RunConfig
from .corpus import filter_relations, load_corpus, unique_object_pool
from .errors import (
    BackendError,
    ClientError,
    ConfigError,
    EmptyGroup,
    MalformedRecord,
    MissingPatterns,
    NoEligibleRecords,
    NoExemplars,
    ProbeError,
    ScorerConnectionLost,
)
from .metrics import (
    FEMALE_GENDERS,
    FORM_INFLECTED,
    FORM_NONINFLECTED,
    EvalRecord,
    aggregate_by_group,
    feminine_form_rate,
    group_records,
    inflection_delta,
    qe_delta_correlation,
    rank_histogram,
    subset_metrics,
)
from .score import (
    OracleScorer,
    ProtocolScorerClient,
    TableScorer,
    candidate_continuations,
    rank_candidates,
    rank_of_form,
    score_candidates,
)
from .split import Rejection, collect_correct_forms, split_verbalization
from .verbalize import (
    VerbalizationSource,
    english_sentence,
    make_llm_verbalization,
    make_mt_verbalization,
    make_template_verbalization,
    parse_exemplar_file,
)

SCHEMA_VERSION = 1

# Audit kinds that block a (fact, source) from producing a record; the
# remaining kinds are informational notes.
BLOCKING_AUDIT_KINDS = (
    "VERBALIZATION_ERROR",
    "REJECTION",
    "POOL_ERROR",
    "SAMPLING_ERROR",
    "ASSEMBLY_ERROR",
    "QE_ERROR",
    "BACKEND_ERROR",
)

# Stem matches below this prefix ratio are flagged for inspection.
STEM_CONFIDENCE_FLOOR = 0.75


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: Path, kind: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump({"schema_version": SCHEMA_VERSION, "kind": kind}) + "\n")
        for line in lines:
            fh.write(_dump(line) + "\n")


def read_jsonl(path: Path, kind: str) -> list[dict]:
    lines = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = json.loads(raw)
            if lineno == 1:
                if record.get("kind") != kind or record.get("schema_version") != SCHEMA_VERSION:
                    raise ProbeError(f"{path} is not a {kind} artifact")
                continue
            lines.append(record)
    return lines


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(directory: Path, stage: str, config_digest: str,
                   inputs: dict[str, str], artifacts: dict[str, str],
                   counts: dict) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "stage": stage,
        "config_digest": config_digest,
        "complete": True,
        "inputs": inputs,
        "artifacts": artifacts,
        "counts": counts,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def load_manifest(directory: Path) -> dict | None:
    path = directory / "manifest.json"
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None


def _stage_is_current(directory: Path, stage: str, config_digest: str,
                      inputs: dict[str, str]) -> bool:
    manifest = load_manifest(directory)
    if manifest is None or not manifest.get("complete"):
        return False
    if manifest.get("stage") != stage or manifest.get("config_digest") != config_digest:
        return False
    if manifest.get("inputs") != inputs:
        return False
    return all(
        (directory / name).exists()
        and file_digest(directory / name) == digest
        for name, digest in manifest.get("artifacts", {}).items()
    )


def make_client(settings, cache, replay: bool = False):
    """Instantiate a client per its configured mode (live/record/replay)."""
    if settings is None:
        return None
    mode = "replay" if replay else settings.mode
    if mode == "replay":
        return ReplayClient(settings.client_id, settings.fixtures, cache)
    if settings.endpoint is None:
        raise ConfigError(
            f"client {settings.client_id!r} in {mode} mode needs an endpoint"
        )
    client = HttpClient(
        settings.client_id, settings.endpoint, settings.model, settings.auth_env
    )
    if mode == "record":
        if settings.record_fixtures is None:
            raise ConfigError(
                f"client {settings.client_id!r} in record mode needs record_fixtures"
            )
        return RecordingClient(client, settings.record_fixtures)
    return client


def _qe_annotate(fact, corpus, sentence, qe_client, cache) -> float:
    source = english_sentence(fact, corpus)
    request = TextRequest(
        client_id=getattr(qe_client, "client_id", "qe"),
        text=sentence,
        source_language="en",
        target_language=fact.language,
        extra=(("source_text", source),),
    )
    response = TextService(client=qe_client, cache=cache).fetch(request)
    try:
        return float(response.strip())
    except ValueError as exc:
        raise ClientError(
            f"QE client returned a non-numeric score {response!r}", fact_id=fact.id
        ) from exc


def cmd_build_dataset(config: RunConfig, replay: bool = False, force: bool = False) -> Path:
    """Verbalize, split and assemble candidate sets for every eligible fact."""
    bundle_dir = config.output_dir / "bundle"
    config_digest = config.digest()
    inputs = {
        "entities.jsonl": file_digest(config.entities_path),
        "relations.jsonl": file_digest(config.relations_path),
        "facts.jsonl": file_digest(config.facts_path),
    }
    if not force and _stage_is_current(bundle_dir, "build_dataset", config_digest, inputs):
        return bundle_dir
    bundle_dir.mkdir(parents=True, exist_ok=True)

    corpus = load_corpus(config.entities_path, config.relations_path, config.facts_path)
    filter_report = filter_relations(
        corpus, config.languages, config.min_unique_objects, config.exclude_relations
    )
    retained = set(filter_report.retained)
    facts = [
        f for f in corpus.facts_sorted()
        if f.language in config.languages and f.relation_id in retained
    ]

    exemplar_sets: dict[tuple[str, str], list] = {}
    if "LLM" in config.sources:
        if config.exemplars_dir is None:
            raise NoExemplars("LLM source enabled but no exemplars_dir configured")
        for key in sorted({(f.relation_id, f.language) for f in facts}):
            relation_id, language = key
            path = Path(config.exemplars_dir) / f"{relation_id}.{language}.txt"
            if not path.exists():
                raise NoExemplars(
                    f"missing exemplar file {path.name}", path=str(path)
                )
            exemplar_sets[key] = parse_exemplar_file(path)

    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    mt_client = make_client(config.mt, cache, replay) if "MT" in config.sources else None
    llm_client = make_client(config.llm, cache, replay) if "LLM" in config.sources else None
    qe_client = make_client(config.qe, cache, replay)
    if "MT" in config.sources and mt_client is None:
        raise ConfigError("MT source enabled but no mt client configured")
    if "LLM" in config.sources and llm_client is None:
        raise ConfigError("LLM source enabled but no llm client configured")

    pools = {
        key: unique_object_pool(corpus, key[0], key[1])
        for key in sorted({(f.relation_id, f.language) for f in facts})
    }

    audit: list[dict] = []
    candidate_lines: list[dict] = []
    verbalization_lines: list[dict] = []

    def audit_entry(fact, source, kind, detail=""):
        audit.append(
            {"fact_id": fact.id, "source": source, "kind": kind, "detail": detail}
        )

    for fact in facts:
        relation = corpus.relations[fact.relation_id]
        entity = corpus.entities[fact.object_id]
        verbalizations = {}
        for source in config.sources:
            try:
                if source == "TEMPLATE":
                    verb = make_template_verbalization(fact, corpus)
                elif source == "MT":
                    verb = make_mt_verbalization(fact, corpus, mt_client, cache)
                else:
                    verb = make_llm_verbalization(
                        fact, corpus, llm_client,
                        exemplar_sets[(fact.relation_id, fact.language)],
                        cache, config.match,
                    )
            except ProbeError as exc:
                audit_entry(fact, source, "VERBALIZATION_ERROR", exc.code)
                continue
            verbalizations[VerbalizationSource(source)] = verb
            line = {
                "fact_id": fact.id,
                "source": source,
                "sentence": verb.sentence,
                "provenance": verb.provenance,
            }
            if verb.warning:
                line["warning"] = verb.warning
                audit_entry(fact, source, "NOTE_CONSTRAINT_VIOLATION", verb.sentence)
            verbalization_lines.append(line)

        splits = {}
        for source, verb in verbalizations.items():
            result = split_verbalization(verb, entity, corpus, config.match)
            if isinstance(result, Rejection):
                audit_entry(fact, source.value, "REJECTION", result.reason)
                continue
            splits[source] = result
            if result.matched_via.value == "STEM" and result.confidence < STEM_CONFIDENCE_FLOOR:
                audit_entry(
                    fact, source.value, "NOTE_LOW_CONFIDENCE_STEM",
                    f"{result.object_form}:{result.confidence:.3f}",
                )
        if not splits:
            continue

        try:
            base_forms = collect_correct_forms(corpus, fact, splits)
            correct_forms = collect_correct_forms(
                corpus, fact, splits,
                include_aliases=config.include_aliases,
                include_english=config.include_english,
            )
        except ProbeError as exc:
            for source in splits:
                audit_entry(fact, source.value, "POOL_ERROR", exc.code)
            continue

        inflection_pair = None
        if relation.inflection_expected and len(base_forms) == 2:
            inflection_pair = {
                "noninflected": base_forms[0],
                "inflected": base_forms[1],
            }

        try:
            distractors = sample_distractors(
                corpus, pools[(fact.relation_id, fact.language)], fact,
                correct_forms, config.k_distractors, config.salt,
            )
        except ProbeError as exc:
            for source in splits:
                audit_entry(fact, source.value, "SAMPLING_ERROR", exc.code)
            continue

        for source in VerbalizationSource:
            split_result = splits.get(source)
            if split_result is None:
                continue
            try:
                candidate_set, dropped = assemble_candidate_set(
                    fact.id, split_result.prompt_prefix, correct_forms,
                    distractors, config.salt,
                )
            except ProbeError as exc:
                audit_entry(fact, source.value, "ASSEMBLY_ERROR", exc.code)
                continue
            for d in dropped:
                audit_entry(
                    fact, source.value, "NOTE_DISTRACTOR_DROPPED",
                    f"{d.entity_id}:{d.form}",
                )
            qe_value = None
            if qe_client is not None:
                try:
                    qe_value = _qe_annotate(
                        fact, corpus, verbalizations[source].sentence, qe_client, cache
                    )
                except ProbeError as exc:
                    audit_entry(fact, source.value, "QE_ERROR", exc.code)
                    continue
            candidate_lines.append(
                {
                    "fact_id": fact.id,
                    "source": source.value,
                    "language": fact.language,
                    "relation_id": fact.relation_id,
                    "prompt": candidate_set.prompt,
                    "correct_forms": list(candidate_set.correct_forms),
                    "distractors": [[d.entity_id, d.form] for d in candidate_set.distractors],
                    "salt": config.salt,
                    "subject_gender": fact.subject_gender,
                    "inflection_pair": inflection_pair,
                    "qe_score": qe_value,
                    "no_space": fact.language in config.no_space_languages,
                }
            )

    write_jsonl(bundle_dir / "candidate_sets.jsonl", "candidate_sets", candidate_lines)
    write_jsonl(bundle_dir / "verbalizations.jsonl", "verbalizations", verbalization_lines)
    write_jsonl(bundle_dir / "audit.jsonl", "audit", audit)
    (bundle_dir / "relation_filter.json").write_text(
        json.dumps(
            {
                "retained": list(filter_report.retained),
                "excluded": [list(pair) for pair in filter_report.excluded],
            },
            ensure_ascii=False,
            sort_keys=True,
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )

    blocking: dict[str, int] = {}
    notes: dict[str, int] = {}
    for entry in audit:
        bucket = blocking if entry["kind"] in BLOCKING_AUDIT_KINDS else notes
        bucket[entry["kind"]] = bucket.get(entry["kind"], 0) + 1
    artifacts = {
        name: file_digest(bundle_dir / name)
        for name in ("candidate_sets.jsonl", "verbalizations.jsonl", "audit.jsonl",
                     "relation_filter.json")
    }
    write_manifest(
        bundle_dir, "build_dataset", config_digest, inputs, artifacts,
        counts={
            "facts_eligible": len(facts),
            "enabled_sources": len(config.sources),
            "candidate_sets": len(candidate_lines),
            "audit_blocking": blocking,
            "audit_notes": notes,
        },
    )
    return bundle_dir


def make_scorer(config: RunConfig, bundle_dir: Path):
    settings = config.scorer
    if settings.backend == "oracle":
        correct_by_prompt: dict[str, frozenset] = {}
        for line in read_jsonl(bundle_dir / "candidate_sets.jsonl", "candidate_sets"):
            forms = frozenset(line["correct_forms"])
            existing = correct_by_prompt.get(line["prompt"])
            correct_by_prompt[line["prompt"]] = (
                forms if existing is None else existing | forms
            )
        return OracleScorer(correct_by_prompt, mode=settings.mode)
    if settings.backend == "table":
        if not settings.fixtures:
            raise ConfigError("table scorer needs a fixtures file")
        table = {}
        for line in read_jsonl(Path(settings.fixtures), "scores"):
            table[(line["prompt"], line["continuation"])] = (
                float(line["logprob"]), int(line.get("token_count", 1))
            )
        return TableScorer(table)
    if settings.backend == "protocol":
        return ProtocolScorerClient(settings.host, settings.port)
    raise ConfigError(f"unknown scorer backend {settings.backend!r}")


def _load_progress(path: Path, header: dict):
    """Done keys, records and audits of a progress file written for ``header``.

    A file written for another header is deleted. An undecodable last line
    is what a run killed mid-write leaves: it is cut off, so its set is
    scored again. An undecodable line anywhere else is an error.
    """
    done: set[tuple[str, str]] = set()
    record_lines: list[dict] = []
    audit: list[dict] = []
    if not path.exists():
        return done, record_lines, audit
    with open(path, "rb") as fh:
        raw_lines = fh.readlines()
    entries = []
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            entry = json.loads(raw)
        except ValueError as exc:
            if lineno < len(raw_lines):
                raise MalformedRecord(
                    f"undecodable progress line: {exc}", file=str(path), line=lineno
                ) from exc
            break
        if lineno == 1 and entry != header:
            # Progress is only resumable against the same bundle and config
            # it was produced from.
            break
        entries.append(entry)
    if not entries:
        path.unlink()
        return done, record_lines, audit
    kept = raw_lines[: len(entries)]
    tail = b"" if kept[-1].endswith(b"\n") else b"\n"
    if len(kept) < len(raw_lines) or tail:
        # Later entries are appended after the last whole line.
        with open(path, "r+b") as fh:
            fh.truncate(sum(map(len, kept)))
            fh.seek(0, 2)
            fh.write(tail)
    for entry in entries[1:]:
        data = entry["data"]
        done.add((data["fact_id"], data["source"]))
        if entry["type"] == "record":
            record_lines.append(data)
        else:
            audit.append(data)
    return done, record_lines, audit


def _pending_sets(lines: list[dict], done: set[tuple[str, str]]):
    """``(line, CandidateSet)`` for each bundle line not yet done, built
    only when the caller reaches it."""
    for line in lines:
        if (line["fact_id"], line["source"]) in done:
            continue
        yield line, CandidateSet(
            fact_id=line["fact_id"],
            prompt=line["prompt"],
            correct_forms=tuple(line["correct_forms"]),
            distractors=tuple(Distractor(e, f) for e, f in line["distractors"]),
            salt=line["salt"],
        )


def cmd_evaluate(config: RunConfig, bundle_dir, scorer=None, force: bool = False) -> Path:
    """Score and rank every candidate set, producing the record store.

    Progress is appended per (fact, source); an interrupted run resumes
    where it stopped and the final sorted store is byte-identical to an
    uninterrupted one.
    """
    bundle_dir = Path(bundle_dir)
    records_dir = config.output_dir / "records"
    config_digest = config.digest()
    inputs = {"candidate_sets.jsonl": file_digest(bundle_dir / "candidate_sets.jsonl")}
    if not force and _stage_is_current(records_dir, "evaluate", config_digest, inputs):
        return records_dir
    records_dir.mkdir(parents=True, exist_ok=True)

    with contextlib.ExitStack() as stack:
        # The oracle reads the whole bundle: make it before the bundle lines
        # below are read, so that the two are never held at once.
        if scorer is None:
            scorer = make_scorer(config, bundle_dir)
            if hasattr(scorer, "close"):
                stack.callback(scorer.close)

        progress_path = records_dir / "progress.jsonl"
        header = {"type": "header", "config_digest": config_digest, "inputs": inputs}
        done, record_lines, audit = _load_progress(progress_path, header)
        if not progress_path.exists():
            with open(progress_path, "w", encoding="utf-8") as fh:
                fh.write(_dump(header) + "\n")

        lines = read_jsonl(bundle_dir / "candidate_sets.jsonl", "candidate_sets")
        lines.sort(key=lambda line: (line["fact_id"], line["source"]))
        sets = _pending_sets(lines, done)
        if hasattr(scorer, "pipelined"):
            # The scorer sends requests up to its window ahead of this loop
            # and answers its score_batch calls in the same order.
            sets, ahead = itertools.tee(sets)
            stack.enter_context(scorer.pipelined(
                (cs.prompt, candidate_continuations(cs, bool(line.get("no_space"))))
                for line, cs in ahead
            ))
        progress = stack.enter_context(open(progress_path, "a", encoding="utf-8"))
        for line, candidate_set in sets:
            try:
                scored = score_candidates(
                    scorer, candidate_set, config.normalization,
                    no_space=bool(line.get("no_space")),
                )
                result = rank_candidates(
                    scored, candidate_set.correct_forms, config.n_values,
                    fact_id=candidate_set.fact_id,
                )
            except ScorerConnectionLost:
                raise
            except BackendError as exc:
                entry = {
                    "fact_id": line["fact_id"],
                    "source": line["source"],
                    "kind": "BACKEND_ERROR",
                    "detail": exc.code,
                }
                audit.append(entry)
                progress.write(_dump({"type": "audit", "data": entry}) + "\n")
                progress.flush()
                continue
            form_ranks = None
            pair = line.get("inflection_pair")
            if pair:
                form_ranks = {
                    FORM_NONINFLECTED: rank_of_form(result, pair["noninflected"]),
                    FORM_INFLECTED: rank_of_form(result, pair["inflected"]),
                }
            record = {
                "fact_id": line["fact_id"],
                "language": line["language"],
                "relation_id": line["relation_id"],
                "source": line["source"],
                "best_correct_rank": result.best_correct_rank,
                "best_correct_form": result.best_correct_form,
                "hits": {str(n): hit for n, hit in sorted(result.hits.items())},
                "form_ranks": form_ranks,
                "qe_score": line.get("qe_score"),
                "subject_gender": line.get("subject_gender"),
                "prompt": line["prompt"],
            }
            record_lines.append(record)
            progress.write(_dump({"type": "record", "data": record}) + "\n")
            progress.flush()

    record_lines.sort(key=lambda r: (r["fact_id"], r["source"]))
    audit.sort(key=lambda a: (a["fact_id"], a["source"]))
    write_jsonl(records_dir / "records.jsonl", "records", record_lines)
    write_jsonl(records_dir / "audit.jsonl", "audit", audit)
    artifacts = {
        name: file_digest(records_dir / name)
        for name in ("records.jsonl", "audit.jsonl")
    }
    write_manifest(
        records_dir, "evaluate", config_digest, inputs, artifacts,
        counts={
            "records": len(record_lines),
            "backend_errors": len(audit),
        },
    )
    progress_path.unlink(missing_ok=True)
    return records_dir


def load_records(records_dir) -> list[EvalRecord]:
    records = []
    for line in read_jsonl(Path(records_dir) / "records.jsonl", "records"):
        records.append(
            EvalRecord(
                fact_id=line["fact_id"],
                language=line["language"],
                relation_id=line["relation_id"],
                source=line["source"],
                best_correct_rank=int(line["best_correct_rank"]),
                hits={int(n): bool(v) for n, v in line["hits"].items()},
                form_ranks=(
                    {k: int(v) for k, v in line["form_ranks"].items()}
                    if line.get("form_ranks")
                    else None
                ),
                qe_score=line.get("qe_score"),
                subject_gender=line.get("subject_gender"),
                prompt=line.get("prompt"),
            )
        )
    return records


def _load_gender_patterns(path) -> dict:
    data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ConfigError("gender patterns file must be a mapping")
    return data


def cmd_report(config: RunConfig, records_dir, force: bool = False) -> Path:
    """Render markdown tables and CSVs from the record store."""
    records_dir = Path(records_dir)
    report_dir = config.output_dir / "report"
    config_digest = config.digest()
    inputs = {"records.jsonl": file_digest(records_dir / "records.jsonl")}
    if not force and _stage_is_current(report_dir, "report", config_digest, inputs):
        return report_dir
    report_dir.mkdir(parents=True, exist_ok=True)

    records = load_records(records_dir)
    if not records:
        raise EmptyGroup("record store is empty")

    languages = [l for l in config.languages if any(r.language == l for r in records)]
    sources = [s for s in config.sources if any(r.source == s for r in records)]
    n_values = config.n_values
    cells = aggregate_by_group(records, n_values)
    histograms = {
        key: rank_histogram(group, config.report_max_rank_bucket)
        for key, group in group_records(records).items()
    }

    sections = ["# Evaluation report", ""]
    sections.append(
        f"Records: {len(records)}; normalization: {config.normalization}; "
        f"n values: {', '.join(str(n) for n in n_values)}."
    )
    sections += ["", "## Retrieval by verbalization", ""]
    sections.append(report_mod.render_main_table(cells, languages, sources, n=1))

    sections += ["## Inflected vs non-inflected rank delta", ""]
    try:
        delta_cells = inflection_delta(records, config.flip_inflection_delta_sign)
        sections.append(report_mod.render_delta_table(delta_cells, languages, sources))
    except NoEligibleRecords:
        delta_cells = None
        sections.append("No records carry both ground-truth form ranks.\n")

    sections += ["## QE delta vs retrieval delta", ""]
    qe_cells = None
    try:
        qe_cells = qe_delta_correlation(records)
        qe_sources = [s for s in sources if any(k[1] == s for k in qe_cells)]
        sections.append(report_mod.render_qe_table(qe_cells, languages, qe_sources))
    except EmptyGroup:
        sections.append("No QE annotations present.\n")

    sections += ["## Female-subject subset", ""]
    gender_sections = _gender_tables(config, records, languages, sources, n_values)
    sections.append(gender_sections)

    (report_dir / "report.md").write_text("\n".join(sections), encoding="utf-8")
    (report_dir / "cells.csv").write_text(
        report_mod.cells_csv(cells, n_values), encoding="utf-8"
    )
    (report_dir / "curves.csv").write_text(
        report_mod.curves_csv(cells, n_values), encoding="utf-8"
    )
    (report_dir / "rank_counts.csv").write_text(
        report_mod.histogram_csv(histograms), encoding="utf-8"
    )
    (report_dir / "rank_quartiles.csv").write_text(
        report_mod.quartiles_csv(histograms), encoding="utf-8"
    )
    artifact_names = ["report.md", "cells.csv", "curves.csv", "rank_counts.csv",
                      "rank_quartiles.csv"]
    if qe_cells:
        (report_dir / "qe_correlation.csv").write_text(
            report_mod.qe_csv(qe_cells), encoding="utf-8"
        )
        artifact_names.append("qe_correlation.csv")

    artifacts = {name: file_digest(report_dir / name) for name in artifact_names}
    write_manifest(
        report_dir, "report", config_digest, inputs, artifacts,
        counts={"records": len(records)},
    )
    return report_dir


def _gender_tables(config, records, languages, sources, n_values) -> str:
    if config.gender_patterns_path is None:
        return "No gender pattern data configured.\n"
    patterns = _load_gender_patterns(config.gender_patterns_path)
    covered = [
        r for r in records
        if r.subject_gender in FEMALE_GENDERS
        and r.language in patterns
        and r.relation_id in patterns[r.language]
    ]
    if not covered:
        return "No female-subject records match the configured patterns.\n"
    try:
        rate_cells = feminine_form_rate(covered, patterns)
    except MissingPatterns:
        return "Gender patterns incomplete for the selected records.\n"
    subset_cells = {}
    for key, group in group_records(covered).items():
        try:
            subset_cells[key] = subset_metrics(group, lambda r: True, n_values)
        except EmptyGroup:
            continue
    return report_mod.render_gender_table(rate_cells, subset_cells, languages, sources)
