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
import math
import os
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from . import report as report_mod
from .candidates import (
    CandidateSet,
    Distractor,
    assemble_candidate_set,
    keyed_pool,
    sample_distractors,
)
from .clients import ResponseCache, TextRequest, TextService, make_service
from .config import RunConfig, load_gender_patterns
from .corpus import Corpus, Fact, filter_relations, load_corpus, unique_object_pool
from .errors import (
    BackendError,
    ClientError,
    ConfigError,
    EmptyGroup,
    MalformedRecord,
    MissingInput,
    NoEligibleRecords,
    NoExemplars,
    ProbeError,
    ScorerConnectionLost,
)
from .jsonl import (SCHEMA_VERSION, append, dump, iter_lines, make_dir, open_log,
                    read_jsonl, write_jsonl, write_text, writing)
from .metrics import (
    FEMALE_GENDERS,
    FORM_INFLECTED,
    FORM_NONINFLECTED,
    EvalRecord,
    aggregate_by_group,
    aggregate_cell,
    feminine_form_rate,
    group_records,
    inflection_delta,
    qe_delta_correlation,
    rank_histogram,
    subset_metrics,  # unused here; the bench's tracer wraps this name in this module
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
    fewshot_prefix,
    make_llm_verbalization,
    make_mt_verbalization,
    make_template_verbalization,
    parse_exemplar_file,
)

# Audit kinds that block a (fact, source) from producing a record; the
# remaining kinds are informational notes.
BLOCKING_AUDIT_KINDS = (
    "VERBALIZATION_ERROR",
    "REJECTION",
    "POOL_ERROR",
    "SAMPLING_ERROR",
    "QE_ERROR",
    "BACKEND_ERROR",
)

# Stem matches below this prefix ratio are flagged for inspection.
STEM_CONFIDENCE_FLOOR = 0.75


def file_digest(path: Path) -> str:
    """SHA-256 of the file at ``path``, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _client_roles(config: RunConfig):
    """``(role, settings)`` of each client role a build uses: MT and LLM when
    they are sources, QE always; ``settings`` is None for a role left out."""
    for role, settings in (("MT", config.mt), ("LLM", config.llm), ("QE", config.qe)):
        if role == "QE" or role in config.sources:
            yield role, settings


def _stage_inputs(config: RunConfig, stage: str, upstream: Path | None = None,
                  replay: bool = False) -> dict[str, Path]:
    """Every file ``stage`` reads, named by its path relative to the config's
    directory, so that copies of a workspace give the same manifest.

    Build reads the corpus files, with LLM the exemplar files of the
    configured languages, and the fixture files of each client in replay
    mode. Evaluate reads the bundle's candidate sets (``upstream`` is the
    bundle directory) and a ``table`` scorer's fixtures; report reads the
    record store (``upstream`` is the records directory) and the gender
    patterns. The response cache, and the file a client in record mode
    appends to and starts from, are memos of what the clients would return,
    not inputs. A name that is not UTF-8, which the manifest could not
    hold, is a ``ConfigError``."""
    if stage == "build_dataset":
        files = [config.entities_path, config.relations_path, config.facts_path]
        if "LLM" in config.sources and config.exemplars_dir is not None:
            files += sorted(path for language in config.languages
                            for path in config.exemplars_dir.glob(f"*.{language}.txt"))
        for _, settings in _client_roles(config):
            if settings is not None and (replay or settings.mode == "replay"):
                files += settings.fixtures
    elif stage == "evaluate":
        files = [upstream / "candidate_sets.jsonl"]
        if config.scorer.backend == "table" and config.scorer.fixtures:
            files.append(config.scorer.fixtures)
    else:
        files = [upstream / "records.jsonl"]
        if config.gender_patterns_path is not None:
            files.append(config.gender_patterns_path)
    inputs = {}
    for path in files:
        name = Path(os.path.relpath(Path(path).resolve(), config.config_dir)).as_posix()
        try:
            name.encode("utf-8")  # the manifest, a UTF-8 file, names it
        except UnicodeEncodeError as exc:
            raise ConfigError("an input file name is not UTF-8", path=str(path)) from exc
        inputs[name] = Path(path)
    return inputs


def _write_json(path: Path, obj) -> None:
    write_text(path, json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n")


def _stage_is_current(directory: Path, stage: str, config_digest: str,
                      inputs: dict[str, str]) -> bool:
    try:
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    if type(manifest) is not dict or not manifest.get("complete"):
        return False
    if manifest.get("stage") != stage or manifest.get("config_digest") != config_digest:
        return False
    if manifest.get("inputs") != inputs:
        return False
    artifacts = manifest.get("artifacts", {})
    return type(artifacts) is dict and all(
        (directory / name).is_file()
        and file_digest(directory / name) == digest
        for name, digest in artifacts.items()
    )


def _run_stage(directory: Path, stage: str, config: RunConfig, inputs: dict[str, Path],
               force: bool, work) -> Path:
    """Run one stage into ``directory`` unless its manifest shows it current.

    ``inputs`` maps the names recorded in the manifest to the files the
    stage reads (see ``_stage_inputs``). ``work(config_digest,
    input_digests)`` writes the artifacts and returns their names, the
    manifest counts, and whether the stage is complete; an incomplete stage
    is run again on the next call.
    """
    config_digest = config.digest()
    for name, path in inputs.items():
        if not Path(path).is_file():
            if Path(path).exists():
                raise ConfigError(f"input {name} is not a file", file=str(path))
            raise MissingInput(f"input {name} is missing", path=str(path))
    input_digests = {name: file_digest(path) for name, path in inputs.items()}
    if not force and _stage_is_current(directory, stage, config_digest, input_digests):
        return directory
    make_dir(directory)
    names, counts, complete = work(config_digest, input_digests)
    _write_json(directory / "manifest.json", {
        "schema_version": SCHEMA_VERSION,
        "stage": stage,
        "config_digest": config_digest,
        "complete": complete,
        "inputs": input_digests,
        "artifacts": {name: file_digest(directory / name) for name in names},
        "counts": counts,
    })
    return directory


def _qe_annotate(fact, source: str, sentence: str, qe: TextService) -> float:
    """The QE score of ``sentence`` as a translation of the English ``source``."""
    request = TextRequest(
        client_id=qe.client.client_id,
        text=sentence,
        source_language="en",
        target_language=fact.language,
        extra=(("source_text", source),),
    )
    response = qe.fetch(request)
    try:
        score = float(response.strip())
    except ValueError:
        score = math.nan
    if not math.isfinite(score):
        raise ClientError(
            f"QE client returned a score that is not a finite number: {response!r}",
            fact_id=fact.id,
        )
    return score


@dataclass(frozen=True)
class BuildContext:
    """Everything ``build_fact`` reads besides the fact; fixed for a run."""

    config: RunConfig
    corpus: Corpus
    # Per (relation, language) cell: the object pool as ``keyed_pool``
    # returns it, keyed, sorted and labelled once for all of the cell's facts.
    pools: dict[tuple[str, str], list[Distractor]]
    # Per cell: the ``fewshot_prefix`` of its exemplars, the same for each fact.
    fewshot: dict[tuple[str, str], str | None]
    # One service per enabled client role ("MT", "LLM", "QE").
    services: dict[str, TextService]


def _audit(fact_id: str, source: str, kind: str, detail: str = "") -> dict:
    """The audit line of a (fact, source) that build or evaluate noted."""
    return {"fact_id": fact_id, "source": source, "kind": kind, "detail": detail}


def build_fact(fact: Fact, ctx: BuildContext):
    """Candidate-set line (at most one), verbalization lines and audit
    entries of one fact.

    The only side effect is fetching through the context's services. Every
    per-fact ``ProbeError`` becomes an audit entry; the cache and fixtures
    are read and checked when the services are made, so a corrupt entry
    fails the stage before the first fact.
    """
    config, corpus = ctx.config, ctx.corpus
    candidate_lines: list[dict] = []
    verbalization_lines: list[dict] = []
    audit: list[dict] = []
    relation = corpus.relations[fact.relation_id]
    # The English source sentence of MT, LLM and QE, built once when a
    # client role needs it. If it cannot be built, each of them builds it
    # again and fails as it would alone.
    english = None
    if ctx.services:
        try:
            english = english_sentence(fact, corpus)
        except ProbeError:
            pass
    verbalizations = {}
    for source in config.sources:
        try:
            if source == "TEMPLATE":
                verb = make_template_verbalization(fact, corpus)
            elif source == "MT":
                verb = make_mt_verbalization(fact, corpus, ctx.services["MT"], english)
            else:
                verb = make_llm_verbalization(
                    fact, corpus, ctx.services["LLM"],
                    ctx.fewshot[(fact.relation_id, fact.language)], english,
                )
        except ProbeError as exc:
            audit.append(_audit(fact.id, source, "VERBALIZATION_ERROR", exc.code))
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
            audit.append(_audit(fact.id, source, "NOTE_CONSTRAINT_VIOLATION", verb.sentence))
        verbalization_lines.append(line)

    splits = {}
    for source, verb in verbalizations.items():
        result = split_verbalization(verb)
        if isinstance(result, Rejection):
            audit.append(_audit(fact.id, source.value, "REJECTION", result.reason))
            continue
        splits[source] = result
        if result.matched_via.value == "STEM" and result.confidence < STEM_CONFIDENCE_FLOOR:
            audit.append(_audit(
                fact.id, source.value, "NOTE_LOW_CONFIDENCE_STEM",
                f"{result.object_form}:{result.confidence:.3f}",
            ))
    if not splits:
        return candidate_lines, verbalization_lines, audit

    try:
        base_forms = correct_forms = collect_correct_forms(corpus, fact, splits)
        if config.include_aliases or config.include_english:
            correct_forms = collect_correct_forms(
                corpus, fact, splits,
                include_aliases=config.include_aliases,
                include_english=config.include_english,
            )
    except ProbeError as exc:
        audit.extend(_audit(fact.id, source.value, "POOL_ERROR", exc.code) for source in splits)
        return candidate_lines, verbalization_lines, audit

    inflection_pair = None
    if relation.inflection_expected and len(base_forms) == 2:
        inflection_pair = {
            "noninflected": base_forms[0],
            "inflected": base_forms[1],
        }

    try:
        distractors = sample_distractors(
            ctx.pools[(fact.relation_id, fact.language)], correct_forms, fact,
            config.k_distractors,
        )
    except ProbeError as exc:
        audit.extend(_audit(fact.id, source.value, "SAMPLING_ERROR", exc.code) for source in splits)
        return candidate_lines, verbalization_lines, audit

    # The sets of every source share the correct forms and the distractors;
    # each source keeps its prompt.
    candidate_set = assemble_candidate_set(
        fact.id, next(iter(splits.values())).prompt_prefix, correct_forms, distractors,
    )
    qe = ctx.services.get("QE")
    sources: dict[str, dict] = {}
    for source, split in splits.items():
        qe_value = None
        if qe is not None:
            try:
                if english is None:
                    english = english_sentence(fact, corpus)
                qe_value = _qe_annotate(fact, english, verbalizations[source].sentence, qe)
            except ProbeError as exc:
                audit.append(_audit(fact.id, source.value, "QE_ERROR", exc.code))
                continue
        sources[source.value] = {"prompt": split.prompt_prefix, "qe_score": qe_value}
    if sources:
        candidate_lines.append(
            {
                "fact_id": fact.id,
                "language": fact.language,
                "relation_id": fact.relation_id,
                "correct_forms": list(candidate_set.correct_forms),
                "distractors": [[d.entity_id, d.form] for d in candidate_set.distractors],
                "subject_gender": fact.subject_gender,
                "inflection_pair": inflection_pair,
                "no_space": fact.language in config.no_space_languages,
                "sources": sources,
            }
        )
    return candidate_lines, verbalization_lines, audit


def cmd_build_dataset(config: RunConfig, replay: bool = False, force: bool = False) -> Path:
    """Verbalize, split and assemble candidate sets for every eligible fact.

    Each fact's lines are written as ``build_fact`` returns them, so build
    holds its set-up and one fact's lines. A failed build replaces no
    artifact and writes no manifest."""
    bundle_dir = config.output_dir / "bundle"

    def work(config_digest, input_digests):
        corpus = load_corpus(config.entities_path, config.relations_path, config.facts_path)
        filter_report = filter_relations(
            corpus, config.languages, config.min_unique_objects, config.exclude_relations
        )
        retained = set(filter_report.retained)
        facts = [
            f for f in corpus.facts_sorted()
            if f.language in config.languages and f.relation_id in retained
        ]
        cells = sorted({(f.relation_id, f.language) for f in facts})

        fewshot: dict[tuple[str, str], str | None] = {}
        if "LLM" in config.sources:
            if config.exemplars_dir is None:
                raise NoExemplars("LLM source enabled but no exemplars_dir configured")
            for relation_id, language in cells:
                path = Path(config.exemplars_dir) / f"{relation_id}.{language}.txt"
                if not path.exists():
                    raise NoExemplars(
                        f"missing exemplar file {path.name}", path=str(path)
                    )
                fewshot[(relation_id, language)] = fewshot_prefix(
                    language, parse_exemplar_file(path))

        cache = ResponseCache(config.cache_dir) if config.cache_dir else None
        services = {}
        for role, settings in _client_roles(config):
            service = make_service(settings, cache, replay)
            if service is not None:
                services[role] = service
            elif role != "QE":
                raise ConfigError(
                    f"{role} source enabled but no {role.lower()} client configured"
                )

        ctx = BuildContext(
            config=config,
            corpus=corpus,
            pools={
                (relation_id, language): keyed_pool(
                    corpus, unique_object_pool(corpus, relation_id, language),
                    relation_id, language, config.salt,
                )
                for relation_id, language in cells
            },
            fewshot=fewshot,
            services=services,
        )
        # Only the counts of the manifest outlive a fact's lines.
        set_count = 0
        blocking: dict[str, int] = {}
        notes: dict[str, int] = {}
        with (
            writing(bundle_dir / "candidate_sets.jsonl", "candidate_sets") as write_set,
            writing(bundle_dir / "verbalizations.jsonl", "verbalizations") as write_verb,
            writing(bundle_dir / "audit.jsonl", "audit") as write_audit,
        ):
            for fact in facts:
                candidates, verbalizations, entries = build_fact(fact, ctx)
                for line in candidates:
                    write_set(line)
                    set_count += len(line["sources"])  # (fact, source) sets, not lines
                for line in verbalizations:
                    write_verb(line)
                for entry in entries:
                    write_audit(entry)
                    bucket = blocking if entry["kind"] in BLOCKING_AUDIT_KINDS else notes
                    bucket[entry["kind"]] = bucket.get(entry["kind"], 0) + 1
        _write_json(bundle_dir / "relation_filter.json", {
            "retained": list(filter_report.retained),
            "excluded": [list(pair) for pair in filter_report.excluded],
        })

        names = ("candidate_sets.jsonl", "verbalizations.jsonl", "audit.jsonl",
                 "relation_filter.json")
        counts = {
            "facts_eligible": len(facts),
            "enabled_sources": len(config.sources),
            "candidate_sets": set_count,
            "audit_blocking": blocking,
            "audit_notes": notes,
        }
        return names, counts, True

    return _run_stage(bundle_dir, "build_dataset", config,
                      _stage_inputs(config, "build_dataset", replay=replay), force, work)


def make_scorer(config: RunConfig, lines: Iterable[dict]):
    """The configured scorer. Only the oracle iterates ``lines``, the
    candidate-set lines of the bundle being evaluated: it reads all of them
    before it scores, since lines that share a prompt share its answers."""
    settings = config.scorer
    if settings.backend == "oracle":
        correct_by_prompt: dict[str, frozenset] = {}
        for line in lines:
            forms = frozenset(line["correct_forms"])
            for prompt in {entry["prompt"] for entry in line["sources"].values()}:
                existing = correct_by_prompt.get(prompt)
                correct_by_prompt[prompt] = forms if existing is None else existing | forms
        return OracleScorer(correct_by_prompt, mode=settings.mode)
    if settings.backend == "table":
        if not settings.fixtures:
            raise ConfigError("table scorer needs a fixtures file")
        # A pair may repeat only with its score: the last line must not win unseen.
        path = Path(settings.fixtures)
        table = {}
        for line in read_jsonl(path, "scores"):
            pair = (line["prompt"], line["continuation"])
            value = (float(line["logprob"]), line.get("token_count", 1))
            if table.setdefault(pair, value) != value:
                raise MalformedRecord("two scores lines give one pair different scores",
                                      file=str(path), prompt=pair[0], continuation=pair[1])
        return TableScorer(table)
    if settings.backend == "protocol":
        return ProtocolScorerClient(settings.host, settings.port)
    raise ConfigError(f"unknown scorer backend {settings.backend!r}")


def _bundle_lines(path: Path) -> Iterator[dict]:
    """The candidate-set lines at ``path``, each parsed when it is reached.
    A fact has one line: a second is a ``MalformedRecord``, since a resumed
    run would skip the sets that an uninterrupted one scores again."""
    first_lines: dict[str, int] = {}
    for lineno, line in iter_lines(path, "candidate_sets"):
        first = first_lines.setdefault(line["fact_id"], lineno)
        if first != lineno:
            raise MalformedRecord(f"field 'fact_id' repeats that of line {first}: "
                                  f"{line['fact_id']!r}", file=str(path), line=lineno,
                                  field="fact_id")
        yield line


def _pending_sets(lines: Iterable[dict], done: set[tuple[str, str]]):
    """``(line, sources, CandidateSet)`` for each distinct prompt among the
    sources of a bundle line not yet done; ``sources`` are those that share
    the prompt, in name order. Sets are built only when the caller reaches
    them, and keep the line's ``[entity id, form]`` distractor pairs."""
    for line in lines:
        fact_id = line["fact_id"]
        by_prompt: dict[str, list[str]] = {}
        for source, entry in sorted(line["sources"].items()):
            if (fact_id, source) not in done:
                by_prompt.setdefault(entry["prompt"], []).append(source)
        if not by_prompt:
            continue
        correct_forms = tuple(line["correct_forms"])
        for prompt, sources in by_prompt.items():
            yield line, sources, CandidateSet(fact_id, prompt, correct_forms,
                                              line["distractors"])


def _record_texts(line: dict, sources: list[str], prompt: str, result):
    """``((fact id, source), text)`` of the record of each of ``sources``,
    the sources of bundle ``line`` whose ``prompt`` was ranked as
    ``result``: the ``dump`` text of its line, which is encoded once."""
    form_ranks = None
    pair = line.get("inflection_pair")
    if pair:
        form_ranks = {
            FORM_NONINFLECTED: rank_of_form(result, pair["noninflected"]),
            FORM_INFLECTED: rank_of_form(result, pair["inflected"]),
        }
    return [((line["fact_id"], source), dump(EvalRecord(
        fact_id=line["fact_id"],
        language=line["language"],
        relation_id=line["relation_id"],
        source=source,
        best_correct_rank=result.best_correct_rank,
        best_correct_form=result.best_correct_form,
        form_ranks=form_ranks,
        qe_score=line["sources"][source].get("qe_score"),
        subject_gender=line.get("subject_gender"),
        prompt=prompt,
    ).to_line())) for source in sources]


def cmd_evaluate(config: RunConfig, bundle_dir, scorer=None, force: bool = False) -> Path:
    """Score and rank every candidate set, producing the record store.

    The bundle is read one line at a time as its sets are scored, so
    evaluate holds its records, each as the text of its progress line, and
    at most the scorer's pipeline window of lines. The sources of a fact
    that share a prompt send the same request, so each distinct prompt of a
    fact is scored and ranked once and gives one record per source. The
    records of each scored prompt are appended to the progress log in one
    write; an interrupted run resumes where it stopped, and the final store,
    the progress texts sorted by (fact, source), is byte-identical to that
    of an uninterrupted one. Sets whose scoring failed with a
    ``BackendError`` are audited and leave the stage incomplete, with its
    progress kept, so the next run scores only those sets again. Any other
    exception fails the stage with its progress kept. The progress log is
    deleted only once the manifest of a complete stage is written, so a run
    killed before then resumes with every set it scored.
    """
    candidate_sets = Path(bundle_dir) / "candidate_sets.jsonl"
    records_dir = config.output_dir / "records"
    progress_path = records_dir / "progress.jsonl"
    audit: list[dict] = []

    def work(config_digest, input_digests):
        with contextlib.ExitStack() as stack:
            # Opened first, so what is read is the run's header and whole lines.
            progress = open_log(progress_path, "progress", config_digest=config_digest,
                                inputs=input_digests)
            stack.callback(os.close, progress)
            # Each record as the text of its progress line, keyed by (fact, source),
            # encoded once more so that only canonical text reaches the store.
            entries = [((record.fact_id, record.source), dump(record.to_line()))
                       for record in _read_records(progress_path, "progress")]
            backend = scorer
            if backend is None:
                backend = make_scorer(config, _bundle_lines(candidate_sets))
                if hasattr(backend, "close"):
                    stack.callback(backend.close)
            pending = stack.enter_context(contextlib.closing(_pending_sets(
                _bundle_lines(candidate_sets), {key for key, _ in entries}
            )))
            sets = ((line, sources, cs, candidate_continuations(cs, bool(line.get("no_space"))))
                    for line, sources, cs in pending)
            if hasattr(backend, "pipelined"):
                # The scorer sends requests up to its window ahead of this
                # loop and answers its score_batch calls in the same order.
                # A bad bundle line ends this loop's branch of the tee; the
                # scorer raises its error once the sets before it are scored.
                sets, ahead = itertools.tee(sets)
                stack.enter_context(backend.pipelined(
                    (cs.prompt, continuations) for _, _, cs, continuations in ahead
                ))
            for line, sources, candidate_set, continuations in sets:
                try:
                    scored = score_candidates(
                        backend, candidate_set, config.normalization,
                        continuations=continuations,
                    )
                    result = rank_candidates(
                        scored, candidate_set.correct_forms, fact_id=candidate_set.fact_id,
                    )
                except ScorerConnectionLost:
                    raise
                except BackendError as exc:
                    audit.extend(_audit(line["fact_id"], source, "BACKEND_ERROR", exc.code)
                                 for source in sources)
                    continue
                texts = _record_texts(line, sources, candidate_set.prompt, result)
                entries += texts
                append(progress, "".join(text + "\n" for _, text in texts))

        entries.sort(key=itemgetter(0))
        audit.sort(key=lambda entry: (entry["fact_id"], entry["source"]))
        write_jsonl(records_dir / "records.jsonl", "records", (text for _, text in entries))
        write_jsonl(records_dir / "audit.jsonl", "audit", audit)
        counts = {"records": len(entries), "backend_errors": len(audit)}
        return ("records.jsonl", "audit.jsonl"), counts, not audit

    _run_stage(records_dir, "evaluate", config,
               _stage_inputs(config, "evaluate", Path(bundle_dir)), force, work)
    if not audit:  # the stage is complete, whether it ran or was current
        progress_path.unlink(missing_ok=True)
    return records_dir


def _read_records(path: Path, kind: str) -> Iterator[EvalRecord]:
    """The records of a ``records`` or ``progress`` file, each made from its
    line as the line is read."""
    return (EvalRecord.from_line(line) for _, line in iter_lines(path, kind))


def load_records(records_dir) -> list[EvalRecord]:
    """The records of the store."""
    return list(_read_records(Path(records_dir) / "records.jsonl", "records"))


def cmd_report(config: RunConfig, records_dir, force: bool = False) -> Path:
    """Render markdown tables and CSVs from the record store."""
    report_dir = config.output_dir / "report"

    def work(config_digest, input_digests):
        records = load_records(records_dir)
        if not records:
            raise EmptyGroup("record store is empty")

        groups = group_records(records)
        languages = [l for l in config.languages if any(l == lang for lang, _ in groups)]
        sources = [s for s in config.sources if any(s == source for _, source in groups)]
        n_values = config.n_values
        cells = {key: aggregate_cell(group, n_values)
                 for key, group in groups.items()}
        histograms = {key: rank_histogram(group, config.report_max_rank_bucket)
                      for key, group in groups.items()}

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
        sections.append(_gender_tables(config, records, languages, sources, n_values))

        artifacts = {
            "report.md": "\n".join(sections),
            "cells.csv": report_mod.cells_csv(cells, n_values),
            "curves.csv": report_mod.curves_csv(cells, n_values),
            "rank_counts.csv": report_mod.histogram_csv(histograms),
            "rank_quartiles.csv": report_mod.quartiles_csv(histograms),
        }
        if qe_cells:
            artifacts["qe_correlation.csv"] = report_mod.qe_csv(qe_cells)
        else:
            (report_dir / "qe_correlation.csv").unlink(missing_ok=True)
        for name, text in artifacts.items():
            write_text(report_dir / name, text)
        return list(artifacts), {"records": len(records)}, True

    return _run_stage(report_dir, "report", config,
                      _stage_inputs(config, "report", Path(records_dir)), force, work)


def _gender_tables(config, records, languages, sources, n_values) -> str:
    if config.gender_patterns_path is None:
        return "No gender pattern data configured.\n"
    patterns = load_gender_patterns(config.gender_patterns_path)
    covered = [
        r for r in records
        if r.subject_gender in FEMALE_GENDERS
        and r.language in patterns
        and r.relation_id in patterns[r.language]
    ]
    if not covered:
        return "No female-subject records match the configured patterns.\n"
    return report_mod.render_gender_table(
        feminine_form_rate(covered, patterns), aggregate_by_group(covered, n_values),
        languages, sources)
