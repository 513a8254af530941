"""Shared fixtures: the Czech fixture corpus and a synthetic toy workspace.

The toy workspace is a fully self-contained run directory (corpus, replay
fixtures, exemplars, gender patterns, config) written with relative paths
only, so two generated copies are byte-identical and runs over them must
be too. Its two toy languages use invented morphology: verbs carry a
gendered marker (``wqr1`` / ``wqr1la``) and machine/LLM translations
"inflect" objects by suffixing ``zu`` / ``ku``.
"""

from __future__ import annotations

import builtins
import errno
import json
import os
from pathlib import Path

import pytest
import yaml

DATA_DIR = Path(__file__).parent / "data"
REPO_ROOT = Path(__file__).parent.parent
EXEMPLARS_DIR = REPO_ROOT / "data" / "exemplars"
GOLDEN_DIR = DATA_DIR / "golden"


@pytest.fixture(scope="session")
def cs_corpus():
    from factprobe.corpus import load_corpus

    d = DATA_DIR / "corpus_cs"
    return load_corpus(d / "entities.jsonl", d / "relations.jsonl", d / "facts.jsonl")


@pytest.fixture(scope="session")
def cs_exemplars():
    from factprobe.verbalize import parse_exemplar_file

    return parse_exemplar_file(EXEMPLARS_DIR / "P19.cs.txt")


class CallableScorer:
    """Backend wrapping a plain ``fn(prompt, continuation) -> logprob``."""

    def __init__(self, fn, token_counter=None):
        from factprobe.score import default_token_count

        self._fn = fn
        self._count = token_counter or default_token_count

    def score_batch(self, prompt, continuations):
        return [(self._fn(prompt, c), self._count(c)) for c in continuations]


def pair_scores(pairs):
    """The ``Scores`` of ``(form, score)`` pairs, one token each."""
    from factprobe.score import Scores

    forms, scores = zip(*pairs)
    return Scores(list(forms), list(scores), [1] * len(forms))


def count_parsed_lines(monkeypatch, kind: str) -> list[int]:
    """The numbers of the ``kind`` lines parsed from here on, each noted as
    it is parsed. ``iter_lines`` is wrapped under both names the package
    reaches it by: ``pipeline.iter_lines`` and, inside ``read_jsonl``,
    ``jsonl.iter_lines``."""
    from factprobe import jsonl, pipeline

    parsed: list[int] = []

    def counting(iter_lines):
        def wrapper(path, line_kind, *args, **kwargs):
            for lineno, record in iter_lines(path, line_kind, *args, **kwargs):
                if line_kind == kind:
                    parsed.append(lineno)
                yield lineno, record
        return wrapper

    for module in (pipeline, jsonl):
        monkeypatch.setattr(module, "iter_lines", counting(module.iter_lines))
    return parsed


class TornFile:
    """A text file whose write stores half of its text, then fails, as a
    full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def tear_writes_of(monkeypatch, name: str) -> None:
    """Make every write of the file ``name`` through ``jsonl`` fail midway."""
    from factprobe import jsonl

    def opening(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return TornFile(fh) if os.path.basename(path) == name + ".tmp" else fh

    monkeypatch.setattr(jsonl, "open", opening, raising=False)


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def toy_marker(relation_index: int, language: str, feminine: bool) -> str:
    stem = f"wqr{relation_index}" if language == "aa" else f"vqs{relation_index}"
    return stem + "la" if feminine else stem


def make_toy_workspace(
    root: Path,
    facts_per_cell: int = 5,
    languages=("aa", "bb"),
    relation_count: int = 3,
    sources=("TEMPLATE", "MT", "LLM"),
    scorer_mode: str = "perfect",
    with_qe: bool = True,
    include_aliases: bool = False,
    include_english: bool = False,
    salt: str = "toy-salt",
) -> Path:
    """Write a complete run workspace under ``root``; returns the config path.

    Shapes baked into the fixtures:
      * relation R1: MT and LLM both inflect objects with ``zu`` -> the
        correct pool has exactly two forms (inflection pair eligible);
      * relation R2: MT uses ``zu``, LLM uses ``ku`` -> three forms;
      * relation R3: the MT form drops the label's last two characters
        before suffixing -> a low-confidence stem match;
      * in language "bb" the fact with index 0 gets an object-initial MT
        sentence -> rejected NOT_SENTENCE_FINAL.
      * subjects with odd index are female and MT/LLM use the feminine
        verb marker for them.
    """
    root = Path(root)
    for sub in ("corpus", "exemplars", "fixtures"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    entities: list[dict] = []
    relations: list[dict] = []
    facts: list[dict] = []
    mt_fixtures: list[dict] = []
    llm_fixtures: list[dict] = []
    qe_fixtures: list[dict] = []
    gender_patterns: dict = {}

    relation_ids = [f"R{r}" for r in range(1, relation_count + 1)]
    for r, relation_id in enumerate(relation_ids, start=1):
        templates = {}
        for lang in languages:
            templates[lang] = f"[X] {toy_marker(r, lang, False)} [Y] ."
        relations.append(
            {
                "id": relation_id,
                "english_template": f"[X] enrel{r} [Y] .",
                "templates": templates,
                "inflection_expected": r == 1,
            }
        )
        for lang in languages:
            gender_patterns.setdefault(lang, {})[relation_id] = {
                "feminine": [toy_marker(r, lang, True)],
                "masculine": [toy_marker(r, lang, False)],
            }

    def mt_form(r: int, obj_label: str) -> str:
        if r == 3:
            return obj_label[:-2] + "zu"
        return obj_label + "zu"

    def llm_form(r: int, obj_label: str) -> str:
        return obj_label + "zu" if r == 1 else obj_label + "ku"

    for r in range(1, relation_count + 1):
        relation_id = f"R{r}"
        for lang in languages:
            for j in range(facts_per_cell):
                sid = f"s{r}{lang}{j}"
                oid = f"o{r}{lang}{j}"
                subj_label = f"{sid}{lang}"
                obj_label = f"{oid}{lang}"
                entities.append(
                    {"id": sid, "labels": {lang: subj_label, "en": f"{sid}en"}}
                )
                entities.append(
                    {
                        "id": oid,
                        "labels": {lang: obj_label, "en": f"{oid}en"},
                        "aliases": {lang: [f"{oid}alias"]},
                    }
                )
                female = j % 2 == 1
                facts.append(
                    {
                        "id": f"f-{r}-{lang}-{j:02d}",
                        "subject_id": sid,
                        "relation_id": relation_id,
                        "object_id": oid,
                        "language": lang,
                        "subject_gender": "female" if female else "male",
                    }
                )
                marker = toy_marker(r, lang, female)
                english = f"{sid}en enrel{r} {oid}en ."
                mt_sentence = f"{subj_label} {marker} {mt_form(r, obj_label)}."
                if lang == "bb" and j == 0:
                    # Object-initial word order: must be rejected downstream.
                    mt_sentence = f"{mt_form(r, obj_label)} {marker} {subj_label}."
                mt_fixtures.append(
                    {
                        "request": {
                            "client_id": "mt",
                            "text": english,
                            "source_language": "en",
                            "target_language": lang,
                            "extra": {},
                        },
                        "response": mt_sentence,
                    }
                )

    write_corpus_files(root / "corpus", entities, relations, facts)

    for r in range(1, relation_count + 1):
        for lang in languages:
            stem = toy_marker(r, lang, False)
            (root / "exemplars" / f"R{r}.{lang}.txt").write_text(
                f"Source sentence: Exsource enrel{r} Exobject .\n"
                f"Subject translation: exsubj{r}{lang}\n"
                f"Object translation: exobj{r}{lang}\n"
                f"Translation: exsubj{r}{lang} {stem} exobj{r}{lang}.\n",
                encoding="utf-8",
            )

    # LLM fixtures need the exact prompts, so build them through the package
    # against the just-written corpus.
    from factprobe.corpus import load_corpus
    from factprobe.verbalize import build_fewshot_prompt, parse_exemplar_file

    corpus = load_corpus(
        root / "corpus" / "entities.jsonl",
        root / "corpus" / "relations.jsonl",
        root / "corpus" / "facts.jsonl",
    )
    exemplar_sets = {
        (f"R{r}", lang): parse_exemplar_file(root / "exemplars" / f"R{r}.{lang}.txt")
        for r in range(1, relation_count + 1)
        for lang in languages
    }
    for fact in corpus.facts_sorted():
        r = int(fact.relation_id[1:])
        relation = corpus.relations[fact.relation_id]
        prompt = build_fewshot_prompt(
            relation, fact.language,
            exemplar_sets[(fact.relation_id, fact.language)], fact, corpus,
        )
        subj_label = corpus.entities[fact.subject_id].labels[fact.language]
        obj_label = corpus.entities[fact.object_id].labels[fact.language]
        female = fact.subject_gender == "female"
        marker = toy_marker(r, fact.language, female)
        llm_sentence = f"{subj_label} {marker} {llm_form(r, obj_label)}."
        llm_fixtures.append(
            {
                "request": {
                    "client_id": "llm",
                    "text": prompt,
                    "source_language": "en",
                    "target_language": fact.language,
                    "extra": {"decoding": "deterministic"},
                },
                "response": llm_sentence,
            }
        )
        if with_qe:
            english = (
                f"{corpus.entities[fact.subject_id].labels['en']} enrel{r} "
                f"{corpus.entities[fact.object_id].labels['en']} ."
            )
            template_sentence = (
                f"{subj_label} {toy_marker(r, fact.language, False)} {obj_label} ."
            )
            mt_sentence = f"{subj_label} {marker} {mt_form(r, obj_label)}."
            if fact.language == "bb" and fact.id.endswith("-00"):
                mt_sentence = f"{mt_form(r, obj_label)} {marker} {subj_label}."
            j = int(fact.id.rsplit("-", 1)[1])
            for source, sentence, base in (
                ("TEMPLATE", template_sentence, 0.6),
                ("MT", mt_sentence, 0.8),
                ("LLM", llm_sentence, 0.7),
            ):
                qe_fixtures.append(
                    {
                        "request": {
                            "client_id": "qe",
                            "text": sentence,
                            "source_language": "en",
                            "target_language": fact.language,
                            "extra": {"source_text": english},
                        },
                        "response": f"{base + 0.01 * r + 0.001 * j:.4f}",
                    }
                )

    for name, fixtures in (
        ("mt", mt_fixtures), ("llm", llm_fixtures), ("qe", qe_fixtures)
    ):
        with open(root / "fixtures" / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for record in fixtures:
                fh.write(_dump(record) + "\n")

    (root / "gender_patterns.yaml").write_text(
        yaml.safe_dump(gender_patterns, sort_keys=True), encoding="utf-8"
    )

    config: dict = {
        "config_version": 1,
        "languages": list(languages),
        "sources": list(sources),
        "salt": salt,
        "entities": "corpus/entities.jsonl",
        "relations": "corpus/relations.jsonl",
        "facts": "corpus/facts.jsonl",
        "exemplars_dir": "exemplars",
        "cache_dir": "cache",
        "output_dir": "out",
        "min_unique_objects": 3,
        "k_distractors": 50,
        "n_values": [1, 2, 3, 4, 5],
        "normalization": "SUM",
        "include_aliases": include_aliases,
        "include_english": include_english,
        "gender_patterns": "gender_patterns.yaml",
        "scorer": {"backend": "oracle", "mode": scorer_mode},
    }
    if "MT" in sources:
        config["mt"] = {
            "client_id": "mt", "mode": "replay", "fixtures": ["fixtures/mt.jsonl"]
        }
    if "LLM" in sources:
        config["llm"] = {
            "client_id": "llm", "mode": "replay", "fixtures": ["fixtures/llm.jsonl"]
        }
    if with_qe:
        config["qe"] = {
            "client_id": "qe", "mode": "replay", "fixtures": ["fixtures/qe.jsonl"]
        }
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return config_path


def write_corpus_files(directory: Path, entities, relations, facts) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "entities.jsonl", "w", encoding="utf-8") as fh:
        fh.write(_dump({"schema_version": 1, "kind": "entities"}) + "\n")
        for record in entities:
            fh.write(_dump(record) + "\n")
    with open(directory / "relations.jsonl", "w", encoding="utf-8") as fh:
        fh.write(_dump({"schema_version": 1, "kind": "relations"}) + "\n")
        for record in relations:
            fh.write(_dump(record) + "\n")
    with open(directory / "facts.jsonl", "w", encoding="utf-8") as fh:
        fh.write(_dump({"schema_version": 1, "kind": "facts"}) + "\n")
        for record in facts:
            fh.write(_dump(record) + "\n")
