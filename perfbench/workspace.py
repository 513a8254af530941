"""Seeded synthetic workspaces for the benchmark.

Modelled on the toy workspace of the test suite, but self-contained and
sized per workload. Two invented languages ("aa", "bb") use made-up
morphology: verbs carry a gendered marker and machine/LLM translations
"inflect" objects by suffixing ``zu`` / ``ku``. The seed varies the salt
and the suffix of every entity id and label, so each seed samples other
distractors and writes other bytes while the shape of the work stays fixed.

Naming contract (the scorer stub relies on it): a subject label is
``s<r><lang><j><tag><lang>`` and the object of the same fact has the label
``o<r><lang><j><tag><lang>``. Every sentence starts with the subject label,
so the correct object label follows from the first word of any prompt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import yaml

LANGUAGES = ("aa", "bb")
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# QE base score per verbalization source.
QE_BASE = {"TEMPLATE": 0.6, "MT": 0.8, "LLM": 0.7}


@dataclass(frozen=True)
class Expected:
    """What a correct pipeline run over the workspace must produce."""

    facts: int
    candidate_sets: int
    # Blocking audits the generator planned: (fact_id, source, kind).
    planned_rejections: tuple[tuple[str, str, str], ...]
    # Every (fact_id, source) that must end with a record.
    set_keys: tuple[tuple[str, str], ...]


def seed_tag(seed: int) -> str:
    """Letters-only suffix for ids and labels, unique per seed."""
    n = abs(int(seed))
    letters = ""
    while True:
        n, digit = divmod(n, 26)
        letters = ALPHABET[digit] + letters
        if n == 0:
            break
    return "q" + letters


def subject_to_object_label(subject_label: str) -> str:
    """The object label of the fact whose subject carries this label."""
    return "o" + subject_label[1:]


def object_forms(label: str) -> set[str]:
    """Every surface form a generated sentence can give an object label."""
    return {label, label + "zu", label + "ku", label[:-2] + "zu"}


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _write_jsonl(path: Path, kind: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if kind:
            fh.write(_dump({"schema_version": 1, "kind": kind}) + "\n")
        for record in records:
            fh.write(_dump(record) + "\n")


def marker(relation_index: int, language: str, feminine: bool) -> str:
    stem = f"wqr{relation_index}" if language == "aa" else f"vqs{relation_index}"
    return stem + "la" if feminine else stem


def _mt_form(r: int, label: str) -> str:
    # Every third relation drops two characters before the suffix, which
    # the splitter can only find through its stem pass.
    return label[:-2] + "zu" if r % 3 == 0 else label + "zu"


def _llm_form(r: int, label: str) -> str:
    return label + "zu" if r % 3 == 1 else label + "ku"


def generate(
    root: Path,
    seed: int,
    relations: int,
    facts_per_cell: int,
    sources=("TEMPLATE",),
    with_qe: bool = False,
    client_mode: str = "replay",
    endpoint: str | None = None,
    scorer: dict | None = None,
) -> tuple[Path, Expected, dict[str, list[dict]]]:
    """Write a complete run workspace under ``root``.

    Returns the config path, the expected counts, and the client fixtures
    per client id (request + response records), which replay mode reads
    from ``fixtures/`` and live mode expects to find in the cache.
    """
    root = Path(root)
    for sub in ("corpus", "exemplars", "fixtures"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    tag = seed_tag(seed)
    salt = f"bench-salt-{seed}"

    entities: list[dict] = []
    relation_records: list[dict] = []
    facts: list[dict] = []
    gender_patterns: dict = {}
    fixtures: dict[str, list[dict]] = {"mt": [], "llm": [], "qe": []}
    planned: list[tuple[str, str, str]] = []
    set_keys: list[tuple[str, str]] = []

    for r in range(1, relations + 1):
        relation_records.append(
            {
                "id": f"R{r}",
                "english_template": f"[X] enrel{r} [Y] .",
                "templates": {lang: f"[X] {marker(r, lang, False)} [Y] ." for lang in LANGUAGES},
                "inflection_expected": r % 3 == 1,
            }
        )
        for lang in LANGUAGES:
            gender_patterns.setdefault(lang, {})[f"R{r}"] = {
                "feminine": [marker(r, lang, True)],
                "masculine": [marker(r, lang, False)],
            }
            (root / "exemplars" / f"R{r}.{lang}.txt").write_text(
                f"Source sentence: Exsource enrel{r} Exobject .\n"
                f"Subject translation: exsubj{r}{lang}\n"
                f"Object translation: exobj{r}{lang}\n"
                f"Translation: exsubj{r}{lang} {marker(r, lang, False)} exobj{r}{lang}.\n",
                encoding="utf-8",
            )

    # (fact record, English sentence, sentence per source, relation index,
    # fact index, whether the MT sentence must be rejected)
    planned_facts = []
    for r in range(1, relations + 1):
        for lang in LANGUAGES:
            for j in range(facts_per_cell):
                sid = f"s{r}{lang}{j}{tag}"
                oid = f"o{r}{lang}{j}{tag}"
                subj_label = f"{sid}{lang}"
                obj_label = f"{oid}{lang}"
                entities.append({"id": sid, "labels": {lang: subj_label, "en": f"{sid}en"}})
                entities.append(
                    {
                        "id": oid,
                        "labels": {lang: obj_label, "en": f"{oid}en"},
                        "aliases": {lang: [f"{oid}alias"]},
                    }
                )
                female = j % 2 == 1
                fact = {
                    "id": f"f-{r:03d}-{lang}-{j:05d}",
                    "subject_id": sid,
                    "relation_id": f"R{r}",
                    "object_id": oid,
                    "language": lang,
                    "subject_gender": "female" if female else "male",
                }
                facts.append(fact)
                mark = marker(r, lang, female)
                sentences = {
                    "TEMPLATE": f"{subj_label} {marker(r, lang, False)} {obj_label} .",
                    "MT": f"{subj_label} {mark} {_mt_form(r, obj_label)}.",
                    "LLM": f"{subj_label} {mark} {_llm_form(r, obj_label)}.",
                }
                rejected = lang == "bb" and j == 0
                if rejected:
                    # Object-initial word order: the splitter must reject it.
                    sentences["MT"] = f"{_mt_form(r, obj_label)} {mark} {subj_label}."
                english = f"{sid}en enrel{r} {oid}en ."
                planned_facts.append((fact, english, sentences, r, j, rejected))
                for source in sources:
                    if source == "MT" and rejected:
                        planned.append((fact["id"], "MT", "REJECTION"))
                    else:
                        set_keys.append((fact["id"], source))

    _write_jsonl(root / "corpus" / "entities.jsonl", "entities", entities)
    _write_jsonl(root / "corpus" / "relations.jsonl", "relations", relation_records)
    _write_jsonl(root / "corpus" / "facts.jsonl", "facts", facts)
    (root / "gender_patterns.yaml").write_text(
        yaml.safe_dump(gender_patterns, sort_keys=True), encoding="utf-8"
    )

    if "LLM" in sources:
        # LLM requests carry the exact few-shot prompt, so build it through
        # the package against the just-written corpus.
        from factprobe.corpus import load_corpus
        from factprobe.verbalize import build_fewshot_prompt, parse_exemplar_file

        corpus = load_corpus(
            root / "corpus" / "entities.jsonl",
            root / "corpus" / "relations.jsonl",
            root / "corpus" / "facts.jsonl",
        )
        exemplar_sets = {
            (f"R{r}", lang): parse_exemplar_file(root / "exemplars" / f"R{r}.{lang}.txt")
            for r in range(1, relations + 1)
            for lang in LANGUAGES
        }

    for fact, english, sentences, r, j, rejected in planned_facts:
        lang = fact["language"]
        if "MT" in sources:
            fixtures["mt"].append(
                {
                    "request": {
                        "client_id": "mt",
                        "text": english,
                        "source_language": "en",
                        "target_language": lang,
                        "extra": {},
                    },
                    "response": sentences["MT"],
                }
            )
        if "LLM" in sources:
            key = (fact["relation_id"], lang)
            parsed = corpus.facts[fact["id"]]
            prompt = build_fewshot_prompt(
                corpus.relations[fact["relation_id"]], lang, exemplar_sets[key], parsed, corpus
            )
            fixtures["llm"].append(
                {
                    "request": {
                        "client_id": "llm",
                        "text": prompt,
                        "source_language": "en",
                        "target_language": lang,
                        "extra": {"decoding": "deterministic"},
                    },
                    "response": sentences["LLM"],
                }
            )
        if with_qe:
            for source in sources:
                if source == "MT" and rejected:
                    continue
                fixtures["qe"].append(
                    {
                        "request": {
                            "client_id": "qe",
                            "text": sentences[source],
                            "source_language": "en",
                            "target_language": lang,
                            "extra": {"source_text": english},
                        },
                        "response": f"{QE_BASE[source] + 0.01 * r + 0.0001 * j:.4f}",
                    }
                )

    clients = [c for c, s in (("mt", "MT"), ("llm", "LLM")) if s in sources]
    if with_qe:
        clients.append("qe")
    config: dict = {
        "config_version": 1,
        "languages": list(LANGUAGES),
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
        "gender_patterns": "gender_patterns.yaml",
        "scorer": scorer or {"backend": "oracle", "mode": "perfect"},
    }
    for client_id in clients:
        if client_mode == "replay":
            _write_jsonl(root / "fixtures" / f"{client_id}.jsonl", "", fixtures[client_id])
            config[client_id] = {
                "client_id": client_id, "mode": "replay",
                "fixtures": [f"fixtures/{client_id}.jsonl"],
            }
        else:
            config[client_id] = {
                "client_id": client_id, "mode": client_mode, "endpoint": endpoint,
            }
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")

    expected = Expected(
        facts=len(facts),
        candidate_sets=len(set_keys),
        planned_rejections=tuple(sorted(planned)),
        set_keys=tuple(sorted(set_keys)),
    )
    return config_path, expected, fixtures


def prefill_cache(cache_dir: Path, fixtures: dict[str, list[dict]]) -> int:
    """Store every fixture response through the package's response cache."""
    from factprobe.clients import ResponseCache, TextRequest

    cache = ResponseCache(cache_dir)
    count = 0
    for records in fixtures.values():
        for record in records:
            req = record["request"]
            request = TextRequest(
                client_id=req["client_id"],
                text=req["text"],
                source_language=req["source_language"],
                target_language=req["target_language"],
                extra=tuple(sorted(req["extra"].items())),
            )
            cache.put(request.digest(), request, record["response"])
            count += 1
    return count
