"""Fact corpus: entities, relations, facts.

The corpus is loaded from three line-delimited JSON files (entities,
relations, facts), each starting with a one-line schema header. Loading
validates referential integrity and all record invariants; the resulting
``Corpus`` is immutable and safe to share across threads.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DanglingReference, DuplicateId, MalformedRecord, UnknownRelation
from .jsonl import iter_lines, write_jsonl

PLACEHOLDER_SUBJECT = "[X]"
PLACEHOLDER_OBJECT = "[Y]"

_LANGUAGE_RE = re.compile(r"^[a-z]{2}$")


def is_language_code(code: str) -> bool:
    """Two-letter lowercase language tag."""
    return isinstance(code, str) and bool(_LANGUAGE_RE.match(code))


def is_punctuation_or_space(text: str) -> bool:
    """True if every character is Unicode punctuation or whitespace."""
    for ch in text:
        if not ch.isspace() and not unicodedata.category(ch).startswith("P"):
            return False
    return True


def placeholder_positions(template: str) -> tuple[int, int]:
    """Offsets of [X] and [Y], requiring exactly one occurrence of each."""
    for ph in (PLACEHOLDER_SUBJECT, PLACEHOLDER_OBJECT):
        if template.count(ph) != 1:
            raise MalformedRecord(
                f"template must contain {ph} exactly once", template=template
            )
    return template.index(PLACEHOLDER_SUBJECT), template.index(PLACEHOLDER_OBJECT)


def template_is_object_final(template: str) -> bool:
    """True when [Y] is the last placeholder, trailed only by punctuation/space."""
    ix, iy = placeholder_positions(template)
    if iy < ix:
        return False
    tail = template[iy + len(PLACEHOLDER_OBJECT):]
    return is_punctuation_or_space(tail)


@dataclass(frozen=True)
class Entity:
    """One entity with its per-language default label and alias pool."""

    id: str
    labels: dict[str, str]
    aliases: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def label(self, language: str) -> str | None:
        return self.labels.get(language)

    def alias_list(self, language: str) -> tuple[str, ...]:
        return self.aliases.get(language, ())


@dataclass(frozen=True)
class Relation:
    """A relation with its English template and per-language templates."""

    id: str
    english_template: str
    templates: dict[str, str]
    object_final: dict[str, bool]
    inflection_expected: bool = False

    def is_object_final(self, language: str) -> bool:
        return self.object_final.get(language, False)


@dataclass(frozen=True)
class Fact:
    """A (subject, relation, object) triple expressed in one language."""

    id: str
    subject_id: str
    relation_id: str
    object_id: str
    language: str
    subject_gender: str | None = None


@dataclass(frozen=True)
class Corpus:
    entities: dict[str, Entity]
    relations: dict[str, Relation]
    facts: dict[str, Fact]

    def facts_sorted(self) -> list[Fact]:
        return [self.facts[fid] for fid in sorted(self.facts)]

    def counts(self) -> tuple[int, int, int]:
        return len(self.entities), len(self.relations), len(self.facts)


@dataclass(frozen=True)
class RelationFilterReport:
    """Partition of the relation set into retained and excluded ids."""

    retained: tuple[str, ...]
    excluded: tuple[tuple[str, str], ...]  # (relation id, reason code)


EXCLUDE_NOT_OBJECT_FINAL = "NOT_OBJECT_FINAL"
EXCLUDE_TOO_FEW_OBJECTS = "TOO_FEW_OBJECTS"
EXCLUDE_EXPLICIT = "EXPLICIT_EXCLUDE"


def _require(record: dict, key: str, typ, path: Path, lineno: int):
    value = record.get(key)
    if not isinstance(value, typ):
        raise MalformedRecord(
            f"field {key!r} missing or not {typ.__name__}",
            file=str(path),
            line=lineno,
            field=key,
        )
    return value


def _check_nonempty(value: str, key: str, path: Path, lineno: int) -> str:
    if not value.strip():
        raise MalformedRecord(
            f"field {key!r} empty after trimming", file=str(path), line=lineno, field=key
        )
    return value


def _parse_entity(record: dict, path: Path, lineno: int) -> Entity:
    eid = _check_nonempty(_require(record, "id", str, path, lineno), "id", path, lineno)
    labels = _require(record, "labels", dict, path, lineno)
    for lang, label in labels.items():
        if not is_language_code(lang):
            raise MalformedRecord(
                f"bad language code {lang!r}", file=str(path), line=lineno, field="labels"
            )
        if not isinstance(label, str) or not label.strip():
            raise MalformedRecord(
                f"label for {lang!r} empty or not a string",
                file=str(path),
                line=lineno,
                field="labels",
            )
    aliases: dict[str, tuple[str, ...]] = {}
    for lang, alias_list in record.get("aliases", {}).items():
        if not is_language_code(lang) or not isinstance(alias_list, list):
            raise MalformedRecord(
                f"bad alias entry for {lang!r}", file=str(path), line=lineno, field="aliases"
            )
        seen = set()
        for alias in alias_list:
            if not isinstance(alias, str) or not alias.strip():
                raise MalformedRecord(
                    f"alias for {lang!r} empty or not a string",
                    file=str(path),
                    line=lineno,
                    field="aliases",
                )
            if alias in seen:
                raise MalformedRecord(
                    f"duplicate alias {alias!r} for {lang!r}",
                    file=str(path),
                    line=lineno,
                    field="aliases",
                )
            if labels.get(lang) == alias:
                raise MalformedRecord(
                    f"label {alias!r} listed as its own alias for {lang!r}",
                    file=str(path),
                    line=lineno,
                    field="aliases",
                )
            seen.add(alias)
        aliases[lang] = tuple(alias_list)
    return Entity(id=eid, labels=dict(labels), aliases=aliases)


def _parse_relation(record: dict, path: Path, lineno: int) -> Relation:
    rid = _check_nonempty(_require(record, "id", str, path, lineno), "id", path, lineno)
    english = _require(record, "english_template", str, path, lineno)
    templates = _require(record, "templates", dict, path, lineno)
    try:
        placeholder_positions(english)
        for lang, tpl in templates.items():
            if not is_language_code(lang) or not isinstance(tpl, str):
                raise MalformedRecord(
                    f"bad template entry for {lang!r}",
                    file=str(path),
                    line=lineno,
                    field="templates",
                )
            placeholder_positions(tpl)
    except MalformedRecord as exc:
        raise MalformedRecord(
            str(exc), file=str(path), line=lineno, field="templates"
        ) from exc
    declared = record.get("object_final", {})
    if not isinstance(declared, dict):
        raise MalformedRecord(
            "object_final must be a mapping", file=str(path), line=lineno, field="object_final"
        )
    object_final: dict[str, bool] = {}
    for lang, tpl in templates.items():
        derived = template_is_object_final(tpl)
        if lang in declared:
            value = declared[lang]
            if not isinstance(value, bool):
                raise MalformedRecord(
                    f"object_final for {lang!r} not a boolean",
                    file=str(path),
                    line=lineno,
                    field="object_final",
                )
            # A true declaration must be backed by the template shape.
            if value and not derived:
                raise MalformedRecord(
                    f"object_final declared true for {lang!r} but [Y] is not sentence-final",
                    file=str(path),
                    line=lineno,
                    field="object_final",
                )
            object_final[lang] = value
        else:
            object_final[lang] = derived
    inflection = record.get("inflection_expected", False)
    if not isinstance(inflection, bool):
        raise MalformedRecord(
            "inflection_expected not a boolean",
            file=str(path),
            line=lineno,
            field="inflection_expected",
        )
    return Relation(
        id=rid,
        english_template=english,
        templates=dict(templates),
        object_final=object_final,
        inflection_expected=inflection,
    )


def _parse_fact(record: dict, path: Path, lineno: int) -> Fact:
    fid = _check_nonempty(_require(record, "id", str, path, lineno), "id", path, lineno)
    subject_id = _require(record, "subject_id", str, path, lineno)
    relation_id = _require(record, "relation_id", str, path, lineno)
    object_id = _require(record, "object_id", str, path, lineno)
    language = _require(record, "language", str, path, lineno)
    if not is_language_code(language):
        raise MalformedRecord(
            f"bad language code {language!r}", file=str(path), line=lineno, field="language"
        )
    if subject_id == object_id:
        raise MalformedRecord(
            "subject_id equals object_id", file=str(path), line=lineno, field="object_id"
        )
    gender = record.get("subject_gender")
    if gender is not None and not isinstance(gender, str):
        raise MalformedRecord(
            "subject_gender not a string",
            file=str(path),
            line=lineno,
            field="subject_gender",
        )
    return Fact(
        id=fid,
        subject_id=subject_id,
        relation_id=relation_id,
        object_id=object_id,
        language=language,
        subject_gender=gender,
    )


def load_corpus(entities_path, relations_path, facts_path) -> Corpus:
    """Load and validate a corpus from three JSONL files.

    Loading is order-independent: records are keyed and sorted by id, so
    the same corpus is produced regardless of record order on disk.
    """
    entities: dict[str, Entity] = {}
    for lineno, record in iter_lines(entities_path, "entities"):
        entity = _parse_entity(record, Path(entities_path), lineno)
        if entity.id in entities:
            raise DuplicateId(
                f"duplicate entity id {entity.id!r}", file=str(entities_path), line=lineno
            )
        entities[entity.id] = entity

    relations: dict[str, Relation] = {}
    for lineno, record in iter_lines(relations_path, "relations"):
        relation = _parse_relation(record, Path(relations_path), lineno)
        if relation.id in relations:
            raise DuplicateId(
                f"duplicate relation id {relation.id!r}",
                file=str(relations_path),
                line=lineno,
            )
        relations[relation.id] = relation

    facts: dict[str, Fact] = {}
    seen_triples: set[tuple[str, str, str, str]] = set()
    for lineno, record in iter_lines(facts_path, "facts"):
        fact = _parse_fact(record, Path(facts_path), lineno)
        if fact.id in facts:
            raise DuplicateId(
                f"duplicate fact id {fact.id!r}", file=str(facts_path), line=lineno
            )
        for eid in (fact.subject_id, fact.object_id):
            if eid not in entities:
                raise DanglingReference(
                    f"fact {fact.id!r} references unknown entity {eid!r}",
                    file=str(facts_path),
                    line=lineno,
                )
        if fact.relation_id not in relations:
            raise DanglingReference(
                f"fact {fact.id!r} references unknown relation {fact.relation_id!r}",
                file=str(facts_path),
                line=lineno,
            )
        triple = (fact.subject_id, fact.relation_id, fact.object_id, fact.language)
        if triple in seen_triples:
            raise DuplicateId(
                f"duplicate (subject, relation, object, language) {triple}",
                file=str(facts_path),
                line=lineno,
            )
        seen_triples.add(triple)
        facts[fact.id] = fact

    return Corpus(
        entities={k: entities[k] for k in sorted(entities)},
        relations={k: relations[k] for k in sorted(relations)},
        facts={k: facts[k] for k in sorted(facts)},
    )


def save_corpus(corpus: Corpus, directory) -> dict[str, Path]:
    """Serialize a corpus back to the three JSONL files (sorted by id)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "entities": directory / "entities.jsonl",
        "relations": directory / "relations.jsonl",
        "facts": directory / "facts.jsonl",
    }

    def entity_record(e: Entity) -> dict:
        record = {"id": e.id, "labels": e.labels}
        if e.aliases:
            record["aliases"] = {k: list(v) for k, v in e.aliases.items()}
        return record

    def relation_record(r: Relation) -> dict:
        return {
            "id": r.id,
            "english_template": r.english_template,
            "templates": r.templates,
            "object_final": r.object_final,
            "inflection_expected": r.inflection_expected,
        }

    def fact_record(f: Fact) -> dict:
        record = {
            "id": f.id,
            "subject_id": f.subject_id,
            "relation_id": f.relation_id,
            "object_id": f.object_id,
            "language": f.language,
        }
        if f.subject_gender is not None:
            record["subject_gender"] = f.subject_gender
        return record

    for kind, table, to_record in (
        ("entities", corpus.entities, entity_record),
        ("relations", corpus.relations, relation_record),
        ("facts", corpus.facts, fact_record),
    ):
        write_jsonl(paths[kind], kind, (to_record(table[key]) for key in sorted(table)))
    return paths


def unique_object_pool(corpus: Corpus, relation_id: str, language: str) -> list[str]:
    """Deduplicated, id-sorted object entity ids for one relation+language."""
    if relation_id not in corpus.relations:
        raise UnknownRelation(f"unknown relation {relation_id!r}")
    pool = {
        fact.object_id
        for fact in corpus.facts.values()
        if fact.relation_id == relation_id and fact.language == language
    }
    return sorted(pool)


def filter_relations(
    corpus: Corpus,
    languages,
    min_unique_objects: int = 10,
    exclude_ids=(),
) -> RelationFilterReport:
    """Partition relations into retained/excluded per the selection rules.

    A relation is excluded NOT_OBJECT_FINAL when any configured language
    lacks an object-final template (a missing template counts: the
    object-final guarantee cannot be established), TOO_FEW_OBJECTS when
    its unique-object count in any configured language is below
    ``min_unique_objects``, and EXPLICIT_EXCLUDE when listed in
    ``exclude_ids``. The first matching rule, in that order, wins.
    """
    if min_unique_objects < 2:
        raise ValueError("min_unique_objects must be >= 2")
    languages = list(languages)
    exclude = set(exclude_ids)
    retained: list[str] = []
    excluded: list[tuple[str, str]] = []
    for rid in sorted(corpus.relations):
        relation = corpus.relations[rid]
        reason = None
        if any(not relation.is_object_final(lang) for lang in languages):
            reason = EXCLUDE_NOT_OBJECT_FINAL
        elif any(
            len(unique_object_pool(corpus, rid, lang)) < min_unique_objects
            for lang in languages
        ):
            reason = EXCLUDE_TOO_FEW_OBJECTS
        elif rid in exclude:
            reason = EXCLUDE_EXPLICIT
        if reason is None:
            retained.append(rid)
        else:
            excluded.append((rid, reason))
    return RelationFilterReport(retained=tuple(retained), excluded=tuple(excluded))
