"""Fact corpus: entities, relations, facts.

The corpus is loaded from three line-delimited JSON files (entities,
relations, facts), each starting with a one-line schema header. Loading
validates referential integrity and all record invariants; the resulting
``Corpus`` is immutable and safe to share across threads.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import DanglingReference, DuplicateId, MalformedRecord, ProbeError, UnknownRelation
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

    @cached_property
    def _object_pools(self) -> dict[tuple[str, str], list[str]]:
        """Deduplicated, id-sorted object ids per (relation, language) cell,
        from one pass over the facts on first use."""
        pools: dict[tuple[str, str], set[str]] = {}
        for fact in self.facts.values():
            pools.setdefault((fact.relation_id, fact.language), set()).add(fact.object_id)
        return {cell: sorted(ids) for cell, ids in pools.items()}


@dataclass(frozen=True)
class RelationFilterReport:
    """Partition of the relation set into retained and excluded ids."""

    retained: tuple[str, ...]
    excluded: tuple[tuple[str, str], ...]  # (relation id, reason code)


EXCLUDE_NOT_OBJECT_FINAL = "NOT_OBJECT_FINAL"
EXCLUDE_TOO_FEW_OBJECTS = "TOO_FEW_OBJECTS"
EXCLUDE_EXPLICIT = "EXPLICIT_EXCLUDE"


def _languages(codes, field: str):
    """``codes`` (or a mapping keyed by them) if each is a language code."""
    for lang in codes:
        if not is_language_code(lang):
            raise MalformedRecord(f"bad language code {lang!r}", field=field)
    return codes


# The parsers below see lines that ``iter_lines`` has checked against their
# kind's spec, so they keep only the rules a field type cannot express.


def _parse_entity(record: dict) -> Entity:
    labels = _languages(record["labels"], "labels")
    aliases = _languages(record.get("aliases", {}), "aliases")
    for lang, alias_list in aliases.items():
        seen = {labels.get(lang)}
        for alias in alias_list:
            if alias in seen:
                raise MalformedRecord(f"alias {alias!r} for {lang!r} repeats the label "
                                      "or another alias", field="aliases")
            seen.add(alias)
    return Entity(record["id"], dict(labels), {k: tuple(v) for k, v in aliases.items()})


def _parse_relation(record: dict) -> Relation:
    templates = _languages(record["templates"], "templates")
    try:
        for template in (record["english_template"], *templates.values()):
            placeholder_positions(template)
    except MalformedRecord as exc:
        exc.context["field"] = "templates"
        raise
    declared = record.get("object_final", {})
    object_final: dict[str, bool] = {}
    for lang, tpl in templates.items():
        derived = template_is_object_final(tpl)
        object_final[lang] = declared.get(lang, derived)
        # A true declaration must be backed by the template shape.
        if object_final[lang] and not derived:
            raise MalformedRecord(f"object_final declared true for {lang!r} but [Y] is "
                                  "not sentence-final", field="object_final")
    return Relation(record["id"], record["english_template"], dict(templates), object_final,
                    record.get("inflection_expected", False))


def _parse_fact(record: dict) -> Fact:
    _languages((record["language"],), "language")
    if record["subject_id"] == record["object_id"]:
        raise MalformedRecord("subject_id equals object_id", field="object_id")
    return Fact(**{name: record.get(name) for name in Fact.__dataclass_fields__})


def load_corpus(entities_path, relations_path, facts_path) -> Corpus:
    """Load and validate a corpus from three JSONL files.

    Loading is order-independent: records are keyed and sorted by id, so
    the same corpus is produced regardless of record order on disk.
    """
    entities: dict[str, Entity] = {}
    relations: dict[str, Relation] = {}
    facts: dict[str, Fact] = {}
    seen_triples: set[tuple[str, str, str, str]] = set()

    def check_references(fact: Fact) -> None:
        for eid in (fact.subject_id, fact.object_id):
            if eid not in entities:
                raise DanglingReference(f"fact {fact.id!r} references unknown entity {eid!r}")
        if fact.relation_id not in relations:
            raise DanglingReference(
                f"fact {fact.id!r} references unknown relation {fact.relation_id!r}"
            )
        triple = (fact.subject_id, fact.relation_id, fact.object_id, fact.language)
        if triple in seen_triples:
            raise DuplicateId(f"duplicate (subject, relation, object, language) {triple}")
        seen_triples.add(triple)

    for path, kind, noun, parse, table in (
        (entities_path, "entities", "entity", _parse_entity, entities),
        (relations_path, "relations", "relation", _parse_relation, relations),
        (facts_path, "facts", "fact", _parse_fact, facts),
    ):
        for lineno, record in iter_lines(path, kind):
            try:
                item = parse(record)
                if item.id in table:
                    raise DuplicateId(f"duplicate {noun} id {item.id!r}")
                if kind == "facts":
                    check_references(item)
            except ProbeError as exc:
                exc.context.update(file=str(path), line=lineno)
                raise
            table[item.id] = item

    return Corpus(*({key: table[key] for key in sorted(table)}
                    for table in (entities, relations, facts)))


def save_corpus(corpus: Corpus, directory) -> dict[str, Path]:
    """Serialize a corpus back to the three JSONL files (sorted by id). Empty
    aliases and an unknown subject gender are left out, as on input."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, table in (("entities", corpus.entities), ("relations", corpus.relations),
                        ("facts", corpus.facts)):
        paths[kind] = directory / f"{kind}.jsonl"
        write_jsonl(paths[kind], kind, (
            {k: v for k, v in asdict(table[key]).items()
             if k not in ("aliases", "subject_gender") or v not in (None, {})}
            for key in sorted(table)
        ))
    return paths


def unique_object_pool(corpus: Corpus, relation_id: str, language: str) -> list[str]:
    """Deduplicated, id-sorted object entity ids for one relation+language.

    The facts are indexed by cell once per corpus, so a call costs the size
    of its pool, not a pass over the facts."""
    if relation_id not in corpus.relations:
        raise UnknownRelation(f"unknown relation {relation_id!r}")
    return list(corpus._object_pools.get((relation_id, language), ()))


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
