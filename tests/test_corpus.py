import json

import pytest

from factprobe.clients import TextRequest, load_fixtures, record_line
from factprobe.config import load_config

from factprobe.corpus import (
    EXCLUDE_EXPLICIT,
    Corpus,
    Entity,
    Fact,
    Relation,
    EXCLUDE_NOT_OBJECT_FINAL,
    EXCLUDE_TOO_FEW_OBJECTS,
    filter_relations,
    load_corpus,
    save_corpus,
    template_is_object_final,
    unique_object_pool,
)
from factprobe.errors import (
    DanglingReference,
    DuplicateId,
    MalformedRecord,
    UnknownRelation,
)

from factprobe.pipeline import cmd_build_dataset, cmd_evaluate

from conftest import make_toy_workspace, write_corpus_files


def _minimal_records():
    entities = [
        {"id": "E1", "labels": {"en": "Alpha", "cs": "Alfa"}},
        {"id": "E2", "labels": {"en": "Beta", "cs": "Beta"}},
    ]
    relations = [
        {
            "id": "P1",
            "english_template": "[X] points at [Y] .",
            "templates": {"cs": "[X] ukazuje na [Y] ."},
        }
    ]
    facts = [
        {
            "id": "f1",
            "subject_id": "E1",
            "relation_id": "P1",
            "object_id": "E2",
            "language": "cs",
        }
    ]
    return entities, relations, facts


def _load(tmp_path, entities, relations, facts):
    write_corpus_files(tmp_path, entities, relations, facts)
    return load_corpus(
        tmp_path / "entities.jsonl",
        tmp_path / "relations.jsonl",
        tmp_path / "facts.jsonl",
    )


def test_minimal_corpus_counts(tmp_path):
    corpus = _load(tmp_path, *_minimal_records())
    assert corpus.counts() == (2, 1, 1)


def test_dangling_entity_reference(tmp_path):
    entities, relations, facts = _minimal_records()
    facts[0]["object_id"] = "E404"
    with pytest.raises(DanglingReference):
        _load(tmp_path, entities, relations, facts)


def test_dangling_relation_reference(tmp_path):
    entities, relations, facts = _minimal_records()
    facts[0]["relation_id"] = "P404"
    with pytest.raises(DanglingReference):
        _load(tmp_path, entities, relations, facts)


def test_duplicate_entity_id(tmp_path):
    entities, relations, facts = _minimal_records()
    entities.append(entities[0])
    with pytest.raises(DuplicateId):
        _load(tmp_path, entities, relations, facts)


def test_duplicate_fact_triple(tmp_path):
    entities, relations, facts = _minimal_records()
    facts.append(dict(facts[0], id="f2"))
    with pytest.raises(DuplicateId):
        _load(tmp_path, entities, relations, facts)


def test_subject_equals_object_rejected(tmp_path):
    entities, relations, facts = _minimal_records()
    facts[0]["object_id"] = facts[0]["subject_id"]
    with pytest.raises(MalformedRecord):
        _load(tmp_path, entities, relations, facts)


def _corpus_case(tmp_path):
    write_corpus_files(tmp_path, *_minimal_records())
    path = tmp_path / "facts.jsonl"
    return path, lambda: load_corpus(
        tmp_path / "entities.jsonl", tmp_path / "relations.jsonl", path
    )


def _bundle_case(tmp_path):
    config = load_config(make_toy_workspace(tmp_path / "ws", facts_per_cell=2))
    bundle = cmd_build_dataset(config, replay=True)
    return bundle / "candidate_sets.jsonl", lambda: cmd_evaluate(config, bundle)


def _fixture_case(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    path.write_text(record_line(TextRequest("mt", "hello", "en", "cs"), "ahoj"), encoding="utf-8")
    return path, lambda: load_fixtures([path])


@pytest.mark.parametrize(
    "make_case", [_corpus_case, _bundle_case, _fixture_case],
    ids=["corpus", "bundle", "fixture"],
)
def test_malformed_json_reports_line(tmp_path, make_case):
    path, load = make_case(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    lines = len(path.read_text(encoding="utf-8").splitlines())
    with pytest.raises(MalformedRecord) as err:
        load()
    assert err.value.context == {"file": str(path), "line": lines}


def test_missing_schema_header(tmp_path):
    entities, relations, facts = _minimal_records()
    write_corpus_files(tmp_path, entities, relations, facts)
    path = tmp_path / "entities.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        load_corpus(path, tmp_path / "relations.jsonl", tmp_path / "facts.jsonl")


def test_alias_duplicate_rejected(tmp_path):
    entities, relations, facts = _minimal_records()
    entities[1]["aliases"] = {"cs": ["B", "B"]}
    with pytest.raises(MalformedRecord):
        _load(tmp_path, entities, relations, facts)


def test_label_as_own_alias_rejected(tmp_path):
    entities, relations, facts = _minimal_records()
    entities[1]["aliases"] = {"cs": ["Beta"]}
    with pytest.raises(MalformedRecord):
        _load(tmp_path, entities, relations, facts)


def test_template_placeholder_count_enforced(tmp_path):
    entities, relations, facts = _minimal_records()
    relations[0]["templates"]["cs"] = "[X] ukazuje na [X] ."
    with pytest.raises(MalformedRecord):
        _load(tmp_path, entities, relations, facts)


def test_declared_object_final_must_match_template(tmp_path):
    entities, relations, facts = _minimal_records()
    relations[0]["templates"]["cs"] = "[X] je [Y] povoláním ."
    relations[0]["object_final"] = {"cs": True}
    with pytest.raises(MalformedRecord):
        _load(tmp_path, entities, relations, facts)


def test_cs_fixture_corpus_loads(cs_corpus):
    # Mirrors the five exemplar birth facts plus the extras for filtering.
    assert cs_corpus.relations["P19"].english_template == "[X] was born in [Y] ."
    p19_cs = [
        f for f in cs_corpus.facts.values()
        if f.relation_id == "P19" and f.language == "cs"
    ]
    assert len(p19_cs) == 6


def test_roundtrip_save_load(cs_corpus, tmp_path):
    paths = save_corpus(cs_corpus, tmp_path)
    reloaded = load_corpus(paths["entities"], paths["relations"], paths["facts"])
    assert reloaded == cs_corpus


def test_load_is_order_independent(cs_corpus, tmp_path):
    paths = save_corpus(cs_corpus, tmp_path)
    for path in paths.values():
        lines = path.read_text(encoding="utf-8").splitlines()
        body = list(reversed(lines[1:]))
        path.write_text("\n".join([lines[0]] + body) + "\n", encoding="utf-8")
    reloaded = load_corpus(paths["entities"], paths["relations"], paths["facts"])
    assert reloaded == cs_corpus


def test_object_final_derivation():
    assert template_is_object_final("[X] was born in [Y] .")
    assert template_is_object_final("[X] se narodil v [Y].")
    assert not template_is_object_final("[X] je [Y] povoláním .")
    assert not template_is_object_final("[Y] of [X] .")


def test_unique_object_pool_dedup(tmp_path):
    entities = [
        {"id": e, "labels": {"cs": e.lower()}} for e in ("S1", "S2", "S3", "A", "B")
    ]
    relations = [
        {
            "id": "P1",
            "english_template": "[X] r [Y] .",
            "templates": {"cs": "[X] r [Y] ."},
        }
    ]
    facts = [
        {"id": "f1", "subject_id": "S1", "relation_id": "P1", "object_id": "A",
         "language": "cs"},
        {"id": "f2", "subject_id": "S2", "relation_id": "P1", "object_id": "B",
         "language": "cs"},
        {"id": "f3", "subject_id": "S3", "relation_id": "P1", "object_id": "A",
         "language": "cs"},
    ]
    corpus = _load(tmp_path, entities, relations, facts)
    assert unique_object_pool(corpus, "P1", "cs") == ["A", "B"]
    assert unique_object_pool(corpus, "P1", "ru") == []
    with pytest.raises(UnknownRelation):
        unique_object_pool(corpus, "P404", "cs")


def test_unique_object_pool_p36_hand_count(cs_corpus):
    # Hand enumeration over tests/data/corpus_cs/facts.jsonl: P36 facts in
    # cs point at Prague (Q1085), Vienna (Q1741) and Vienna again.
    assert unique_object_pool(cs_corpus, "P36", "cs") == ["Q1085", "Q1741"]


class _CountingFacts(dict):
    """A facts table that counts the passes made over it."""

    passes = 0

    def values(self):
        self.passes += 1
        return super().values()

    def items(self):
        self.passes += 1
        return super().items()

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_object_pools_take_one_pass_over_the_facts():
    # 4 relations x 3 languages x 5 objects: filtering and pooling every cell,
    # as a build does, reads the facts once, not once per cell and call.
    languages = ("aa", "bb", "cc")
    relations, facts = {}, _CountingFacts()
    for r in range(4):
        relations[f"P{r}"] = Relation(
            id=f"P{r}", english_template="[X] r [Y] .",
            templates={lang: "[X] r [Y] ." for lang in languages},
            object_final={lang: True for lang in languages},
        )
        for lang in languages:
            for o in range(6):
                fact_id = f"f{r}{lang}{o}"
                facts[fact_id] = Fact(fact_id, f"S{o}", f"P{r}", f"O{o % 5}", lang)
    entities = {eid: Entity(eid, {lang: eid for lang in languages})
                for eid in [f"S{o}" for o in range(6)] + [f"O{o}" for o in range(5)]}
    corpus = Corpus(entities, relations, facts)
    report = filter_relations(corpus, languages, min_unique_objects=5)
    assert report.retained == ("P0", "P1", "P2", "P3")
    for rid in report.retained:
        for lang in languages:
            assert unique_object_pool(corpus, rid, lang) == [f"O{o}" for o in range(5)]
    assert unique_object_pool(corpus, "P0", "dd") == []
    assert facts.passes == 1


def test_filter_too_few_objects(tmp_path):
    entities = [{"id": f"E{i}", "labels": {"cs": f"e{i}"}} for i in range(10)]
    relations = [
        {
            "id": "P413",
            "english_template": "[X] plays [Y] .",
            "templates": {"cs": "[X] hraje [Y] ."},
        }
    ]
    facts = [
        {"id": f"f{i}", "subject_id": "E0", "relation_id": "P413",
         "object_id": f"E{i}", "language": "cs"}
        for i in range(1, 9)
    ]
    corpus = _load(tmp_path, entities, relations, facts)
    report = filter_relations(corpus, ["cs"], min_unique_objects=10)
    assert report.excluded == (("P413", EXCLUDE_TOO_FEW_OBJECTS),)
    assert report.retained == ()


def test_filter_not_object_final(cs_corpus):
    report = filter_relations(cs_corpus, ["cs"], min_unique_objects=2)
    excluded = dict(report.excluded)
    assert excluded["P106"] == EXCLUDE_NOT_OBJECT_FINAL
    assert "P36" in report.retained


def test_filter_retains_object_final_with_enough_objects(tmp_path):
    entities = [{"id": f"E{i}", "labels": {"cs": f"e{i}"}} for i in range(60)]
    relations = [
        {
            "id": "P1",
            "english_template": "[X] r [Y] .",
            "templates": {"cs": "[X] r [Y] ."},
        }
    ]
    facts = [
        {"id": f"f{i}", "subject_id": "E0", "relation_id": "P1",
         "object_id": f"E{i}", "language": "cs"}
        for i in range(1, 51)
    ]
    corpus = _load(tmp_path, entities, relations, facts)
    report = filter_relations(corpus, ["cs"], min_unique_objects=10)
    assert report.retained == ("P1",)
    assert report.excluded == ()


def test_filter_explicit_exclude(cs_corpus):
    report = filter_relations(cs_corpus, ["cs"], min_unique_objects=2,
                              exclude_ids=["P36"])
    assert dict(report.excluded)["P36"] == EXCLUDE_EXPLICIT


def test_filter_missing_template_counts_as_not_object_final(cs_corpus):
    # P36 has no ru template, so configuring ru must exclude it.
    report = filter_relations(cs_corpus, ["cs", "ru"], min_unique_objects=2)
    assert dict(report.excluded)["P36"] == EXCLUDE_NOT_OBJECT_FINAL


def test_filter_partitions_and_is_idempotent(cs_corpus):
    report = filter_relations(cs_corpus, ["cs"], min_unique_objects=2)
    ids = set(report.retained) | {rid for rid, _ in report.excluded}
    assert ids == set(cs_corpus.relations)
    assert not (set(report.retained) & {rid for rid, _ in report.excluded})
    again = filter_relations(cs_corpus, ["cs"], min_unique_objects=2)
    assert again == report


def test_pool_is_subset_of_entities(cs_corpus):
    for rid in cs_corpus.relations:
        for lang in ("cs", "ru"):
            pool = unique_object_pool(cs_corpus, rid, lang)
            assert pool == sorted(set(pool))
            assert set(pool) <= set(cs_corpus.entities)
