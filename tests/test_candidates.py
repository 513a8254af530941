import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe.candidates import (
    Distractor,
    assemble_candidate_set,
    distractor_key,
    keyed_pool,
    sample_distractors,
)
from factprobe.corpus import Corpus, Entity, Fact, Relation
from factprobe.errors import EmptyPool

from oracle_distractors import oracle_keys, oracle_sample


def _corpus(entity_ids, language="aa", label=None):
    label = label or (lambda eid: f"{eid}-label")
    entities = {
        eid: Entity(id=eid, labels={language: label(eid), "en": f"{eid}-en"})
        for eid in entity_ids
    }
    entities["SUBJ"] = Entity(id="SUBJ", labels={language: "subj"})
    relations = {
        "P1": Relation(
            id="P1",
            english_template="[X] r [Y] .",
            templates={language: "[X] r [Y] ."},
            object_final={language: True},
        )
    }
    facts = {}
    return Corpus(entities=entities, relations=relations, facts=facts)


def _fact(object_id, relation_id="P1", language="aa"):
    return Fact(
        id="f1", subject_id="SUBJ", relation_id=relation_id,
        object_id=object_id, language=language,
    )


def _keyed(corpus, entity_ids, salt, relation_id="P1", language="aa"):
    return keyed_pool(corpus, entity_ids, relation_id, language, salt)


def test_sample_matches_frozen_oracle_case():
    # Frozen with tests/oracle_distractors.py before the implementation:
    # oracle_sample("s1", "P1", "aa", ["e1", "e3"], 2) == ["e3", "e1"]
    corpus = _corpus(["e1", "e2", "e3"])
    picked = sample_distractors(
        _keyed(corpus, ["e1", "e2", "e3"], "s1"), ["e2-label"], _fact("e2"), k=2
    )
    assert [d.entity_id for d in picked] == ["e3", "e1"]


def test_sample_matches_oracle_dynamic():
    ids = [f"entity{i:03d}" for i in range(40)]
    corpus = _corpus(ids)
    fact = _fact("entity000")
    picked = sample_distractors(_keyed(corpus, ids, "dyn"), ["entity000-label"], fact, k=10)
    eligible = [e for e in ids if e != "entity000"]
    assert [d.entity_id for d in picked] == oracle_sample("dyn", "P1", "aa",
                                                          eligible, 10)


def test_sample_returns_all_when_pool_small():
    ids = [f"e{i}" for i in range(19)]
    corpus = _corpus(ids)
    picked = sample_distractors(_keyed(corpus, ids, "s"), ["e0-label"], _fact("e0"), k=50)
    assert len(picked) == 18


def test_sample_is_deterministic():
    ids = [f"e{i}" for i in range(30)]
    corpus = _corpus(ids)
    a = sample_distractors(_keyed(corpus, ids, "s"), ["e0-label"], _fact("e0"), 5)
    b = sample_distractors(_keyed(corpus, ids, "s"), ["e0-label"], _fact("e0"), 5)
    assert a == b


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_sample_pool_permutation_invariance(seed):
    ids = [f"e{i}" for i in range(25)]
    corpus = _corpus(ids)
    shuffled = ids[:]
    random.Random(seed).shuffle(shuffled)
    base = sample_distractors(_keyed(corpus, ids, "s"), ["e0-label"], _fact("e0"), 7)
    other = sample_distractors(_keyed(corpus, shuffled, "s"), ["e0-label"], _fact("e0"), 7)
    assert base == other


def test_salt_changes_sample_not_size():
    ids = [f"e{i}" for i in range(40)]
    corpus = _corpus(ids)
    a = sample_distractors(_keyed(corpus, ids, "salt-a"), ["e0-label"], _fact("e0"), 10)
    b = sample_distractors(_keyed(corpus, ids, "salt-b"), ["e0-label"], _fact("e0"), 10)
    assert len(a) == len(b) == 10
    assert [d.entity_id for d in a] != [d.entity_id for d in b]


def test_own_object_never_sampled():
    ids = [f"e{i}" for i in range(10)]
    corpus = _corpus(ids)
    picked = sample_distractors(_keyed(corpus, ids, "s"), ["e3-label"], _fact("e3"), 50)
    assert "e3" not in {d.entity_id for d in picked}


def test_label_collision_with_correct_form_excluded():
    ids = ["e1", "e2", "e3"]
    corpus = _corpus(ids)
    picked = sample_distractors(
        _keyed(corpus, ids, "s"), ["e1-label", "e2-label"], _fact("e1"), 50
    )
    assert {d.entity_id for d in picked} == {"e3"}


def test_entity_without_target_label_skipped():
    corpus = _corpus(["e1", "e2"])
    corpus.entities["e9"] = Entity(id="e9", labels={"en": "only-english"})
    picked = sample_distractors(
        _keyed(corpus, ["e1", "e2", "e9"], "s"), ["e1-label"], _fact("e1"), 50
    )
    assert {d.entity_id for d in picked} == {"e2"}


def test_empty_pool_raises():
    corpus = _corpus(["e1"])
    with pytest.raises(EmptyPool):
        sample_distractors(_keyed(corpus, ["e1"], "s"), ["e1-label"], _fact("e1"), 5)


def test_keyed_pool_is_the_labelled_cell_in_key_order():
    ids = [f"e{i}" for i in range(12)]
    corpus = _corpus(ids)
    corpus.entities["e5"] = Entity(id="e5", labels={"en": "only-english"})
    pool = keyed_pool(corpus, ids, "P1", "aa", "s")
    assert pool == [
        Distractor(entity_id, f"{entity_id}-label")
        for _, entity_id in oracle_keys("s", "P1", "aa", ids) if entity_id != "e5"
    ]


def test_distractor_key_shape():
    key = distractor_key("s", "P1", "aa", "e1")
    assert len(key) == 64
    assert key == key.lower()


def test_assemble_cardinality():
    distractors = [Distractor(f"d{i}", f"form{i}") for i in range(50)]
    candidate_set = assemble_candidate_set("f1", "prompt ", ["c1", "c2"], distractors)
    assert len(candidate_set.forms) == 52
    assert candidate_set.forms[:2] == ["c1", "c2"]


def test_assemble_keeps_duplicate_distractor_labels():
    # Two distinct entities sharing a surface form both stay.
    candidate_set = assemble_candidate_set(
        "f1", "prompt ", ["correct"],
        [Distractor("d1", "twin"), Distractor("d2", "twin")],
    )
    assert [d.entity_id for d in candidate_set.distractors] == ["d1", "d2"]


@given(
    flags=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=80),
    object_index=st.one_of(st.none(), st.integers(min_value=0, max_value=79)),
    k=st.integers(min_value=1, max_value=100),
    salt=st.text(max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_sample_matches_oracle_over_eligible_ids(flags, object_index, k, salt):
    # flags[i] = (label missing in "aa", label collides with a correct form).
    ids = [f"e{i}" for i in range(len(flags))]
    in_pool = object_index is not None and object_index < len(ids)
    object_id = ids[object_index] if in_pool else "OBJ"
    correct = ["OBJ-label", "shared-form"]
    corpus = _corpus(ids + ["OBJ"])
    for entity_id, (missing, collides) in zip(ids, flags):
        if missing:
            corpus.entities[entity_id] = Entity(id=entity_id, labels={"en": "x"})
        elif collides:
            corpus.entities[entity_id] = Entity(id=entity_id, labels={"aa": "shared-form"})
    eligible = [
        entity_id for entity_id, (missing, collides) in zip(ids, flags)
        if entity_id != object_id and not missing and not collides
    ]
    fact = _fact(object_id)
    if not eligible:
        with pytest.raises(EmptyPool):
            sample_distractors(_keyed(corpus, ids, salt), correct, fact, k)
        return
    picked = sample_distractors(_keyed(corpus, ids, salt), correct, fact, k)
    assert [d.entity_id for d in picked] == oracle_sample(salt, "P1", "aa", eligible, k)
    assert all(d.form == f"{d.entity_id}-label" for d in picked)


# Micro-benchmarks of one build cell: 600 pool entities, one fact per
# object, k = 50. Run alone with ``pytest tests --benchmark-only``.
_CELL_IDS = [f"Q{i:04d}" for i in range(600)]


def test_benchmark_keyed_pool(benchmark):
    keyed = benchmark.pedantic(
        keyed_pool, args=(_corpus(_CELL_IDS), _CELL_IDS, "P1", "aa", "bench"),
        rounds=5, iterations=1,
    )
    assert len(keyed) == 600


def test_benchmark_sample_each_fact_of_a_cell(benchmark):
    corpus = _corpus(_CELL_IDS)
    keyed = keyed_pool(corpus, _CELL_IDS, "P1", "aa", "bench")
    facts = [_fact(entity_id) for entity_id in _CELL_IDS]

    def sample_cell():
        return [
            sample_distractors(keyed, [f"{fact.object_id}-label"], fact, 50)
            for fact in facts
        ]

    samples = benchmark.pedantic(sample_cell, rounds=5, iterations=1)
    assert all(len(sample) == 50 for sample in samples)
