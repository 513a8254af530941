"""Per-fact candidate sets: correct forms plus typed, hash-sampled distractors.

Distractor sampling is a pure function of (pool, fact, correct forms, k,
salt): every eligible entity id is keyed by a SHA-256 digest and the k
smallest keys win. Reruns, machine changes and pool permutations cannot
change the sample; changing the salt almost surely does.

A key and an entity's label in the cell's language do not depend on the
fact, so each (relation, language) pool is keyed, sorted and labelled once
(``keyed_pool``): it is the cell's ``Distractor``s in key order. Each fact
then takes the first k of them that are neither its own object nor one of
its correct forms (``sample_distractors``), with no lookup and no new tuple.
So no distractor of a fact shares a form with a correct one, and its
candidate set is those forms and that sample (``assemble_candidate_set``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .corpus import Corpus, Fact
from .errors import EmptyPool

# Delimiter of the canonical hash string; ids and salts must simply not be
# interpreted, so any fixed delimiter works as long as it never changes.
HASH_DELIMITER = "‖"  # DOUBLE VERTICAL LINE


class Distractor(NamedTuple):
    entity_id: str
    form: str


@dataclass(frozen=True)
class CandidateSet:
    fact_id: str
    prompt: str
    correct_forms: tuple[str, ...]
    distractors: Sequence[Sequence[str]]  # (entity id, form) pairs: Distractors or lists

    @cached_property
    def forms(self) -> list[str]:
        """The surface forms, correct forms first, then the distractors'.
        Built on first read and shared by every later reader: the
        continuations, the scores and the ranking of the set."""
        return list(self.correct_forms) + [form for _, form in self.distractors]


def distractor_key(salt: str, relation_id: str, language: str, entity_id: str) -> str:
    """Lowercase hex SHA-256 over the delimiter-joined canonical string."""
    canonical = HASH_DELIMITER.join((salt, relation_id, language, entity_id))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def keyed_pool(
    corpus: Corpus, object_pool, relation_id: str, language: str, salt: str
) -> list[Distractor]:
    """The cell's distractors in key order: a ``Distractor`` of its label
    for every pool entity with a default label in ``language``.

    Every pool entity is keyed once. Keys are digests of distinct ids, so
    sorting by key alone is the order of the k-smallest-keys rule.
    """
    entities = corpus.entities
    pool = []
    for _, entity_id in sorted(
        (distractor_key(salt, relation_id, language, entity_id), entity_id)
        for entity_id in object_pool
    ):
        label = entities[entity_id].label(language)
        if label is not None:
            pool.append(Distractor(entity_id, label))
    return pool


def sample_distractors(
    pool: Sequence[Distractor],
    correct_forms,
    fact: Fact,
    k: int,
) -> list[Distractor]:
    """Pick up to k distractors for ``fact`` from its cell's ``keyed_pool``.

    Eligible are all pool entries except the fact's own object and those
    whose label byte-equals a correct form. The first k eligible entries in
    key order are returned; when fewer than k are eligible, all of them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    correct = set(correct_forms)
    object_id = fact.object_id
    picked: list[Distractor] = []
    for distractor in pool:
        if distractor.form in correct or distractor.entity_id == object_id:
            continue
        picked.append(distractor)
        if len(picked) == k:
            break
    if not picked:
        raise EmptyPool(
            f"no eligible distractors for fact {fact.id!r}",
            relation_id=fact.relation_id,
            language=fact.language,
        )
    return picked


def assemble_candidate_set(
    fact_id: str,
    prompt: str,
    correct_forms,
    distractors: Sequence[Distractor],
) -> CandidateSet:
    """The candidate set of a fact: its correct forms and the distractors
    ``sample_distractors`` drew for them, which share no form with them."""
    return CandidateSet(fact_id, prompt, tuple(correct_forms), distractors)
