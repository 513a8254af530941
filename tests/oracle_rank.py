"""Reference score and rank path: the per-element loops, kept as a test oracle.

Each function is the plain form of its package counterpart: the forms are
built for each use, the oracle and table backends answer one continuation
at a time, and finiteness is checked score by score. Tests that compare the
package's ``score_candidates``, ``rank_candidates`` and ``rank_of_form``
against these functions check that the one-pass path ranks alike.
"""

import math

from factprobe.errors import BackendError, FormNotPresent, NonFiniteScore
from factprobe.score import join_continuation


def reference_forms(candidate_set):
    return [*candidate_set.correct_forms, *(form for _, form in candidate_set.distractors)]


def reference_continuations(candidate_set, no_space=False):
    joiner = join_continuation(candidate_set.prompt, "", no_space)
    return [joiner + form for form in reference_forms(candidate_set)]


def reference_oracle_batch(correct_by_prompt, mode, prompt, continuations):
    """The answer of ``OracleScorer(correct_by_prompt, mode)``."""
    correct = correct_by_prompt.get(prompt, frozenset())
    results = []
    for continuation in continuations:
        form = continuation[1:] if continuation.startswith(" ") else continuation
        is_correct = form in correct
        if mode == "perfect":
            score = 0.0 if is_correct else -1.0
        else:
            score = -1.0 if is_correct else 0.0
        results.append((score, max(1, len(continuation.split()))))
    return results


def reference_table_batch(table, prompt, continuations):
    """The answer of ``TableScorer(table)``."""
    results = []
    for continuation in continuations:
        entry = table.get((prompt, continuation))
        if entry is None:
            raise BackendError(f"no fixture score for continuation {continuation!r}")
        results.append(entry)
    return results


def reference_score(batch, candidate_set, normalization="SUM", no_space=False):
    """``(forms, entity ids, scores)`` of a set, ``batch(prompt,
    continuations)`` answering for the backend."""
    forms = reference_forms(candidate_set)
    entity_ids = [""] * len(candidate_set.correct_forms)
    entity_ids += [entity_id for entity_id, _ in candidate_set.distractors]
    results = batch(candidate_set.prompt, reference_continuations(candidate_set, no_space))
    scores = [float(logprob) for logprob, _ in results]
    counts = [int(count) for _, count in results]
    if normalization == "MEAN":
        for form, count in zip(forms, counts):
            if count < 1:
                raise BackendError(f"token count {count} < 1 for form {form!r}")
        scores = [score / count for score, count in zip(scores, counts)]
    return forms, entity_ids, scores


def reference_rank(forms, entity_ids, scores, correct_forms):
    """``(keys, best rank, best form)``. The keys,
    ``(-score, form, not correct, entity id)``, are sorted, and the best rank
    is the place of the first correct one: ties break by form in code-point
    order, which is UTF-8 byte order."""
    correct = set(correct_forms)
    keys = [(-score, form, form not in correct, entity_id)
            for form, score, entity_id in zip(forms, scores, entity_ids)]
    if not keys:
        raise ValueError("nothing to rank")
    for neg_score, form, _, _ in keys:
        if not math.isfinite(neg_score):
            raise NonFiniteScore(f"score for form {form!r} is not finite")
    keys.sort()
    best = next((rank for rank, key in enumerate(keys, 1) if not key[2]), 0)
    if not best:
        raise ValueError("no correct form present among candidates")
    return keys, best, keys[best - 1][1]


def reference_rank_of_form(keys, form):
    for rank, key in enumerate(keys, 1):
        if key[1] == form:
            return rank
    raise FormNotPresent(f"form {form!r} not present in ranked result")
