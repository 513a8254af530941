"""Locate the (possibly inflected) object form in a sentence, and cut a
verbalization at it into a prompt prefix and the object surface form.

Each verbalizer reports where it put the object (``Verbalization.match``):
TEMPLATE from the [Y] placeholder, MT and LLM by one ``match_object_form``
over the ``object_labels``. Matching is tool-free: an exact whole-word pass
first, then a stem pass that aligns label words to consecutive sentence
words under a common-prefix rule. The split only rejects or cuts.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Mapping

from .corpus import Corpus, Entity, Fact, is_punctuation_or_space
from .errors import MissingLabel, NoAcceptedSplits

# Hyphens are not word characters, so hyphenated names split like whitespace.
_WORD_RE = re.compile(r"\w+", re.UNICODE)

# The stem rule, calibrated so that pairs like Praha→Praze,
# Lucembursko→Lucembursku and Londýn→Londýně match: a sentence word must
# begin with the first max(3, ceil(0.6 * n)) characters of an n-character
# label word (all n if fewer), and neither word may run on for more than 4
# characters past their common prefix.
MIN_PREFIX_RATIO = 0.6
MIN_PREFIX_CHARS = 3
MAX_SUFFIX_DELTA = 4


class MatchVia(str, enum.Enum):
    EXACT = "EXACT"
    STEM = "STEM"


REJECT_OBJECT_NOT_FOUND = "OBJECT_NOT_FOUND"
REJECT_NOT_SENTENCE_FINAL = "NOT_SENTENCE_FINAL"


@dataclass(frozen=True)
class ObjectMatch:
    span: tuple[int, int]
    form: str
    matched_via: MatchVia
    confidence: float  # min per-word prefix ratio; 1.0 for EXACT
    label: int = 0  # the index of the matched label in the labels searched


@dataclass(frozen=True)
class SplitResult:
    prompt_prefix: str
    object_form: str
    span: tuple[int, int]
    matched_via: MatchVia
    confidence: float = 1.0


@dataclass(frozen=True)
class Rejection:
    reason: str
    detail: str = ""


def _tokenize(text: str) -> list[tuple[int, int, str]]:
    return [(m.start(), m.end(), m.group()) for m in _WORD_RE.finditer(text)]


def _stem_ratio(label_word: str, word: str) -> float | None:
    """The share of ``label_word`` that ``word`` begins with, if the pair
    passes the stem rule, else None."""
    n = len(label_word)
    prefix = min(n, max(MIN_PREFIX_CHARS, math.ceil(MIN_PREFIX_RATIO * n)))
    if not word.startswith(label_word[:prefix]):
        return None
    end = min(n, len(word))
    while prefix < end and label_word[prefix] == word[prefix]:
        prefix += 1
    if max(n, len(word)) - prefix > MAX_SUFFIX_DELTA:
        return None
    return prefix / n


def _rightmost_stem(tokens, words, label_words):
    """``(span, confidence, label index)`` of the rightmost window of words
    that some label fits word by word under the stem rule, or None; among
    equal spans the earlier label wins. The confidence is the lowest ratio
    of the window's word pairs. Each label's windows are tried from the
    right, and only while their span beats the best one found so far, so a
    label stops at its first fitting window.
    """
    best = None
    for index, label in enumerate(label_words):
        n = len(label)
        if not n:
            continue
        for start in range(len(tokens) - n, -1, -1):
            span = (tokens[start][0], tokens[start + n - 1][1])
            if best is not None and span <= best[0]:
                break
            confidence = 1.0  # no ratio exceeds 1
            for label_word, word in zip(label, words[start : start + n]):
                ratio = _stem_ratio(label_word, word)
                if ratio is None:
                    break
                if ratio < confidence:
                    confidence = ratio
            else:
                best = (span, confidence, index)
                break
    return best


def _rightmost_exact(tokens, words, label_words):
    """``(span, 1.0, label index)`` of the rightmost whole-word occurrence of
    some label, or None, by the rule of ``_rightmost_stem``. The words, each
    bounded by NUL, which no word contains, are searched as one string, and
    the NULs before an occurrence count the tokens before it."""
    joined = "\0" + "\0".join(words) + "\0"
    best = None
    for index, label in enumerate(label_words):
        if not label:
            continue
        at = joined.rfind("\0" + "\0".join(label) + "\0")
        if at < 0:
            continue
        start = joined.count("\0", 0, at)
        span = (tokens[start][0], tokens[start + len(label) - 1][1])
        if best is None or span > best[0]:
            best = (span, 1.0, index)
    return best


def match_object_form(sentence: str, labels: list[str]) -> ObjectMatch | None:
    """Find the rightmost occurrence of any candidate label in the sentence.

    An EXACT whole-word match of any label wins over any STEM match. Within
    a pass the rightmost span wins, and the earlier label wins a tie. Returns
    None when nothing matches (absence is a value, not an error).
    """
    if not labels:
        raise ValueError("labels must be non-empty")
    tokens = _tokenize(sentence)
    words = [token[2] for token in tokens]
    label_words = [_WORD_RE.findall(label) for label in labels]

    def found(best, via: MatchVia) -> ObjectMatch | None:
        if best is None:
            return None
        span, confidence, index = best
        return ObjectMatch(span, sentence[span[0] : span[1]], via, confidence, index)

    # Pass 1: exact whole-word matches.
    match = found(_rightmost_exact(tokens, words, label_words), MatchVia.EXACT)
    if match is not None:
        return match

    # Pass 2: stem matches.
    return found(_rightmost_stem(tokens, words, label_words), MatchVia.STEM)


def _finalize_split(sentence: str, match: ObjectMatch) -> SplitResult | Rejection:
    start, end = match.span
    prompt = sentence[:start]
    tail = sentence[end:]
    if not is_punctuation_or_space(tail):
        return Rejection(REJECT_NOT_SENTENCE_FINAL, detail=f"tail={tail!r}")
    if not prompt.strip():
        # A sentence-initial object leaves nothing to prompt with.
        return Rejection(REJECT_NOT_SENTENCE_FINAL, detail="empty prompt prefix")
    return SplitResult(
        prompt_prefix=prompt,
        object_form=match.form,
        span=match.span,
        matched_via=match.matched_via,
        confidence=match.confidence,
    )


def object_labels(entity: Entity, language: str) -> list[str]:
    """The labels an MT or LLM verbalization in ``language`` is searched for:
    the default label of ``entity`` there, its aliases there, then its
    English label unless one of those already is that label."""
    labels: list[str] = []
    default = entity.label(language)
    if default:
        labels.append(default)
    labels.extend(entity.alias_list(language))
    en = entity.label("en")
    if en and en not in labels:
        labels.append(en)
    if not labels:
        raise MissingLabel(f"entity {entity.id!r} has no usable labels for {language!r}")
    return labels


def split_verbalization(verbalization) -> SplitResult | Rejection:
    """Cut one verbalization at the object its verbalizer found into prompt
    prefix and object form. The cut is accepted only if the text after the
    object is punctuation/whitespace."""
    if verbalization.match is None:
        return Rejection(REJECT_OBJECT_NOT_FOUND)
    return _finalize_split(verbalization.sentence, verbalization.match)


def collect_correct_forms(
    corpus: Corpus,
    fact: Fact,
    splits_by_source: Mapping,
    include_aliases: bool = False,
    include_english: bool = False,
) -> list[str]:
    """Deduplicated ordered pool of correct object surface forms.

    Order: default target label, then the matched form of each accepted
    split in source order (TEMPLATE, MT, LLM), then aliases sorted, then
    the English label; byte-equal duplicates keep the first occurrence.
    """
    from .verbalize import VerbalizationSource

    entity = corpus.entities[fact.object_id]
    accepted = {
        source: result
        for source, result in splits_by_source.items()
        if isinstance(result, SplitResult)
    }
    if not accepted:
        raise NoAcceptedSplits(f"no accepted splits for fact {fact.id!r}")
    default = entity.label(fact.language)
    if default is None:
        raise MissingLabel(
            f"entity {entity.id!r} has no default label for {fact.language!r}"
        )
    ordered = [default]
    for source in VerbalizationSource:
        result = accepted.get(source)
        if result is not None:
            ordered.append(result.object_form)
    if include_aliases:
        # Aliases join uninflected; UTF-8 byte order equals code-point order.
        ordered.extend(sorted(entity.alias_list(fact.language)))
    if include_english:
        en = entity.label("en")
        if en is not None:
            ordered.append(en)
    seen: set[str] = set()
    pool = []
    for form in ordered:
        if form not in seen:
            seen.add(form)
            pool.append(form)
    return pool
