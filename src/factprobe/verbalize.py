"""Build the three verbalization variants of a fact.

TEMPLATE fills the target-language template with target labels verbatim
(warts and all: a mistranslated template stays mistranslated). MT fills
the English template with English labels and translates the whole
sentence. LLM does the same through a few-shot translation prompt that
pins the subject/object translations to the target-language labels.
Each verbalization carries where its object is (``Verbalization.match``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from .clients import TextRequest, TextService
from .corpus import (
    PLACEHOLDER_OBJECT,
    PLACEHOLDER_SUBJECT,
    Corpus,
    Fact,
    Relation,
    placeholder_positions,
)
from .errors import (
    EmptyTranslation,
    MalformedRecord,
    MissingLabel,
    MissingPlaceholder,
    MissingTemplate,
    NoExemplars,
)
from .split import MatchVia, ObjectMatch, match_object_form, object_labels

WARN_CONSTRAINT_VIOLATION = "CONSTRAINT_VIOLATION"

LANGUAGE_NAMES = {
    "ru": "Russian",
    "uk": "Ukrainian",
    "cs": "Czech",
    "hr": "Croatian",
    "es": "Spanish",
    "zh": "Chinese",
    "vi": "Vietnamese",
    "id": "Indonesian",
    "da": "Danish",
    "en": "English",
}


class VerbalizationSource(str, enum.Enum):
    TEMPLATE = "TEMPLATE"
    MT = "MT"
    LLM = "LLM"


@dataclass(frozen=True)
class Verbalization:
    fact_id: str
    source: VerbalizationSource
    sentence: str
    provenance: dict[str, str]
    # Where the verbalizer put the object in ``sentence``; None when it was
    # not found. The split cuts there.
    match: ObjectMatch | None
    warning: str | None = None


@dataclass(frozen=True)
class FewShotExemplar:
    source_sentence: str
    subject_translation: str
    object_translation: str
    translation: str


def fill_template(template: str, subject_label: str, object_label: str) -> str:
    """Replace [X] and [Y] verbatim, preserving every other byte.

    Substitution is positional, so labels containing placeholder-looking
    text never cascade.
    """
    return _fill(template, subject_label, object_label)[0]


def _fill(template: str, subject_label: str, object_label: str) -> tuple[str, tuple[int, int]]:
    """``fill_template``'s sentence and the span of ``object_label`` in it."""
    try:
        ix, iy = placeholder_positions(template)
    except MalformedRecord as exc:
        raise MissingPlaceholder(str(exc)) from exc
    pieces = sorted(
        [(ix, PLACEHOLDER_SUBJECT, subject_label), (iy, PLACEHOLDER_OBJECT, object_label)]
    )
    out = []
    cursor = 0
    for pos, placeholder, value in pieces:
        out.append(template[cursor:pos])
        out.append(value)
        cursor = pos + len(placeholder)
    out.append(template[cursor:])
    start = iy + (len(subject_label) - len(PLACEHOLDER_SUBJECT) if ix < iy else 0)
    return "".join(out), (start, start + len(object_label))


def _labels_for(corpus: Corpus, fact: Fact, language: str) -> tuple[str, str]:
    subject = corpus.entities[fact.subject_id].label(language)
    obj = corpus.entities[fact.object_id].label(language)
    if subject is None or obj is None:
        missing = fact.subject_id if subject is None else fact.object_id
        raise MissingLabel(
            f"entity {missing!r} has no label for {language!r}", fact_id=fact.id
        )
    return subject, obj


def make_template_verbalization(fact: Fact, corpus: Corpus) -> Verbalization:
    relation = corpus.relations[fact.relation_id]
    template = relation.templates.get(fact.language)
    if template is None:
        raise MissingTemplate(
            f"relation {relation.id!r} has no template for {fact.language!r}",
            fact_id=fact.id,
        )
    subject, obj = _labels_for(corpus, fact, fact.language)
    sentence, span = _fill(template, subject, obj)
    return Verbalization(
        fact_id=fact.id,
        source=VerbalizationSource.TEMPLATE,
        sentence=sentence,
        provenance={
            "template": template,
            "subject_label": subject,
            "object_label": obj,
            "target_language": fact.language,
        },
        match=ObjectMatch(span, obj, MatchVia.EXACT, 1.0),
    )


def english_sentence(fact: Fact, corpus: Corpus) -> str:
    relation = corpus.relations[fact.relation_id]
    subject, obj = _labels_for(corpus, fact, "en")
    return fill_template(relation.english_template, subject, obj)


def make_mt_verbalization(fact: Fact, corpus: Corpus, service: TextService,
                          english: str | None = None) -> Verbalization:
    """Whole-sentence machine translation of the filled English template,
    searched once for the ``object_labels`` of the fact's object. ``english``
    is the fact's ``english_sentence``, built here when not given."""
    source = english_sentence(fact, corpus) if english is None else english
    request = TextRequest(
        client_id=service.client.client_id,
        text=source,
        source_language="en",
        target_language=fact.language,
    )
    response = service.fetch(request)
    sentence = response.strip()
    if not sentence:
        raise EmptyTranslation(
            "translation client returned empty text", fact_id=fact.id
        )
    return Verbalization(
        fact_id=fact.id,
        source=VerbalizationSource.MT,
        sentence=sentence,
        provenance={
            "source_sentence": source,
            "translator_id": request.client_id,
            "cache_key": request.digest(),
            "request": request.canonical(),
            "target_language": fact.language,
        },
        match=match_object_form(
            sentence, object_labels(corpus.entities[fact.object_id], fact.language)),
    )


def parse_exemplar_file(path) -> list[FewShotExemplar]:
    """Read exemplars from the four-labeled-line block format.

    Blocks are separated by blank lines; each block carries the lines
    ``Source sentence:``, ``Subject translation:``, ``Object translation:``
    and ``Translation:`` in that order.
    """
    text = Path(path).read_text(encoding="utf-8")
    exemplars = []
    prefixes = (
        "Source sentence:",
        "Subject translation:",
        "Object translation:",
        "Translation:",
    )
    for block_no, block in enumerate(text.split("\n\n"), start=1):
        lines = [line.strip() for line in block.strip().splitlines() if line.strip()]
        if not lines:
            continue
        if len(lines) != 4:
            raise MalformedRecord(
                f"exemplar block {block_no} has {len(lines)} lines, expected 4",
                file=str(path),
            )
        values = []
        for line, prefix in zip(lines, prefixes):
            if not line.startswith(prefix):
                raise MalformedRecord(
                    f"exemplar block {block_no}: expected line starting {prefix!r}",
                    file=str(path),
                )
            values.append(line[len(prefix):].strip())
        exemplar = FewShotExemplar(*values)
        if not all(values):
            raise MalformedRecord(
                f"exemplar block {block_no} has an empty field", file=str(path)
            )
        validate_exemplar(exemplar, path=str(path), block=block_no)
        exemplars.append(exemplar)
    return exemplars


def validate_exemplar(exemplar: FewShotExemplar, path: str = "", block: int = 0) -> None:
    """The gold translation must contain both entity translations' stems."""
    for label, what in (
        (exemplar.subject_translation, "subject"),
        (exemplar.object_translation, "object"),
    ):
        if match_object_form(exemplar.translation, [label]) is None:
            raise MalformedRecord(
                f"exemplar block {block}: {what} translation {label!r} "
                f"not found in gold translation",
                file=path,
            )


_FEWSHOT_INSTRUCTION = (
    "You are a professional English-{language} translator. You are given English sentences\n"
    "about subjects and objects. You are also given translations of subjects and objects\n"
    "separately. You need to translate full sentences to {language}. When translating, you\n"
    "have to use the translated subjects and objects. Pay special attention\n"
    "to grammatical agreement between the words in the translated sentences.\n"
    "When translating, follow the examples:\n"
)


def _fewshot_block(source: str, subject: str, obj: str, translation: str | None) -> str:
    lines = [
        f"        Source sentence: {source}",
        f"        Subject translation: {subject}",
        f"        Object translation: {obj}",
    ]
    if translation is None:
        lines.append("        Translation: ")
        return "\n".join(lines)
    lines.append(f"        Translation: {translation}")
    return "\n".join(lines) + "\n"


def fewshot_prefix(language: str, exemplars: list[FewShotExemplar]) -> str | None:
    """The instruction and exemplar blocks that open the translation prompt
    of every fact of a (relation, ``language``) cell; None without
    exemplars."""
    if not exemplars:
        return None
    name = LANGUAGE_NAMES.get(language, language)
    parts = [_FEWSHOT_INSTRUCTION.format(language=name)]
    for ex in exemplars:
        parts.append(
            _fewshot_block(
                ex.source_sentence,
                ex.subject_translation,
                ex.object_translation,
                ex.translation,
            )
        )
    return "\n".join(parts)


def _fewshot_prompt(prefix: str | None, relation_id: str, language: str, fact: Fact,
                    corpus: Corpus, english: str | None) -> str:
    """The cell's ``prefix`` followed by the open query block of ``fact``."""
    if prefix is None:
        raise NoExemplars(
            f"no exemplars for relation {relation_id!r} in {language!r}"
        )
    subject, obj = _labels_for(corpus, fact, language)
    source = english_sentence(fact, corpus) if english is None else english
    return prefix + "\n" + _fewshot_block(source, subject, obj, None)


def build_fewshot_prompt(
    relation: Relation,
    language: str,
    exemplars: list[FewShotExemplar],
    fact: Fact,
    corpus: Corpus,
    english: str | None = None,
) -> str:
    """Assemble the translation prompt: instruction, exemplars, open query.

    The output format is frozen; tests pin it byte-for-byte against a
    committed golden file. The query block ends with ``Translation: `` so
    the completion starts right after the trailing space. ``english`` is the
    fact's ``english_sentence``, built here when not given.
    """
    return _fewshot_prompt(fewshot_prefix(language, exemplars), relation.id, language,
                           fact, corpus, english)


def parse_completion(completion: str) -> str:
    """First non-empty line of the completion, with a 'Translation:' echo
    stripped if the model repeated the field label."""
    for line in completion.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("Translation:"):
            line = line[len("Translation:"):].strip()
            if not line:
                continue
        return line
    return ""


def make_llm_verbalization(
    fact: Fact,
    corpus: Corpus,
    service: TextService,
    fewshot: str | None,
    english: str | None = None,
) -> Verbalization:
    """Few-shot LLM translation with enforced entity translations.

    ``fewshot`` is the ``fewshot_prefix`` of the fact's cell. If the
    completion contains neither the enforced object translation's stem nor
    any alias stem, the verbalization is still recorded but flagged with a
    CONSTRAINT_VIOLATION warning. ``english`` is the fact's
    ``english_sentence``, built here when not given.

    The completion is searched once, for the ``object_labels`` an MT
    sentence is searched for, and the verbalization carries that match to
    the split. Only when the English label alone matched are the enforced
    labels searched again, since one of them may still match elsewhere in
    the sentence.
    """
    prompt = _fewshot_prompt(fewshot, fact.relation_id, fact.language, fact, corpus, english)
    request = TextRequest(
        client_id=service.client.client_id,
        text=prompt,
        source_language="en",
        target_language=fact.language,
        extra=(("decoding", "deterministic"),),
    )
    completion = service.fetch(request)
    sentence = parse_completion(completion)
    if not sentence:
        raise EmptyTranslation("LLM returned an empty completion", fact_id=fact.id)
    entity = corpus.entities[fact.object_id]
    enforced = [entity.labels[fact.language]]
    enforced.extend(entity.alias_list(fact.language))
    labels = object_labels(entity, fact.language)
    match = match_object_form(sentence, labels)
    warning = None
    if match is None or (labels[match.label] not in enforced
                         and match_object_form(sentence, enforced) is None):
        warning = WARN_CONSTRAINT_VIOLATION
    return Verbalization(
        fact_id=fact.id,
        source=VerbalizationSource.LLM,
        sentence=sentence,
        provenance={
            "translator_id": request.client_id,
            "cache_key": request.digest(),
            "request": request.canonical(),
            "target_language": fact.language,
        },
        warning=warning,
        match=match,
    )
