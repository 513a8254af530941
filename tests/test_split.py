import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe.corpus import Corpus, Entity, Fact, Relation
from factprobe.errors import NoAcceptedSplits
from factprobe.split import (
    REJECT_NOT_SENTENCE_FINAL,
    REJECT_OBJECT_NOT_FOUND,
    MatchVia,
    Rejection,
    SplitResult,
    collect_correct_forms,
    match_object_form,
    object_labels,
    split_verbalization,
)
from factprobe.verbalize import (
    VerbalizationSource,
    Verbalization,
    make_template_verbalization,
)


def test_stem_match_praha_praze():
    # Common prefix "Pra" has length 3 >= max(3, ceil(0.6 * 5)).
    match = match_object_form("Karel Schwarzenberg se narodil v Praze.", ["Praha"])
    assert match is not None
    assert match.form == "Praze"
    assert match.matched_via is MatchVia.STEM
    assert match.confidence == pytest.approx(0.6)


def test_exact_whole_word_match():
    match = match_object_form("Peter Roget was born in London.", ["London"])
    assert match.form == "London"
    assert match.matched_via is MatchVia.EXACT


def test_stem_match_lucembursko():
    match = match_object_form(
        "Kunhuta Lucemburská se narodila v Lucembursku.", ["Lucembursko"]
    )
    assert match.form == "Lucembursku"
    assert match.matched_via is MatchVia.STEM
    assert match.confidence == pytest.approx(10 / 11)


def test_stem_match_londyn():
    match = match_object_form("Peter Roget se narodil v Londýně.", ["Londýn"])
    assert match.form == "Londýně"


def test_rightmost_match_wins():
    first = match_object_form("Praha je Praha.", ["Praha"])
    assert first.span == (9, 14)
    # Inserting an earlier copy must not move the span.
    shifted = match_object_form("Praha, Praha je Praha.", ["Praha"])
    assert shifted.form == "Praha"
    assert shifted.span[0] > first.span[0]


def test_exact_beats_later_stem():
    # An exact match anywhere outranks a stem match further right.
    match = match_object_form("V Praha bydlí, narodil se v Praze.", ["Praha"])
    assert match.matched_via is MatchVia.EXACT
    assert match.form == "Praha"


def test_multiword_label_with_punctuation():
    sentence = "William Carlos Williams se narodil v Rutherfordu (New Jersey, U. S.)."
    match = match_object_form(sentence, ["Rutherford (New Jersey, U. S.)"])
    assert match is not None
    assert match.matched_via is MatchVia.STEM
    assert sentence[match.span[0]:match.span[1]].startswith("Rutherfordu")


def test_hyphen_splits_like_whitespace():
    match = match_object_form("Der Autor Jean-Paul schrieb.", ["Jean Paul"])
    assert match is not None
    assert match.form == "Jean-Paul"


def test_no_match_returns_none():
    assert match_object_form("Nothing relevant here.", ["Praha"]) is None


def test_tail_delta_limits_match():
    # Past the common prefix "Praha", a tail of 4 characters passes and one
    # of 5 does not.
    match = match_object_form("Narodil se v Prahamxxx.", ["Praha"])
    assert match.form == "Prahamxxx"
    assert match.matched_via is MatchVia.STEM
    assert match_object_form("Narodil se v Prahamxxxx.", ["Praha"]) is None


@given(
    prefix=st.text(alphabet="abcdefg ", min_size=1, max_size=20),
    label=st.text(alphabet="hijklmn", min_size=1, max_size=10),
)
@settings(max_examples=200)
def test_exact_subset_of_stem(prefix, label):
    # Wherever the exact pass matches, a stem-only pass must match too.
    sentence = prefix.strip() + " x " + label + "."
    exact = match_object_form(sentence, [label])
    if exact is not None and exact.matched_via is MatchVia.EXACT:
        stem = _stem_only_match(sentence, label)
        assert stem is not None
        assert stem.span == exact.span


def _stem_only_match(sentence, label):
    # Force the stem pass by perturbing the label with an equal-form twin:
    # run the matcher with a label list whose exact pass cannot fire.
    from factprobe.split import _tokenize  # noqa: SLF001
    from oracle_matcher import stem_ratio

    tokens = _tokenize(sentence)
    words = [w for _, _, w in _tokenize(label)]
    best = None
    for start in range(len(tokens) - len(words) + 1):
        window = tokens[start:start + len(words)]
        ratios = [stem_ratio(w, t[2]) for w, t in zip(words, window)]
        if all(r is not None for r in ratios):
            span = (window[0][0], window[-1][1])
            if best is None or span > best.span:
                best = SplitResult(
                    prompt_prefix=sentence[:span[0]],
                    object_form=sentence[span[0]:span[1]],
                    span=span,
                    matched_via=MatchVia.STEM,
                )
    return best


@given(
    words=st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=8),
                   min_size=1, max_size=6),
    label=st.text(alphabet="mnopqrs", min_size=3, max_size=10),
    suffix=st.text(alphabet="uvxyz", min_size=0, max_size=3),
    tail=st.sampled_from([".", " .", "!", "", "…"]),
)
@settings(max_examples=300)
def test_accepted_split_roundtrips_byte_exact(words, label, suffix, tail):
    sentence = " ".join(words) + " " + label + suffix + tail
    match = match_object_form(sentence, [label])
    if match is None:
        return
    result = _finalize(sentence, match)
    if isinstance(result, SplitResult):
        remainder = sentence[result.span[1]:]
        assert result.prompt_prefix + result.object_form + remainder == sentence
        assert result.prompt_prefix
        from factprobe.corpus import is_punctuation_or_space

        assert is_punctuation_or_space(remainder)


# Words over a small alphabet, so that exact and stem matches and ties
# between labels are all common.
_WORDS = st.text(alphabet="abcdé", min_size=1, max_size=7)
_JOINERS = st.sampled_from([" ", " ", "-", ", ", ". ", " (", ") "])


@st.composite
def _matcher_cases(draw):
    words = draw(st.lists(_WORDS, min_size=0, max_size=9))
    sentence = draw(st.sampled_from(["", "Z "]))
    for word in words:
        sentence += word + draw(_JOINERS)
    labels = []
    # Labels drawn from one window often match the same span, which the
    # earlier label must win.
    focus = draw(st.integers(min_value=0, max_value=max(len(words) - 1, 0)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if words and draw(st.booleans()):
            # A window of the sentence, each word maybe cut, extended or
            # given a new tail, so that the stem pass has something to find.
            # Four more characters are the longest tail the rule allows, and
            # three kept characters of six fall short of ceil(0.6 * 6) = 4.
            start = draw(st.sampled_from(
                [focus, draw(st.integers(min_value=0, max_value=len(words) - 1))]))
            n = draw(st.integers(min_value=1, max_value=3))
            label_words = [
                draw(st.sampled_from([w, w[:-1] or w, w + "a", w + "éééé", w[:-2] + "éé",
                                      w[:3] + "ééé"]))
                for w in words[start:start + n]
            ]
        else:
            label_words = draw(st.lists(_WORDS, min_size=0, max_size=3))
        labels.append(draw(st.sampled_from([" ", "-"])).join(label_words) or "-")
    return sentence, labels


@given(case=_matcher_cases())
@settings(max_examples=500, deadline=None)
def test_matcher_agrees_with_the_windowed_reference(case):
    from oracle_matcher import oracle_match

    sentence, labels = case
    match = match_object_form(sentence, labels)
    expected = oracle_match(sentence, labels)
    got = None if match is None else (match.span, match.form, match.matched_via,
                                      match.confidence, match.label)
    assert got == expected


def _finalize(sentence, match):
    from factprobe.split import _finalize_split  # noqa: SLF001

    return _finalize_split(sentence, match)


def _template_split(template, subject_label, object_label):
    """The sentence and split of the TEMPLATE verbalization of a one-fact
    corpus whose relation has ``template`` in language ``xx``."""
    corpus = Corpus(
        entities={"S": Entity("S", {"xx": subject_label}),
                  "O": Entity("O", {"xx": object_label})},
        relations={"R": Relation("R", "[X] r [Y] .", {"xx": template}, {})},
        facts={"f": Fact("f", "S", "R", "O", "xx")},
    )
    verb = make_template_verbalization(corpus.facts["f"], corpus)
    return verb.sentence, split_verbalization(verb)


def test_template_split_positional():
    sentence, result = _template_split("[X] was born in [Y] .", "X", "Town")
    assert isinstance(result, SplitResult)
    assert result.prompt_prefix == "X was born in "
    assert result.object_form == "Town"
    assert result.prompt_prefix + result.object_form + " ." == sentence


def test_template_split_rejects_non_final_object():
    _, result = _template_split("[X] je [Y] povoláním .", "Novák", "spisovatel")
    assert isinstance(result, Rejection)
    assert result.reason == REJECT_NOT_SENTENCE_FINAL


def _mt_verbalization(fact_id, sentence, entity, language="cs"):
    return Verbalization(
        fact_id=fact_id,
        source=VerbalizationSource.MT,
        sentence=sentence,
        provenance={"target_language": language},
        match=match_object_form(sentence, object_labels(entity, language)),
    )


def test_split_mt_object_initial_rejected(cs_corpus):
    verb = _mt_verbalization(
        "fact-p19-karel", "V Praze se narodil Karel Schwarzenberg.",
        cs_corpus.entities["Q1085"],
    )
    result = split_verbalization(verb)
    assert isinstance(result, Rejection)
    assert result.reason == REJECT_NOT_SENTENCE_FINAL


def test_split_mt_object_missing_rejected(cs_corpus):
    verb = _mt_verbalization("fact-p19-karel", "Karel Schwarzenberg bydlí jinde.",
                             cs_corpus.entities["Q1085"])
    result = split_verbalization(verb)
    assert isinstance(result, Rejection)
    assert result.reason == REJECT_OBJECT_NOT_FOUND


def test_split_mt_inflected_sentence(cs_corpus):
    verb = _mt_verbalization("fact-p19-karel", "Karel Schwarzenberg se narodil v Praze.",
                             cs_corpus.entities["Q1085"])
    result = split_verbalization(verb)
    assert isinstance(result, SplitResult)
    assert result.prompt_prefix == "Karel Schwarzenberg se narodil v "
    assert result.object_form == "Praze"
    # Byte-exact round trip.
    remainder = verb.sentence[result.span[1]:]
    assert result.prompt_prefix + result.object_form + remainder == verb.sentence


def test_split_template_source_uses_provenance(cs_corpus):
    fact = cs_corpus.facts["fact-p19-karel"]
    verb = make_template_verbalization(fact, cs_corpus)
    result = split_verbalization(verb)
    assert isinstance(result, SplitResult)
    assert result.object_form == "Praha"
    assert result.prompt_prefix == "Karel Schwarzenberg se narodil v "


def test_split_finds_english_label(cs_corpus):
    # MT kept the English name; the English label is part of the search pool.
    verb = _mt_verbalization("fact-p19-karel", "Karel Schwarzenberg se narodil v Prague.",
                             cs_corpus.entities["Q1085"])
    result = split_verbalization(verb)
    assert isinstance(result, SplitResult)
    assert result.object_form == "Prague"


def _splits(**by_source):
    return {VerbalizationSource(k): v for k, v in by_source.items()}


def _accepted(form, prompt="Karel Schwarzenberg se narodil v "):
    return SplitResult(
        prompt_prefix=prompt,
        object_form=form,
        span=(len(prompt), len(prompt) + len(form)),
        matched_via=MatchVia.STEM,
    )


def test_collect_correct_forms_dedup(cs_corpus):
    fact = cs_corpus.facts["fact-p19-karel"]
    forms = collect_correct_forms(
        cs_corpus, fact,
        _splits(TEMPLATE=_accepted("Praha"), MT=_accepted("Praze"), LLM=_accepted("Praze")),
    )
    assert forms == ["Praha", "Praze"]


def test_collect_correct_forms_default_only(cs_corpus):
    fact = cs_corpus.facts["fact-p19-karel"]
    forms = collect_correct_forms(cs_corpus, fact, _splits(TEMPLATE=_accepted("Praha")))
    assert forms == ["Praha"]


def test_collect_correct_forms_alias_and_english_order(cs_corpus):
    fact = cs_corpus.facts["fact-p19-karel"]
    forms = collect_correct_forms(
        cs_corpus, fact,
        _splits(TEMPLATE=_accepted("Praha"), MT=_accepted("Praze")),
        include_aliases=True,
        include_english=True,
    )
    assert forms == ["Praha", "Praze", "Praga", "Prague"]


def test_collect_correct_forms_requires_accepted_split(cs_corpus):
    fact = cs_corpus.facts["fact-p19-karel"]
    with pytest.raises(NoAcceptedSplits):
        collect_correct_forms(
            cs_corpus, fact, _splits(MT=Rejection(REJECT_OBJECT_NOT_FOUND))
        )


def test_collect_correct_forms_contains_default(cs_corpus):
    fact = cs_corpus.facts["fact-p19-karel"]
    forms = collect_correct_forms(cs_corpus, fact, _splits(MT=_accepted("Praze")))
    assert forms[0] == "Praha"


# Micro-benchmark of the split layer's matcher. Run alone with
# ``pytest tests --benchmark-only``.
def test_benchmark_sentence_final_stem_match(benchmark):
    match = benchmark.pedantic(
        match_object_form, args=("Karel Schwarzenberg se narodil v Praze.", ["Praha"]),
        rounds=200, iterations=10,
    )
    assert match.form == "Praze"
    assert match.matched_via is MatchVia.STEM
