import pytest
from hypothesis import given
from hypothesis import strategies as st

from factprobe.clients import ReplayClient, ResponseCache, TextRequest, TextService, load_fixtures
from factprobe.errors import (
    EmptyTranslation,
    MalformedRecord,
    MissingLabel,
    MissingPlaceholder,
    MissingTemplate,
    NoExemplars,
    ReplayMiss,
)
from factprobe.split import MatchVia, SplitResult, split_verbalization
from factprobe.verbalize import (
    WARN_CONSTRAINT_VIOLATION,
    VerbalizationSource,
    build_fewshot_prompt,
    fewshot_prefix,
    fill_template,
    make_llm_verbalization,
    make_mt_verbalization,
    make_template_verbalization,
    parse_completion,
    parse_exemplar_file,
)

from conftest import DATA_DIR, GOLDEN_DIR


class CountingClient:
    """Test double returning canned text and counting calls."""

    def __init__(self, response, client_id="mt"):
        self.response = response
        self.client_id = client_id
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.response


def test_fill_template_exemplar_sentence():
    out = fill_template(
        "[X] was born in [Y] .", "Cunigunde of Luxembourg", "Luxembourg"
    )
    assert out == "Cunigunde of Luxembourg was born in Luxembourg ."


def test_fill_template_identity():
    assert fill_template("[X] is [Y]", "a", "a") == "a is a"


def test_fill_template_placeholder_order_independent():
    assert fill_template("[Y] of [X]", "B", "A") == "A of B"


def test_fill_template_missing_placeholder():
    with pytest.raises(MissingPlaceholder):
        fill_template("[X] only", "a", "b")


def test_fill_template_duplicate_placeholder():
    with pytest.raises(MissingPlaceholder):
        fill_template("[X] and [Y] and [Y]", "a", "b")


def test_fill_template_label_containing_placeholder_text():
    # Positional substitution: a label spelling "[Y]" must not cascade.
    assert fill_template("[X] r [Y] .", "[Y]", "obj") == "[Y] r obj ."


@given(
    x=st.text(min_size=0, max_size=30),
    y=st.text(min_size=0, max_size=30),
)
def test_fill_template_length_identity(x, y):
    template = "[X] was born in [Y] ."
    assert len(fill_template(template, x, y)) == len(template) - 6 + len(x) + len(y)


@given(
    x=st.text(alphabet="ab[]XY ", max_size=8),
    y=st.text(alphabet="ab[]XY ", max_size=8),
    template=st.sampled_from(["[X] was born in [Y] .", "[Y] je [X]", "[Y][X]", "[X][Y]"]),
)
def test_fill_spans_the_object_label_where_y_stood(x, y, template):
    from factprobe.verbalize import _fill  # noqa: SLF001

    sentence, (start, end) = _fill(template, x, y)
    assert sentence == fill_template(template, x, y)
    assert sentence[start:end] == y
    assert fill_template(template, x, "\0").index("\0") == start


def test_template_verbalization_kapital_preserved(cs_corpus):
    verb = make_template_verbalization(cs_corpus.facts["fact-p36-cz"], cs_corpus)
    # The mistranslated template is used as-is, not repaired.
    assert verb.sentence == "Kapitál Česko je Praha ."
    assert "Kapitál" in verb.sentence
    assert verb.source is VerbalizationSource.TEMPLATE


def test_template_verbalization_cyrillic_bytes(cs_corpus):
    verb = make_template_verbalization(cs_corpus.facts["fact-p19-sofia"], cs_corpus)
    assert verb.sentence == "Софья Ковалевская родился в Стокгольм ."
    assert "[X]" not in verb.sentence and "[Y]" not in verb.sentence


def test_template_verbalization_missing_label(cs_corpus):
    # Sofia has no Czech label; force a Czech rendering attempt.
    fact = cs_corpus.facts["fact-p19-sofia"]
    broken = type(fact)(
        id=fact.id, subject_id=fact.subject_id, relation_id=fact.relation_id,
        object_id=fact.object_id, language="cs", subject_gender=fact.subject_gender,
    )
    with pytest.raises(MissingLabel):
        make_template_verbalization(broken, cs_corpus)


def test_template_verbalization_missing_template(cs_corpus):
    fact = cs_corpus.facts["fact-p36-cz"]
    broken = type(fact)(
        id=fact.id, subject_id=fact.subject_id, relation_id=fact.relation_id,
        object_id=fact.object_id, language="ru",
    )
    with pytest.raises(MissingTemplate):
        make_template_verbalization(broken, cs_corpus)


def test_mt_verbalization_replay_fixture(cs_corpus, tmp_path):
    fixtures = load_fixtures([DATA_DIR / "replay_mt_cs.jsonl"])
    cache = ResponseCache(tmp_path / "cache")
    verb = make_mt_verbalization(cs_corpus.facts["fact-p19-karel"], cs_corpus,
                                 TextService(ReplayClient("mt"), cache, fixtures))
    assert verb.sentence == "Karel Schwarzenberg se narodil v Praze."
    assert verb.source is VerbalizationSource.MT
    assert verb.provenance["source_sentence"] == "Karel Schwarzenberg was born in Prague ."


def test_mt_verbalization_warm_cache_zero_calls(cs_corpus, tmp_path):
    fact = cs_corpus.facts["fact-p19-karel"]
    cache = ResponseCache(tmp_path / "cache")
    client = CountingClient("Karel Schwarzenberg se narodil v Praze.")
    first = make_mt_verbalization(fact, cs_corpus, TextService(client, cache))
    assert client.calls == 1
    second = make_mt_verbalization(fact, cs_corpus, TextService(client, cache))
    assert client.calls == 1
    assert first == second


def test_mt_verbalization_replay_miss(cs_corpus, tmp_path):
    with pytest.raises(ReplayMiss):
        make_mt_verbalization(cs_corpus.facts["fact-p19-karel"], cs_corpus,
                              TextService(ReplayClient("mt"), ResponseCache(tmp_path / "c")))


def test_mt_verbalization_empty_translation(cs_corpus, tmp_path):
    client = CountingClient("   \n ")
    with pytest.raises(EmptyTranslation):
        make_mt_verbalization(cs_corpus.facts["fact-p19-karel"], cs_corpus,
                              TextService(client, ResponseCache(tmp_path / "c")))


def test_mt_provenance_regenerates_request(cs_corpus, tmp_path):
    fact = cs_corpus.facts["fact-p19-karel"]
    client = CountingClient("Karel Schwarzenberg se narodil v Praze.")
    verb = make_mt_verbalization(
        fact, cs_corpus, TextService(client, ResponseCache(tmp_path / "c"))
    )
    import json

    fields = json.loads(verb.provenance["request"])
    rebuilt = TextRequest(
        client_id=fields["client_id"],
        text=fields["text"],
        source_language=fields["source_language"],
        target_language=fields["target_language"],
        extra=tuple(sorted(fields["extra"].items())),
    )
    assert rebuilt.digest() == verb.provenance["cache_key"]


def test_llm_provenance_regenerates_request(cs_corpus, cs_exemplars, tmp_path):
    import json

    fact = cs_corpus.facts["fact-p19-theodore"]
    client = CountingClient(
        "Theodoros Studijský se narodil v Konstantinopoli.", client_id="llm"
    )
    verb = make_llm_verbalization(
        fact, cs_corpus, TextService(client, ResponseCache(tmp_path / "c")),
        fewshot_prefix("cs", cs_exemplars),
    )
    fields = json.loads(verb.provenance["request"])
    rebuilt = TextRequest(
        client_id=fields["client_id"],
        text=fields["text"],
        source_language=fields["source_language"],
        target_language=fields["target_language"],
        extra=tuple(sorted(fields["extra"].items())),
    )
    assert rebuilt.digest() == verb.provenance["cache_key"]
    # The few-shot prompt is kept once, as the text of the request.
    assert "prompt" not in verb.provenance
    relation = cs_corpus.relations[fact.relation_id]
    assert rebuilt.text == build_fewshot_prompt(relation, "cs", cs_exemplars, fact, cs_corpus)


def test_parse_exemplar_file_shipped_set(cs_exemplars):
    assert len(cs_exemplars) == 5
    assert cs_exemplars[0].subject_translation == "Kunhuta Lucemburská"
    assert cs_exemplars[-1].translation == "Peter Roget se narodil v Londýně."


def test_parse_exemplar_file_rejects_bad_block(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Source sentence: a\nSubject translation: b\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        parse_exemplar_file(path)


def test_parse_exemplar_file_rejects_stem_violation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "Source sentence: A was born in B .\n"
        "Subject translation: Alfa\n"
        "Object translation: Beta\n"
        "Translation: Alfa se narodila jinde.\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedRecord):
        parse_exemplar_file(path)


def test_fewshot_prompt_matches_golden(cs_corpus, cs_exemplars):
    prompt = build_fewshot_prompt(
        cs_corpus.relations["P19"], "cs", cs_exemplars,
        cs_corpus.facts["fact-p19-theodore"], cs_corpus,
    )
    golden = (GOLDEN_DIR / "fewshot_P19_cs.txt").read_text(encoding="utf-8")
    assert prompt == golden


def test_fewshot_prompt_single_exemplar_golden(cs_corpus, cs_exemplars):
    prompt = build_fewshot_prompt(
        cs_corpus.relations["P19"], "cs", cs_exemplars[:1],
        cs_corpus.facts["fact-p19-theodore"], cs_corpus,
    )
    golden = (GOLDEN_DIR / "fewshot_P19_cs_single.txt").read_text(encoding="utf-8")
    assert prompt == golden


def test_fewshot_prompt_requires_exemplars(cs_corpus):
    with pytest.raises(NoExemplars):
        build_fewshot_prompt(
            cs_corpus.relations["P19"], "cs", [],
            cs_corpus.facts["fact-p19-theodore"], cs_corpus,
        )


def test_parse_completion_first_nonempty_line():
    assert parse_completion("\n\n  Hello there.\nSecond line") == "Hello there."


def test_parse_completion_strips_echo():
    assert parse_completion("Translation: Věta.\n") == "Věta."


def test_llm_verbalization_stem_check_passes(cs_corpus, cs_exemplars, tmp_path):
    client = CountingClient(
        "Theodoros Studijský se narodil v Konstantinopoli.", client_id="llm"
    )
    verb = make_llm_verbalization(
        cs_corpus.facts["fact-p19-theodore"], cs_corpus,
        TextService(client, ResponseCache(tmp_path / "c")), fewshot_prefix("cs", cs_exemplars),
    )
    assert verb.sentence == "Theodoros Studijský se narodil v Konstantinopoli."
    assert verb.warning is None
    assert verb.source is VerbalizationSource.LLM


def test_llm_verbalization_constraint_violation(cs_corpus, cs_exemplars, tmp_path):
    client = CountingClient(
        "Theodoros Studijský se narodil v Istanbulu.", client_id="llm"
    )
    verb = make_llm_verbalization(
        cs_corpus.facts["fact-p19-theodore"], cs_corpus,
        TextService(client, ResponseCache(tmp_path / "c")), fewshot_prefix("cs", cs_exemplars),
    )
    assert verb.warning == WARN_CONSTRAINT_VIOLATION
    assert verb.sentence.endswith("Istanbulu.")


def _llm_split(cs_corpus, cs_exemplars, tmp_path, fact_id, sentence):
    fact = cs_corpus.facts[fact_id]
    verb = make_llm_verbalization(
        fact, cs_corpus,
        TextService(CountingClient(sentence, client_id="llm"), ResponseCache(tmp_path / "c")),
        fewshot_prefix("cs", cs_exemplars),
    )
    return verb, split_verbalization(verb)


def test_llm_sentence_only_the_english_label_matches_violates(cs_corpus, cs_exemplars,
                                                              tmp_path):
    verb, split = _llm_split(cs_corpus, cs_exemplars, tmp_path, "fact-p19-theodore",
                             "Theodoros Studijský se narodil v Constantinople.")
    assert verb.warning == WARN_CONSTRAINT_VIOLATION
    assert split == SplitResult("Theodoros Studijský se narodil v ", "Constantinople",
                                (33, 47), MatchVia.EXACT, 1.0)


def test_llm_enforced_stem_left_of_an_exact_english_label_passes(cs_corpus, cs_exemplars,
                                                                 tmp_path):
    # The English label wins the search for the split; the enforced label
    # Praha still matches as a stem, so the constraint holds.
    verb, split = _llm_split(cs_corpus, cs_exemplars, tmp_path, "fact-p19-karel",
                             "Karel Schwarzenberg se narodil v Praze, tedy Prague.")
    assert verb.warning is None
    assert split == SplitResult("Karel Schwarzenberg se narodil v Praze, tedy ", "Prague",
                                (45, 51), MatchVia.EXACT, 1.0)


def test_llm_verbalization_warm_cache(cs_corpus, cs_exemplars, tmp_path):
    cache = ResponseCache(tmp_path / "c")
    client = CountingClient(
        "Theodoros Studijský se narodil v Konstantinopoli.", client_id="llm"
    )
    make_llm_verbalization(
        cs_corpus.facts["fact-p19-theodore"], cs_corpus, TextService(client, cache),
        fewshot_prefix("cs", cs_exemplars),
    )
    make_llm_verbalization(
        cs_corpus.facts["fact-p19-theodore"], cs_corpus, TextService(client, cache),
        fewshot_prefix("cs", cs_exemplars),
    )
    assert client.calls == 1


def test_llm_verbalization_empty_completion(cs_corpus, cs_exemplars, tmp_path):
    client = CountingClient("\n\n", client_id="llm")
    with pytest.raises(EmptyTranslation):
        make_llm_verbalization(
            cs_corpus.facts["fact-p19-theodore"], cs_corpus,
            TextService(client, ResponseCache(tmp_path / "c")), fewshot_prefix("cs", cs_exemplars),
        )


def test_template_verbalization_never_contacts_clients(cs_corpus):
    # No client argument exists at all; the type signature is the guarantee.
    verb = make_template_verbalization(cs_corpus.facts["fact-p19-karel"], cs_corpus)
    assert verb.provenance["template"] == "[X] se narodil v [Y] ."
