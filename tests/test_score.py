import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe import pipeline
from factprobe.candidates import CandidateSet, Distractor
from factprobe.errors import BackendError, FormNotPresent, NonFiniteScore
from factprobe.score import (
    OracleScorer,
    Scores,
    TableScorer,
    _encode_request,
    candidate_continuations,
    join_continuation,
    rank_candidates,
    rank_of_form,
    score_candidates,
)

from conftest import CallableScorer, pair_scores
from oracle_rank import (
    reference_oracle_batch,
    reference_rank,
    reference_rank_of_form,
    reference_score,
    reference_table_batch,
)


def _edit_distance(a: str, b: str) -> int:
    # Independent oracle for the synthetic scorer test.
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1,
                    previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def _candidate_set(correct, distractor_forms, prompt="The town is"):
    return CandidateSet(
        fact_id="f1",
        prompt=prompt,
        correct_forms=tuple(correct),
        distractors=tuple(
            Distractor(f"d{i}", form) for i, form in enumerate(distractor_forms)
        ),
    )


def test_join_continuation_rules():
    assert join_continuation("A sentence ends in", "Praha") == " Praha"
    assert join_continuation("Trailing space ", "Praha") == "Praha"
    assert join_continuation("没有空格", "北京", no_space=True) == "北京"


def test_edit_distance_scorer_puts_truth_on_top():
    true_object = "Praha"
    scorer = CallableScorer(
        lambda prompt, cont: -float(_edit_distance(cont.strip(), true_object))
    )
    cs = _candidate_set(["Praha"], ["Brno", "Plzeň"])
    scored = score_candidates(scorer, cs)
    by_form = dict(zip(scored.forms, scored.scores))
    assert by_form["Praha"] == 0.0
    assert all(score < 0 for form, score in by_form.items() if form != "Praha")


def test_mean_equals_sum_for_single_token():
    scorer = CallableScorer(lambda p, c: -2.5, token_counter=lambda c: 1)
    cs = _candidate_set(["a"], ["b"])
    assert score_candidates(scorer, cs, "SUM").scores == score_candidates(scorer, cs, "MEAN").scores


def test_mean_divides_by_token_count():
    scorer = CallableScorer(lambda p, c: -6.0, token_counter=lambda c: 3)
    cs = _candidate_set(["a"], ["b"])
    assert all(score == -2.0 for score in score_candidates(scorer, cs, "MEAN").scores)


def test_table_scorer_passthrough():
    cs = _candidate_set(["gold"], ["d1", "d2", "d3"], prompt="P ")
    table = {
        ("P ", "gold"): (-1.0, 1),
        ("P ", "d1"): (-3.0, 1),
        ("P ", "d2"): (-2.0, 1),
        ("P ", "d3"): (-4.0, 1),
    }
    scored = score_candidates(TableScorer(table), cs)
    assert list(zip(scored.forms, scored.scores)) == [
        ("gold", -1.0), ("d1", -3.0), ("d2", -2.0), ("d3", -4.0)
    ]
    result = rank_candidates(scored, ["gold"])
    assert result.best_correct_rank == 1


def test_table_scorer_missing_entry_is_backend_error():
    cs = _candidate_set(["gold"], ["d1"], prompt="P ")
    with pytest.raises(BackendError):
        score_candidates(TableScorer({}), cs)


def test_rank_basic():
    result = rank_candidates(pair_scores([("A", -1.0), ("B", -2.0), ("C", -3.0)]), ["B"])
    ranks = {form: rank_of_form(result, form) for form in "ABC"}
    assert ranks == {"A": 1, "B": 2, "C": 3}
    assert result.best_correct_rank == 2
    assert result.best_correct_form == "B"


def test_rank_tie_breaks_by_byte_order():
    result = rank_candidates(pair_scores([("A", -1.0), ("B", -1.0)]), ["B"])
    ranks = {form: rank_of_form(result, form) for form in "AB"}
    assert ranks == {"A": 1, "B": 2}
    assert (result.best_correct_rank, result.best_correct_form) == (2, "B")


def test_rank_matches_independent_sort_oracle():
    rng = random.Random(7)
    for _ in range(50):
        forms = [f"form{i}" for i in range(10)]
        scores = [rng.choice([-3.0, -2.0, -1.0, -0.5]) for _ in forms]
        correct = {forms[rng.randrange(10)]}
        # Independent oracle: stable sort on (-score, utf-8 bytes).
        oracle = sorted(zip(forms, scores),
                        key=lambda fs: (-fs[1], fs[0].encode("utf-8")))
        oracle_ranks = {form: i + 1 for i, (form, _) in enumerate(oracle)}
        result = rank_candidates(pair_scores(zip(forms, scores)), correct)
        assert {form: rank_of_form(result, form) for form in forms} == oracle_ranks
        assert result.best_correct_rank == min(oracle_ranks[f] for f in correct)


def test_rank_rejects_non_finite():
    with pytest.raises(NonFiniteScore):
        rank_candidates(pair_scores([("A", float("nan"))]), ["A"])
    with pytest.raises(NonFiniteScore):
        rank_candidates(pair_scores([("A", float("-inf"))]), ["A"])


def test_rank_of_form():
    result = rank_candidates(pair_scores([("A", -1.0), ("B", -2.0), ("C", -3.0)]), ["B"])
    assert rank_of_form(result, "C") == 3
    with pytest.raises(FormNotPresent):
        rank_of_form(result, "missing")


@given(
    raw_scores=st.lists(
        st.integers(min_value=-50, max_value=0), min_size=2, max_size=10,
        unique=True,
    ),
    scale=st.floats(min_value=0.1, max_value=10, allow_nan=False),
    shift=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
@settings(max_examples=200)
def test_rank_affine_invariance(raw_scores, scale, shift):
    # Integer-spaced scores keep the transform exact in floats.
    scores = [float(s) for s in raw_scores]
    forms = [f"f{i}" for i in range(len(scores))]
    base = rank_candidates(pair_scores(zip(forms, scores)), [forms[0]])
    transformed = rank_candidates(
        pair_scores([(f, s * scale + shift) for f, s in zip(forms, scores)]), [forms[0]]
    )
    assert [rank_of_form(base, f) for f in forms] == [rank_of_form(transformed, f) for f in forms]
    assert base.best_correct_rank == transformed.best_correct_rank


@given(seed=st.integers(min_value=0, max_value=9999))
@settings(max_examples=100)
def test_rank_input_permutation_invariance(seed):
    rng = random.Random(seed)
    items = [(f"f{i}", rng.choice([-2.0, -1.0])) for i in range(8)]
    correct = [items[0][0]]
    base = rank_candidates(pair_scores(items), correct)
    shuffled = items[:]
    rng.shuffle(shuffled)
    other = rank_candidates(pair_scores(shuffled), correct)
    assert [rank_of_form(base, form) for form, _ in items] == [
        rank_of_form(other, form) for form, _ in items
    ]
    assert base.best_correct_rank == other.best_correct_rank


def test_hits_monotone_in_n():
    result = rank_candidates(pair_scores([("A", -1.0), ("B", -2.0), ("C", -3.0)]), ["C"])
    values = [result.best_correct_rank <= n for n in (1, 2, 3, 4, 5)]
    assert values == sorted(values) == [False, False, True, True, True]


def test_oracle_scorer_perfect_and_adversarial():
    cs = _candidate_set(["gold"], [f"d{i}" for i in range(6)], prompt="P:")
    correct_map = {"P:": frozenset({"gold"})}
    perfect = rank_candidates(
        score_candidates(OracleScorer(correct_map, "perfect"), cs), ["gold"]
    )
    assert perfect.best_correct_rank == 1
    adversarial = rank_candidates(
        score_candidates(OracleScorer(correct_map, "adversarial"), cs), ["gold"]
    )
    assert adversarial.best_correct_rank == 7


def test_batch_independence():
    scorer = CallableScorer(lambda p, c: -float(len(c)))
    batched = scorer.score_batch("P", ["a", "bb", "ccc"])
    singles = [scorer.score_batch("P", [c])[0] for c in ("a", "bb", "ccc")]
    assert batched == singles


def test_duplicate_distractor_forms_rank_deterministically():
    cs = CandidateSet(
        fact_id="f1", prompt="P ", correct_forms=("gold",),
        distractors=(Distractor("d2", "twin"), Distractor("d1", "twin")),
    )
    scorer = CallableScorer(lambda p, c: -1.0)
    result = rank_candidates(score_candidates(scorer, cs), ["gold"])
    # All scores tie; "gold" < "twin" in byte order takes rank 1, and the
    # byte-identical twins share rank 2, the best of their places 2 and 3.
    keys, best, best_form = reference_rank(
        *reference_score(scorer.score_batch, cs), cs.correct_forms)
    assert (result.best_correct_rank, result.best_correct_form) == (
        best, best_form) == (1, "gold")
    assert [rank_of_form(result, form) for form in ("gold", "twin")] == [
        reference_rank_of_form(keys, form) for form in ("gold", "twin")] == [1, 2]


def _byte_key_ranking(forms, scores, correct_forms):
    """Reference ranking: a stable sort on UTF-8 bytes of the form, then
    one ``(form, rank, correct)`` per position."""
    correct = set(correct_forms)
    ordered = sorted(zip(forms, scores), key=lambda c: (-c[1], c[0].encode("utf-8")))
    return [(form, rank, form in correct) for rank, (form, _) in enumerate(ordered, 1)]


# Forms mix ASCII, Latin-1, CJK and astral-plane characters (where UTF-16
# order would differ from UTF-8 order), so a few draws collide.
_FORMS = st.text(alphabet=st.sampled_from("aAzé€中\uffff\U0001F600\U00010000"),
                 min_size=1, max_size=3)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_rank_matches_the_byte_key_ranking(data):
    count = data.draw(st.integers(1, 80), label="count")
    forms = data.draw(st.lists(_FORMS, min_size=count, max_size=count), label="forms")
    # Few distinct scores, so ties are common.
    scores = data.draw(st.lists(st.sampled_from([-3.0, -1.5, -1.0, 0.0]),
                                min_size=count, max_size=count), label="scores")
    correct = data.draw(st.sets(st.sampled_from(forms), min_size=1), label="correct")
    result = rank_candidates(Scores(forms, scores, [1] * count), sorted(correct))
    expected = _byte_key_ranking(forms, scores, correct)
    best_form, best, _ = next(c for c in expected if c[2])
    keys, *reference = reference_rank(forms, [""] * count, scores, correct)
    assert [result.best_correct_rank, result.best_correct_form] == reference == [
        best, best_form]
    for form in set(forms):
        assert rank_of_form(result, form) == reference_rank_of_form(keys, form) == min(
            rank for f, rank, _ in expected if f == form)


def test_table_scorer_names_the_first_missing_continuation():
    table = {("P ", "gold"): (-1.0, 1), ("P ", "d2"): (-2.0, 1)}
    with pytest.raises(BackendError, match="continuation 'd1'"):
        TableScorer(table).score_batch("P ", ["gold", "d1", "d2", "d3"])


def test_a_request_line_has_the_bytes_of_json_dumps():
    assert _encode_request("Praha je v", [" Česku", " \"Brno\""]) == (
        b'{"version": 1, "prompt": "Praha je v", "continuations": '
        b'[" \xc4\x8cesku", " \\"Brno\\""]}\n')


# Forms mix a space (more than one token), duplicates and code-point order;
# scores are few, so ties are common, and may be non-finite.
_SET_FORMS = st.text(alphabet=st.sampled_from("ab é中"), min_size=1, max_size=3)
_LOGPROBS = st.sampled_from([-3.0, -1.5, -1.0, 0.0, -1.0, float("nan"), float("-inf")])


def _outcome(path):
    """What ``path()`` returns, or the type and message of the error it raises."""
    try:
        return path()
    except (BackendError, NonFiniteScore, ValueError) as exc:
        return type(exc), exc.args[0]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_one_pass_path_ranks_as_the_reference(data):
    forms = data.draw(st.lists(_SET_FORMS, min_size=1, max_size=30), label="forms")
    n_correct = data.draw(st.integers(1, len(forms)), label="correct")
    ids = data.draw(st.permutations([f"Q{i}" for i in range(len(forms))]), label="ids")
    prompt = data.draw(st.sampled_from(["P:", "P ", ""]), label="prompt")
    cs = CandidateSet("f1", prompt, tuple(forms[:n_correct]),
                      [[entity_id, form] for entity_id, form in
                       zip(ids, forms[n_correct:])])
    no_space = data.draw(st.booleans(), label="no_space")
    normalization = data.draw(st.sampled_from(["SUM", "MEAN"]), label="normalization")
    backend = data.draw(st.sampled_from(["perfect", "adversarial", "table"]), label="backend")
    if backend == "table":
        continuations = sorted(set(candidate_continuations(cs, no_space)))
        entries = data.draw(st.lists(st.tuples(_LOGPROBS, st.integers(1, 3)),
                                     min_size=len(continuations),
                                     max_size=len(continuations)), label="table")
        table = {(prompt, c): entry for c, entry in zip(continuations, entries)}
        scorer = TableScorer(table)
        batch = functools.partial(reference_table_batch, table)
    else:
        answers = data.draw(st.sets(st.sampled_from(forms)), label="oracle answers")
        correct_by_prompt = {prompt: frozenset(answers)}
        scorer = OracleScorer(correct_by_prompt, backend)
        batch = functools.partial(reference_oracle_batch, correct_by_prompt, backend)

    def one_pass():
        continuations = candidate_continuations(cs, no_space)
        assert scorer.score_batch(prompt, continuations) == batch(prompt, continuations)
        result = rank_candidates(score_candidates(scorer, cs, normalization, continuations),
                                 cs.correct_forms, fact_id="f1")
        return (result.best_correct_rank, result.best_correct_form,
                [rank_of_form(result, form) for form in forms])

    def reference():
        keys, best, best_form = reference_rank(
            *reference_score(batch, cs, normalization, no_space), cs.correct_forms)
        return best, best_form, [reference_rank_of_form(keys, form) for form in forms]

    assert _outcome(one_pass) == _outcome(reference)


def test_a_non_finite_score_names_the_first_such_form():
    scored = Scores(["a", "b", "c", "d"], [0.0, float("inf"), -1.0, float("nan")], [1, 1, 1, 1])
    with pytest.raises(NonFiniteScore, match="form 'b'"):
        rank_candidates(scored, ["a"])


# Micro-benchmarks of one evaluate set: 2 correct forms and 50 distractors.
# Run alone with ``pytest tests --benchmark-only``.
_BENCH_SET = _candidate_set(["Praha", "Praze"], [f"město{i}" for i in range(50)])


def test_benchmark_rank_candidates(benchmark):
    rng = random.Random(3)
    forms = _BENCH_SET.correct_forms + tuple(d.form for d in _BENCH_SET.distractors)
    scored = pair_scores([(form, rng.choice([-3.0, -2.0, -1.0])) for form in forms])
    result = benchmark.pedantic(
        rank_candidates, args=(scored, _BENCH_SET.correct_forms), rounds=200, iterations=10
    )
    assert len(result.forms) == 52


def test_benchmark_score_and_rank_with_the_oracle(benchmark):
    oracle = OracleScorer({_BENCH_SET.prompt: frozenset(_BENCH_SET.correct_forms)})

    def score_and_rank():
        scored = score_candidates(oracle, _BENCH_SET)
        return rank_candidates(scored, _BENCH_SET.correct_forms, fact_id="f1")

    result = benchmark.pedantic(score_and_rank, rounds=200, iterations=10)
    assert result.best_correct_rank == 1
    assert result.best_correct_form == "Praha"


# One bundle line of three sources, two of which share a prompt, so two
# sets: each round times the line through pending sets, score, rank and
# the text of its records, as evaluate takes it.
_BENCH_LINE = {
    "fact_id": "f1", "language": "cs", "relation_id": "P19",
    "correct_forms": ["Praha", "Praze"],
    "distractors": [[f"Q{i}", f"město{i}"] for i in range(50)],
    "subject_gender": None, "no_space": False,
    "inflection_pair": {"noninflected": "Praha", "inflected": "Praze"},
    "sources": {"TEMPLATE": {"prompt": "Narodil se v", "qe_score": 0.5},
                "MT": {"prompt": "Narodil se v", "qe_score": 0.7},
                "LLM": {"prompt": "Jeho rodiště je", "qe_score": 0.6}},
}


def test_benchmark_evaluate_one_bundle_line(benchmark):
    correct = frozenset(_BENCH_LINE["correct_forms"])
    oracle = OracleScorer({"Narodil se v": correct, "Jeho rodiště je": correct})

    def evaluate_line():
        texts = []
        for line, sources, cs in pipeline._pending_sets([_BENCH_LINE], set()):
            continuations = candidate_continuations(cs, line["no_space"])
            scored = score_candidates(oracle, cs, continuations=continuations)
            result = rank_candidates(scored, cs.correct_forms, fact_id=cs.fact_id)
            texts += pipeline._record_texts(line, sources, cs.prompt, result)
        return texts

    texts = benchmark.pedantic(evaluate_line, rounds=200, iterations=10)
    assert [key for key, _ in texts] == [("f1", "LLM"), ("f1", "MT"), ("f1", "TEMPLATE")]
    assert all('"best_correct_rank":1,' in text for _, text in texts)
