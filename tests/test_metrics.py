import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe.errors import (
    DegenerateInput,
    EmptyGroup,
    MissingPatterns,
    NoEligibleRecords,
)
from factprobe.metrics import (
    FORM_INFLECTED,
    FORM_NONINFLECTED,
    EvalRecord,
    aggregate_by_group,
    feminine_form_rate,
    inflection_delta,
    mean_best_rank,
    pearson,
    qe_delta_correlation,
    rank_histogram,
    recall_at_n,
    subset_metrics,
)


def _record(rank, fact_id="f1", language="cs", source="TEMPLATE", relation="P19", **kwargs):
    return EvalRecord(
        fact_id=fact_id,
        language=language,
        relation_id=relation,
        source=source,
        best_correct_rank=rank,
        **kwargs,
    )


def _records(ranks, **kwargs):
    return [
        _record(rank, fact_id=f"f{i:04d}", **kwargs) for i, rank in enumerate(ranks)
    ]


def test_recall_at_n_values():
    records = _records([1, 3, 7])
    assert recall_at_n(records, 1) == pytest.approx(1 / 3)
    assert recall_at_n(records, 5) == pytest.approx(2 / 3)
    assert recall_at_n(records, 7) == 1.0


def test_recall_empty_group():
    with pytest.raises(EmptyGroup):
        recall_at_n([], 1)


def test_mean_best_rank_values():
    assert mean_best_rank(_records([1, 3, 7])) == pytest.approx(11 / 3)
    assert mean_best_rank(_records([1])) == 1.0


def test_mean_best_rank_against_resummation_oracle():
    rng = random.Random(13)
    ranks = [rng.randint(1, 52) for _ in range(1000)]
    records = _records(ranks)
    rng.shuffle(records)
    oracle = sum(ranks) / len(ranks)  # independent naive re-summation
    assert abs(mean_best_rank(records) - oracle) <= 1e-9


def test_mean_is_permutation_invariant():
    records = _records([5, 2, 9, 1, 1, 30])
    shuffled = records[::-1]
    assert mean_best_rank(records) == mean_best_rank(shuffled)


def test_rank_histogram_basic():
    hist = rank_histogram(_records([1, 1, 2]), max_bucket=5)
    assert hist.counts[1] == 2 and hist.counts[2] == 1
    assert hist.median == 1
    assert hist.overflow == 0


def test_rank_histogram_overflow():
    hist = rank_histogram(_records([60, 70]), max_bucket=50)
    assert hist.overflow == 2
    assert all(count == 0 for count in hist.counts.values())


def test_rank_histogram_quartiles_match_numpy_lower():
    rng = random.Random(99)
    ranks = [rng.randint(1, 40) for _ in range(20)]
    hist = rank_histogram(_records(ranks), max_bucket=50)
    q1, med, q3 = (
        int(np.percentile(ranks, q, method="lower")) for q in (25, 50, 75)
    )
    assert (hist.q1, hist.median, hist.q3) == (q1, med, q3)


@given(
    ranks=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=50)
)
@settings(max_examples=300)
def test_recall_monotone_and_consistent(ranks):
    records = _records(ranks)
    values = [recall_at_n(records, n) for n in range(1, 10)]
    assert values == sorted(values)
    assert recall_at_n(records, max(ranks)) == 1.0


def test_inflection_delta_basic():
    record = _record(
        2, form_ranks={FORM_INFLECTED: 2, FORM_NONINFLECTED: 7}
    )
    cells = inflection_delta([record])
    assert cells[("cs", "TEMPLATE")].mean_delta == pytest.approx(5.0)


def test_inflection_delta_flip_sign():
    record = _record(2, form_ranks={FORM_INFLECTED: 2, FORM_NONINFLECTED: 7})
    cells = inflection_delta([record], flip_sign=True)
    assert cells[("cs", "TEMPLATE")].mean_delta == pytest.approx(-5.0)


def test_inflection_delta_distinct_ranks_imply_nonzero():
    # The two forms are distinct candidates, so their ranks always differ.
    record = _record(3, form_ranks={FORM_INFLECTED: 4, FORM_NONINFLECTED: 3})
    cells = inflection_delta([record])
    assert abs(cells[("cs", "TEMPLATE")].mean_delta) >= 1


def test_inflection_delta_requires_pairs():
    with pytest.raises(NoEligibleRecords):
        inflection_delta(_records([1, 2]))


def test_inflection_delta_groups_by_language_and_source():
    records = [
        _record(1, fact_id="a", language="ru", source="MT",
                form_ranks={FORM_INFLECTED: 1, FORM_NONINFLECTED: 9}),
        _record(1, fact_id="b", language="ru", source="MT",
                form_ranks={FORM_INFLECTED: 2, FORM_NONINFLECTED: 8}),
        _record(1, fact_id="c", language="cs", source="MT",
                form_ranks={FORM_INFLECTED: 5, FORM_NONINFLECTED: 6}),
    ]
    cells = inflection_delta(records)
    assert cells[("ru", "MT")].mean_delta == pytest.approx(7.0)
    assert cells[("ru", "MT")].count == 2
    assert cells[("cs", "MT")].mean_delta == pytest.approx(1.0)


def test_subset_metrics_gender_filter():
    records = [
        _record(1, fact_id="a", subject_gender="female"),
        _record(9, fact_id="b", subject_gender="male"),
        _record(1, fact_id="c", subject_gender="transgender female"),
    ]
    cell = subset_metrics(
        records, lambda r: r.subject_gender in ("female", "transgender female")
    )
    assert cell.count == 2
    assert cell.r_at_n[1] == 1.0


def test_subset_metrics_always_true_equals_unfiltered():
    records = _records([1, 4, 2, 8])
    cell = subset_metrics(records, lambda r: True)
    assert cell.mean_rank == mean_best_rank(records)
    assert cell.r_at_n[1] == recall_at_n(records, 1)


def test_subset_metrics_empty():
    with pytest.raises(EmptyGroup):
        subset_metrics(_records([1]), lambda r: False)


CZECH_PATTERNS = {
    "cs": {
        "P19": {
            "feminine": ["narodila se", "se narodila"],
            "masculine": ["narodil se", "se narodil"],
        }
    }
}


def test_feminine_form_rate_czech_markers():
    records = [
        _record(1, fact_id="a", prompt="Kunhuta Lucemburská se narodila v "),
        _record(1, fact_id="b", prompt="Karel Schwarzenberg se narodil v "),
    ]
    cells = feminine_form_rate(records, CZECH_PATTERNS)
    cell = cells[("cs", "TEMPLATE")]
    assert cell.feminine == 1 and cell.masculine == 1
    assert cell.rate == pytest.approx(0.5)


def test_feminine_form_rate_all_masculine_is_zero():
    records = [
        _record(1, fact_id=f"f{i}", prompt=f"Subjekt{i} se narodil v ")
        for i in range(4)
    ]
    cells = feminine_form_rate(records, CZECH_PATTERNS)
    assert cells[("cs", "TEMPLATE")].rate == 0.0


def test_feminine_marker_not_shadowed_by_masculine_prefix():
    # "se narodil" is a prefix of "se narodila"; boundaries must prevent
    # the masculine marker from matching the feminine form.
    records = [_record(1, prompt="Marion Daviesová se narodila v ")]
    cell = feminine_form_rate(records, CZECH_PATTERNS)[("cs", "TEMPLATE")]
    assert (cell.feminine, cell.masculine) == (1, 0)


def test_feminine_form_rate_undetermined_bucket():
    records = [_record(1, prompt="Tady není žádný marker ")]
    cell = feminine_form_rate(records, CZECH_PATTERNS)[("cs", "TEMPLATE")]
    assert cell.undetermined == 1
    assert cell.rate is None


def test_feminine_form_rate_missing_patterns():
    with pytest.raises(MissingPatterns):
        feminine_form_rate([_record(1, relation="P999", prompt="x")], CZECH_PATTERNS)


def test_pearson_perfect_positive_and_negative():
    r, p = pearson([1, 2, 3], [2, 4, 6])
    assert r == pytest.approx(1.0)
    assert p == pytest.approx(0.0, abs=1e-12)
    r, _ = pearson([1, 2, 3], [6, 5, 4])
    assert r == pytest.approx(-1.0)


def test_pearson_closed_form_fixture():
    # Closed form: r = 9 / sqrt(84) = 0.9819805060619657.
    r, p = pearson([1, 2, 3], [1, 2, 4])
    assert r == pytest.approx(9 / math.sqrt(84), abs=1e-12)
    assert 0 < p < 1


def test_pearson_p_matches_scipy_oracle():
    from scipy import stats

    xs = [0.1, 0.4, 0.35, 0.8, 0.62, 0.9, 0.05]
    ys = [1.2, 2.9, 2.2, 4.4, 4.1, 5.3, 0.7]
    r, p = pearson(xs, ys)
    oracle = stats.pearsonr(xs, ys)
    assert r == pytest.approx(float(oracle.statistic), abs=1e-12)
    assert p == pytest.approx(float(oracle.pvalue), abs=1e-10)


def test_pearson_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        pearson([1, 2], [3, 4])
    with pytest.raises(DegenerateInput):
        pearson([1, 1, 1], [2, 3, 4])


@given(
    xs=st.lists(st.integers(min_value=-100, max_value=100), min_size=3,
                max_size=20, unique=True),
    a=st.sampled_from([-3.0, -1.0, 0.5, 2.0]),
    b=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
@settings(max_examples=200)
def test_pearson_linear_identity(xs, a, b):
    ys = [a * x + b for x in xs]
    r, _ = pearson([float(x) for x in xs], ys)
    assert r == pytest.approx(1.0 if a > 0 else -1.0)


def _qe_records(language, relation, source, qe, r1_hits, start=0):
    records = []
    for i, hit in enumerate(r1_hits, start=start):
        records.append(
            _record(
                1 if hit else 5,
                fact_id=f"{language}-{relation}-{source}-{i:03d}",
                language=language,
                relation=relation,
                source=source,
                qe_score=qe,
            )
        )
    return records


def test_qe_delta_correlation_linear():
    # Four relations whose QE gain is exactly proportional to the R@1 gain.
    records = []
    for idx, relation in enumerate(["P1", "P2", "P3", "P4"]):
        records += _qe_records("cs", relation, "TEMPLATE", 0.5, [False] * 10)
        hits = [True] * (idx + 2) + [False] * (8 - idx)
        records += _qe_records("cs", relation, "MT", 0.5 + 0.05 * (idx + 2), hits)
    cells = qe_delta_correlation(records)
    cell = cells[("cs", "MT")]
    assert cell.n_relations == 4
    assert cell.r == pytest.approx(1.0)
    assert cell.significant


def test_qe_delta_correlation_degenerate_is_flagged():
    records = []
    for relation in ["P1", "P2", "P3"]:
        records += _qe_records("cs", relation, "TEMPLATE", 0.5, [False, True])
        records += _qe_records("cs", relation, "MT", 0.5, [True, True])
    cells = qe_delta_correlation(records)
    cell = cells[("cs", "MT")]
    assert cell.delta_qe == pytest.approx(0.0)
    assert cell.r is None
    assert cell.note == "DEGENERATE_INPUT"


def test_qe_delta_correlation_insufficient_relations():
    records = []
    records += _qe_records("cs", "P1", "TEMPLATE", 0.4, [False, True])
    records += _qe_records("cs", "P1", "MT", 0.7, [True, True])
    cells = qe_delta_correlation(records)
    assert cells[("cs", "MT")].note == "INSUFFICIENT_RELATIONS"


def test_qe_delta_correlation_requires_qe():
    with pytest.raises(EmptyGroup):
        qe_delta_correlation(_records([1, 2, 3]))


def test_aggregate_by_group_shapes():
    records = _records([1, 2], language="ru") + _records([3, 4], language="cs")
    cells = aggregate_by_group(records)
    assert set(cells) == {("ru", "TEMPLATE"), ("cs", "TEMPLATE")}
    assert cells[("ru", "TEMPLATE")].count == 2
