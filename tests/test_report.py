"""Rendering fidelity: published table values feed fixture cells and the
renderer must reproduce the committed golden markdown byte-for-byte."""

import csv
import io

from factprobe.metrics import (
    AggregateCell,
    GenderRateCell,
    InflectionDeltaCell,
    QECorrelationCell,
    RankHistogram,
    p_value_from_r,
)
from factprobe.report import (
    cells_csv,
    curves_csv,
    format_fixed,
    format_stripped,
    histogram_csv,
    qe_csv,
    quartiles_csv,
    render_delta_table,
    render_gender_table,
    render_main_table,
    render_qe_table,
)

from conftest import GOLDEN_DIR

SLAVIC = ["ru", "cs", "uk", "hr"]
EXTRA = ["es", "zh", "vi", "id", "da"]
ALL_SOURCES = ["TEMPLATE", "MT", "LLM"]


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def _cell(r1, mean_rank):
    return AggregateCell(r_at_n={1: r1}, mean_rank=mean_rank, count=100)


def test_format_stripped():
    assert format_stripped(0.670, 3) == "0.67"
    assert format_stripped(5.0, 2) == "5"
    assert format_stripped(0.512, 3) == "0.512"
    assert format_stripped(19.98, 2) == "19.98"
    assert format_stripped(-0.003, 3) == "-0.003"
    assert format_stripped(-0.0001, 3) == "0"
    assert format_fixed(5.8, 2) == "5.80"


MAIN_SLAVIC = {
    # (R@1, mean rank) per (language, source), published values.
    ("ru", "TEMPLATE"): (0.512, 4.91), ("cs", "TEMPLATE"): (0.579, 4.17),
    ("uk", "TEMPLATE"): (0.488, 5.12), ("hr", "TEMPLATE"): (0.707, 2.94),
    ("ru", "MT"): (0.586, 3.95), ("cs", "MT"): (0.67, 3.16),
    ("uk", "MT"): (0.525, 4.43), ("hr", "MT"): (0.704, 2.68),
    ("ru", "LLM"): (0.545, 4.65), ("cs", "LLM"): (0.615, 3.53),
    ("uk", "LLM"): (0.492, 5.0), ("hr", "LLM"): (0.653, 3.02),
}


def test_main_table_matches_golden():
    cells = {key: _cell(r1, mr)
             for key, (r1, mr) in MAIN_SLAVIC.items()}
    table = render_main_table(cells, SLAVIC, ALL_SOURCES, n=1)
    assert table == _golden("table_main_slavic.md")


MAIN_EXTRA = {
    ("es", "TEMPLATE"): (0.725, 2.64), ("zh", "TEMPLATE"): (0.02, 19.98),
    ("vi", "TEMPLATE"): (0.587, 4.1), ("id", "TEMPLATE"): (0.547, 3.7),
    ("da", "TEMPLATE"): (0.568, 4.16),
    ("es", "MT"): (0.725, 2.61), ("zh", "MT"): (0.059, 15.68),
    ("vi", "MT"): (0.765, 2.59), ("id", "MT"): (0.786, 2.12),
    ("da", "MT"): (0.64, 3.84),
}


def test_extra_languages_table_matches_golden():
    cells = {key: _cell(r1, mr)
             for key, (r1, mr) in MAIN_EXTRA.items()}
    table = render_main_table(cells, EXTRA, ["TEMPLATE", "MT"], n=1)
    assert table == _golden("table_main_extra.md")


DELTAS = {
    ("ru", "TEMPLATE"): 5.80, ("cs", "TEMPLATE"): 8.49,
    ("uk", "TEMPLATE"): 7.86, ("hr", "TEMPLATE"): 8.31,
    ("ru", "MT"): 8.59, ("cs", "MT"): 7.55,
    ("uk", "MT"): 9.02, ("hr", "MT"): 9.02,
    ("ru", "LLM"): 7.54, ("cs", "LLM"): 7.28,
    ("uk", "LLM"): 9.07, ("hr", "LLM"): 8.54,
}


def test_delta_table_matches_golden():
    cells = {key: InflectionDeltaCell(mean_delta=v, count=50)
             for key, v in DELTAS.items()}
    table = render_delta_table(cells, SLAVIC, ALL_SOURCES)
    assert table == _golden("table_inflection_delta.md")


QE_TABLE = {
    # (delta, r); n = 15 relation-level points in the first experiment.
    ("ru", "MT"): (0.073, 0.608), ("cs", "MT"): (0.091, 0.498),
    ("uk", "MT"): (0.038, 0.788), ("hr", "MT"): (-0.003, 0.26),
    ("ru", "LLM"): (0.032, 0.78), ("cs", "LLM"): (0.036, 0.613),
    ("uk", "LLM"): (0.005, 0.741), ("hr", "LLM"): (-0.054, 0.206),
}

PUBLISHED_ASTERISKS = {
    ("ru", "MT"): True, ("cs", "MT"): False, ("uk", "MT"): True,
    ("hr", "MT"): False, ("ru", "LLM"): True, ("cs", "LLM"): True,
    ("uk", "LLM"): True, ("hr", "LLM"): False,
    # Second experiment (8 relation-level points).
    ("es", "GT8"): False, ("zh", "GT8"): False, ("vi", "GT8"): False,
    ("id", "GT8"): False, ("da", "GT8"): True,
}

SECOND_EXPERIMENT_R = {"es": 0.436, "zh": 0.408, "vi": 0.135, "id": 0.592,
                       "da": 0.838}


def _qe_cell(delta, r, n):
    p = p_value_from_r(r, n)
    return QECorrelationCell(
        delta_qe=delta, delta_r1=0.0, r=r, p=p, significant=p < 0.05,
        n_relations=n,
    )


def test_qe_table_matches_golden():
    cells = {key: _qe_cell(delta, r, 15) for key, (delta, r) in QE_TABLE.items()}
    table = render_qe_table(cells, SLAVIC, ["MT", "LLM"])
    assert table == _golden("table_qe_slavic.md")


def test_significance_matches_published_markings():
    # The t-based p-value must reproduce every published asterisk.
    for (lang, source), (_, r) in QE_TABLE.items():
        significant = p_value_from_r(r, 15) < 0.05
        assert significant == PUBLISHED_ASTERISKS[(lang, source)], (lang, source)
    for lang, r in SECOND_EXPERIMENT_R.items():
        significant = p_value_from_r(r, 8) < 0.05
        assert significant == PUBLISHED_ASTERISKS[(lang, "GT8")], lang


GENDER = {
    # (%F numerator per mille, R@1(F)).
    ("ru", "TEMPLATE"): (0, 0.373), ("cs", "TEMPLATE"): (0, 0.375),
    ("uk", "TEMPLATE"): (0, 0.311), ("hr", "TEMPLATE"): (0, 0.545),
    ("ru", "MT"): (807, 0.38), ("cs", "MT"): (898, 0.591),
    ("uk", "MT"): (902, 0.246), ("hr", "MT"): (848, 0.515),
    ("ru", "LLM"): (933, 0.447), ("cs", "LLM"): (977, 0.466),
    ("uk", "LLM"): (967, 0.361), ("hr", "LLM"): (970, 0.485),
}


def test_gender_table_matches_golden():
    rate_cells = {
        key: GenderRateCell(feminine=fem, masculine=1000 - fem, undetermined=0)
        for key, (fem, _) in GENDER.items()
    }
    subset_cells = {
        key: AggregateCell(r_at_n={1: r1}, mean_rank=2.0, count=100)
        for key, (_, r1) in GENDER.items()
    }
    table = render_gender_table(rate_cells, subset_cells, SLAVIC, ALL_SOURCES)
    assert table == _golden("table_gender_slavic.md")


def test_missing_cells_render_na():
    cells = {("ru", "TEMPLATE"): _cell(0.5, 2.0)}
    table = render_main_table(cells, ["ru", "cs"], ["TEMPLATE", "MT"], n=1)
    lines = table.splitlines()
    assert lines[2] == "| Template | 0.5 | n/a | 2 | n/a |"
    assert lines[3] == "| MT | n/a | n/a | n/a | n/a |"


def test_row_bytes_independent_of_other_rows():
    cells = {key: _cell(r1, mr)
             for key, (r1, mr) in MAIN_SLAVIC.items()}
    full = render_main_table(cells, SLAVIC, ALL_SOURCES, n=1).splitlines()
    partial = render_main_table(cells, SLAVIC, ["TEMPLATE", "MT"], n=1).splitlines()
    assert partial[0] == full[0]
    assert partial[2] == full[2]  # Template row unchanged
    assert partial[3] == full[3]  # MT row unchanged


def test_csv_exports_parse_back():
    cells = {key: AggregateCell(r_at_n={1: 0.5, 5: 0.9}, mean_rank=3.25, count=4)
             for key in [("cs", "TEMPLATE"), ("cs", "MT")]}
    for text, expected_header in [
        (cells_csv(cells, (1, 5)),
         ["language", "source", "r_at_1", "r_at_5", "mean_rank", "count"]),
        (curves_csv(cells, (1, 5)), ["language", "source", "n", "recall"]),
    ]:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == expected_header
        assert len(rows) > 2
    hist = {("cs", "TEMPLATE"): RankHistogram(counts={1: 2, 2: 0}, overflow=1,
                                              q1=1, median=1, q3=2)}
    rows = list(csv.reader(io.StringIO(histogram_csv(hist))))
    assert rows[-1] == ["cs", "TEMPLATE", "overflow", "1"]
    rows = list(csv.reader(io.StringIO(quartiles_csv(hist))))
    assert rows[1] == ["cs", "TEMPLATE", "1", "1", "2"]
    qe_cells = {("cs", "MT"): _qe_cell(0.1, 0.9, 10)}
    rows = list(csv.reader(io.StringIO(qe_csv(qe_cells))))
    assert rows[1][0:2] == ["cs", "MT"]
