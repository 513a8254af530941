"""Render aggregates as markdown tables and CSV files.

Table layout follows the published convention: verbalization rows by
language columns, the R@n block before the Mean Rank block. Markdown is
emitted compactly (no column padding) so that removing a row never
changes the bytes of the remaining rows.
"""

from __future__ import annotations

import csv
import io
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .metrics import (
    AggregateCell,
    GenderRateCell,
    InflectionDeltaCell,
    QECorrelationCell,
    RankHistogram,
)

SOURCE_LABELS = {"TEMPLATE": "Template", "MT": "MT", "LLM": "LLM"}

NOT_AVAILABLE = "n/a"


def format_stripped(value: float, decimals: int) -> str:
    """Round to ``decimals`` places, then strip trailing zeros and the dot."""
    text = f"{value:.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def format_fixed(value: float, decimals: int) -> str:
    return f"{value:.{decimals}f}"


_STRIPPED_3 = partial(format_stripped, decimals=3)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def source_label(source: str) -> str:
    return SOURCE_LABELS.get(source, source)


def _cell(cells: Mapping, key: tuple[str, str], value: Callable, fmt: Callable) -> str:
    """``fmt`` of ``value(cell)`` for the cell at ``key``, or ``n/a`` when
    there is no cell there or ``value`` gives None."""
    cell = cells.get(key)
    found = None if cell is None else value(cell)
    return NOT_AVAILABLE if found is None else fmt(found)


def render_main_table(
    cells: Mapping[tuple[str, str], AggregateCell],
    languages: Sequence[str],
    sources: Sequence[str],
    n: int = 1,
) -> str:
    """R@n block then Mean Rank block, one row per verbalization source."""
    headers = ["Verbalization"]
    headers.extend(f"R@{n} {lang}" for lang in languages)
    headers.extend(f"Mean Rank {lang}" for lang in languages)
    mean_rank = partial(format_stripped, decimals=2)
    rows = [
        [source_label(source)]
        + [_cell(cells, (lang, source), lambda c: c.r_at_n.get(n), _STRIPPED_3)
           for lang in languages]
        + [_cell(cells, (lang, source), lambda c: c.mean_rank, mean_rank)
           for lang in languages]
        for source in sources
    ]
    return render_table(headers, rows)


def render_delta_table(
    cells: Mapping[tuple[str, str], InflectionDeltaCell],
    languages: Sequence[str],
    sources: Sequence[str],
) -> str:
    """Average inflected-vs-non-inflected rank delta, two decimals."""
    headers = ["Verbalization"] + list(languages)
    fixed = partial(format_fixed, decimals=2)
    rows = [
        [source_label(source)]
        + [_cell(cells, (lang, source), lambda c: c.mean_delta, fixed) for lang in languages]
        for source in sources
    ]
    return render_table(headers, rows)


def _marked_r(cell: QECorrelationCell) -> str:
    """The cell's r with an asterisk when it is significant; the mark needs
    the whole cell, so the r row's value is the cell when it has an r."""
    return format_stripped(cell.r, 3) + ("*" if cell.significant else "")


def render_qe_table(
    cells: Mapping[tuple[str, str], QECorrelationCell],
    languages: Sequence[str],
    sources: Sequence[str],
) -> str:
    """QE delta rows then correlation rows; significant r gets an asterisk."""
    headers = ["Metric", "Verbalization"] + list(languages)
    rows = [
        [metric, source_label(source)]
        + [_cell(cells, (lang, source), value, fmt) for lang in languages]
        for metric, value, fmt in (
            ("Delta QE", lambda c: c.delta_qe, _STRIPPED_3),
            ("r", lambda c: None if c.r is None else c, _marked_r),
        )
        for source in sources
    ]
    return render_table(headers, rows)


def render_gender_table(
    rate_cells: Mapping[tuple[str, str], GenderRateCell],
    subset_cells: Mapping[tuple[str, str], AggregateCell],
    languages: Sequence[str],
    sources: Sequence[str],
) -> str:
    """Feminine-form percentage and female-subset R@1 per language."""
    headers = ["Verbalization"]
    for lang in languages:
        headers.append(f"%(F) {lang}")
        headers.append(f"R@1(F) {lang}")
    rows = [
        [source_label(source)]
        + [text for lang in languages for text in (
            _cell(rate_cells, (lang, source), lambda c: c.rate,
                  lambda rate: format_fixed(rate * 100.0, 1)),
            _cell(subset_cells, (lang, source), lambda c: c.r_at_n.get(1), _STRIPPED_3),
        )]
        for source in sources
    ]
    return render_table(headers, rows)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header`` and then ``rows`` as CSV lines ending in ``\\n``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def cells_csv(cells: Mapping[tuple[str, str], AggregateCell], n_values) -> str:
    """Machine-readable dump of every aggregate cell."""
    return _csv(
        ["language", "source", *(f"r_at_{n}" for n in n_values), "mean_rank", "count"],
        ([lang, source, *(repr(cell.r_at_n[n]) for n in n_values), repr(cell.mean_rank),
          cell.count]
         for (lang, source), cell in sorted(cells.items())),
    )


def curves_csv(cells: Mapping[tuple[str, str], AggregateCell], n_values) -> str:
    """R@n against n, one row per (language, source, n) point."""
    return _csv(
        ["language", "source", "n", "recall"],
        ([lang, source, n, repr(cell.r_at_n[n])]
         for (lang, source), cell in sorted(cells.items()) for n in n_values),
    )


def histogram_csv(histograms: Mapping[tuple[str, str], RankHistogram]) -> str:
    return _csv(
        ["language", "source", "bucket", "count"],
        ([lang, source, bucket, count]
         for (lang, source), hist in sorted(histograms.items())
         for bucket, count in [*sorted(hist.counts.items()), ("overflow", hist.overflow)]),
    )


def quartiles_csv(histograms: Mapping[tuple[str, str], RankHistogram]) -> str:
    return _csv(
        ["language", "source", "q1", "median", "q3"],
        ([lang, source, hist.q1, hist.median, hist.q3]
         for (lang, source), hist in sorted(histograms.items())),
    )


def qe_csv(cells: Mapping[tuple[str, str], QECorrelationCell]) -> str:
    return _csv(
        ["language", "source", "delta_qe", "delta_r1", "r", "p", "significant",
         "n_relations", "note"],
        ([lang, source, repr(cell.delta_qe), repr(cell.delta_r1),
          "" if cell.r is None else repr(cell.r), "" if cell.p is None else repr(cell.p),
          int(cell.significant), cell.n_relations, cell.note or ""]
         for (lang, source), cell in sorted(cells.items())),
    )
