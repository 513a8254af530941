"""Aggregate ranking outcomes into the full metric family.

All reductions are pure functions over record lists, and none depends
on the order of its records: every sum is a count or a ``math.fsum``,
which is correctly rounded and so the same in any order, ranks are sorted
before quartiles are read, and grouped results come out in key order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DegenerateInput,
    EmptyGroup,
    MissingPatterns,
    NoEligibleRecords,
)

FORM_NONINFLECTED = "NONINFLECTED"
FORM_INFLECTED = "INFLECTED"

FEMALE_GENDERS = frozenset({"female", "transgender female"})

DEFAULT_N_VALUES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class EvalRecord:
    """Per-(fact, verbalization) ranking outcome feeding every aggregate.

    Its fields are those of a ``records`` or ``progress`` line."""

    fact_id: str
    language: str
    relation_id: str
    source: str
    best_correct_rank: int
    best_correct_form: str | None = None
    form_ranks: dict[str, int] | None = None
    qe_score: float | None = None
    subject_gender: str | None = None
    prompt: str | None = None

    def to_line(self) -> dict:
        """The record's line: its fields."""
        return vars(self).copy()

    @classmethod
    def from_line(cls, line: dict) -> EvalRecord:
        """The record of ``line``, already checked against its spec; any
        field the record does not have is ignored."""
        return cls(*map(line.get, _RECORD_FIELDS))


_RECORD_FIELDS = tuple(field.name for field in fields(EvalRecord))


@dataclass(frozen=True)
class AggregateCell:
    r_at_n: dict[int, float]
    mean_rank: float
    count: int


@dataclass(frozen=True)
class RankHistogram:
    counts: dict[int, int]
    overflow: int
    q1: int
    median: int
    q3: int


@dataclass(frozen=True)
class InflectionDeltaCell:
    mean_delta: float
    count: int


@dataclass(frozen=True)
class GenderRateCell:
    feminine: int
    masculine: int
    undetermined: int

    @property
    def rate(self) -> float | None:
        determined = self.feminine + self.masculine
        if determined == 0:
            return None
        return self.feminine / determined


@dataclass(frozen=True)
class QECorrelationCell:
    delta_qe: float
    delta_r1: float
    r: float | None
    p: float | None
    significant: bool
    n_relations: int
    note: str | None = None  # reason code when r is unavailable


def recall_at_n(records: Sequence[EvalRecord], n: int) -> float:
    """Fraction of records whose best correct rank is within the top n."""
    if not records:
        raise EmptyGroup("no records")
    if n < 1:
        raise ValueError("n must be >= 1")
    hits = sum(1 for r in records if r.best_correct_rank <= n)
    return hits / len(records)


def mean_best_rank(records: Sequence[EvalRecord]) -> float:
    if not records:
        raise EmptyGroup("no records")
    return math.fsum(r.best_correct_rank for r in records) / len(records)


def _lower_quartile(sorted_values: list[int], q: float) -> int:
    # Lower-interpolation convention: floor index into the sorted sample.
    idx = math.floor(q * (len(sorted_values) - 1))
    return sorted_values[idx]


def rank_histogram(records: Sequence[EvalRecord], max_bucket: int = 50) -> RankHistogram:
    if not records:
        raise EmptyGroup("no records")
    ranks = sorted(r.best_correct_rank for r in records)
    counts = {n: 0 for n in range(1, max_bucket + 1)}
    overflow = 0
    for rank in ranks:
        if rank <= max_bucket:
            counts[rank] += 1
        else:
            overflow += 1
    return RankHistogram(
        counts=counts,
        overflow=overflow,
        q1=_lower_quartile(ranks, 0.25),
        median=_lower_quartile(ranks, 0.50),
        q3=_lower_quartile(ranks, 0.75),
    )


def aggregate_cell(
    records: Sequence[EvalRecord],
    n_values=DEFAULT_N_VALUES,
) -> AggregateCell:
    if not records:
        raise EmptyGroup("no records")
    return AggregateCell(
        r_at_n={int(n): recall_at_n(records, int(n)) for n in n_values},
        mean_rank=mean_best_rank(records),
        count=len(records),
    )


def group_records(
    records: Iterable[EvalRecord], keys: tuple[str, ...] = ("language", "source")
) -> dict[tuple, list[EvalRecord]]:
    groups: dict[tuple, list[EvalRecord]] = {}
    for record in records:
        key = tuple(getattr(record, k) for k in keys)
        groups.setdefault(key, []).append(record)
    return {k: groups[k] for k in sorted(groups)}


def aggregate_by_group(
    records: Iterable[EvalRecord],
    n_values=DEFAULT_N_VALUES,
    keys: tuple[str, ...] = ("language", "source"),
) -> dict[tuple, AggregateCell]:
    return {
        key: aggregate_cell(group, n_values)
        for key, group in group_records(records, keys).items()
    }


def subset_metrics(
    records: Sequence[EvalRecord],
    predicate: Callable[[EvalRecord], bool],
    n_values=DEFAULT_N_VALUES,
) -> AggregateCell:
    """Aggregate over the records selected by a pure predicate."""
    selected = [r for r in records if predicate(r)]
    if not selected:
        raise EmptyGroup("predicate selected no records")
    return aggregate_cell(selected, n_values)


def inflection_delta(
    records: Sequence[EvalRecord], flip_sign: bool = False
) -> dict[tuple[str, str], InflectionDeltaCell]:
    """Average rank delta between the two ground-truth object forms.

    delta = rank(non-inflected) - rank(inflected), so positive means the
    inflected form ranks better. ``flip_sign`` switches to the opposite
    convention. Only records carrying exactly the two tagged form ranks
    participate.
    """
    eligible = [
        r
        for r in records
        if r.form_ranks is not None
        and FORM_NONINFLECTED in r.form_ranks
        and FORM_INFLECTED in r.form_ranks
    ]
    if not eligible:
        raise NoEligibleRecords("no records carry both tagged form ranks")
    sign = -1.0 if flip_sign else 1.0
    groups: dict[tuple[str, str], list[float]] = {}
    for record in eligible:
        delta = sign * (
            record.form_ranks[FORM_NONINFLECTED] - record.form_ranks[FORM_INFLECTED]
        )
        groups.setdefault((record.language, record.source), []).append(delta)
    return {
        key: InflectionDeltaCell(mean_delta=math.fsum(vals) / len(vals), count=len(vals))
        for key, vals in sorted(groups.items())
    }


def _compile_markers(markers: Iterable[str]) -> list[re.Pattern]:
    # Word boundaries matter: a masculine marker is often a prefix of the
    # feminine form ("se narodil" vs "se narodila").
    return [re.compile(rf"(?<!\w){re.escape(m)}(?!\w)") for m in markers]


def feminine_form_rate(
    prompt_records: Iterable,
    patterns: Mapping[str, Mapping[str, Mapping[str, Sequence[str]]]],
) -> dict[tuple[str, str], GenderRateCell]:
    """Classify prompts by gendered verb-form markers.

    ``patterns`` maps language -> relation id -> {"feminine": [...],
    "masculine": [...]}; the marker lists are authored data. A prompt
    matching markers of exactly one gender is counted for it; prompts
    matching neither (or both) land in the UNDETERMINED bucket.
    """
    compiled: dict[tuple[str, str], tuple[list[re.Pattern], list[re.Pattern]]] = {}
    tallies: dict[tuple[str, str], list[int]] = {}
    for record in prompt_records:
        lang, relation = record.language, record.relation_id
        if lang not in patterns or relation not in patterns[lang]:
            raise MissingPatterns(
                f"no gender markers for language {lang!r} relation {relation!r}"
            )
        if (lang, relation) not in compiled:
            entry = patterns[lang][relation]
            compiled[(lang, relation)] = (
                _compile_markers(entry.get("feminine", ())),
                _compile_markers(entry.get("masculine", ())),
            )
        fem_markers, masc_markers = compiled[(lang, relation)]
        prompt = record.prompt or ""
        fem = any(p.search(prompt) for p in fem_markers)
        masc = any(p.search(prompt) for p in masc_markers)
        tally = tallies.setdefault((lang, record.source), [0, 0, 0])
        if fem and not masc:
            tally[0] += 1
        elif masc and not fem:
            tally[1] += 1
        else:
            tally[2] += 1
    return {
        key: GenderRateCell(feminine=t[0], masculine=t[1], undetermined=t[2])
        for key, t in sorted(tallies.items())
    }


def pearson(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Pearson r and the two-sided p-value from the t statistic."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must have equal length")
    if n < 3:
        raise DegenerateInput(f"need at least 3 points, got {n}")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateInput("zero variance")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(var_x * var_y)
    r = max(-1.0, min(1.0, r))
    p = p_value_from_r(r, n)
    return r, p


def p_value_from_r(r: float, n: int) -> float:
    """Two-sided p for Pearson r under the t distribution with n-2 df."""
    if n < 3:
        raise DegenerateInput(f"need at least 3 points, got {n}")
    if abs(r) >= 1.0:
        return 0.0
    from scipy import stats

    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    return 2.0 * float(stats.t.sf(t, n - 2))


SIGNIFICANCE_LEVEL = 0.05


def qe_delta_correlation(
    records: Sequence[EvalRecord],
    baseline_source: str = "TEMPLATE",
    min_relations: int = 3,
) -> dict[tuple[str, str], QECorrelationCell]:
    """Correlate QE gains with R@1 gains over the baseline verbalization.

    Per (language, relation, source): mean QE and R@1 deltas against the
    baseline source. Per (language, source): the average QE delta over
    relations and the Pearson correlation over the relation-level points.
    Cells with fewer than ``min_relations`` points or degenerate variance
    carry a reason code instead of a correlation.
    """
    with_qe = [r for r in records if r.qe_score is not None]
    if not with_qe:
        raise EmptyGroup("no records carry QE scores")

    by_group: dict[tuple[str, str, str], list[EvalRecord]] = {}
    for record in with_qe:
        by_group.setdefault(
            (record.language, record.relation_id, record.source), []
        ).append(record)

    def group_stats(key) -> tuple[float, float] | None:
        group = by_group.get(key)
        if not group:
            return None
        qe = math.fsum(r.qe_score for r in group) / len(group)
        r1 = recall_at_n(group, 1)
        return qe, r1

    sources = sorted({r.source for r in with_qe} - {baseline_source})
    languages = sorted({r.language for r in with_qe})
    cells: dict[tuple[str, str], QECorrelationCell] = {}
    for language in languages:
        relations = sorted(
            {r.relation_id for r in with_qe if r.language == language}
        )
        for source in sources:
            points: list[tuple[float, float]] = []
            for relation in relations:
                base = group_stats((language, relation, baseline_source))
                comp = group_stats((language, relation, source))
                if base is None or comp is None:
                    continue
                points.append((comp[0] - base[0], comp[1] - base[1]))
            if not points:
                continue
            delta_qe = math.fsum(p[0] for p in points) / len(points)
            delta_r1 = math.fsum(p[1] for p in points) / len(points)
            r = p = None
            note = None
            significant = False
            if len(points) < min_relations:
                note = "INSUFFICIENT_RELATIONS"
            else:
                try:
                    r, p = pearson([p[0] for p in points], [p[1] for p in points])
                    significant = p < SIGNIFICANCE_LEVEL
                except DegenerateInput:
                    note = "DEGENERATE_INPUT"
            cells[(language, source)] = QECorrelationCell(
                delta_qe=delta_qe,
                delta_r1=delta_r1,
                r=r,
                p=p,
                significant=significant,
                n_relations=len(points),
                note=note,
            )
    return cells
