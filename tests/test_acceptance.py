"""Acceptance suite.

One test per acceptance criterion, at the stated tolerance. Each prints a
pass line on success (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import hashlib
import math
import random
import time
from pathlib import Path

import pytest

from factprobe import cli
from factprobe.config import load_config
from factprobe.corpus import Corpus, Entity, Fact, Relation
from factprobe.candidates import keyed_pool, sample_distractors
from factprobe.metrics import (
    FORM_INFLECTED,
    FORM_NONINFLECTED,
    EvalRecord,
    aggregate_by_group,
    inflection_delta,
    p_value_from_r,
    pearson,
    recall_at_n,
)
from factprobe.pipeline import cmd_build_dataset, cmd_evaluate, cmd_report, load_records
from factprobe.report import render_delta_table, render_main_table
from factprobe.score import rank_candidates, rank_of_form
from factprobe.split import (
    REJECT_NOT_SENTENCE_FINAL,
    Rejection,
    match_object_form,
)
from factprobe.verbalize import build_fewshot_prompt, parse_exemplar_file

from conftest import EXEMPLARS_DIR, GOLDEN_DIR, make_toy_workspace, pair_scores
from oracle_distractors import oracle_sample
from test_report import DELTAS, MAIN_EXTRA, MAIN_SLAVIC, PUBLISHED_ASTERISKS, QE_TABLE

def _ok(name: str) -> None:
    print(f"[ACCEPTANCE] PASS: {name}")


def test_criterion_ranking_oracle_equivalence():
    """1,000 random candidate sets, ranks must equal a brute-force sort."""
    rng = random.Random(20240917)
    started = time.monotonic()
    for case in range(1000):
        size = rng.randint(2, 12)
        forms = rng.sample(
            [f"kandidat{i:02d}" for i in range(40)] + ["Žižkov", "Ćuprija", "ábc"],
            size,
        )
        scores = [round(rng.uniform(-30, 0), 3) for _ in forms]
        correct = set(rng.sample(forms, rng.randint(1, size)))
        result = rank_candidates(pair_scores(zip(forms, scores)), correct)
        # Independent brute-force oracle with the byte-order tie-break.
        oracle = sorted(zip(forms, scores),
                        key=lambda fs: (-fs[1], fs[0].encode("utf-8")))
        assert [rank_of_form(result, f) for f, _ in oracle] == list(range(1, size + 1))
        oracle_best = min(
            i + 1 for i, (f, _) in enumerate(oracle) if f in correct
        )
        assert result.best_correct_rank == oracle_best
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(f"ranking oracle equivalence (1000 cases in {elapsed:.2f}s)")


def test_criterion_oracle_scorer_bounds_via_cli(tmp_path):
    """Perfect scorer: R@1 = mean rank = 1.0; adversarial: R@5 = 0.0.

    The synthetic corpus spans 2 languages x 3 relations; cells carry 8
    facts each so that every fact has at least 5 distractors (with the
    5-fact cell of the build-dataset example, pools cap at 4 distractors
    and R@5 = 0 is unreachable; see the build example test instead).
    """
    workspaces = {}
    for mode in ("perfect", "adversarial"):
        workspaces[mode] = make_toy_workspace(
            tmp_path / mode, facts_per_cell=8, scorer_mode=mode, with_qe=False
        )
    started = time.monotonic()
    for mode, config_path in workspaces.items():
        out = config_path.parent / "out"
        assert cli.main(
            ["build-dataset", "--config", str(config_path), "--replay"]
        ) == 0
        assert cli.main(
            ["evaluate", "--config", str(config_path), "--bundle",
             str(out / "bundle")]
        ) == 0
        assert cli.main(
            ["report", "--config", str(config_path), "--records",
             str(out / "records")]
        ) == 0
    elapsed = time.monotonic() - started

    perfect = load_records(workspaces["perfect"].parent / "out" / "records")
    for key, cell in aggregate_by_group(perfect).items():
        assert cell.r_at_n[1] == 1.0, key
        assert cell.mean_rank == 1.0, key
    adversarial = load_records(workspaces["adversarial"].parent / "out" / "records")
    for key, cell in aggregate_by_group(adversarial).items():
        assert cell.r_at_n[5] == 0.0, key
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(f"oracle-scorer bounds through the CLI ({elapsed:.2f}s)")


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_criterion_replay_determinism(tmp_path):
    """Two replay runs with identical config: byte-identical artifacts."""
    outputs = []
    for name in ("run1", "run2"):
        config_path = make_toy_workspace(tmp_path / name, facts_per_cell=5)
        config = load_config(config_path)
        bundle = cmd_build_dataset(config, replay=True)
        records = cmd_evaluate(config, bundle)
        cmd_report(config, records)
        outputs.append(_snapshot(config.output_dir))
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs"
    _ok(f"replay determinism ({len(outputs[0])} artifacts byte-identical)")


def test_criterion_distractor_sampling_oracle():
    """100-entity pool: k in {1, 50, 99} must match the standalone oracle."""
    language = "cs"
    relation_id = "P19"
    salt = "acceptance-salt"
    ids = [f"Q{i:03d}" for i in range(100)]
    entities = {
        eid: Entity(id=eid, labels={language: f"label-{eid}"}) for eid in ids
    }
    entities["SUBJ"] = Entity(id="SUBJ", labels={language: "subject"})
    corpus = Corpus(
        entities=entities,
        relations={
            relation_id: Relation(
                id=relation_id,
                english_template="[X] was born in [Y] .",
                templates={language: "[X] se narodil v [Y] ."},
                object_final={language: True},
            )
        },
        facts={},
    )
    fact = Fact(id="f1", subject_id="SUBJ", relation_id=relation_id,
                object_id="Q000", language=language)
    eligible = [eid for eid in ids if eid != "Q000"]
    rng = random.Random(5)
    for k in (1, 50, 99):
        picked = sample_distractors(
            keyed_pool(corpus, ids, relation_id, language, salt), ["label-Q000"], fact,
            k=k,
        )
        expected = oracle_sample(salt, relation_id, language, eligible, k)
        assert [d.entity_id for d in picked] == expected, k
        shuffled = ids[:]
        rng.shuffle(shuffled)
        permuted = sample_distractors(
            keyed_pool(corpus, shuffled, relation_id, language, salt), ["label-Q000"], fact,
            k=k,
        )
        assert permuted == picked, k
        assert "Q000" not in {d.entity_id for d in picked}
    _ok("distractor sampling matches the SHA-256 oracle for k in {1, 50, 99}")


def test_criterion_recall_monotonicity_10k():
    """10,000 random record sets: R@n monotone, R@1 <= R@5."""
    rng = random.Random(424242)
    for case in range(10_000):
        count = rng.randint(1, 25)
        records = [
            EvalRecord(
                fact_id=f"f{i:03d}",
                language="xx",
                relation_id="P0",
                source="TEMPLATE",
                best_correct_rank=rng.randint(1, 60),
            )
            for i in range(count)
        ]
        values = [recall_at_n(records, n) for n in (1, 2, 3, 4, 5, 10, 60)]
        assert values == sorted(values)
        assert values[0] <= values[4]
        assert values[-1] == 1.0
    _ok("R@n monotonicity over 10,000 cases")


SPLIT_CASES = [
    ("Karel Schwarzenberg se narodil v Praze.", "Praha", "Praze", "STEM"),
    ("Kunhuta Lucemburská se narodila v Lucembursku.", "Lucembursko",
     "Lucembursku", "STEM"),
    ("Peter Roget se narodil v Londýně.", "Londýn", "Londýně", "STEM"),
    ("Peter Roget was born in London.", "London", "London", "EXACT"),
]


def test_criterion_split_fidelity():
    """The exemplar sentence pairs split correctly under the stem rule."""
    for sentence, label, expected_form, expected_via in SPLIT_CASES:
        match = match_object_form(sentence, [label])
        assert match is not None, label
        assert match.form == expected_form
        assert match.matched_via.value == expected_via
        prefix = sentence[:match.span[0]]
        remainder = sentence[match.span[1]:]
        assert prefix + match.form + remainder == sentence  # byte round trip
        assert remainder == "."
    # Object-initial word order must be rejected.
    from factprobe.split import _finalize_split  # noqa: SLF001

    initial = match_object_form(
        "V Praze se narodil Karel Schwarzenberg.", ["Praha"]
    )
    rejection = _finalize_split(
        "V Praze se narodil Karel Schwarzenberg.", initial
    )
    assert isinstance(rejection, Rejection)
    assert rejection.reason == REJECT_NOT_SENTENCE_FINAL
    _ok("split fidelity on the exemplar pairs and word-order rejection")


def test_criterion_fewshot_prompt_golden(cs_corpus):
    """Builder output must equal the committed prompt transcription."""
    exemplars = parse_exemplar_file(EXEMPLARS_DIR / "P19.cs.txt")
    prompt = build_fewshot_prompt(
        cs_corpus.relations["P19"], "cs", exemplars,
        cs_corpus.facts["fact-p19-theodore"], cs_corpus,
    )
    golden = (GOLDEN_DIR / "fewshot_P19_cs.txt").read_text(encoding="utf-8")
    assert prompt == golden
    _ok("few-shot prompt reproduces the golden transcription byte-for-byte")


def test_criterion_report_fidelity():
    """Published cell values render into the committed golden tables."""
    from factprobe.metrics import AggregateCell, InflectionDeltaCell

    slavic_cells = {
        key: AggregateCell(r_at_n={1: r1}, mean_rank=mr, count=1)
        for key, (r1, mr) in MAIN_SLAVIC.items()
    }
    table = render_main_table(slavic_cells, ["ru", "cs", "uk", "hr"],
                              ["TEMPLATE", "MT", "LLM"], n=1)
    assert table == (GOLDEN_DIR / "table_main_slavic.md").read_text()

    extra_cells = {
        key: AggregateCell(r_at_n={1: r1}, mean_rank=mr, count=1)
        for key, (r1, mr) in MAIN_EXTRA.items()
    }
    table = render_main_table(extra_cells, ["es", "zh", "vi", "id", "da"],
                              ["TEMPLATE", "MT"], n=1)
    assert table == (GOLDEN_DIR / "table_main_extra.md").read_text()

    delta_cells = {key: InflectionDeltaCell(mean_delta=v, count=1)
                   for key, v in DELTAS.items()}
    table = render_delta_table(delta_cells, ["ru", "cs", "uk", "hr"],
                               ["TEMPLATE", "MT", "LLM"])
    assert table == (GOLDEN_DIR / "table_inflection_delta.md").read_text()
    _ok("report tables reproduce the published cells verbatim")


def test_criterion_pearson_correctness():
    """Exact linear fixtures, the closed-form fixture, asterisk logic."""
    r, _ = pearson([1, 2, 3], [2, 4, 6])
    assert r == 1.0
    r, _ = pearson([1, 2, 3], [6, 5, 4])
    assert r == -1.0
    r, _ = pearson([1, 2, 3], [1, 2, 4])
    assert abs(r - 0.9820) <= 1e-3
    assert r == pytest.approx(9 / math.sqrt(84), abs=1e-12)
    for (lang, source), (_, published_r) in QE_TABLE.items():
        marked = p_value_from_r(published_r, 15) < 0.05
        assert marked == PUBLISHED_ASTERISKS[(lang, source)], (lang, source)
    _ok("pearson r, p and significance markings")


def test_criterion_inflection_delta_sign():
    """Inflected outranking by 5 yields +5.0; the switch flips the sign."""
    records = [
        EvalRecord(
            fact_id=f"f{i}", language="ru", relation_id="P19", source="MT",
            best_correct_rank=2,
            form_ranks={FORM_INFLECTED: 2 + i, FORM_NONINFLECTED: 7 + i},
        )
        for i in range(10)
    ]
    cells = inflection_delta(records)
    assert cells[("ru", "MT")].mean_delta == pytest.approx(5.0)
    flipped = inflection_delta(records, flip_sign=True)
    assert flipped[("ru", "MT")].mean_delta == pytest.approx(-5.0)
    _ok("inflection delta sign convention and config flip")


class _HashScorer:
    """Deterministic pseudo-random scorer, stable across runs/platforms."""

    def score_batch(self, prompt, continuations):
        results = []
        for continuation in continuations:
            digest = hashlib.md5(
                (prompt + "\x00" + continuation).encode("utf-8")
            ).hexdigest()
            results.append((-int(digest[:12], 16) / 16**12, 1))
        return results


def test_criterion_alias_expansion_monotonicity(tmp_path):
    """Growing the correct pool must never decrease any group's R@n."""
    cells = {}
    for name, expand in (("off", False), ("on", True)):
        config_path = make_toy_workspace(
            tmp_path / name, facts_per_cell=5, with_qe=False,
            include_aliases=expand, include_english=expand,
        )
        config = load_config(config_path)
        bundle = cmd_build_dataset(config, replay=True)
        records = load_records(
            cmd_evaluate(config, bundle, scorer=_HashScorer())
        )
        cells[name] = aggregate_by_group(records)
    assert cells["off"].keys() == cells["on"].keys()
    some_strictly_higher = False
    for key in cells["off"]:
        for n in (1, 2, 3, 4, 5):
            off_value = cells["off"][key].r_at_n[n]
            on_value = cells["on"][key].r_at_n[n]
            assert on_value >= off_value, (key, n)
            some_strictly_higher |= on_value > off_value
    _ok("alias/English expansion never decreases R@n "
        f"(strict increase observed: {some_strictly_higher})")
