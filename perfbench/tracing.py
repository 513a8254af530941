"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces public functions and methods of ``factprobe``
with wrappers that record a span (name, start, end, parent, id) per call
and keep counters at the same boundaries. Nothing inside ``src/factprobe``
changes. Spans stay in memory; ``write`` dumps them when the run ends and
``layer_metrics`` turns them into the per-layer numbers.

A span's id is ``(fact_id, source)`` where the call's arguments carry it;
otherwise it inherits the id of its parent span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path


def _targets():
    """(owner, attribute, span name, id extractor) for every wrapped call.

    Functions are patched in the namespace their caller looks them up in;
    methods are patched on the class.
    """
    from factprobe import clients, config, corpus, pipeline, report, score

    return (
        (config, "load_config", "config.load", None),
        (pipeline, "cmd_build_dataset", "pipeline.build", None),
        (pipeline, "cmd_evaluate", "pipeline.evaluate", None),
        (pipeline, "cmd_report", "pipeline.report", None),
        (pipeline, "load_corpus", "corpus.load", None),
        (pipeline, "filter_relations", "corpus.filter", None),
        (pipeline, "unique_object_pool", "corpus.pool", None),
        (corpus, "unique_object_pool", "corpus.pool", None),
        (pipeline, "make_template_verbalization", "verbalize.template",
         lambda a, k: (a[0].id, "TEMPLATE")),
        (pipeline, "make_mt_verbalization", "verbalize.mt",
         lambda a, k: (a[0].id, "MT")),
        (pipeline, "make_llm_verbalization", "verbalize.llm",
         lambda a, k: (a[0].id, "LLM")),
        (clients, "load_fixtures", "clients.fixture_load", None),
        (clients.TextService, "fetch", "clients.fetch", None),
        (clients.ResponseCache, "get", "clients.cache_get", None),
        (clients.ResponseCache, "put", "clients.cache_put", None),
        (clients.ReplayClient, "complete", "clients.complete", None),
        (clients.HttpClient, "complete", "clients.complete", None),
        (pipeline, "split_verbalization", "split.split",
         lambda a, k: (a[0].fact_id, a[0].source.value)),
        (pipeline, "collect_correct_forms", "split.forms", lambda a, k: (a[1].id, None)),
        (pipeline, "sample_distractors", "candidates.sample", lambda a, k: (a[2].id, None)),
        (pipeline, "assemble_candidate_set", "candidates.assemble", lambda a, k: (a[0], None)),
        (pipeline, "make_scorer", "score.make_scorer", None),
        (pipeline, "score_candidates", "score.score", lambda a, k: (a[1].fact_id, None)),
        (score.OracleScorer, "score_batch", "score.round_trip", None),
        (score.TableScorer, "score_batch", "score.round_trip", None),
        (score.ProtocolScorerClient, "score_batch", "score.round_trip", None),
        (pipeline, "rank_candidates", "score.rank", lambda a, k: (k.get("fact_id"), None)),
        (pipeline, "read_jsonl", "pipeline.read_jsonl", None),
        (pipeline, "write_jsonl", "pipeline.write_jsonl", None),
        (pipeline, "file_digest", "pipeline.file_digest", None),
        (pipeline, "load_records", "report.load_records", None),
    ) + tuple(
        (pipeline, name, "metrics.aggregate", None)
        for name in ("aggregate_by_group", "group_records", "rank_histogram",
                     "inflection_delta", "qe_delta_correlation", "feminine_form_rate",
                     "subset_metrics")
    ) + tuple(
        (report, name, "report.render", None)
        for name in ("render_main_table", "render_delta_table", "render_qe_table",
                     "render_gender_table", "cells_csv", "curves_csv", "histogram_csv",
                     "quartiles_csv", "qe_csv")
    )


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index, id].
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _on_result(self, name, args, result):
        counters = self.counters
        if name == "clients.cache_get":
            counters["clients.cache_hits" if result is not None else "clients.cache_misses"] += 1
        elif name == "clients.cache_put":
            counters["clients.cache_puts"] += 1
        elif name == "split.split":
            if type(result).__name__ == "Rejection":
                counters["split.rejections"] += 1
        elif name == "candidates.sample":
            counters["candidates.distractors_returned"] += len(result)
        elif name == "score.round_trip":
            counters["score.continuations"] += len(args[2])
        elif name == "pipeline.read_jsonl":
            counters["pipeline.read_jsonl_lines"] += len(result)

    def _wrap_span(self, fn, name, ident):
        spans, stack, on_result = self.spans, self._stack, self._on_result
        counters, calls = self.counters, f"{name}.calls"
        clock = time.perf_counter
        fetch = name == "clients.fetch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            parent = stack[-1] if stack else -1
            sid = ident(args, kwargs) if ident else None
            if sid is None and parent >= 0:
                sid = spans[parent][4]
            label = f"{name}.{args[1].client_id}" if fetch else name
            span = [label, 0.0, 0.0, parent, sid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                counters[f"{name}.errors"] += 1
                raise
            span[2] = clock()
            stack.pop()
            on_result(name, args, result)
            return result

        return wrapper

    def _wrap_count(self, fn, name):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper_for):
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper_for(original))
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        from factprobe import candidates

        for owner, attr, name, ident in _targets():
            self._patch(owner, attr, lambda fn, n=name, i=ident: self._wrap_span(fn, n, i))
        # Too frequent for a span each: counted only.
        self._patch(candidates, "distractor_key",
                    lambda fn: self._wrap_count(fn, "candidates.keys_hashed"))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, sid in self.spans:
                fh.write(json.dumps([name, start, end, parent, sid]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: inclusive span time per name, self time of the
        stage spans, counters, and ratios with their bases."""
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        round_trips: list[float] = []
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            total[name] += duration
            if parent >= 0:
                children[parent] += duration
            if name == "score.round_trip":
                round_trips.append(duration)
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name in ("pipeline.build", "pipeline.evaluate"):
                self_time[name] += (end - start) - children[index]

        c = self.counters
        out: dict[str, float] = {
            "config.load_s": total["config.load"],
            "corpus.load_s": total["corpus.load"],
            "corpus.filter_s": total["corpus.filter"],
            "corpus.pool_calls": c["corpus.pool.calls"],
            "verbalize.template_s": total["verbalize.template"],
            "verbalize.mt_s": total["verbalize.mt"],
            "verbalize.llm_s": total["verbalize.llm"],
            "clients.fetch_s.mt": total["clients.fetch.mt"],
            "clients.fetch_s.llm": total["clients.fetch.llm"],
            "clients.fetch_s.qe": total["clients.fetch.qe"],
            "clients.cache_get_s": total["clients.cache_get"],
            "clients.cache_put_s": total["clients.cache_put"],
            "clients.cache_hits": c["clients.cache_hits"],
            "clients.cache_misses": c["clients.cache_misses"],
            "clients.cache_gets": c["clients.cache_hits"] + c["clients.cache_misses"],
            "clients.cache_puts": c["clients.cache_puts"],
            "clients.complete_calls": c["clients.complete.calls"],
            "clients.fixture_load_s": total["clients.fixture_load"],
            "split.split_s": total["split.split"],
            "split.forms_s": total["split.forms"],
            "split.rejections": c["split.rejections"],
            "candidates.sample_s": total["candidates.sample"],
            "candidates.keys_hashed": c["candidates.keys_hashed"],
            "candidates.distractors_returned": c["candidates.distractors_returned"],
            "candidates.assemble_s": total["candidates.assemble"],
            "score.make_scorer_s": total["score.make_scorer"],
            "score.score_s": total["score.score"],
            "score.round_trip_s": total["score.round_trip"],
            "score.round_trip_samples": len(round_trips),
            "score.requests": c["score.round_trip.calls"],
            "score.continuations": c["score.continuations"],
            "score.backend_errors": c["score.score.errors"],
            "score.rank_s": total["score.rank"],
            "metrics.aggregate_s": total["metrics.aggregate"],
            "report.load_records_s": total["report.load_records"],
            "report.render_s": total["report.render"],
            "pipeline.read_jsonl_s": total["pipeline.read_jsonl"],
            "pipeline.read_jsonl_lines": c["pipeline.read_jsonl_lines"],
            "pipeline.write_jsonl_s": total["pipeline.write_jsonl"],
            "pipeline.file_digest_s": total["pipeline.file_digest"],
            "pipeline.build_self_s": self_time["pipeline.build"],
            "pipeline.evaluate_self_s": self_time["pipeline.evaluate"],
            "pipeline.report_s": total["pipeline.report"],
            "pipeline.spans": len(self.spans),
        }
        gets = out["clients.cache_gets"]
        out["clients.cache_hit_ratio"] = c["clients.cache_hits"] / gets if gets else 0.0
        keys = c["candidates.keys_hashed"]
        out["candidates.useful_key_ratio"] = (
            c["candidates.distractors_returned"] / keys if keys else 0.0
        )
        if round_trips:
            ms = sorted(1000.0 * d for d in round_trips)
            out["score.round_trip_p50_ms"] = statistics.median(ms)
            # Nearest-rank p99; it has >= 10 samples beyond it only above
            # 1,000 requests.
            out["score.round_trip_p99_ms"] = ms[min(len(ms) - 1, int(0.99 * len(ms)))]
        else:
            out["score.round_trip_p50_ms"] = 0.0
            out["score.round_trip_p99_ms"] = 0.0
        return out
