"""factprobe benchmark: stage wall times and per-layer costs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole build-dataset -> evaluate -> report iterations of one workload,
each in a fresh worker process over a freshly generated workspace, for
about S seconds (at least three iterations), and reports medians over the
iterations. Every iteration's outputs are checked. With ``--trace 1``
iterations alternate traced and untraced, and the per-layer metrics come
from the traced ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An attempted operation is one
expected candidate set of one iteration. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "factprobe"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("replay-large-cells", "remote-scorer", "warm-cache-live")
MIN_ITERATIONS = 3
# Stop starting iterations once the run would pass this, whatever --seconds says.
HARD_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 120.0

END_TO_END = (
    ("pipeline_s", "s"),
    ("build_s", "s"),
    ("evaluate_s", "s"),
    ("sets_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics reported with --trace 1; units by suffix.
PER_LAYER = (
    "config.load_s",
    "corpus.load_s", "corpus.filter_s", "corpus.pool_calls",
    "verbalize.template_s", "verbalize.mt_s", "verbalize.llm_s",
    "clients.fetch_s.mt", "clients.fetch_s.llm", "clients.fetch_s.qe",
    "clients.cache_get_s", "clients.cache_put_s",
    "clients.cache_hits", "clients.cache_misses", "clients.cache_gets",
    "clients.cache_hit_ratio", "clients.cache_puts", "clients.cache_bytes",
    "clients.cache_files", "clients.complete_calls", "clients.fixture_load_s",
    "split.split_s", "split.forms_s", "split.rejections",
    "candidates.sample_s", "candidates.keys_hashed",
    "candidates.distractors_returned", "candidates.useful_key_ratio",
    "candidates.assemble_s",
    "score.make_scorer_s", "score.score_s", "score.round_trip_s",
    "score.round_trip_p50_ms", "score.round_trip_p99_ms", "score.round_trip_samples",
    "score.requests", "score.continuations", "score.backend_errors", "score.rank_s",
    "score.stub_requests", "score.stub_max_in_flight",
    "metrics.aggregate_s",
    "report.load_records_s", "report.render_s",
    "pipeline.read_jsonl_s", "pipeline.read_jsonl_lines",
    "pipeline.write_jsonl_s", "pipeline.artifact_bytes", "pipeline.file_digest_s",
    "pipeline.build_self_s", "pipeline.evaluate_self_s", "pipeline.report_s",
    "pipeline.spans",
    "bench.traced_pipeline_s", "bench.untraced_pipeline_s", "bench.trace_overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def source_digest() -> str:
    """Digest of the package and benchmark sources, so stored artifact
    digests are only compared against runs of the same code and sizes."""
    h = hashlib.sha256()
    for path in sorted([*PACKAGE.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    # The worker leads its own process group, so a hung worker is killed
    # together with the scorer stub it started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir), "--trace", str(int(traced))],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check_digests(workload: str, seed: int, iterations: list[dict]) -> list[str]:
    """Artifact digests must repeat across iterations and across runs of one
    seed on the same code."""
    problems = []
    first = iterations[0]["digests"]
    if any(it["digests"] != first for it in iterations[1:]):
        problems.append("artifact digests differ between iterations of one seed")
    store = WORKDIR / "digests" / f"{workload}-{seed}-{source_digest()}.json"
    if store.exists():
        if json.loads(store.read_text(encoding="utf-8")) != first:
            problems.append(f"artifact digests differ from an earlier run ({store.name})")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first, sort_keys=True), encoding="utf-8")
    return problems


def median_of(iterations: list[dict], key: str) -> float:
    return statistics.median(it[key] for it in iterations)


def main() -> int:
    parser = argparse.ArgumentParser(description="factprobe benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no factprobe package at {PACKAGE}", file=sys.stderr)
        return 2

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    iterations: list[dict] = []
    durations: list[float] = []
    try:
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 0
            shutil.rmtree(workdir / "ws", ignore_errors=True)
            began = time.perf_counter()
            result = run_worker(args.workload, args.seed, workdir, traced)
            result["traced"] = traced
            iterations.append(result)
            durations.append(time.perf_counter() - began)
            if result["failed_sets"]:
                break
            elapsed = time.perf_counter() - start
            typical = statistics.median(durations)
            if elapsed + typical > HARD_LIMIT_S:
                break
            if len(iterations) >= MIN_ITERATIONS and elapsed + typical / 2 > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: iteration {len(iterations)} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir / "ws", ignore_errors=True)

    problems = [p for it in iterations for p in it["problems"]]
    attempted = sum(it["expected_sets"] for it in iterations)
    failed = sum(it["failed_sets"] for it in iterations)
    if not failed:
        digest_problems = check_digests(args.workload, args.seed, iterations)
        if digest_problems:
            problems += digest_problems
            failed = attempted
    correct = failed == 0 and not problems

    # A run cut short by a failure may lack untraced iterations.
    untraced = [it for it in iterations if not it["traced"]] or iterations
    traced_runs = [it for it in iterations if it["traced"]]
    for it in iterations:
        it["sets_per_s"] = it["records"] / it["pipeline_s"]
    metrics: dict[str, dict] = {}
    if args.trace:
        layers = {
            name: statistics.median(it["layers"][name] for it in traced_runs)
            for name in traced_runs[0]["layers"]
        }
        layers["bench.traced_pipeline_s"] = median_of(traced_runs, "pipeline_s")
        layers["bench.untraced_pipeline_s"] = median_of(untraced, "pipeline_s")
        layers["bench.trace_overhead_s"] = (
            layers["bench.traced_pipeline_s"] - layers["bench.untraced_pipeline_s"]
        )
        for name in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": layer_unit(name)}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": median_of(untraced, name), "unit": unit}

    print(f"workload {args.workload}, seed {args.seed}: {len(iterations)} iterations "
          f"({len(traced_runs)} traced), {time.perf_counter() - start:.1f} s")
    print("  pipeline_s per iteration: "
          + " ".join(f"{it['pipeline_s']:.3f}{'t' if it['traced'] else ''}" for it in iterations))
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_share':34s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} candidate sets)")
    for problem in problems[:10]:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
