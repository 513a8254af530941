"""One benchmark iteration in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --trace 0|1

Sets up a seeded workspace under DIR/ws, which must not exist yet, runs
``cmd_build_dataset``, ``cmd_evaluate`` and ``cmd_report`` in this process,
checks the outputs and prints one JSON object with the timings, the check
results and, when traced, the per-layer metrics. ``run.py`` drives it.
"""

from __future__ import annotations

import time

# Set-up time counts from here, so importing the package is part of it.
T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from factprobe import clients, pipeline  # noqa: E402
from factprobe import config as config_mod  # noqa: E402
from factprobe.errors import ClientError, ProbeError  # noqa: E402

from tracing import Tracer  # noqa: E402
from workspace import generate, prefill_cache  # noqa: E402

ALL_SOURCES = ("TEMPLATE", "MT", "LLM")

# Sizes keep one iteration near eight seconds or less on a 2-vCPU machine,
# so a 40-second run holds four or more. replay-large-cells has one relation
# so that its cells are large: sampling then costs more than any other build
# layer, including the QE cache writes.
WORKLOADS = {
    "replay-large-cells": dict(
        relations=1, facts_per_cell=600, sources=ALL_SOURCES, with_qe=True,
        client_mode="replay",
    ),
    "remote-scorer": dict(
        relations=20, facts_per_cell=50, sources=("TEMPLATE",), with_qe=False,
        client_mode="replay", stub_delay_ms=2.0,
    ),
    "warm-cache-live": dict(
        relations=30, facts_per_cell=30, sources=ALL_SOURCES, with_qe=True,
        client_mode="live",
    ),
}


def start_stub(stack: contextlib.ExitStack, delay_ms: float) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--delay-ms", str(delay_ms)],
        stdout=subprocess.PIPE, text=True,
    )

    def stop():
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()

    stack.callback(stop)
    port = json.loads(proc.stdout.readline())["port"]
    return proc, port


def stop_stub(proc: subprocess.Popen) -> dict:
    proc.terminate()
    out, _ = proc.communicate(timeout=30)
    return json.loads(out.strip().splitlines()[-1])


def refused_endpoint(stack: contextlib.ExitStack) -> str:
    """URL of a loopback port that is bound but never listens, so every
    connection to it is refused for as long as the socket is held."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    stack.callback(sock.close)
    sock.bind(("127.0.0.1", 0))
    return f"http://127.0.0.1:{sock.getsockname()[1]}/complete"


def _read_lines(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(raw) for raw in fh.readlines()[1:] if raw.strip()]


def check_outputs(out_dir: Path, expected, live_calls: int, live: bool):
    """Return the expected (fact_id, source) keys that failed, messages for
    failures that concern the whole run (which fail every set), and the
    number of records written."""
    failed: set = set()
    problems: list[str] = []
    bundle = json.loads((out_dir / "bundle" / "manifest.json").read_text(encoding="utf-8"))
    counts = bundle["counts"]
    if counts["facts_eligible"] != expected.facts:
        problems.append(f"eligible facts {counts['facts_eligible']} != {expected.facts}")
    if counts["candidate_sets"] != expected.candidate_sets:
        problems.append(
            f"candidate sets {counts['candidate_sets']} != {expected.candidate_sets}"
        )

    planned = set(expected.planned_rejections)
    blocking = {
        (a["fact_id"], a["source"], a["kind"])
        for a in _read_lines(out_dir / "bundle" / "audit.jsonl")
        if a["kind"] in pipeline.BLOCKING_AUDIT_KINDS
    }
    for fact_id, source, kind in blocking - planned:
        failed.add((fact_id, source))
    if planned - blocking:
        problems.append(f"{len(planned - blocking)} planned rejections missing")
    for a in _read_lines(out_dir / "records" / "audit.jsonl"):
        failed.add((a["fact_id"], a["source"]))

    keys = set(expected.set_keys)
    seen = set()
    for record in _read_lines(out_dir / "records" / "records.jsonl"):
        key = (record["fact_id"], record["source"])
        seen.add(key)
        if record["best_correct_rank"] != 1:
            failed.add(key)
    failed |= keys - seen
    if seen - keys:
        problems.append(f"{len(seen - keys)} records for unexpected candidate sets")

    with open(out_dir / "report" / "cells.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or any(float(row["r_at_1"]) != 1.0 for row in rows):
        problems.append("a cells.csv row has R@1 != 1")
    if live and live_calls:
        problems.append(f"{live_calls} live client calls on a warm cache")
    return failed & keys, problems, len(seen)


def artifact_digests(out_dir: Path) -> dict:
    return {
        stage: json.loads((out_dir / stage / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
        for stage in ("bundle", "records", "report")
    }


def tree_size(directory: Path) -> tuple[int, int]:
    files = [p for p in directory.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_iteration(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    spec = WORKLOADS[workload]
    ws = workdir / "ws"
    if ws.exists():
        raise SystemExit(f"{ws} exists; a workspace must start empty")
    live = spec["client_mode"] == "live"
    with contextlib.ExitStack() as stack:
        endpoint = refused_endpoint(stack) if live else None
        stub = scorer = None
        if "stub_delay_ms" in spec:
            stub, port = start_stub(stack, spec["stub_delay_ms"])
            scorer = {"backend": "protocol", "host": "127.0.0.1", "port": port}
        config_path, expected, fixtures = generate(
            ws, seed, spec["relations"], spec["facts_per_cell"], spec["sources"],
            with_qe=spec["with_qe"], client_mode=spec["client_mode"],
            endpoint=endpoint, scorer=scorer,
        )
        if live:
            prefill_cache(ws / "cache", fixtures)

        # A live call on the warm-cache workload is a failed check, counted
        # in every run. It fails at once instead of retrying against the
        # refused port with back-off. Only cache misses reach this method.
        live_calls = [0]
        http_complete = clients.HttpClient.complete

        def refuse_live_call(self, request):
            live_calls[0] += 1
            raise ClientError("live call on the warm-cache workload", client_id=self.client_id)

        clients.HttpClient.complete = refuse_live_call
        stack.callback(setattr, clients.HttpClient, "complete", http_complete)
        tracer = Tracer().install() if traced else None
        if tracer:
            stack.callback(tracer.uninstall)

        config = config_mod.load_config(config_path)
        times = [time.perf_counter()]
        stage_error = None
        try:
            bundle = pipeline.cmd_build_dataset(config, replay=not live)
            times.append(time.perf_counter())
            records = pipeline.cmd_evaluate(config, bundle)
            times.append(time.perf_counter())
            pipeline.cmd_report(config, records)
        except ProbeError as exc:
            stage_error = f"stage {len(times)} of 3 failed: {exc}"
        times += [time.perf_counter()] * (4 - len(times))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stub_stats = stop_stub(stub) if stub else {"requests": 0, "max_in_flight": 0}

    t_setup, t_build, t_evaluate, t_report = times
    result = {
        "setup_s": t_setup - T0,
        "build_s": t_build - t_setup,
        "evaluate_s": t_evaluate - t_build,
        "report_s": t_report - t_evaluate,
        "pipeline_s": t_report - t_setup,
        "peak_rss_mb": peak_rss_mb,
        "expected_sets": expected.candidate_sets,
    }
    out_dir = ws / "out"
    if tracer:
        layers = tracer.layer_metrics()
        layers["clients.cache_files"], layers["clients.cache_bytes"] = tree_size(ws / "cache")
        layers["pipeline.artifact_bytes"] = tree_size(out_dir)[1]
        layers["score.stub_requests"] = stub_stats["requests"]
        layers["score.stub_max_in_flight"] = stub_stats["max_in_flight"]
        result["layers"] = layers
        tracer.write(workdir / "spans.jsonl")
    if stage_error:
        result.update(records=0, failed_sets=expected.candidate_sets,
                      problems=[stage_error], digests={})
        return result
    failed, problems, record_count = check_outputs(out_dir, expected, live_calls[0], live)
    result.update(
        records=record_count,
        failed_sets=expected.candidate_sets if problems else len(failed),
        problems=problems + [f"candidate set {k} failed its checks" for k in sorted(failed)[:5]],
        digests=artifact_digests(out_dir),
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark iteration.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_iteration(args.workload, args.seed, args.workdir, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
