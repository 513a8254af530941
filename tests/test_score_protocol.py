"""Exercises the line-delimited JSON score protocol over a real socket."""

import contextlib
import json
import os
import queue
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import yaml

from factprobe import cli, pipeline, score
from factprobe.candidates import CandidateSet
from factprobe.config import load_config
from factprobe.errors import BackendError, MalformedRecord, ScorerConnectionLost
from factprobe.pipeline import cmd_build_dataset, cmd_evaluate, read_jsonl
from factprobe.score import (
    PIPELINE_WINDOW,
    ProtocolScorerClient,
    join_continuation,
)

from conftest import CallableScorer, count_parsed_lines, make_toy_workspace


def _length_score(prompt, continuation):
    return -float(len(continuation))


def _token_count(continuation):
    return max(1, len(continuation.split()))


class _LengthScorerHandler(socketserver.StreamRequestHandler):
    """Toy inference server: logprob = -len(continuation).

    Records each request on ``server.received`` and, on
    ``server.parsed_at``, how many entries ``server.parsed`` held when the
    request arrived. While ``server.replies_before_drop`` is a number, the
    connection stops answering after that many replies: it sends EOF and
    reads on until the client hangs up. Later connections answer
    everything. While ``server.kill_after`` is a number, ``server.kill()``
    is called once that many replies are written, and the connection
    answers no more. A connection the client resets, or closes with replies
    unread, is the client hanging up.
    """

    def handle(self):
        try:
            self._answer()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _answer(self):
        server = self.server
        for raw in self.rfile:
            request = json.loads(raw.decode("utf-8"))
            if request.get("version") != 1:
                break
            if server.replies_before_drop == 0:
                server.replies_before_drop = None
                self.connection.shutdown(socket.SHUT_WR)
                for _ in self.rfile:
                    pass
                return
            if server.replies_before_drop:
                server.replies_before_drop -= 1
            server.received.append((request["prompt"], request["continuations"]))
            server.parsed_at.append(len(server.parsed))
            results = [
                [_length_score(request["prompt"], c), _token_count(c)]
                for c in request["continuations"]
            ]
            response = {"version": 1, "results": results}
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
            if server.kill_after is not None:
                server.kill_after -= 1
                if server.kill_after == 0:
                    server.kill_after = None
                    server.kill()
                    return


@contextlib.contextmanager
def _serving(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _threading_server(handler=_LengthScorerHandler):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    server.received = []
    server.parsed, server.parsed_at = [], []
    server.replies_before_drop = None
    server.kill_after = server.kill = None
    return server


@pytest.fixture()
def score_server():
    with _serving(_threading_server()) as server:
        yield server.server_address


def test_protocol_roundtrip(score_server):
    host, port = score_server
    client = ProtocolScorerClient(host, port)
    results = client.score_batch("prompt", ["a", " bb", "ccc dd"])
    assert results == [(-1.0, 1), (-3.0, 1), (-6.0, 2)]
    # Two requests over one connection.
    assert client.score_batch("prompt", ["xx"]) == [(-2.0, 1)]
    client.close()


def test_protocol_unicode_payload(score_server):
    host, port = score_server
    client = ProtocolScorerClient(host, port)
    results = client.score_batch("Narodil se v", [" Praze", " Londýně"])
    assert results == [(-6.0, 1), (-8.0, 1)]
    client.close()


def test_protocol_client_sends_without_nagle_delay(score_server):
    # With Nagle's algorithm on, a short request waits for the server to
    # acknowledge the previous one, so the window never fills.
    client = ProtocolScorerClient(*score_server)
    assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    client.close()


def test_protocol_unreachable_backend_fails_fast():
    with pytest.raises(BackendError):
        ProtocolScorerClient("127.0.0.1", 1, timeout=0.2)


class _CannedReplyHandler(socketserver.StreamRequestHandler):
    """Answers every request line with ``server.reply``."""

    def handle(self):
        for _ in self.rfile:
            self.wfile.write(self.server.reply)
            self.wfile.flush()


def _canned_reply_server(reply: bytes):
    server = _threading_server(_CannedReplyHandler)
    server.reply = reply
    return server


def test_protocol_version_mismatch():
    with _serving(_canned_reply_server(b'{"version": 99, "results": []}\n')) as server:
        client = ProtocolScorerClient(*server.server_address)
        with pytest.raises(BackendError):
            client.score_batch("p", ["a"])
        client.close()


def _reply_with(results: str) -> bytes:
    return b'{"version": 1, "results": ' + results.encode() + b"}\n"


# A score is a JSON number and a token count a JSON integer; none of these
# is coerced into one. An integer score too large for a float is not finite.
@pytest.mark.parametrize("results", [
    pytest.param('[["-1.5", true]]', id="string-score"),
    pytest.param("[[true, 2.9]]", id="boolean-score-and-fractional-count"),
    pytest.param('[[-1.0, "3"]]', id="string-count"),
    pytest.param("[[-1.0, true]]", id="boolean-count"),
    pytest.param("[[-1.0, 1.0]]", id="float-count"),
    pytest.param("[[null, 1]]", id="null-score"),
    pytest.param("[[-1" + "0" * 400 + ", 1]]", id="integer-score-beyond-float"),
    pytest.param("[[-1.0, 1], [-2.0, 1, 7]]", id="entry-of-three"),
    pytest.param("[[-1.0, 1], [-2.0]]", id="entry-of-one"),
    pytest.param('[[-1.0, 1], {"a": 1, "b": 2}]', id="object-entry"),
    pytest.param("[[-1.0, 1], 5]", id="number-entry"),
])
def test_protocol_refuses_reply_values_of_the_wrong_type(results):
    count = len(json.loads(results))
    with (_serving(_canned_reply_server(_reply_with(results))) as server,
          contextlib.closing(ProtocolScorerClient(*server.server_address)) as client):
        with pytest.raises(BackendError):
            client.score_batch("p", ["a"] * count)
        # A rejected reply leaves the connection in step.
        with pytest.raises(BackendError):
            client.score_batch("p", ["a"] * count)


def test_protocol_refuses_a_deeply_nested_reply():
    # It ended evaluate in a RecursionError traceback.
    reply = b"[" * 100_000 + b"]" * 100_000 + b"\n"
    with (_serving(_canned_reply_server(reply)) as server,
          contextlib.closing(ProtocolScorerClient(*server.server_address)) as client):
        for _ in range(2):  # the connection stays in step
            with pytest.raises(BackendError, match="nesting too deep"):
                client.score_batch("p", ["a"])


def test_protocol_takes_an_integer_score_as_a_number():
    reply = _reply_with("[[-2, 1], [0, 3]]")
    cs = CandidateSet("f", "p", ("a",), [["e", "b"]])
    with (_serving(_canned_reply_server(reply)) as server,
          contextlib.closing(ProtocolScorerClient(*server.server_address)) as client):
        scored = score.score_candidates(client, cs, score.NORMALIZATION_MEAN)
    assert scored.scores == [-2.0, 0.0]
    assert scored.token_counts == [1, 3]


def test_protocol_refuses_a_token_count_too_large_for_a_float():
    # It passed the reply check, and the MEAN division raised OverflowError.
    reply = _reply_with("[[-2, 1], [0, 1" + "0" * 400 + "]]")
    cs = CandidateSet("f", "p", ("a",), [["e", "b"]])
    with (_serving(_canned_reply_server(reply)) as server,
          contextlib.closing(ProtocolScorerClient(*server.server_address)) as client):
        with pytest.raises(BackendError, match="too large"):
            score.score_candidates(client, cs, score.NORMALIZATION_MEAN)


# Python's json writes a nan or infinite float as NaN or Infinity, which are
# not JSON; a number too large for a float reads back as infinite.
_NON_FINITE_REPLIES = {
    3: b'{"version": 1, "results": [[NaN, 1]]}\n',
    4: b'{"version": 1, "results": [[Infinity, 1]]}\n',
    5: b'{"version": 1, "results": [[-1e999, 1]]}\n',
}


class _MixedRepliesHandler(socketserver.StreamRequestHandler):
    """Answers every line, but the second reply is not JSON, the third has
    the wrong version and the next three hold a score that is no finite
    number."""

    def handle(self):
        for index, raw in enumerate(self.rfile):
            request = json.loads(raw.decode("utf-8"))
            body = {"version": 1, "results": [[-1.0, 1]] * len(request["continuations"])}
            if index == 1:
                line = b"not json\n"
            elif index == 2:
                line = (json.dumps({**body, "version": 2}) + "\n").encode("utf-8")
            else:
                line = _NON_FINITE_REPLIES.get(index, (json.dumps(body) + "\n").encode("utf-8"))
            self.wfile.write(line)
            self.wfile.flush()


def test_protocol_stream_keeps_step_after_bad_replies():
    with _serving(_threading_server(_MixedRepliesHandler)) as server:
        client = ProtocolScorerClient(*server.server_address)
        outcomes = list(client.score_stream([("p", ["a"])] * 7 + [("p", ["a", "b"])]))
        assert outcomes[0] == [(-1.0, 1)]
        for bad in (1, 2, *_NON_FINITE_REPLIES):
            assert isinstance(outcomes[bad], BackendError), bad
        assert outcomes[6] == [(-1.0, 1)]
        assert outcomes[7] == [(-1.0, 1), (-1.0, 1)]
        # Reply-level faults leave the connection usable.
        assert client.score_batch("p", ["a"]) == [(-1.0, 1)]
        client.close()


def test_protocol_lost_connection_is_never_reused(score_server):
    host, port = score_server
    client = ProtocolScorerClient(host, port)
    outcomes = client.score_stream([("p", ["a"])] * 3)
    assert next(outcomes) == [(-1.0, 1)]
    # Leaving a stream with replies unread puts the connection out of step.
    outcomes.close()
    with pytest.raises(ScorerConnectionLost):
        client.score_batch("p", ["a"])
    client.close()


class _DrawFailed(Exception):
    pass


def _requests_failing_after(count):
    for index in range(1, count + 1):
        yield "p", ["a" * index]
    raise _DrawFailed("the next request could not be read")


def test_protocol_stream_answers_the_requests_sent_before_a_failed_draw(score_server):
    client = ProtocolScorerClient(*score_server)
    outcomes = client.score_stream(_requests_failing_after(5))
    # All five requests were sent before the first reply was read.
    assert [next(outcomes) for _ in range(5)] == [[(-float(n), 1)] for n in range(1, 6)]
    with pytest.raises(_DrawFailed):
        next(outcomes)
    # The connection is still in step.
    assert client.score_batch("p", ["a"]) == [(-1.0, 1)]
    client.close()


def test_pipelined_raises_a_failed_draw_when_its_block_ends(score_server):
    client = ProtocolScorerClient(*score_server)
    outcomes = []
    with pytest.raises(_DrawFailed):
        with client.pipelined(_requests_failing_after(3)):
            # A caller sharing the requests through a tee sees them end here.
            outcomes += [client.score_batch("p", ["a" * n]) for n in (1, 2, 3)]
    assert outcomes == [[(-1.0, 1)], [(-2.0, 1)], [(-3.0, 1)]]
    client.close()


class _SilentHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for _ in self.rfile:
            pass


def test_protocol_timeout_fails_every_later_call():
    with _serving(_threading_server(_SilentHandler)) as server:
        client = ProtocolScorerClient(*server.server_address, timeout=0.2)
        with pytest.raises(ScorerConnectionLost):
            client.score_batch("p", ["a"])
        # A late reply would be credited to the wrong request: no retry on
        # the same connection.
        with pytest.raises(ScorerConnectionLost):
            client.score_batch("p", ["b"])
        client.close()


class _SequentialHandler(socketserver.StreamRequestHandler):
    """Reads one line, writes one line, and only then reads the next.

    Small socket buffers keep the amount it can hold unread, or write
    ahead of the client's reads, the same on every host. A write that stays
    blocked for ``timeout`` seconds ends the connection.
    """

    timeout = 20

    def setup(self):
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            self.request.setsockopt(socket.SOL_SOCKET, option, 1 << 16)
        super().setup()

    def handle(self):
        while raw := self.rfile.readline():
            count = len(json.loads(raw)["continuations"])
            body = {"version": 1, "results": [[-12345.678, 1]] * count}
            self.wfile.write((json.dumps(body) + "\n").encode("utf-8"))
            self.wfile.flush()


def test_protocol_sequential_server_with_large_replies_does_not_deadlock():
    # A full window is ~20 MB of requests and ~1.5 MB of replies, whatever
    # the window's size, well past the socket buffers: a client that blocked
    # on writing its next request while the server blocked on writing a
    # reply would never finish.
    continuations = ["x" * 256] * (80_000 // PIPELINE_WINDOW)
    requests = [("p", continuations)] * (PIPELINE_WINDOW + 2)
    outcomes = []
    server = socketserver.TCPServer(("127.0.0.1", 0), _SequentialHandler)
    with _serving(server):
        client = ProtocolScorerClient(*server.server_address, timeout=30)
        worker = threading.Thread(
            target=lambda: outcomes.extend(client.score_stream(requests)), daemon=True
        )
        worker.start()
        worker.join(timeout=60)
        client.close()
        assert not worker.is_alive()
    assert len(outcomes) == len(requests)
    assert all(len(o) == len(continuations) for o in outcomes)


class _DelayedRepliesHandler(socketserver.StreamRequestHandler):
    """Answers each request ``delay`` seconds after the previous answer, from
    a writer thread, while the handler reads on. ``server.max_in_flight`` is
    the largest number of requests received and not yet answered. The reply
    to prompt ``"i"`` scores each continuation ``-i``."""

    delay = 0.004

    def handle(self):
        server = self.server
        pending = queue.Queue()
        lock = threading.Lock()
        in_flight = 0

        def answer():
            nonlocal in_flight
            while (request := pending.get()) is not None:
                time.sleep(self.delay)
                # Counted as answered before it is written: the client sends
                # its next request only once it has read this reply.
                with lock:
                    in_flight -= 1
                score_value = -float(request["prompt"])
                body = {"version": 1,
                        "results": [[score_value, 1]] * len(request["continuations"])}
                self.wfile.write((json.dumps(body) + "\n").encode("utf-8"))
                self.wfile.flush()

        writer = threading.Thread(target=answer, daemon=True)
        writer.start()
        for raw in self.rfile:
            with lock:
                in_flight += 1
                server.max_in_flight = max(server.max_in_flight, in_flight)
            pending.put(json.loads(raw))
        pending.put(None)
        writer.join(timeout=10)


def test_protocol_client_fills_its_window():
    server = _threading_server(_DelayedRepliesHandler)
    server.max_in_flight = 0
    requests = [(str(index), ["a"]) for index in range(3 * PIPELINE_WINDOW)]
    with _serving(server), contextlib.closing(ProtocolScorerClient(*server.server_address)) as client:
        outcomes = list(client.score_stream(requests))
    assert server.max_in_flight == PIPELINE_WINDOW
    # Each reply went to its own request.
    assert outcomes == [[(-float(index), 1)] for index in range(len(requests))]


def _protocol_workspace(root, port, facts_per_cell=4):
    config_path = make_toy_workspace(root, facts_per_cell=facts_per_cell)
    data = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    data["scorer"] = {"backend": "protocol", "host": "127.0.0.1", "port": port}
    config_path.write_text(yaml.safe_dump(data, sort_keys=True), encoding="utf-8")
    return config_path


def test_protocol_requests_arrive_in_sorted_order(tmp_path):
    with _serving(_threading_server()) as server:
        config = load_config(_protocol_workspace(tmp_path / "ws", server.server_address[1]))
        bundle = cmd_build_dataset(config, replay=True)
        cmd_evaluate(config, bundle)
    lines = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    lines.sort(key=lambda line: line["fact_id"])
    # Each distinct prompt of a fact once, in the order of the first source
    # (by name) that has it.
    prompts = [
        (line, prompt)
        for line in lines
        for prompt in dict.fromkeys(entry["prompt"] for _, entry in sorted(
            line["sources"].items()))
    ]
    expected = [
        (
            prompt,
            [
                join_continuation(prompt, form, line["no_space"])
                for form in line["correct_forms"] + [f for _, f in line["distractors"]]
            ],
        )
        for line, prompt in prompts
    ]
    assert len(expected) > PIPELINE_WINDOW
    assert len(expected) < sum(len(line["sources"]) for line in lines)
    assert server.received == expected


def test_protocol_records_match_in_process_scorer(tmp_path):
    with _serving(_threading_server()) as server:
        config = load_config(_protocol_workspace(tmp_path / "remote", server.server_address[1]))
        remote = cmd_evaluate(config, cmd_build_dataset(config, replay=True))

    config_local = load_config(make_toy_workspace(tmp_path / "local", facts_per_cell=4))
    local = cmd_evaluate(
        config_local, cmd_build_dataset(config_local, replay=True),
        scorer=CallableScorer(_length_score, token_counter=_token_count),
    )
    assert (remote / "records.jsonl").read_bytes() == (local / "records.jsonl").read_bytes()
    assert read_jsonl(remote / "audit.jsonl", "audit") == []


def test_lost_connection_fails_evaluate_and_rerun_resumes(tmp_path, capsys):
    dropped_after = 5
    server = _threading_server()
    server.replies_before_drop = dropped_after
    with _serving(server):
        config_path = _protocol_workspace(tmp_path / "ws", server.server_address[1])
        config = load_config(config_path)
        bundle = cmd_build_dataset(config, replay=True)
        records_dir = config.output_dir / "records"
        assert cli.main(
            ["evaluate", "--config", str(config_path), "--bundle", str(bundle)]
        ) == 1
        assert "SCORER_CONNECTION_LOST" in capsys.readouterr().err
        assert not (records_dir / "manifest.json").exists()
        progress = (records_dir / "progress.jsonl").read_text(encoding="utf-8")
        # The five requests answered: f-1-aa-00's one prompt for all three
        # sources, f-1-aa-01's two (MT and LLM use the feminine marker,
        # TEMPLATE does not), f-1-aa-02's one and f-1-aa-03's MT/LLM one.
        assert len(progress.splitlines()) == 1 + 3 + (2 + 1) + 3 + 2

        # The server answers every request on a new connection.
        resumed = cmd_evaluate(config, bundle)
    # Every distinct request of a fact was answered once, over both connections.
    requests = sum(
        len({entry["prompt"] for entry in line["sources"].values()})
        for line in read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    )
    assert len(server.received) == requests

    with _serving(_threading_server()) as healthy:
        config_clean = load_config(
            _protocol_workspace(tmp_path / "clean", healthy.server_address[1])
        )
        clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    assert (resumed / "records.jsonl").read_bytes() == (clean / "records.jsonl").read_bytes()
    assert read_jsonl(resumed / "audit.jsonl", "audit") == []


def test_sigkilled_evaluate_reruns_to_the_records_of_an_uninterrupted_run(tmp_path):
    # After a SIGKILL no Python cleanup runs: no finally, no atexit, no flush.
    with _serving(_threading_server()) as healthy:
        config_clean = load_config(
            _protocol_workspace(tmp_path / "clean", healthy.server_address[1])
        )
        clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))

    server = _threading_server()
    config_path = _protocol_workspace(tmp_path / "ws", server.server_address[1])
    config = load_config(config_path)
    bundle = cmd_build_dataset(config, replay=True)
    progress = config.output_dir / "records" / "progress.jsonl"
    # The header and the sets of the first five replies, as counted in
    # test_lost_connection_fails_evaluate_and_rerun_resumes.
    logged = 1 + 3 + (2 + 1) + 3 + 2

    def kill():
        # Once the five replies are logged, the child waits on the sixth.
        deadline = time.monotonic() + 60
        while progress.read_bytes().count(b"\n") < logged and time.monotonic() < deadline:
            time.sleep(0.005)
        os.kill(child.pid, signal.SIGKILL)

    server.kill_after, server.kill = 5, kill
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # The server listens from here, and answers once it serves, by when
    # ``child`` is set.
    child = subprocess.Popen(
        [sys.executable, "-m", "factprobe.cli", "evaluate", "--config", str(config_path),
         "--bundle", str(bundle)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        with _serving(server):
            assert child.wait(timeout=120) == -signal.SIGKILL
            assert len(progress.read_text(encoding="utf-8").splitlines()) == logged
            assert not (progress.parent / "manifest.json").exists()
            resumed = cmd_evaluate(config, bundle)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    # No request was asked again: each set the child scored was logged.
    requests = sum(
        len({entry["prompt"] for entry in line["sources"].values()})
        for line in read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    )
    assert len(server.received) == requests
    assert (resumed / "records.jsonl").read_bytes() == (clean / "records.jsonl").read_bytes()
    assert read_jsonl(resumed / "audit.jsonl", "audit") == []


class _NaNOnceHandler(socketserver.StreamRequestHandler):
    """Answers like the toy inference server, but the first score of its
    second reply is NaN, as Python's json writes a nan float."""

    def handle(self):
        for index, raw in enumerate(self.rfile):
            request = json.loads(raw.decode("utf-8"))
            results = [[_length_score(request["prompt"], c), _token_count(c)]
                       for c in request["continuations"]]
            if index == 1:
                results[0][0] = float("nan")
            self.wfile.write((json.dumps({"version": 1, "results": results}) + "\n").encode())
            self.wfile.flush()


def test_a_nan_reply_fails_only_its_own_set(tmp_path):
    # A rerun retries an audited set; a fault instead would stop every rerun
    # at the same set, so no later set would ever be scored.
    with _serving(_threading_server(_NaNOnceHandler)) as server:
        config = load_config(_protocol_workspace(tmp_path / "ws", server.server_address[1]))
        bundle = cmd_build_dataset(config, replay=True)
        records = cmd_evaluate(config, bundle)
    lines = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
    _, failed, second = list(pipeline._pending_sets(lines, set()))[1]
    assert json.loads((records / "manifest.json").read_text())["complete"] is False
    assert [(e["fact_id"], e["source"], e["kind"])
            for e in read_jsonl(records / "audit.jsonl", "audit")] == [
        (second.fact_id, source, "BACKEND_ERROR") for source in failed
    ]
    scored = {(r["fact_id"], r["source"]) for r in read_jsonl(records / "records.jsonl", "records")}
    every_set = {(line["fact_id"], source) for line in lines for source in line["sources"]}
    assert scored == every_set - {(second.fact_id, source) for source in failed}


def test_protocol_evaluate_parses_at_most_the_window_ahead(tmp_path, monkeypatch):
    server = _threading_server()
    with _serving(server):
        # Enough bundle lines for the window to be reached: 3 relations x 2
        # languages x 8 facts.
        config = load_config(_protocol_workspace(tmp_path / "ws", server.server_address[1],
                                                 facts_per_cell=8))
        bundle = cmd_build_dataset(config, replay=True)
        lines = read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets")
        server.parsed = count_parsed_lines(monkeypatch, "candidate_sets")
        cmd_evaluate(config, bundle)
    # Each line is parsed once: the protocol scorer never reads the bundle.
    assert sorted(server.parsed) == list(range(2, len(lines) + 2))
    assert len(lines) > PIPELINE_WINDOW + 2
    for k, parsed in enumerate(server.parsed_at, 1):
        assert parsed <= k + PIPELINE_WINDOW + 1, k


def test_a_malformed_bundle_line_keeps_every_set_the_protocol_scorer_sent_before_it(tmp_path):
    # The scorer reads the bundle up to a window ahead of the records, so it
    # reaches the bad line while the sets before it are still in flight.
    with _serving(_threading_server()) as server:
        config = load_config(_protocol_workspace(tmp_path / "ws", server.server_address[1],
                                                 facts_per_cell=6))
        bundle = cmd_build_dataset(config, replay=True)
        path = bundle / "candidate_sets.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = 20
        spoiled = json.loads(lines[lineno - 1])
        spoiled["distractors"] = "x"
        lines[lineno - 1] = json.dumps(spoiled) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(MalformedRecord) as info:
            cmd_evaluate(config, bundle)
    assert info.value.context == {"file": str(path), "line": lineno, "field": "distractors"}
    records = config.output_dir / "records"
    assert not (records / "manifest.json").exists()
    before = [json.loads(raw) for raw in lines[1:lineno - 1]]
    kept = [(r["fact_id"], r["source"]) for r in read_jsonl(records / "progress.jsonl", "progress")]
    assert sorted(kept) == sorted(
        (line["fact_id"], source) for line in before for source in line["sources"])
    assert len(kept) == 53


def test_protocol_evaluate_joins_each_request_once(tmp_path, monkeypatch):
    joins = []
    join_continuation = score.join_continuation

    def counting(*args, **kwargs):
        joins.append(args)
        return join_continuation(*args, **kwargs)

    with _serving(_threading_server()) as server:
        config = load_config(_protocol_workspace(tmp_path / "ws", server.server_address[1]))
        bundle = cmd_build_dataset(config, replay=True)
        monkeypatch.setattr(score, "join_continuation", counting)
        cmd_evaluate(config, bundle)
    # One join per request: for the continuations sent, none for scoring.
    assert len(joins) == len(server.received) > PIPELINE_WINDOW
