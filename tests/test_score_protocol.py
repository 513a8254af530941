"""Exercises the line-delimited JSON score protocol over a real socket."""

import contextlib
import json
import socket
import socketserver
import threading

import pytest
import yaml

from factprobe import cli
from factprobe.config import load_config
from factprobe.errors import BackendError, ScorerConnectionLost
from factprobe.pipeline import cmd_build_dataset, cmd_evaluate, read_jsonl
from factprobe.score import (
    PIPELINE_WINDOW,
    ProtocolScorerClient,
    join_continuation,
)

from conftest import CallableScorer, make_toy_workspace


def _length_score(prompt, continuation):
    return -float(len(continuation))


def _token_count(continuation):
    return max(1, len(continuation.split()))


class _LengthScorerHandler(socketserver.StreamRequestHandler):
    """Toy inference server: logprob = -len(continuation).

    Records each request on ``server.received``. While
    ``server.replies_before_drop`` is a number, the connection stops
    answering after that many replies: it sends EOF and reads on until the
    client hangs up. Later connections answer everything.
    """

    def handle(self):
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
            results = [
                [_length_score(request["prompt"], c), _token_count(c)]
                for c in request["continuations"]
            ]
            response = {"version": 1, "results": results}
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()


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
    server.replies_before_drop = None
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


class _GarbageHandler(socketserver.StreamRequestHandler):
    def handle(self):
        self.rfile.readline()
        self.wfile.write(b'{"version": 99, "results": []}\n')
        self.wfile.flush()


def test_protocol_version_mismatch():
    with _serving(_threading_server(_GarbageHandler)) as server:
        client = ProtocolScorerClient(*server.server_address)
        with pytest.raises(BackendError):
            client.score_batch("p", ["a"])
        client.close()


class _MixedRepliesHandler(socketserver.StreamRequestHandler):
    """Answers every line, but the second reply is not JSON and the third
    has the wrong version."""

    def handle(self):
        for index, raw in enumerate(self.rfile):
            request = json.loads(raw.decode("utf-8"))
            body = {"version": 1, "results": [[-1.0, 1]] * len(request["continuations"])}
            if index == 1:
                line = b"not json\n"
            elif index == 2:
                line = (json.dumps({**body, "version": 2}) + "\n").encode("utf-8")
            else:
                line = (json.dumps(body) + "\n").encode("utf-8")
            self.wfile.write(line)
            self.wfile.flush()


def test_protocol_stream_keeps_step_after_bad_replies():
    with _serving(_threading_server(_MixedRepliesHandler)) as server:
        client = ProtocolScorerClient(*server.server_address)
        outcomes = list(client.score_stream([("p", ["a"])] * 4 + [("p", ["a", "b"])]))
        assert outcomes[0] == [(-1.0, 1)]
        assert isinstance(outcomes[1], BackendError)
        assert isinstance(outcomes[2], BackendError)
        assert outcomes[3] == [(-1.0, 1)]
        assert outcomes[4] == [(-1.0, 1), (-1.0, 1)]
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
    # A full window is ~20 MB of requests and ~1 MB of replies, well past
    # the socket buffers: a client that blocked on writing its next request
    # while the server blocked on writing a reply would never finish.
    continuations = ["x" * 256] * 8000
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
    lines.sort(key=lambda line: (line["fact_id"], line["source"]))
    expected = [
        (
            line["prompt"],
            [
                join_continuation(line["prompt"], form, line["no_space"])
                for form in line["correct_forms"] + [f for _, f in line["distractors"]]
            ],
        )
        for line in lines
    ]
    assert len(expected) > PIPELINE_WINDOW
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
        assert len(progress.splitlines()) == 1 + dropped_after

        # The server answers every request on a new connection.
        resumed = cmd_evaluate(config, bundle)
    sets = len(read_jsonl(bundle / "candidate_sets.jsonl", "candidate_sets"))
    assert len(server.received) == sets

    with _serving(_threading_server()) as healthy:
        config_clean = load_config(
            _protocol_workspace(tmp_path / "clean", healthy.server_address[1])
        )
        clean = cmd_evaluate(config_clean, cmd_build_dataset(config_clean, replay=True))
    assert (resumed / "records.jsonl").read_bytes() == (clean / "records.jsonl").read_bytes()
    assert read_jsonl(resumed / "audit.jsonl", "audit") == []
