import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprobe.clients import (
    FixtureLog,
    HttpClient,
    ReplayClient,
    ResponseCache,
    TextRequest,
    TextService,
    load_fixtures,
    make_service,
    record_line,
)
from factprobe.config import ClientSettings
from factprobe.errors import ClientError, MalformedRecord, ReplayMiss


def _request(text="hello", extra=()):
    return TextRequest(
        client_id="mt", text=text, source_language="en", target_language="cs",
        extra=extra,
    )


def test_digest_is_pure_and_distinct():
    assert _request().digest() == _request().digest()
    assert _request().digest() != _request("other").digest()
    assert _request(extra=(("k", "v"),)).digest() != _request().digest()


def test_cache_roundtrip_byte_identity(tmp_path):
    cache = ResponseCache(tmp_path)
    request = _request()
    response = "Ahoj světe\n"  # non-breaking space and newline survive
    cache.put(request.digest(), request, response)
    assert cache.get(request.digest()) == response
    assert cache.get("0" * 64) is None


def test_replay_client_hit_and_miss(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    path.write_text(record_line(_request(), "odpověď"), encoding="utf-8")
    cache = ResponseCache(tmp_path / "cache")
    service = make_service(ClientSettings("mt", fixtures=(str(path),)), cache, replay=True)
    assert service.fetch(_request()) == "odpověď"
    with pytest.raises(ReplayMiss):
        service.fetch(_request("unknown"))
    # A replay run reads the fixtures and writes nothing to the cache.
    assert list(cache.directory.iterdir()) == []


def test_replay_client_reads_cache(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    request = _request()
    cache.put(request.digest(), request, "z cache")
    service = make_service(ClientSettings("mt"), cache, replay=True)
    assert service.fetch(request) == "z cache"


def test_record_service_asks_and_records_each_request_once(tmp_path):
    class Inner:
        client_id = "mt"
        calls = 0

        def complete(self, request):
            Inner.calls += 1
            return f"živě {Inner.calls}"

    path = tmp_path / "recorded.jsonl"
    service = TextService(Inner(), record=FixtureLog(path))
    # A repeated request, with no cache: the first answer is kept.
    assert [service.fetch(_request()) for _ in range(2)] == ["živě 1", "živě 1"]
    assert service.fetch(_request("jiný")) == "živě 2"
    assert Inner.calls == 2
    assert path.read_text(encoding="utf-8") == (
        record_line(_request(), "živě 1") + record_line(_request("jiný"), "živě 2"))
    # The recorded file replays cleanly.
    replay = TextService(ReplayClient("mt"), fixtures=load_fixtures([path]))
    assert replay.fetch(_request()) == "živě 1"


def test_fixture_lines_are_keyed_by_the_digest_of_their_request(tmp_path):
    # A hand-written line: keys in any order, ``extra`` unsorted or left
    # out, a request field the format does not name, spaces, and strings
    # escaped where ``dump`` would not escape them.
    path = tmp_path / "fixtures.jsonl"
    with_extra = _request("s extra", extra=(("a", "1"), ("b", "2")))
    without = _request("bez extra")
    escaped = _request("é/ü")
    lines = [
        {"response": "první", "request": {
            "text": "s extra", "target_language": "cs", "extra": {"b": "2", "a": "1"},
            "source_language": "en", "client_id": "mt", "model": "ignored"}},
        {"request": {"client_id": "mt", "text": "bez extra", "source_language": "en",
                     "target_language": "cs"}, "response": "druhá"},
    ]
    path.write_text("".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
                    + '{ "request" : { "target_language" : "cs", "text" : "\\u00e9\\/\\u00fc",'
                    ' "client_id" : "mt", "source_language" : "en" }, "response" : "třetí" }\n',
                    encoding="utf-8")
    assert load_fixtures([path]) == {with_extra.digest(): "první", without.digest(): "druhá",
                                     escaped.digest(): "třetí"}


def test_cache_entry_is_a_fixture_line(tmp_path):
    requests = [_request(extra=(("k", "v"),)), _request("druhý")]
    cache = ResponseCache(tmp_path / "cache")
    recorded = FixtureLog(tmp_path / "fixtures.jsonl")
    for request in requests:
        cache.put(request.digest(), request, "odpověď")
        recorded.append(record_line(request, "odpověď"))
    # The client's log holds the bytes of a fixture file of the same responses.
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["mt.jsonl"]
    entry = (tmp_path / "cache" / "mt.jsonl").read_bytes()
    assert entry == (tmp_path / "fixtures.jsonl").read_bytes()


@pytest.mark.parametrize("tear", [
    lambda raw: raw[: len(raw) // 2],
    lambda raw: raw[: raw.index("ř".encode("utf-8")) + 1],  # inside a character
], ids=["cut-mid-line", "cut-mid-character"])
def test_cache_skips_and_cuts_a_torn_last_line(tmp_path, tear):
    kept, torn, later = _request("zůstane"), _request("utržený"), _request("pozdější")
    log = tmp_path / "mt.jsonl"
    log.write_bytes(record_line(kept, "ano").encode("utf-8")
                    + tear(record_line(torn, "řádek").encode("utf-8")))
    cache = ResponseCache(tmp_path)
    assert cache.get(kept.digest()) == "ano"
    assert cache.get(torn.digest()) is None
    # The first append cuts the torn tail off, so no line is glued onto it.
    cache.put(later.digest(), later, "potom")
    assert log.read_text(encoding="utf-8") == (
        record_line(kept, "ano") + record_line(later, "potom"))
    assert ResponseCache(tmp_path).get(later.digest()) == "potom"


def test_cache_ends_a_whole_last_line_before_appending(tmp_path):
    kept, later = _request("celý"), _request("pozdější")
    log = tmp_path / "mt.jsonl"
    log.write_text(record_line(kept, "ano").rstrip("\n"), encoding="utf-8")
    cache = ResponseCache(tmp_path)
    assert cache.get(kept.digest()) == "ano"
    cache.put(later.digest(), later, "potom")
    assert log.read_text(encoding="utf-8") == (
        record_line(kept, "ano") + record_line(later, "potom"))


@pytest.mark.parametrize("bad, last", [
    (record_line(_request(), "x")[:30] + "\n", False),
    ('{"response": 5}\n', False),
    ('{"response": 5}', True),  # decodes, so it is no torn write
], ids=["cut-line-in-the-middle", "wrong-shape-in-the-middle", "wrong-shape-last"])
def test_cache_log_bad_line_is_malformed(tmp_path, bad, last):
    good = record_line(_request("dobrý"), "ano")
    log = tmp_path / "mt.jsonl"
    log.write_text(good + bad if last else good + bad + good, encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        ResponseCache(tmp_path)
    assert info.value.context["file"] == str(log)
    assert info.value.context["line"] == 2


def test_cache_logs_of_two_writers_interleave_whole_lines(tmp_path):
    first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
    requests = [_request(f"text{i}") for i in range(6)]
    for i, request in enumerate(requests):
        (first, second)[i % 2].put(request.digest(), request, f"out{i}")
    reread = ResponseCache(tmp_path)
    assert [reread.get(r.digest()) for r in requests] == [f"out{i}" for i in range(6)]


def test_cache_short_write_leaves_no_glued_line(tmp_path, monkeypatch):
    from factprobe import jsonl

    first, cut, later = _request("první"), _request("useknutý"), _request("pozdější")
    cache = ResponseCache(tmp_path)
    cache.put(first.digest(), first, "ano")
    write = os.write
    # The disk fills part-way through the line.
    monkeypatch.setattr(jsonl.os, "write", lambda fd, data: write(fd, data[:20]))
    with pytest.raises(OSError):
        cache.put(cut.digest(), cut, "ne")
    monkeypatch.setattr(jsonl.os, "write", write)
    assert cache.get(cut.digest()) is None
    # The next put cuts the partial line off before appending.
    cache.put(later.digest(), later, "potom")
    assert (tmp_path / "mt.jsonl").read_text(encoding="utf-8") == (
        record_line(first, "ano") + record_line(later, "potom"))


@pytest.mark.parametrize("client_id", ["../mt", ".mt", "", "a/b"])
def test_cache_refuses_a_client_id_that_is_no_file_name(tmp_path, client_id):
    request = TextRequest(client_id, "hello", "en", "cs")
    with pytest.raises(ClientError):
        ResponseCache(tmp_path / "cache").put(request.digest(), request, "x")
    assert list((tmp_path / "cache").iterdir()) == []


# Characters that JSON must escape or that UTF-8 spells in four bytes, and
# lone surrogates, which no UTF-8 text holds but a JSON string may.
_AWKWARD = st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\u2028",
                            "😀", "\ud800", "\udfff"])
_STRINGS = st.text(st.one_of(st.characters(), _AWKWARD), max_size=12)


@given(
    fields=st.tuples(_STRINGS, _STRINGS, _STRINGS, _STRINGS),
    extra=st.lists(st.tuples(_STRINGS, _STRINGS), max_size=4),
    response=_STRINGS,
)
@settings(max_examples=300, deadline=None)
def test_request_canonical_text_is_the_dump_of_its_fields(fields, extra, response):
    from factprobe.jsonl import dump

    client_id, text, source_language, target_language = fields
    request = TextRequest(client_id, text, source_language, target_language, tuple(extra))
    assert request.canonical() == dump(request.fields())
    assert record_line(request, response) == dump(
        {"request": request.fields(), "response": response}) + "\n"


def test_request_digest_is_computed_once(tmp_path, monkeypatch):
    from factprobe import clients

    hashed = []
    sha256 = clients._sha256
    monkeypatch.setattr(clients, "_sha256", lambda text: hashed.append(text) or sha256(text))

    class Inner:
        client_id = "mt"

        def complete(self, request):
            return "odpověď"

    request = _request(extra=(("k", "v"),))
    service = TextService(Inner(), ResponseCache(tmp_path / "cache"),
                          record=FixtureLog(tmp_path / "recorded.jsonl"))
    assert service.fetch(request) == "odpověď"
    assert service.fetch(request) == "odpověď"
    assert request.digest() == request.digest()
    assert hashed == [request.canonical()]


_GOOD_REQUEST = _request(extra=(("k", "v"),)).fields()

WRONG_SHAPES = {
    "no-request": {"response": "x"},
    "response-not-string": {"request": _GOOD_REQUEST, "response": 5},
    "request-not-object": {"request": "hello", "response": "x"},
    "field-not-string": {"request": {**_GOOD_REQUEST, "text": 3}, "response": "x"},
    "field-missing": {
        "request": {k: v for k, v in _GOOD_REQUEST.items() if k != "client_id"},
        "response": "x",
    },
    "extra-not-object": {"request": {**_GOOD_REQUEST, "extra": ["k"]}, "response": "x"},
    "extra-value-not-string": {
        "request": {**_GOOD_REQUEST, "extra": {"k": 1}}, "response": "x",
    },
}

# The field each wrong shape names.
WRONG_FIELDS = {
    "no-request": "request",
    "response-not-string": "response",
    "request-not-object": "request",
    "field-not-string": "request.text",
    "field-missing": "request.client_id",
    "extra-not-object": "request.extra",
    "extra-value-not-string": "request.extra",
}


@pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
def test_wrong_shape_fixture_line_is_malformed(tmp_path, shape):
    path = tmp_path / "fixtures.jsonl"
    path.write_text(record_line(_request(), "dobře"), encoding="utf-8")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(WRONG_SHAPES[shape]) + "\n")
    with pytest.raises(MalformedRecord) as info:
        load_fixtures([path])
    assert info.value.context == {"file": str(path), "line": 2, "field": WRONG_FIELDS[shape]}


@pytest.mark.parametrize("shape", sorted(WRONG_SHAPES) + ["not-an-object"])
def test_wrong_shape_cache_entry_is_malformed(tmp_path, shape):
    request = _request()
    ResponseCache(tmp_path).put(request.digest(), request, "dobře")
    path = tmp_path / "mt.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(WRONG_SHAPES.get(shape, [1, 2])) + "\n")
    with pytest.raises(MalformedRecord) as info:
        ResponseCache(tmp_path)
    expected = {"file": str(path), "line": 2}
    if shape in WRONG_FIELDS:
        expected["field"] = WRONG_FIELDS[shape]
    assert info.value.context == expected


def test_text_service_cache_first(tmp_path):
    class Inner:
        client_id = "mt"

        def __init__(self):
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            return "jednou"

    inner = Inner()
    service = TextService(client=inner, cache=ResponseCache(tmp_path))
    assert service.fetch(_request()) == "jednou"
    assert service.fetch(_request()) == "jednou"
    assert inner.calls == 1


class _Handler(BaseHTTPRequestHandler):
    # Set by a test; the ``http_server`` fixture resets them.
    failures_left = 0
    failure_status = 500
    reply = None  # the reply, if not the upper-cased text: bytes or a JSON value
    requests = 0

    def do_POST(self):
        _Handler.requests += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if _Handler.failures_left > 0:
            _Handler.failures_left -= 1
            self.send_response(_Handler.failure_status)
            self.end_headers()
            return
        body = _Handler.reply or {"text": payload["text"].upper()}
        if type(body) is not bytes:
            body = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    _Handler.failures_left, _Handler.failure_status, _Handler.reply = 0, 500, None
    _Handler.requests = 0
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    thread.join()
    server.server_close()


def test_http_client_roundtrip(http_server):
    client = HttpClient("mt", endpoint=http_server)
    assert client.complete(_request("hello")) == "HELLO"
    assert _Handler.requests == 1


def test_http_client_retries_then_succeeds(http_server):
    _Handler.failures_left = 2
    client = HttpClient("mt", endpoint=http_server)
    client.backoff_seconds = 0.0
    assert client.complete(_request("zku")) == "ZKU"
    assert _Handler.requests == 3


def test_http_client_fails_after_retries(http_server):
    _Handler.failures_left = 99
    client = HttpClient("mt", endpoint=http_server)
    client.backoff_seconds = 0.0
    with pytest.raises(ClientError):
        client.complete(_request("zku2"))
    _Handler.failures_left = 0


@pytest.mark.parametrize("status, attempts", [(401, 1), (404, 1), (408, 3), (429, 3)])
def test_http_client_retries_only_a_transient_status(http_server, status, attempts):
    _Handler.failures_left, _Handler.failure_status = 99, status
    client = HttpClient("mt", endpoint=http_server)
    if attempts > 1:
        client.backoff_seconds = 0.0
    with pytest.raises(ClientError, match=str(status)):
        client.complete(_request())
    assert _Handler.requests == attempts


def test_http_reply_whose_text_is_no_string_is_refused(http_server, tmp_path):
    # Not JSON, no text, and a text that is no string: each is refused at
    # once, since a reply of the wrong shape is the same on every try.
    for reply in (b"<html>busy</html>", {"translation": "x"}, {"text": 5}):
        _Handler.reply, _Handler.requests = reply, 0
        client = HttpClient("mt", endpoint=http_server)
        service = TextService(client=client, cache=ResponseCache(tmp_path))
        with pytest.raises(ClientError, match="reply is not"):
            service.fetch(_request())
        assert _Handler.requests == 1, reply
        assert not (tmp_path / "mt.jsonl").exists()
        assert ResponseCache(tmp_path).get(_request().digest()) is None


def test_http_reply_with_a_lone_surrogate_is_refused(http_server, tmp_path):
    # The reply was taken, and writing it to the cache raised a
    # UnicodeEncodeError traceback.
    _Handler.reply = {"text": "Praha\ud800"}
    client = HttpClient("mt", endpoint=http_server)
    service = TextService(client=client, cache=ResponseCache(tmp_path))
    with pytest.raises(ClientError, match="lone surrogate"):
        service.fetch(_request())
    assert _Handler.requests == 1
    assert not (tmp_path / "mt.jsonl").exists()


def test_http_client_missing_auth_env(http_server, monkeypatch):
    monkeypatch.delenv("FACTPROBE_TEST_TOKEN", raising=False)
    client = HttpClient("mt", endpoint=http_server, auth_env="FACTPROBE_TEST_TOKEN")
    with pytest.raises(ClientError):
        client.complete(_request())


def test_cache_threads_append_whole_lines_to_each_log(tmp_path):
    # More threads than cores, switching often, over three client logs.
    cache = ResponseCache(tmp_path)
    requests = [
        TextRequest(client, f"text{i}", "en", "cs")
        for client in ("mt", "llm", "qe") for i in range(40)
    ]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda part: [
                cache.put(r.digest(), r, r.text + "-out") for r in part
            ], args=(requests[i::8],))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    reread = ResponseCache(tmp_path)
    assert all(reread.get(r.digest()) == r.text + "-out" for r in requests)
    for client in ("mt", "llm", "qe"):
        assert len((tmp_path / f"{client}.jsonl").read_text(encoding="utf-8").splitlines()) == 40


def test_benchmark_load_and_get_every_cache_line(tmp_path, benchmark):
    # 3,000 cache lines over three client logs, each line read back once.
    requests = [
        TextRequest(client, f"Věta číslo {i} k přeložení.", "en", "cs")
        for client in ("mt", "llm", "qe") for i in range(1000)
    ]
    cache = ResponseCache(tmp_path)
    for request in requests:
        cache.put(request.digest(), request, request.text.upper())
    keys = [request.digest() for request in requests]

    def load_and_get():
        warm = ResponseCache(tmp_path)
        return [warm.get(key) for key in keys]

    responses = benchmark.pedantic(load_and_get, rounds=5, iterations=1)
    assert responses == [request.text.upper() for request in requests]


def test_cache_concurrent_distinct_keys(tmp_path):
    # Atomic writes: concurrent writers of distinct keys never corrupt.
    cache = ResponseCache(tmp_path)
    requests = [_request(f"text{i}") for i in range(20)]

    def worker(req):
        cache.put(req.digest(), req, req.text + "-out")

    threads = [threading.Thread(target=worker, args=(r,)) for r in requests]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for req in requests:
        assert cache.get(req.digest()) == req.text + "-out"
