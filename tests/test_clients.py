import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from factprobe.clients import (
    HttpClient,
    RecordingClient,
    ReplayClient,
    ResponseCache,
    TextRequest,
    TextService,
    append_fixture,
    load_fixtures,
    make_service,
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
    append_fixture(path, _request(), "odpověď")
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


def test_recording_client_appends_fixture(tmp_path):
    class Inner:
        client_id = "mt"

        def complete(self, request):
            return "živě"

    path = tmp_path / "recorded.jsonl"
    client = RecordingClient(Inner(), path)
    assert client.complete(_request()) == "živě"
    table = load_fixtures([path])
    assert table[_request().digest()] == "živě"
    # The recorded file replays cleanly.
    service = TextService(ReplayClient("mt"), fixtures=load_fixtures([path]))
    assert service.fetch(_request()) == "živě"


def test_cache_entry_is_a_fixture_line(tmp_path):
    request = _request(extra=(("k", "v"),))
    cache = ResponseCache(tmp_path / "cache")
    cache.put(request.digest(), request, "odpověď")
    append_fixture(tmp_path / "fixtures.jsonl", request, "odpověď")
    entry = (tmp_path / "cache" / f"{request.digest()}.json").read_bytes()
    assert entry == (tmp_path / "fixtures.jsonl").read_bytes()


def test_cache_reads_indented_entries_with_key_and_timestamp(tmp_path):
    request = _request()
    (tmp_path / f"{request.digest()}.json").write_text(json.dumps({
        "key": request.digest(),
        "request": request.fields(),
        "response": "starý záznam",
        "timestamp": "2025-01-01T00:00:00Z",
    }, ensure_ascii=False, sort_keys=True, indent=1), encoding="utf-8")
    assert ResponseCache(tmp_path).get(request.digest()) == "starý záznam"


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
    append_fixture(path, _request(), "dobře")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(WRONG_SHAPES[shape]) + "\n")
    with pytest.raises(MalformedRecord) as info:
        load_fixtures([path])
    assert info.value.context == {"file": str(path), "line": 2, "field": WRONG_FIELDS[shape]}


@pytest.mark.parametrize("shape", sorted(WRONG_SHAPES) + ["not-an-object"])
def test_wrong_shape_cache_entry_is_malformed(tmp_path, shape):
    request = _request()
    path = tmp_path / f"{request.digest()}.json"
    path.write_text(json.dumps(WRONG_SHAPES.get(shape, [1, 2])), encoding="utf-8")
    with pytest.raises(MalformedRecord) as info:
        ResponseCache(tmp_path).get(request.digest())
    expected = {"file": str(path)}
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
    failures_left = 0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if _Handler.failures_left > 0:
            _Handler.failures_left -= 1
            self.send_response(500)
            self.end_headers()
            return
        body = json.dumps({"text": payload["text"].upper()}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()


def test_http_client_roundtrip(http_server):
    client = HttpClient("mt", endpoint=http_server)
    assert client.complete(_request("hello")) == "HELLO"
    assert client.call_count == 1


def test_http_client_retries_then_succeeds(http_server):
    _Handler.failures_left = 2
    client = HttpClient("mt", endpoint=http_server)
    client.backoff_seconds = 0.0
    assert client.complete(_request("zku")) == "ZKU"
    assert client.call_count == 3


def test_http_client_fails_after_retries(http_server):
    _Handler.failures_left = 99
    client = HttpClient("mt", endpoint=http_server)
    client.backoff_seconds = 0.0
    with pytest.raises(ClientError):
        client.complete(_request("zku2"))
    _Handler.failures_left = 0


def test_http_client_missing_auth_env(http_server, monkeypatch):
    monkeypatch.delenv("FACTPROBE_TEST_TOKEN", raising=False)
    client = HttpClient("mt", endpoint=http_server, auth_env="FACTPROBE_TEST_TOKEN")
    with pytest.raises(ClientError):
        client.complete(_request())


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
