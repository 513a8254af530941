"""Request/response clients for translation, LLM translation and QE scoring.

All three roles share one contract: a canonical ``TextRequest`` goes in,
text comes out. Three modes cover the live-to-CI spectrum:

* live    -- HTTP client, responses cached by request digest
* record  -- live, plus every response appended to a portable fixtures file;
             a request the file already answers is not asked again
* replay  -- cache and fixtures only; a missing response is an error (CI-safe)

Cache entries are content-addressed by a digest of the canonical request
serialization, so a cache hit is byte-identical to the original response
and warm reruns make zero network calls. Only client responses are cached.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path

from .errors import ClientError, ConfigError, ReplayMiss
from .jsonl import append, dump, iter_lines, lone_surrogate, make_dir, open_log


@dataclass(frozen=True)
class TextRequest:
    """Canonical client request; the cache key is a pure function of it.

    Its canonical text and digest are made once, at construction: the fetch
    path and the provenance of a verbalization both read them."""

    client_id: str
    text: str
    source_language: str
    target_language: str
    extra: tuple[tuple[str, str], ...] = ()
    _canonical: str = field(init=False, repr=False, compare=False)
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        canonical, digest = _encode(self.client_id, self.text, self.source_language,
                                    self.target_language, dict(self.extra))
        object.__setattr__(self, "_canonical", canonical)
        object.__setattr__(self, "_digest", digest)

    def fields(self) -> dict:
        return {
            "client_id": self.client_id,
            "text": self.text,
            "source_language": self.source_language,
            "target_language": self.target_language,
            "extra": dict(self.extra),
        }

    def canonical(self) -> str:
        """``dump(self.fields())``."""
        return self._canonical

    def digest(self) -> str:
        return self._digest


def _encode(client_id: str, text: str, source_language: str, target_language: str,
            extra: dict) -> tuple[str, str]:
    """The canonical text of the request with these fields, which is what
    ``dump`` gives for its ``fields()``, and its digest. Each string is
    encoded on its own, with the keys written in sorted order."""
    canonical = (f'{{"client_id":{encode_basestring(client_id)},"extra":{dump(extra)},'
                 f'"source_language":{encode_basestring(source_language)},'
                 f'"target_language":{encode_basestring(target_language)},'
                 f'"text":{encode_basestring(text)}}}')
    return canonical, _sha256(canonical)


def _sha256(canonical: str) -> str:
    # A lone surrogate, which no UTF-8 text holds, is hashed by its code point.
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


def record_line(request: TextRequest, response: str) -> str:
    """The line a fixture file and a cache entry hold for one response:
    ``dump({"request": request.fields(), "response": response})``."""
    return f'{{"request":{request.canonical()},"response":{encode_basestring(response)}}}\n'


class FixtureLog:
    """Fixture lines appended to the file at ``path``: a cache log or a
    record run's fixtures. It is opened by ``open_log`` at the first append,
    so a run that only reads creates no file, and opened again after a
    failed append, which cuts the partial line off. The threads of a process
    share its one descriptor, closed when the log is collected."""

    def __init__(self, path):
        self.path = Path(path)
        self._fd: int | None = None
        self._lock = threading.Lock()

    def append(self, line: str) -> None:
        with self._lock:
            if self._fd is None:
                self._fd = open_log(self.path, "fixture")
                self._close = weakref.finalize(self, os.close, self._fd)
            try:
                append(self._fd, line)
            except OSError:
                self._fd = None
                self._close()
                raise


class ResponseCache:
    """Client responses by request digest: one ``FixtureLog`` per client,
    ``<client_id>.jsonl`` in ``directory``.

    Construction reads every log once, through the loader of replay
    fixtures, skipping a torn last line, so a wrong-shape line is a
    ``MalformedRecord`` naming its file and line; ``get`` is then a dict
    lookup, and ``put`` appends one line unless the key already holds that
    response. Separate processes append whole lines too, but each sees only
    the lines its construction read.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        make_dir(self.directory)
        self._responses = load_fixtures(sorted(self.directory.glob("*.jsonl")), torn_tail=True)
        self._logs: dict[str, FixtureLog] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> str | None:
        return self._responses.get(key)

    def put(self, key: str, request: TextRequest, response: str) -> None:
        """Store ``response`` under ``key``, the digest of ``request``. A
        response the key already holds is not appended again; another one is,
        and wins when the log is read, as the last line of a key does."""
        if self._responses.get(key) == response:
            return
        client_id = request.client_id
        with self._lock:
            if client_id not in self._logs:
                if not is_plain_name(client_id):
                    raise ClientError("client id cannot name a cache log", client_id=client_id)
                self._logs[client_id] = FixtureLog(self.directory / f"{client_id}.jsonl")
        self._logs[client_id].append(record_line(request, response))
        self._responses[key] = response


def is_plain_name(name) -> bool:
    """Whether ``name`` names a file of its own in a directory: a non-empty
    string with no path separator or NUL that does not start with a dot."""
    return (type(name) is str and name != "" and not name.startswith(".")
            and not any(c in name for c in "/\\\0"))


def load_fixtures(paths, torn_tail: bool = False) -> dict[str, str]:
    """Load replay fixtures (headerless JSONL of request+response) into a
    digest map; ``torn_tail`` skips a torn last line, as ``iter_lines`` does.

    Each line's digest is that of the ``TextRequest`` the line holds, taken
    straight from the line's fields, so their order and spacing in the line
    do not matter, and a line without ``extra`` has none."""
    responses = {}
    for path in paths:
        for _, record in iter_lines(path, "fixture", torn_tail=torn_tail):
            req = record["request"]
            _, digest = _encode(req["client_id"], req["text"], req["source_language"],
                                req["target_language"], req.get("extra", {}))
            responses[digest] = record["response"]
    return responses


class ReplayClient:
    """The replay-mode client: it sees only requests that neither the cache
    nor the fixtures answered, so every call is a miss."""

    def __init__(self, client_id: str):
        self.client_id = client_id

    def complete(self, request: TextRequest) -> str:
        raise ReplayMiss(
            "no recorded response for request",
            client_id=self.client_id,
            digest=request.digest(),
            text=request.text[:80],
        )


class HttpClient:
    """Minimal live HTTP client speaking the package's JSON contract.

    POSTs ``{"model", "text", "source_language", "target_language",
    "extra"}`` to the endpoint and expects ``{"text": <string>}`` back. Auth
    is a bearer token read from the environment variable named in the
    config. A transport failure or a 5xx, 408 or 429 status is tried 3
    times in all, with exponential backoff; any other 4xx status, a reply
    of another shape and one that escapes a lone surrogate fail at once.
    """

    max_attempts = 3
    backoff_seconds = 0.5

    def __init__(self, client_id: str, endpoint: str, model: str | None = None,
                 auth_env: str | None = None, timeout: float = 30.0):
        self.client_id = client_id
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout

    def complete(self, request: TextRequest) -> str:
        # Imported here: it loads ssl, which costs every replay run ~2 MB.
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if not token:
                raise ClientError(
                    f"auth environment variable {self.auth_env!r} is not set",
                    client_id=self.client_id,
                )
            headers["Authorization"] = f"Bearer {token}"
        payload = dict(request.fields(), model=self.model)
        del payload["client_id"]
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            try:
                post = urllib.request.Request(self.endpoint, data=body, headers=headers)
                with urllib.request.urlopen(post, timeout=self.timeout) as response:
                    raw = response.read()
                break
            except urllib.error.HTTPError as exc:
                exc.close()  # it holds the socket of the error response
                if 400 <= exc.code < 500 and exc.code not in (408, 429):
                    raise ClientError(f"request refused: {exc}",
                                      client_id=self.client_id) from exc
                last_error = exc
            except Exception as exc:  # noqa: BLE001 - wrapped below
                last_error = exc
            if attempt + 1 < self.max_attempts:
                time.sleep(self.backoff_seconds * (2 ** attempt))
        else:
            raise ClientError(
                f"request failed after {self.max_attempts} attempts: {last_error}",
                client_id=self.client_id,
            ) from last_error
        # A reply of the wrong shape would be the same on every try.
        try:
            reply = json.loads(raw)
        except (ValueError, RecursionError):  # not JSON, or nested too deep to read
            reply = None
        text = reply.get("text") if type(reply) is dict else None
        if type(text) is not str:
            raise ClientError(f'reply is not {{"text": <string>}}: {raw[:200]!r}',
                              client_id=self.client_id)
        if lone_surrogate(raw):  # its text could not be written to the cache
            raise ClientError(f"reply escapes a lone surrogate: {raw[:200]!r}",
                              client_id=self.client_id)
        return text


@dataclass
class TextService:
    """The one fetch path of a client role: the cache, then the responses
    known without the client (replay fixtures, digest -> response), then
    the client. In record mode, the responses known are those already
    recorded. Each answer of the client is kept with those responses, so
    a repeated request reaches it once, and stored in the cache and, in
    record mode, appended to the ``record`` log."""

    client: object
    cache: ResponseCache | None = None
    fixtures: dict[str, str] = field(default_factory=dict)
    record: FixtureLog | None = None

    def fetch(self, request: TextRequest) -> str:
        key = request.digest()
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        response = self.fixtures.get(key)
        if response is None:
            response = self.fixtures[key] = self.client.complete(request)
            if self.cache is not None:
                self.cache.put(key, request, response)
            if self.record is not None:
                self.record.append(record_line(request, response))
        return response


def make_service(settings, cache, replay: bool = False) -> TextService | None:
    """The ``TextService`` of a configured client role (None if the role has
    no settings) in its live/record/replay mode; ``replay`` forces replay.

    Record mode starts from what its ``record_fixtures`` file already holds,
    so it asks the client only what is not recorded yet."""
    if settings is None:
        return None
    name, mode = settings.client_id, "replay" if replay else settings.mode
    if mode == "replay":
        return TextService(ReplayClient(name), cache, load_fixtures(settings.fixtures))
    if settings.endpoint is None:
        raise ConfigError(f"client {name!r} in {mode} mode needs an endpoint")
    client = HttpClient(name, settings.endpoint, settings.model, settings.auth_env)
    if mode != "record":
        return TextService(client, cache)
    if settings.record_fixtures is None:
        raise ConfigError(f"client {name!r} in record mode needs record_fixtures")
    path = Path(settings.record_fixtures)
    make_dir(path.parent)
    recorded = load_fixtures([path] if path.exists() else [], torn_tail=True)
    return TextService(client, cache, recorded, FixtureLog(path))
