"""Request/response clients for translation, LLM translation and QE scoring.

All three roles share one contract: a canonical ``TextRequest`` goes in,
text comes out. Three modes cover the live-to-CI spectrum:

* live    -- HTTP client, responses cached by request digest
* record  -- live, plus every response appended to a portable fixtures file
* replay  -- cache and fixtures only; a missing response is an error (CI-safe)

Cache entries are content-addressed by a digest of the canonical request
serialization, so a cache hit is byte-identical to the original response
and warm reruns make zero network calls. Only client responses are cached.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ClientError, ConfigError, MalformedRecord, ReplayMiss
from .jsonl import check_line, dump, iter_lines


@dataclass(frozen=True)
class TextRequest:
    """Canonical client request; the cache key is a pure function of it."""

    client_id: str
    text: str
    source_language: str
    target_language: str
    extra: tuple[tuple[str, str], ...] = ()

    def fields(self) -> dict:
        return {
            "client_id": self.client_id,
            "text": self.text,
            "source_language": self.source_language,
            "target_language": self.target_language,
            "extra": dict(self.extra),
        }

    def canonical(self) -> str:
        return dump(self.fields())

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def record_line(request: TextRequest, response: str) -> str:
    """The line a fixture file and a cache entry hold for one response."""
    return dump({"request": request.fields(), "response": response}) + "\n"


def parse_record(record: dict) -> tuple[TextRequest, str]:
    """The request and response of a fixture line or cache entry that has
    passed ``check_line("fixture", ...)``."""
    req = record["request"]
    extra = tuple(sorted(req.get("extra", {}).items()))
    fields = (req[name] for name in ("client_id", "text", "source_language", "target_language"))
    return TextRequest(*fields, extra), record["response"]


class ResponseCache:
    """Directory of content-addressed response files.

    Writes are atomic (tmp file + rename), so concurrent writers of
    distinct keys are safe and a reader never sees a torn entry.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> str | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise MalformedRecord(f"corrupt cache entry: {exc}", file=str(path)) from exc
        return parse_record(check_line("fixture", record, file=str(path)))[1]

    def put(self, key: str, request: TextRequest, response: str) -> None:
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(record_line(request, response), encoding="utf-8")
        os.replace(tmp, path)


def load_fixtures(paths) -> dict[str, str]:
    """Load replay fixtures (headerless JSONL of request+response) into a digest map."""
    records = (parse_record(record) for path in paths for _, record in iter_lines(path, "fixture"))
    return {request.digest(): response for request, response in records}


def append_fixture(path, request: TextRequest, response: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record_line(request, response))


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
    "extra"}`` to the endpoint and expects ``{"text": ...}`` back. Auth is
    a bearer token read from the environment variable named in the config.
    Retries transport failures 3 times with exponential backoff.
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
        self.call_count = 0

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
                self.call_count += 1
                post = urllib.request.Request(self.endpoint, data=body, headers=headers)
                with urllib.request.urlopen(post, timeout=self.timeout) as response:
                    return json.loads(response.read())["text"]
            except Exception as exc:  # noqa: BLE001 - wrapped below
                last_error = exc
                if attempt + 1 < self.max_attempts:
                    time.sleep(self.backoff_seconds * (2 ** attempt))
        raise ClientError(
            f"request failed after {self.max_attempts} attempts: {last_error}",
            client_id=self.client_id,
        ) from last_error


class RecordingClient:
    """Wraps a live client and appends every response to a fixtures file,
    producing a committable replay corpus as a side effect."""

    def __init__(self, inner, record_path):
        self.inner = inner
        self.client_id = inner.client_id
        self.record_path = Path(record_path)
        self.record_path.parent.mkdir(parents=True, exist_ok=True)

    def complete(self, request: TextRequest) -> str:
        response = self.inner.complete(request)
        append_fixture(self.record_path, request, response)
        return response


@dataclass
class TextService:
    """The one fetch path of a client role: the cache, then the read-only
    replay fixtures (digest -> response), then the client. Only the client's
    answers are stored."""

    client: object
    cache: ResponseCache | None = None
    fixtures: dict[str, str] = field(default_factory=dict)

    def fetch(self, request: TextRequest) -> str:
        key = request.digest()
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        response = self.fixtures.get(key)
        if response is None:
            response = self.client.complete(request)
            if self.cache is not None:
                self.cache.put(key, request, response)
        return response


def make_service(settings, cache, replay: bool = False) -> TextService | None:
    """The ``TextService`` of a configured client role (None if the role has
    no settings) in its live/record/replay mode; ``replay`` forces replay."""
    if settings is None:
        return None
    name, mode = settings.client_id, "replay" if replay else settings.mode
    if mode == "replay":
        return TextService(ReplayClient(name), cache, load_fixtures(settings.fixtures))
    if settings.endpoint is None:
        raise ConfigError(f"client {name!r} in {mode} mode needs an endpoint")
    client = HttpClient(name, settings.endpoint, settings.model, settings.auth_env)
    if mode == "record":
        if settings.record_fixtures is None:
            raise ConfigError(f"client {name!r} in record mode needs record_fixtures")
        client = RecordingClient(client, settings.record_fixtures)
    return TextService(client, cache)
