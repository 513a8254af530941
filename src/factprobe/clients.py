"""Request/response clients for translation, LLM translation and QE scoring.

All three roles share one contract: a canonical ``TextRequest`` goes in,
text comes out. Three modes cover the live-to-CI spectrum:

* live    -- HTTP client, responses cached by request digest
* record  -- live, plus every response appended to a portable fixtures file
* replay  -- fixtures/cache only; a missing response is an error (CI-safe)

Cache entries are content-addressed by a digest of the canonical request
serialization, so a cache hit is byte-identical to the original response
and warm reruns make zero network calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ClientError, MalformedRecord, ReplayMiss
from .jsonl import dump, iter_lines


@dataclass(frozen=True)
class TextRequest:
    """Canonical client request; the cache key is a pure function of it."""

    client_id: str
    text: str
    source_language: str
    target_language: str
    extra: tuple[tuple[str, str], ...] = ()

    def canonical(self) -> str:
        return dump(
            {
                "client_id": self.client_id,
                "text": self.text,
                "source_language": self.source_language,
                "target_language": self.target_language,
                "extra": {k: v for k, v in self.extra},
            }
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


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
            return json.loads(path.read_text(encoding="utf-8"))["response"]
        except (ValueError, TypeError, KeyError) as exc:
            raise MalformedRecord(f"corrupt cache entry: {exc}", file=str(path)) from exc

    def put(self, key: str, request: TextRequest, response: str) -> None:
        entry = {
            "key": key,
            "request": json.loads(request.canonical()),
            "response": response,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(entry, ensure_ascii=False, sort_keys=True, indent=1),
            encoding="utf-8",
        )
        os.replace(tmp, path)


def load_fixtures(paths) -> dict[str, str]:
    """Load replay fixtures (headerless JSONL of request+response) into a digest map."""
    table: dict[str, str] = {}
    for path in paths:
        for _, record in iter_lines(path):
            req = record["request"]
            request = TextRequest(
                client_id=req["client_id"],
                text=req["text"],
                source_language=req["source_language"],
                target_language=req["target_language"],
                extra=tuple(sorted((k, v) for k, v in req.get("extra", {}).items())),
            )
            table[request.digest()] = record["response"]
    return table


def append_fixture(path, request: TextRequest, response: str) -> None:
    record = {"request": json.loads(request.canonical()), "response": response}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(dump(record) + "\n")


class ReplayClient:
    """Serves responses from fixture files and/or the cache; never online."""

    def __init__(self, client_id: str, fixtures=(), cache: ResponseCache | None = None):
        self.client_id = client_id
        self._table = load_fixtures(fixtures)
        self._cache = cache
        self.call_count = 0  # network calls; stays 0 by construction

    def complete(self, request: TextRequest) -> str:
        key = request.digest()
        if key in self._table:
            return self._table[key]
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        raise ReplayMiss(
            "no recorded response for request",
            client_id=self.client_id,
            digest=key,
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
        payload = {
            "model": self.model,
            "text": request.text,
            "source_language": request.source_language,
            "target_language": request.target_language,
            "extra": {k: v for k, v in request.extra},
        }
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
        self.client_id = getattr(inner, "client_id", "client")
        self.record_path = Path(record_path)
        self.record_path.parent.mkdir(parents=True, exist_ok=True)

    @property
    def call_count(self) -> int:
        return getattr(self.inner, "call_count", 0)

    def complete(self, request: TextRequest) -> str:
        response = self.inner.complete(request)
        append_fixture(self.record_path, request, response)
        return response


@dataclass
class TextService:
    """Cache-first wrapper around a client: hits never touch the network."""

    client: object
    cache: ResponseCache | None = None
    client_calls: int = field(default=0, init=False)

    def fetch(self, request: TextRequest) -> str:
        key = request.digest()
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        response = self.client.complete(request)
        self.client_calls += 1
        if self.cache is not None:
            self.cache.put(key, request, response)
        return response
