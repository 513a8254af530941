"""Scorer backends and candidate ranking.

A backend scores continuations of a prompt and reports (log-probability,
token count) per continuation. Ranking is pure: candidates sort by
descending score with a byte-order tie-break on the surface form, so the
result is independent of input order and of any positive affine transform
of the scores.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import selectors
import socket
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Protocol

from .candidates import CandidateSet
from .errors import BackendError, FormNotPresent, NonFiniteScore, ScorerConnectionLost

PROTOCOL_VERSION = 1

# Requests the protocol client keeps in flight on its connection. Each
# request the window admits is sent at once (Nagle's algorithm is off), so a
# server that answers one line at a time finds its next request already
# buffered, and one that overlaps requests sees up to this many of them.
PIPELINE_WINDOW = 8

NORMALIZATION_SUM = "SUM"
NORMALIZATION_MEAN = "MEAN"


class ScorerBackend(Protocol):
    def score_batch(
        self, prompt: str, continuations: list[str]
    ) -> list[tuple[float, int]]:
        """Log-probability sum and token count for each continuation."""


class ScoredCandidate(NamedTuple):
    form: str
    entity_id: str | None  # None marks a correct form
    score: float
    token_count: int = 1


class RankedCandidate(NamedTuple):
    form: str
    entity_id: str | None
    score: float
    rank: int
    correct: bool


@dataclass(frozen=True)
class RankedResult:
    """A ranking. ``keys`` holds one ``(-score, form, not correct, entity id
    or "")`` tuple per candidate, in rank order."""

    fact_id: str
    keys: tuple[tuple[float, str, bool, str], ...]
    best_correct_rank: int
    best_correct_form: str
    hits: dict[int, bool]

    @property
    def candidates(self) -> tuple[RankedCandidate, ...]:
        """The ranked candidates, built on each read; an empty entity id
        reads back as None."""
        return tuple(
            RankedCandidate(form, entity_id or None, -neg_score, rank, not wrong)
            for rank, (neg_score, form, wrong, entity_id) in enumerate(self.keys, 1)
        )


def join_continuation(prompt: str, form: str, no_space: bool = False) -> str:
    """Continuation text under the pinned joining rule: exactly one space
    between prompt and form unless the prompt already ends in whitespace
    (or the language writes without word spacing)."""
    if no_space or not prompt or prompt[-1].isspace():
        return form
    return " " + form


def candidate_continuations(candidate_set: CandidateSet, no_space: bool = False) -> list[str]:
    """The continuations scored for a candidate set: correct forms first,
    then distractors, each joined to the prompt."""
    joiner = join_continuation(candidate_set.prompt, "", no_space)
    return [joiner + form for form in _forms(candidate_set)]


def _forms(candidate_set: CandidateSet) -> list[str]:
    return list(candidate_set.correct_forms) + [d.form for d in candidate_set.distractors]


def score_candidates(
    scorer: ScorerBackend,
    candidate_set: CandidateSet,
    normalization: str = NORMALIZATION_SUM,
    no_space: bool = False,
) -> list[ScoredCandidate]:
    """Score every candidate continuation of the prompt.

    Only a ``BackendError`` from the scorer marks a set that a rerun may
    score; any other exception is a fault and propagates unchanged.
    """
    if normalization not in (NORMALIZATION_SUM, NORMALIZATION_MEAN):
        raise ValueError(f"unknown normalization {normalization!r}")
    forms = _forms(candidate_set)
    if not forms:
        raise ValueError("candidate set is empty")
    entity_ids = [None] * len(candidate_set.correct_forms)
    entity_ids += [d.entity_id for d in candidate_set.distractors]
    results = scorer.score_batch(
        candidate_set.prompt, candidate_continuations(candidate_set, no_space)
    )
    if len(results) != len(forms):
        raise BackendError(
            f"scorer returned {len(results)} results for {len(forms)} continuations",
            fact_id=candidate_set.fact_id,
        )
    if normalization == NORMALIZATION_SUM:
        return [
            ScoredCandidate(form, entity_id, float(logprob), int(count))
            for form, entity_id, (logprob, count) in zip(forms, entity_ids, results)
        ]
    for form, (_, count) in zip(forms, results):
        if count < 1:
            raise BackendError(
                f"token count {count} < 1 for form {form!r}", fact_id=candidate_set.fact_id
            )
    return [
        ScoredCandidate(form, entity_id, float(logprob) / count, int(count))
        for form, entity_id, (logprob, count) in zip(forms, entity_ids, results)
    ]


def rank_candidates(
    scored: Iterable,
    correct_forms,
    n_values=(1, 2, 3, 4, 5),
    fact_id: str = "",
) -> RankedResult:
    """Rank scored candidates: descending score, byte-order tie-break.

    Accepts ScoredCandidate items or plain (form, score) pairs.
    Correctness is decided by byte-equality against ``correct_forms``;
    assembly guarantees no distractor shares a correct form. Python orders
    strings by code point, which is their UTF-8 byte order; correctness and
    entity id only break ties between byte-identical forms (duplicate
    labels).
    """
    correct = set(correct_forms)
    keys = [
        (-c.score, c.form, c.form not in correct, c.entity_id or "")
        if isinstance(c, ScoredCandidate) else (-c[1], c[0], c[0] not in correct, "")
        for c in scored
    ]
    if not keys:
        raise ValueError("nothing to rank")
    for neg_score, form, _, _ in keys:
        if not math.isfinite(neg_score):
            raise NonFiniteScore(f"score for form {form!r} is not finite", fact_id=fact_id)
    keys.sort()
    best = next((rank for rank, key in enumerate(keys, 1) if not key[2]), 0)
    if not best:
        raise ValueError("no correct form present among candidates")
    return RankedResult(
        fact_id=fact_id,
        keys=tuple(keys),
        best_correct_rank=best,
        best_correct_form=keys[best - 1][1],
        hits={int(n): best <= int(n) for n in n_values},
    )


def rank_of_form(result: RankedResult, form: str) -> int:
    """Rank of a surface form (the best rank, if duplicated)."""
    for rank, key in enumerate(result.keys, 1):
        if key[1] == form:
            return rank
    raise FormNotPresent(f"form {form!r} not present in ranked result")


def default_token_count(text: str) -> int:
    """Whitespace token count with a floor of 1; used by fixture backends."""
    return max(1, len(text.split()))


class TableScorer:
    """Pass-through fixture backend: explicit (prompt, continuation) table."""

    def __init__(self, table: dict[tuple[str, str], tuple[float, int]]):
        self._table = dict(table)

    def score_batch(self, prompt, continuations):
        results = []
        for continuation in continuations:
            entry = self._table.get((prompt, continuation))
            if entry is None:
                raise BackendError(
                    f"no fixture score for continuation {continuation!r}"
                )
            results.append(entry)
        return results


class OracleScorer:
    """Synthetic backend that knows the correct forms per prompt.

    mode='perfect' puts every correct form strictly on top;
    mode='adversarial' puts every correct form strictly at the bottom.
    Continuations arrive with the joining space applied, so a single
    leading space is stripped before the membership test.
    """

    def __init__(self, correct_by_prompt: dict[str, frozenset[str]], mode: str = "perfect"):
        if mode not in ("perfect", "adversarial"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self._correct = correct_by_prompt
        self.mode = mode

    def score_batch(self, prompt, continuations):
        correct = self._correct.get(prompt, frozenset())
        results = []
        for continuation in continuations:
            form = continuation[1:] if continuation.startswith(" ") else continuation
            is_correct = form in correct
            if self.mode == "perfect":
                score = 0.0 if is_correct else -1.0
            else:
                score = -1.0 if is_correct else 0.0
            results.append((score, default_token_count(continuation)))
        return results


def _encode_request(prompt: str, continuations) -> bytes:
    request = {
        "version": PROTOCOL_VERSION,
        "prompt": prompt,
        "continuations": list(continuations),
    }
    return (json.dumps(request, ensure_ascii=False) + "\n").encode("utf-8")


def _decode_reply(line: bytearray, count: int) -> list[tuple[float, int]]:
    try:
        response = json.loads(line)
    except ValueError as exc:
        raise BackendError(f"scorer reply is not JSON: {exc}") from exc
    if not isinstance(response, dict):
        raise BackendError("malformed scorer response")
    if response.get("version") != PROTOCOL_VERSION:
        raise BackendError(
            f"unsupported protocol version {response.get('version')!r}"
        )
    results = response.get("results")
    if not isinstance(results, list) or len(results) != count:
        raise BackendError("malformed scorer response")
    try:
        return [(float(lp), int(tc)) for lp, tc in results]
    except (TypeError, ValueError) as exc:
        raise BackendError(f"malformed scorer response: {exc}") from exc


class ProtocolScorerClient:
    """Client for the line-delimited JSON score protocol.

    One request line: ``{"version": 1, "prompt": ..., "continuations":
    [...]}``; one response line: ``{"version": 1, "results": [[logprob,
    token_count], ...]}``. UTF-8, newline-terminated. The server answers
    lines in the order it receives them, so the client keeps up to
    ``PIPELINE_WINDOW`` requests in flight on its one connection and pairs
    each reply with the oldest unanswered request. The connection is opened
    eagerly so an unreachable backend fails fast.

    A timeout, EOF or socket error leaves the connection out of step with
    its replies: it raises ``ScorerConnectionLost``, and every later call
    raises it again.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self._timeout = timeout
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise BackendError(
                f"cannot reach scorer backend at {host}:{port}: {exc}"
            ) from exc
        # Nagle's algorithm would hold a request shorter than a segment until
        # the server acknowledges the previous one, which it does only with
        # its next reply, and so would keep the window from filling.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Requests are written only as far as the socket takes them, and
        # replies are read in the meantime, so a server blocked on writing a
        # large reply never waits on a client blocked on writing a request.
        self._sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._events = selectors.EVENT_READ
        self._selector.register(self._sock, self._events)
        self._outgoing = bytearray()
        self._incoming = bytearray()
        self._lost: str | None = None
        self._pipeline: Iterator | None = None

    def score_batch(self, prompt, continuations):
        """Score one request. Inside ``pipelined``, the request must be the
        next one given to it, and its reply may already be here."""
        if self._pipeline is None:
            (outcome,) = self.score_stream([(prompt, continuations)])
        else:
            outcome = next(self._pipeline)
        if isinstance(outcome, BackendError):
            raise outcome
        return outcome

    @contextlib.contextmanager
    def pipelined(self, requests: Iterable[tuple[str, list[str]]]):
        """While open, ``score_batch`` calls take the outcomes of
        ``score_stream(requests)``, one per call in request order."""
        self._pipeline = self.score_stream(requests)
        try:
            yield
        finally:
            self._pipeline.close()
            self._pipeline = None

    def score_stream(self, requests: Iterable[tuple[str, list[str]]]) -> Iterator:
        """Score ``(prompt, continuations)`` requests with up to
        ``PIPELINE_WINDOW`` of them in flight.

        Yields one outcome per request, in request order: its results, or
        the ``BackendError`` that rejected its reply (a reply that is not
        JSON, has another version or the wrong number of results), which
        leaves the connection in step. Requests are drawn lazily, at most
        the window ahead of the outcomes taken. Leaving the stream before
        its end loses the connection.
        """
        if self._lost is not None:
            raise ScorerConnectionLost(self._lost)
        requests = iter(requests)
        expected: deque[int] = deque()  # result count of each request in flight
        try:
            while True:
                for prompt, continuations in itertools.islice(
                    requests, PIPELINE_WINDOW - len(expected)
                ):
                    self._outgoing += _encode_request(prompt, continuations)
                    expected.append(len(continuations))
                if not expected:
                    return
                self._send()
                line = self._read_line()
                try:
                    outcome = _decode_reply(line, expected.popleft())
                except BackendError as exc:
                    outcome = exc
                yield outcome
        finally:
            if expected:
                self._lose("a request stream ended with replies unread")

    def _lose(self, reason: str) -> ScorerConnectionLost:
        if self._lost is None:
            self._lost = f"scorer connection to {self.host}:{self.port} lost: {reason}"
            self._selector.close()
            self._sock.close()
        return ScorerConnectionLost(self._lost)

    def _send(self) -> None:
        """Write as much of the queued requests as the socket takes now."""
        try:
            while self._outgoing:
                del self._outgoing[: self._sock.send(self._outgoing)]
        except BlockingIOError:
            pass
        except OSError as exc:
            raise self._lose(str(exc)) from exc

    def _read_line(self) -> bytearray:
        """The next reply line, writing queued requests while it waits."""
        scanned = 0
        while (end := self._incoming.find(b"\n", scanned)) < 0:
            scanned = len(self._incoming)
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._outgoing else 0)
            if events != self._events:
                self._selector.modify(self._sock, events)
                self._events = events
            if not self._selector.select(self._timeout):
                raise self._lose(f"no reply within {self._timeout:g} s")
            self._send()
            try:
                chunk = self._sock.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError as exc:
                raise self._lose(str(exc)) from exc
            if not chunk:
                raise self._lose("the scorer closed the connection")
            self._incoming += chunk
        line = self._incoming[: end + 1]
        del self._incoming[: end + 1]
        return line

    def close(self):
        self._lose("the client was closed")
