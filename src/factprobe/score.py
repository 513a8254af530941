"""Scorer backends and candidate ranking.

A backend scores continuations of a prompt and reports (log-probability,
token count) per continuation. Ranking is pure: a candidate's rank is 1
plus the candidates with a higher score, or with the same score and a
surface form that sorts first in byte order, so the result is independent
of input order and of any positive affine transform of the scores.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import selectors
import socket
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Protocol

from .candidates import CandidateSet
from .errors import BackendError, FormNotPresent, NonFiniteScore, ScorerConnectionLost
from .jsonl import loads

PROTOCOL_VERSION = 1

# Requests the protocol client keeps in flight on its connection. Each
# request the window admits is sent at once (Nagle's algorithm is off), so a
# server that answers one line at a time finds its next request already
# buffered, and one that overlaps requests sees up to this many of them. At 8,
# a server with a fixed latency per request wakes for about one request at a
# time; at 32, each wakeup serves many, and a batching server can form batches
# that large. The window also bounds the sets that evaluate buffers, and the
# replies that a dropped connection loses, to this many.
PIPELINE_WINDOW = 32

NORMALIZATION_SUM = "SUM"
NORMALIZATION_MEAN = "MEAN"


class ScorerBackend(Protocol):
    def score_batch(
        self, prompt: str, continuations: list[str]
    ) -> list[tuple[float, int]]:
        """Log-probability sum and token count for each continuation."""


class Scores(NamedTuple):
    """The scored candidates of one set as columns, correct forms first."""

    forms: list[str]
    scores: list[float]
    token_counts: list[int]


@dataclass(frozen=True)
class RankedResult:
    """A ranking: the scored columns, and the rank of the best correct form."""

    forms: list[str]
    scores: list[float]
    best_correct_rank: int
    best_correct_form: str


def join_continuation(prompt: str, form: str, no_space: bool = False) -> str:
    """Continuation text under the pinned joining rule: exactly one space
    between prompt and form unless the prompt already ends in whitespace
    (or the language writes without word spacing)."""
    if no_space or not prompt or prompt[-1].isspace():
        return form
    return " " + form


def candidate_continuations(candidate_set: CandidateSet, no_space: bool = False) -> list[str]:
    """The continuations scored for a candidate set: its ``forms``, each
    joined to the prompt."""
    joiner = join_continuation(candidate_set.prompt, "", no_space)
    return [joiner + form for form in candidate_set.forms]


def score_candidates(
    scorer: ScorerBackend,
    candidate_set: CandidateSet,
    normalization: str = NORMALIZATION_SUM,
    continuations: list[str] | None = None,
) -> Scores:
    """Score every candidate continuation of the prompt.

    ``continuations`` are the set's ``candidate_continuations``, built here
    with the joining space when not given. Only a ``BackendError`` from the
    scorer marks a set that a rerun may score; any other exception is a
    fault and propagates unchanged.
    """
    if normalization not in (NORMALIZATION_SUM, NORMALIZATION_MEAN):
        raise ValueError(f"unknown normalization {normalization!r}")
    forms = candidate_set.forms
    if not forms:
        raise ValueError("candidate set is empty")
    if continuations is None:
        continuations = candidate_continuations(candidate_set)
    results = scorer.score_batch(candidate_set.prompt, continuations)
    if len(results) != len(forms):
        raise BackendError(
            f"scorer returned {len(results)} results for {len(forms)} continuations",
            fact_id=candidate_set.fact_id,
        )
    # The one conversion of the scores (a protocol reply's are checked, not
    # converted). Every backend returns integer token counts.
    logprobs, counts = zip(*results)
    scores = list(map(float, logprobs))
    counts = list(counts)
    if normalization == NORMALIZATION_MEAN:
        for form, count in zip(forms, counts):
            if count < 1:
                raise BackendError(
                    f"token count {count} < 1 for form {form!r}", fact_id=candidate_set.fact_id
                )
        scores = [score / count for score, count in zip(scores, counts)]
    return Scores(forms, scores, counts)


def _rank(forms: list[str], scores: list[float], score: float, form: str) -> int:
    """The rank of ``(score, form)`` among the candidates: 1 plus those with a
    higher score, or with the same score and a form that sorts first. Python
    orders strings by code point, which is their UTF-8 byte order. Each count
    is a C-level pass."""
    ties = itertools.compress(forms, map(operator.eq, scores, itertools.repeat(score)))
    return (1 + sum(map(operator.gt, scores, itertools.repeat(score)))
            + sum(map(operator.lt, ties, itertools.repeat(form))))


def rank_candidates(scored: Scores, correct_forms, fact_id: str = "") -> RankedResult:
    """Rank scored candidates: descending score, byte-order tie-break.

    Correctness is decided by byte-equality against ``correct_forms``;
    assembly guarantees no distractor shares a correct form. The best
    correct form is the correct one with the highest score, the first in
    byte order among equal scores; byte-identical forms (duplicate labels)
    share their rank. ``fact_id`` only names the fact in a ``NonFiniteScore``.
    """
    forms, scores = scored.forms, scored.scores
    if not forms:
        raise ValueError("nothing to rank")
    if not all(map(math.isfinite, scores)):
        form = next(form for form, score in zip(forms, scores) if not math.isfinite(score))
        raise NonFiniteScore(f"score for form {form!r} is not finite", fact_id=fact_id)
    correct = set(correct_forms)
    best = min(itertools.compress(zip(map(operator.neg, scores), forms),
                                  map(correct.__contains__, forms)), default=None)
    if best is None:
        raise ValueError("no correct form present among candidates")
    neg_score, form = best
    return RankedResult(
        forms=forms,
        scores=scores,
        best_correct_rank=_rank(forms, scores, -neg_score, form),
        best_correct_form=form,
    )


def rank_of_form(result: RankedResult, form: str) -> int:
    """Rank of a surface form (the best rank, if duplicated)."""
    forms, scores = result.forms, result.scores
    score = max(itertools.compress(scores, map(operator.eq, forms, itertools.repeat(form))),
                default=None)
    if score is None:
        raise FormNotPresent(f"form {form!r} not present in ranked result")
    return _rank(forms, scores, score, form)


def default_token_count(text: str) -> int:
    """Whitespace token count with a floor of 1; used by fixture backends."""
    return max(1, len(text.split()))


class TableScorer:
    """Pass-through fixture backend: explicit (prompt, continuation) table."""

    def __init__(self, table: dict[tuple[str, str], tuple[float, int]]):
        self._table = dict(table)

    def score_batch(self, prompt, continuations):
        table = self._table
        try:
            return [table[(prompt, continuation)] for continuation in continuations]
        except KeyError as exc:
            raise BackendError(
                f"no fixture score for continuation {exc.args[0][1]!r}"
            ) from None


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
        hit, miss = (0.0, -1.0) if self.mode == "perfect" else (-1.0, 0.0)
        # The token count is ``default_token_count``, inlined.
        return [(hit if continuation.removeprefix(" ") in correct else miss,
                 len(continuation.split()) or 1)
                for continuation in continuations]


# Built once: ``json.dumps`` given an option builds an encoder per call.
# The options are those of ``json.dumps(request, ensure_ascii=False)``.
_REQUEST_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _encode_request(prompt: str, continuations) -> bytes:
    request = {
        "version": PROTOCOL_VERSION,
        "prompt": prompt,
        "continuations": list(continuations),
    }
    return (_REQUEST_ENCODER.encode(request) + "\n").encode("utf-8")


# The Python types a JSON score or token count reads as. ``type`` tells a
# JSON ``true`` (a bool) from a number, where ``isinstance`` would not.
_SCORE_TYPES = frozenset((float, int))
_COUNT_TYPES = frozenset((int,))


def _all_finite(numbers) -> bool:
    """Whether every number is finite as a float: an integer too large for
    one is not."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:
        return False


def _decode_reply(line: bytearray, count: int) -> list[tuple[float | int, int]]:
    """The ``(logprob, token count)`` pairs of the reply to a request of
    ``count`` continuations. Each column is checked by one C-level pass for
    its type and one for its range: a score is a finite JSON number, a token
    count a JSON integer, and each fits in a float. ``score_candidates``
    converts the scores to floats."""
    try:
        response = loads(line)
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
        # ``strict`` refuses entries of unequal length, the unpacking any
        # other length than two.
        logprobs, counts = zip(*results, strict=True) if results else ((), ())
    except (TypeError, ValueError) as exc:
        raise BackendError(
            "malformed scorer response: a result is not a [logprob, token count] pair"
        ) from exc
    if not _SCORE_TYPES.issuperset(map(type, logprobs)):
        raise BackendError("scorer reply holds a score that is not a number")
    if not _COUNT_TYPES.issuperset(map(type, counts)):
        raise BackendError("scorer reply holds a token count that is not an integer")
    if not _all_finite(logprobs):
        raise BackendError("scorer reply holds a score that is not a finite number")
    if not _all_finite(counts):
        raise BackendError("scorer reply holds a token count too large for a float")
    return list(zip(logprobs, counts))


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
        ``score_stream(requests)``, one per call in request order.

        A block that ends without an error must have taken every outcome.
        If drawing ``requests`` failed, the requests before the failure
        still have their outcomes, and the error is raised as the block
        ends: a caller that shares ``requests`` through ``itertools.tee``
        sees its branch simply end there."""
        self._pipeline = self.score_stream(requests)
        try:
            yield
            next(self._pipeline, None)
        finally:
            self._pipeline.close()
            self._pipeline = None

    def score_stream(self, requests: Iterable[tuple[str, list[str]]]) -> Iterator:
        """Score ``(prompt, continuations)`` requests with up to
        ``PIPELINE_WINDOW`` of them in flight.

        Yields one outcome per request, in request order: its results, or
        the ``BackendError`` that rejected its reply (a reply that is not
        JSON, has another version or the wrong number of results, or holds
        a value of the wrong type or a score that is not finite), which
        leaves the connection in step. Requests are drawn lazily, at most
        the window ahead of the outcomes taken. An error from drawing a
        request stops the drawing; it is raised after the outcomes of the
        requests already sent. Leaving the stream before its end loses the
        connection.
        """
        if self._lost is not None:
            raise ScorerConnectionLost(self._lost)
        requests = iter(requests)
        expected: deque[int] = deque()  # result count of each request in flight
        failure: Exception | None = None
        try:
            while True:
                try:
                    for prompt, continuations in itertools.islice(
                        requests, 0 if failure else PIPELINE_WINDOW - len(expected)
                    ):
                        self._outgoing += _encode_request(prompt, continuations)
                        expected.append(len(continuations))
                except Exception as exc:
                    failure = exc
                if not expected:
                    if failure:
                        raise failure
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
