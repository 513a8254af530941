"""Exception types shared across the package.

Every exception carries a stable machine-readable ``code`` so audit files
and CLI output can name failures consistently.
"""


class ProbeError(Exception):
    """Base class for all package errors."""

    code = "ERROR"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def __str__(self) -> str:
        base = super().__str__()
        if self.context:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            return f"[{self.code}] {base} ({detail})"
        return f"[{self.code}] {base}"


class MalformedRecord(ProbeError):
    code = "MALFORMED_RECORD"


class MissingInput(ProbeError):
    code = "MISSING_INPUT"


class DanglingReference(ProbeError):
    code = "DANGLING_REFERENCE"


class DuplicateId(ProbeError):
    code = "DUPLICATE_ID"


class UnknownRelation(ProbeError):
    code = "UNKNOWN_RELATION"


class MissingPlaceholder(ProbeError):
    code = "MISSING_PLACEHOLDER"


class MissingLabel(ProbeError):
    code = "MISSING_LABEL"


class MissingTemplate(ProbeError):
    code = "MISSING_TEMPLATE"


class ClientError(ProbeError):
    """Transport-level failure of a translation/LLM/QE client. Retriable."""

    code = "CLIENT_ERROR"


class ReplayMiss(ClientError):
    """Replay-mode client had no recorded response for a request."""

    code = "REPLAY_MISS"


class EmptyTranslation(ProbeError):
    code = "EMPTY_TRANSLATION"


class NoExemplars(ProbeError):
    code = "NO_EXEMPLARS"


class NoAcceptedSplits(ProbeError):
    code = "NO_ACCEPTED_SPLITS"


class EmptyPool(ProbeError):
    code = "EMPTY_POOL"


class BackendError(ProbeError):
    code = "BACKEND_ERROR"


class ScorerConnectionLost(BackendError):
    """The scorer connection timed out, closed or failed. Replies still in
    flight can no longer be paired with their requests, so the connection is
    not reused and the stage fails instead of auditing every later set."""

    code = "SCORER_CONNECTION_LOST"


class NonFiniteScore(ProbeError):
    code = "NON_FINITE_SCORE"


class FormNotPresent(ProbeError):
    code = "FORM_NOT_PRESENT"


class EmptyGroup(ProbeError):
    code = "EMPTY_GROUP"


class NoEligibleRecords(ProbeError):
    code = "NO_ELIGIBLE_RECORDS"


class MissingPatterns(ProbeError):
    code = "MISSING_PATTERNS"


class DegenerateInput(ProbeError):
    code = "DEGENERATE_INPUT"


class ConfigError(ProbeError):
    code = "CONFIG_ERROR"
