"""Run configuration: a versioned YAML file of nested key-value settings.

Every key is checked against ``SPEC`` once; a value that fails, or a key
the spec does not name, is one ``ConfigError`` naming its dotted key.
Relative paths resolve against the config file's directory, so a run
directory can move without edits. The digest is over the canonical JSON of
the parsed content, stable under key reordering and comments.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .clients import is_plain_name
from .corpus import is_language_code
from .errors import ConfigError, MissingInput
from .jsonl import (BOOL, STRING, TEXT, _check, _check_object, _compile, _list_of, _map_of,
                    _or_null, dump)
from .metrics import DEFAULT_N_VALUES

CONFIG_VERSION = 1

SOURCE_ORDER = ("TEMPLATE", "MT", "LLM")


@dataclass(frozen=True)
class ClientSettings:
    """One translation/LLM/QE client. ``mode`` is live, record or replay."""

    client_id: str
    mode: str = "replay"
    endpoint: str | None = None
    model: str | None = None
    auth_env: str | None = None
    fixtures: tuple[str, ...] = ()
    record_fixtures: str | None = None


@dataclass(frozen=True)
class ScorerSettings:
    """Scorer backend. ``protocol`` talks to an external inference server;
    ``oracle`` and ``table`` are in-process fixture backends."""

    backend: str = "oracle"
    mode: str = "perfect"  # oracle backend: perfect | adversarial
    host: str = "127.0.0.1"
    port: int | None = None  # required by the protocol backend
    fixtures: str | None = None  # table backend: JSONL of scored continuations


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    languages: tuple[str, ...]
    sources: tuple[str, ...] = ("TEMPLATE",)
    salt: str
    output_dir: Path
    entities_path: Path
    relations_path: Path
    facts_path: Path
    exemplars_dir: Path | None = None
    cache_dir: Path | None = None
    min_unique_objects: int = 10
    exclude_relations: tuple[str, ...] = ()
    k_distractors: int = 50
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    normalization: str = "SUM"
    include_aliases: bool = False
    include_english: bool = False
    flip_inflection_delta_sign: bool = False
    no_space_languages: tuple[str, ...] = ()
    mt: ClientSettings | None = None
    llm: ClientSettings | None = None
    qe: ClientSettings | None = None
    scorer: ScorerSettings = field(default_factory=ScorerSettings)
    gender_patterns_path: Path | None = None
    report_max_rank_bucket: int = 50
    # The config file's directory: relative paths resolve against it, and
    # stage inputs are named by their paths relative to it.
    config_dir: Path
    raw: dict = field(default_factory=dict, repr=False, compare=False)

    def digest(self) -> str:
        return hashlib.sha256(dump(self.raw).encode("utf-8")).hexdigest()


def _one_of(*values: str):
    return _check(" or ".join(map(repr, values)), lambda v: type(v) is str and v in values)


def _at_least(n: int):
    return _check(f"an integer >= {n}", lambda v: type(v) is int and v >= n)


# A TCP port; the resolver would wrap a larger number round to another port.
_PORT = _check("an integer in 1..65535", lambda v: type(v) is int and 1 <= v <= 65535)


def _non_empty_list_of(test, name: str):
    return _check(f"a non-empty list of {name}", lambda v: type(v) is list and v != []
                  and all(map(test, v)))


def _distinct(check):
    """``check`` of a list that also refuses a repeated value: a repeat would
    change the digest of the same run, and may repeat a report column."""
    return _check(f"{check.__name__}, none repeated",
                  lambda v: check(v) and len(set(v)) == len(v))


_NAME = _check("a non-empty string", lambda v: type(v) is str and v != "")
_CLIENT = {
    # Wrapped: ``_check`` renames the function it is given. The id names a cache log.
    "client_id?": _check("a plain file name", lambda v: is_plain_name(v)),
    "mode?": _one_of("live", "record", "replay"),
    "endpoint?": _or_null(STRING), "model?": _or_null(STRING), "auth_env?": _or_null(STRING),
    "fixtures?": _list_of(_NAME, "a list of non-empty strings"),
    "record_fixtures?": _or_null(_NAME),
}
_SCORER = {
    "backend?": _one_of("oracle", "table", "protocol"),
    "mode?": _one_of("perfect", "adversarial"),  # oracle backend
    "host?": STRING, "port?": _PORT, "fixtures?": _or_null(_NAME),
}
# The run settings; ``?`` marks a key that may be left out, which keeps the
# default of its field. A null value leaves it out too where that default is None.
_SETTINGS = {
    "languages": _distinct(_non_empty_list_of(is_language_code, "two-letter language codes")),
    "sources?": _distinct(_non_empty_list_of(SOURCE_ORDER.__contains__,
                                             " or ".join(SOURCE_ORDER))),
    "salt": _NAME,
    "output_dir": _NAME, "entities": _NAME, "relations": _NAME, "facts": _NAME,
    "exemplars_dir?": _or_null(_NAME), "cache_dir?": _or_null(_NAME),
    "gender_patterns?": _or_null(_NAME),
    "min_unique_objects?": _at_least(2),
    "exclude_relations?": _distinct(_list_of(STRING, "a list of strings")),
    "k_distractors?": _at_least(1),
    "n_values?": _distinct(_list_of(_at_least(1), "a list of integers >= 1")),
    "normalization?": _one_of("SUM", "MEAN"),
    "include_aliases?": BOOL, "include_english?": BOOL, "flip_inflection_delta_sign?": BOOL,
    "no_space_languages?": _distinct(_list_of(is_language_code,
                                              "a list of two-letter language codes")),
    "mt?": _CLIENT, "llm?": _CLIENT, "qe?": _CLIENT, "scorer?": _SCORER,
    "report_max_rank_bucket?": _at_least(1),
}
SPEC = {
    "config_version": _check(repr(CONFIG_VERSION),
                             lambda v: type(v) is int and v == CONFIG_VERSION),
    **_SETTINGS,
}
_COMPILED = _compile(SPEC)
# Config keys whose field has another name.
_FIELDS = {"entities": "entities_path", "relations": "relations_path", "facts": "facts_path",
           "gender_patterns": "gender_patterns_path"}

_MARKERS = _list_of(TEXT, "")
_GENDER_PATTERNS = _map_of(_map_of(_check("", lambda v: type(v) is dict and all(
    _MARKERS(v[gender]) for gender in ("feminine", "masculine") if gender in v)), ""),
    "a mapping language -> relation -> {feminine: [markers], masculine: [markers]}"
    " of non-blank strings")


# YAML decodes an escaped surrogate such as "\ud800" to a code point that
# no UTF-8 text, such as the canonical JSON of the config digest, can hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _surrogate_keys(value, key: str):
    """The dotted key, under ``key``, of each string in ``value`` (a mapping
    key too) that holds a surrogate; a list's items count under its key."""
    if type(value) is str:
        if _SURROGATE.search(value):
            yield key
    elif type(value) is list:
        for item in value:
            yield from _surrogate_keys(item, key)
    elif type(value) is dict:
        for name, item in value.items():
            at = f"{key}.{name}" if key else str(name)
            yield from _surrogate_keys(name, at)
            yield from _surrogate_keys(item, at)


def _read_yaml(path: Path, what: str, /, **where) -> dict:
    """The mapping the YAML file at ``path`` holds. A missing file is
    ``MissingInput``; one that cannot be read or parsed, holds no mapping or
    holds a surrogate, is a ``ConfigError`` carrying ``where``."""
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise MissingInput(f"{what} file is missing", path=str(path)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}", **where) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = {} if mark is None else {"line": mark.line + 1, "column": mark.column + 1}
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise ConfigError(f"cannot parse {what}: {problem}", **where, **at) from exc
    if type(data) is not dict:
        raise ConfigError(f"{what} must be a mapping", **where)
    key = next(_surrogate_keys(data, ""), None)
    if key is not None:
        raise ConfigError(f"{what} key {key!r} holds an escaped surrogate, which UTF-8 "
                          "cannot encode", key=key, **where)
    return data


def _as_field(value):
    return tuple(value) if type(value) is list else value


def _given(block: dict, spec: dict, **convert) -> dict:
    """The fields that the checked ``block`` of ``spec`` sets, each converted
    by its function in ``convert`` (a list becomes a tuple). A key that is
    absent or null is skipped, so its field keeps the dataclass default."""
    keys = (name.rstrip("?") for name in spec)
    return {_FIELDS.get(key, key): convert.get(key, _as_field)(block[key])
            for key in keys if block.get(key) is not None}


def load_config(path) -> RunConfig:
    path = Path(path)
    data = _read_yaml(path, "config", path=str(path))
    _check_object(_COMPILED, data, {"path": str(path)}, error=ConfigError, noun="key",
                  closed=True)
    base = path.parent

    def resolve(value: str) -> Path:
        return (base / value).resolve()

    def join(value: str) -> str:
        return str(base / value)

    def client(key: str):
        return lambda block: ClientSettings(**{"client_id": key, **_given(
            block, _CLIENT, fixtures=lambda paths: tuple(map(join, paths)),
            record_fixtures=join)})

    paths = ("output_dir", "entities", "relations", "facts", "exemplars_dir", "cache_dir",
             "gender_patterns")
    config = RunConfig(raw=data, config_dir=base.resolve(), **_given(
        data, _SETTINGS, **dict.fromkeys(paths, resolve),
        sources=lambda names: tuple(s for s in SOURCE_ORDER if s in names),
        scorer=lambda block: ScorerSettings(**_given(block, _SCORER, fixtures=join)),
        mt=client("mt"), llm=client("llm"), qe=client("qe"),
    ))
    if config.scorer.backend == "protocol" and config.scorer.port is None:
        raise ConfigError("missing key 'scorer.port', which the protocol backend needs",
                          key="scorer.port", path=str(path))
    return config


def load_gender_patterns(path) -> dict:
    """language -> relation id -> {"feminine": [markers], "masculine": [markers]}."""
    data = _read_yaml(Path(path), "gender patterns", file=str(path))
    if not _GENDER_PATTERNS(data):
        raise ConfigError(f"gender patterns must be {_GENDER_PATTERNS.__name__}", file=str(path))
    return data
