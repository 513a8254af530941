"""Run configuration: a versioned YAML file of nested key-value settings.

Relative paths are resolved against the config file's directory, so a run
directory can be moved or mounted elsewhere without edits. The config
digest is taken over the canonical JSON form of the parsed content, which
makes it stable under key reordering and comments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .clients import is_plain_name
from .corpus import is_language_code
from .errors import ConfigError, MissingInput
from .jsonl import dump
from .metrics import DEFAULT_N_VALUES
from .split import MatchConfig

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
    port: int = 0
    fixtures: str | None = None  # table backend: JSONL of scored continuations


@dataclass(frozen=True)
class RunConfig:
    languages: tuple[str, ...]
    sources: tuple[str, ...]
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
    match: MatchConfig = field(default_factory=MatchConfig)
    mt: ClientSettings | None = None
    llm: ClientSettings | None = None
    qe: ClientSettings | None = None
    scorer: ScorerSettings = field(default_factory=ScorerSettings)
    gender_patterns_path: Path | None = None
    report_max_rank_bucket: int = 50
    raw: dict = field(default_factory=dict, repr=False, compare=False)

    def digest(self) -> str:
        return hashlib.sha256(dump(self.raw).encode("utf-8")).hexdigest()


def _client_settings(data, key: str, base: Path) -> ClientSettings | None:
    if data is None:
        return None
    data = _mapping(key, data)
    mode = data.get("mode", "replay")
    if mode not in ("live", "record", "replay"):
        raise ConfigError(f"client mode must be live/record/replay, got {mode!r}")
    fixtures = tuple(str(base / p) for p in _strings(f"{key}.fixtures", data.get("fixtures", ())))
    record_fixtures = data.get("record_fixtures")
    client_id = data.get("client_id", key)
    if not is_plain_name(client_id):
        # It names the client's log in cache_dir.
        raise ConfigError(f"config key '{key}.client_id' must be a plain file name, "
                          f"got {client_id!r}", key=f"{key}.client_id")
    return ClientSettings(
        client_id=client_id,
        mode=mode,
        endpoint=data.get("endpoint"),
        model=data.get("model"),
        auth_env=data.get("auth_env"),
        fixtures=fixtures,
        record_fixtures=str(base / record_fixtures) if record_fixtures else None,
    )


def _convert(key: str, convert, value):
    """``convert(value)``; a value it cannot convert is a ``ConfigError`` naming ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} has a bad value {value!r}", key=key) from exc


def _mapping(key: str, value) -> dict:
    """The config block ``value``, ``{}`` if it is null; a ``ConfigError``
    naming ``key`` if it is not a mapping."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be a mapping, got {value!r}", key=key)
    return value


def _strings(key: str, value) -> tuple[str, ...]:
    """The config list ``value`` as a tuple; a ``ConfigError`` naming ``key``
    if it is not a list of strings."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"config key {key!r} must be a list of strings, got {value!r}",
                          key=key)
    return tuple(value)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise MissingInput("config file is missing", path=str(path)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = {} if mark is None else {"line": mark.line + 1, "column": mark.column + 1}
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise ConfigError(f"cannot parse config: {problem}", path=str(path), **where) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    if data.get("config_version") != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config_version {data.get('config_version')!r}"
        )
    base = path.parent

    def resolve(key: str, required: bool = True) -> Path | None:
        value = data.get(key)
        if value is None:
            if required:
                raise ConfigError(f"config key {key!r} is required")
            return None
        return (base / str(value)).resolve()

    languages = _strings("languages", data.get("languages", ()))
    if not languages:
        raise ConfigError("at least one language is required")
    for lang in languages:
        if not is_language_code(lang):
            raise ConfigError(f"bad language code {lang!r}")
    sources = _strings("sources", data.get("sources", ("TEMPLATE",)))
    if not sources:
        raise ConfigError("at least one verbalization source must be enabled")
    for source in sources:
        if source not in SOURCE_ORDER:
            raise ConfigError(f"unknown verbalization source {source!r}")
    sources = tuple(s for s in SOURCE_ORDER if s in sources)
    salt = data.get("salt", "")
    if not isinstance(salt, str) or not salt:
        raise ConfigError("salt must be a non-empty string")
    min_unique = _convert("min_unique_objects", int, data.get("min_unique_objects", 10))
    if min_unique < 2:
        raise ConfigError("min_unique_objects must be >= 2", key="min_unique_objects")
    k = _convert("k_distractors", int, data.get("k_distractors", 50))
    if k < 1:
        raise ConfigError("k_distractors must be >= 1")
    n_values = _convert("n_values", lambda ns: tuple(int(n) for n in ns),
                        data.get("n_values", DEFAULT_N_VALUES))
    if any(n < 1 for n in n_values):
        raise ConfigError("n_values must all be >= 1")
    normalization = data.get("normalization", "SUM")
    if normalization not in ("SUM", "MEAN"):
        raise ConfigError(f"normalization must be SUM or MEAN, got {normalization!r}")

    match_data = _mapping("match", data.get("match"))
    numbers = {
        name: _convert(f"match.{name}", type(default), match_data.get(name, default))
        for name, default in (("min_prefix_ratio", 0.6), ("min_prefix_chars", 3),
                              ("max_suffix_delta", 4))
    }
    try:
        match = MatchConfig(**numbers, lemmatizer=match_data.get("lemmatizer"))
    except ValueError as exc:
        raise ConfigError(f"bad match config: {exc}") from exc

    scorer_data = _mapping("scorer", data.get("scorer"))
    backend = scorer_data.get("backend", "oracle")
    if backend not in ("oracle", "table", "protocol"):
        raise ConfigError(f"unknown scorer backend {backend!r}")
    scorer_fixtures = scorer_data.get("fixtures")
    mode = scorer_data.get("mode", "perfect")
    if mode not in ("perfect", "adversarial"):
        raise ConfigError(f"scorer.mode must be perfect or adversarial, got {mode!r}",
                          key="scorer.mode")
    scorer = ScorerSettings(
        backend=backend,
        mode=mode,
        host=scorer_data.get("host", "127.0.0.1"),
        port=_convert("scorer.port", int, scorer_data.get("port", 0)),
        fixtures=str(base / scorer_fixtures) if scorer_fixtures else None,
    )

    return RunConfig(
        languages=languages,
        sources=sources,
        salt=salt,
        output_dir=resolve("output_dir"),
        entities_path=resolve("entities"),
        relations_path=resolve("relations"),
        facts_path=resolve("facts"),
        exemplars_dir=resolve("exemplars_dir", required=False),
        cache_dir=resolve("cache_dir", required=False),
        min_unique_objects=min_unique,
        exclude_relations=_strings("exclude_relations", data.get("exclude_relations", ())),
        k_distractors=k,
        n_values=n_values,
        normalization=normalization,
        include_aliases=bool(data.get("include_aliases", False)),
        include_english=bool(data.get("include_english", False)),
        flip_inflection_delta_sign=bool(data.get("flip_inflection_delta_sign", False)),
        no_space_languages=_strings("no_space_languages", data.get("no_space_languages", ())),
        match=match,
        mt=_client_settings(data.get("mt"), "mt", base),
        llm=_client_settings(data.get("llm"), "llm", base),
        qe=_client_settings(data.get("qe"), "qe", base),
        scorer=scorer,
        gender_patterns_path=resolve("gender_patterns", required=False),
        report_max_rank_bucket=_convert(
            "report_max_rank_bucket", int, data.get("report_max_rank_bucket", 50)
        ),
        raw=data,
    )
