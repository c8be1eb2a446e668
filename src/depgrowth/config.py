"""Pipeline configuration: loading, validation, and file hashing.

Config files are plain JSON objects whose keys mirror
:class:`PipelineConfig` fields. Command-line flags override file values,
which override defaults. Validation runs before any input is opened, so a
bad config never produces partial output.
"""

from __future__ import annotations

import json
import math
import os
import typing
from pathlib import Path
from typing import Mapping, NamedTuple

from .filters import DEFAULT_ECOSYSTEMS, DEFAULT_MIN_DEPENDENTS
from .metrics import SUPPORTED_GRIDS
from .semver import ZERO_SPLITS

__all__ = [
    "ConfigError",
    "PipelineConfig",
    "file_sha256",
    "load_config",
    "resolve_config",
]


class ConfigError(ValueError):
    """The configuration is malformed or violates an invariant."""


class PipelineConfig(NamedTuple):
    """Resolved settings for one pipeline run."""

    repo_snapshots: str = "repo_snapshots.jsonl"
    releases: str = "releases.jsonl"
    dependent_edges: str = "dependent_edges.jsonl"
    out_dir: str = "out"
    ecosystems: tuple[str, ...] = tuple(sorted(DEFAULT_ECOSYSTEMS))
    min_dependents: int = DEFAULT_MIN_DEPENDENTS
    grid: tuple[int, int] = (365, 90)
    alpha: float = 0.05
    zero_split: str = "patch"
    fold_zero: bool = True
    workers: int = 1
    model_id: str = "mock-rater-v1"
    model_endpoint: str | None = None
    rate_per_sec: float | None = None
    human_ratings: str | None = None

    def validate(self) -> "PipelineConfig":
        for name, hint in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, hint):
                what = hint.__name__ if isinstance(hint, type) else hint
                raise ConfigError(f"{name} must be of type {what}, got {value!r}")
        for name in ("releases", "repo_snapshots", "dependent_edges", "out_dir", "human_ratings"):
            value = getattr(self, name)
            try:
                usable = value is None or b"\0" not in os.fsencode(value)
            except UnicodeEncodeError:  # a lone surrogate that stands for no undecodable byte
                usable = False
            if not usable:
                raise ConfigError(f"{name} is not a path the OS can take, got {value!r}")
        if tuple(self.grid) not in SUPPORTED_GRIDS:
            raise ConfigError(
                f"grid {self.grid} is not supported; choose one of {SUPPORTED_GRIDS}"
            )
        if self.min_dependents < 0:
            raise ConfigError(f"min_dependents must be >= 0, got {self.min_dependents}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.zero_split not in ZERO_SPLITS:
            raise ConfigError(f"zero_split must be {' or '.join(map(repr, ZERO_SPLITS))}, got {self.zero_split!r}")
        if not self.ecosystems:
            raise ConfigError("ecosystems must not be empty")
        unknown = sorted(set(self.ecosystems) - DEFAULT_ECOSYSTEMS)
        if unknown:
            raise ConfigError(
                f"unknown ecosystem ids {unknown}; supported: {sorted(DEFAULT_ECOSYSTEMS)}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # NaN fails every comparison, so a test of `<= 0` alone admits it
        if self.rate_per_sec is not None and not 0 < self.rate_per_sec < math.inf:
            raise ConfigError(f"rate_per_sec must be a finite positive number, got {self.rate_per_sec}")
        return self


_FIELD_TYPES = typing.get_type_hints(PipelineConfig)


def _has_type(value: object, hint: object) -> bool:
    """Whether ``value`` fits the field type ``hint``, item by item for a
    tuple; an int fits a float, and a bool fits no int."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return type(value) is tuple and all(_has_type(item, args[0]) for item in value)
    if args:
        return any(_has_type(value, arg) for arg in args)
    return type(value) is hint or (hint is float and type(value) is int)


_TUPLE_FIELDS = {name for name, hint in _FIELD_TYPES.items() if typing.get_origin(hint) is tuple}


def _coerce(values: Mapping[str, object]) -> dict:
    out: dict = {}
    for key, value in values.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _TUPLE_FIELDS:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list")
            value = tuple(value)
        out[key] = value
    return out


def load_config(path: str | Path) -> PipelineConfig:
    """Read and validate a JSON config file.

    Raises:
        ConfigError: unreadable file, invalid JSON, unknown keys, or an
            invariant violation.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer too long to convert, deep nesting
        message = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise ConfigError(f"config {path} is not valid JSON: {message}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return PipelineConfig(**_coerce(raw)).validate()


def resolve_config(file_path: str | Path | None, overrides: Mapping[str, object]) -> PipelineConfig:
    """Defaults, then the config file, then non-None overrides."""
    values: dict = {}
    if file_path is not None:
        base = load_config(file_path)
        values.update(base._asdict())
    values.update(_coerce({k: v for k, v in overrides.items() if v is not None}))
    return PipelineConfig(**_coerce(values)).validate()


def file_sha256(path: str | Path) -> str:
    import hashlib  # on use, so a command that hashes no file skips its import

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()
