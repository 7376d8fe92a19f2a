"""Experiment configuration: dataclasses, JSON loading, validation.

The JSON config mirrors `ExperimentConfig` field for field: the dataclasses
are the schema, and each default is stated once, in its field.  Loading is
strict: unknown keys, wrong types, and out-of-range values all raise
`ConfigError` with the dotted path of the offending field, which the CLI
turns into an exit code of 2.  The dataset kinds' specs, with their load
checks, live in `data`.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import NoneType
from typing import Any, Dict, Optional, Tuple, get_args, get_origin, get_type_hints

from .aggregators import AggregatorConfig, min_updates
from .attacks import AttackConfig
from .data import DATASET_KINDS, DatasetSpec, IdxDatasetSpec, ToyDatasetSpec  # noqa: F401 (re-exported)
from .defense import DefenseConfig
from .nn import SgdConfig


class ConfigError(Exception):
    """A config file field is missing, mistyped, or out of range."""


@dataclass
class PartitionSpec:
    alpha: float = 100.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")


@dataclass
class ExperimentConfig:
    seed: int = 0
    rounds: int = 30
    clients: int = 20
    sampled_per_round: int = 10
    local_epochs: int = 10
    batch: int = 128
    hidden_dims: Tuple[int, ...] = (16, 16)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    dataset: DatasetSpec = field(default_factory=ToyDatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    attack: AttackConfig = field(default_factory=AttackConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    defense: Optional[DefenseConfig] = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.rounds < 0:
            raise ConfigError("rounds: must be >= 0")
        if self.clients < 1:
            raise ConfigError("clients: must be >= 1")
        if not 1 <= self.sampled_per_round <= self.clients:
            raise ConfigError("sampled_per_round: must be in [1, clients]")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs: must be >= 1")
        if self.batch < 1:
            raise ConfigError("batch: must be >= 1")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims: need positive layer widths")
        if self.clients > self.dataset.train_size:
            raise ConfigError(
                f"clients: {self.clients} clients but the {self.dataset.kind} dataset has only "
                f"{self.dataset.train_size} training samples"
            )
        need = min_updates(self.aggregator)
        if self.sampled_per_round < need:
            raise ConfigError(
                f"sampled_per_round: {self.aggregator.kind} at beta={self.aggregator.beta} "
                f"needs at least {need} updates per round, got {self.sampled_per_round}"
            )


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Dict[str, Tuple[Any, bool]]:
    """Field name -> (resolved type hint, required) for a config dataclass."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _build(cls: type, obj: Dict[str, Any], prefix: str) -> Any:
    """Construct `cls` from a JSON object; unset fields keep their defaults."""
    schema = _schema(cls)
    for key in obj:
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown field")
    kwargs = {}
    for name, (hint, required) in schema.items():
        if name in obj:
            kwargs[name] = _parse(hint, obj[name], prefix + name)
        elif required:
            raise ConfigError(f"{prefix}{name}: required field is missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix.rstrip('.')}: {exc}") from exc


def _parse(hint: Any, value: Any, path: str, or_null: str = "") -> Any:
    """Check one JSON value against a type hint: objects become dataclasses,
    lists tuples, ints widen to floats, bools are never numbers."""
    if hint in (bool, int, float, str):
        if isinstance(value, bool) == (hint is bool) and isinstance(
            value, (int, float) if hint is float else hint
        ):
            if hint is not float:
                return value
            if abs(value) <= sys.float_info.max:  # NaN, infinities and huge ints fail
                return float(value)
            raise ConfigError(f"{path}: expected a finite number, got {value}")
        raise ConfigError(f"{path}: expected {hint.__name__}{or_null}, got {type(value).__name__}")
    origin, args = get_origin(hint), get_args(hint)
    if NoneType in args:  # Optional[X]: JSON null means None
        return None if value is None else _parse(args[0], value, path, " or null")
    if isinstance(value, dict) and hint == DatasetSpec:
        kind = value.get("kind", ToyDatasetSpec.kind)
        if not isinstance(kind, str) or kind not in DATASET_KINDS:
            expected = " or ".join(map(repr, DATASET_KINDS))
            raise ConfigError(f"{path}.kind: expected {expected}, got {kind!r}")
        rest = {k: v for k, v in value.items() if k != "kind"}
        return _build(DATASET_KINDS[kind], rest, path + ".")
    if isinstance(value, dict) and is_dataclass(hint):
        return _build(hint, value, path + ".")
    if isinstance(value, list) and origin is tuple:
        return tuple(_parse(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    expected = "list" if origin is tuple else "object"
    raise ConfigError(f"{path}: expected {expected}{or_null}, got {type(value).__name__}")


def config_from_dict(obj: Dict[str, Any]) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("top level: expected a JSON object")
    return _build(ExperimentConfig, obj, "")


def load_json(path: str) -> Any:
    """The parsed contents of a JSON file; a missing or unreadable file, or
    one that is not UTF-8 JSON, raises `ConfigError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: no such file") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise ConfigError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    return config_from_dict(load_json(path))


def config_to_dict(cfg: Any) -> Any:
    """Plain-JSON mirror of a config (or any part of one) for the report echo."""
    if is_dataclass(cfg):
        head = {"kind": cfg.kind} if isinstance(cfg, DatasetSpec) else {}
        return {**head, **{f.name: config_to_dict(getattr(cfg, f.name)) for f in fields(cfg)}}
    return [config_to_dict(v) for v in cfg] if isinstance(cfg, tuple) else cfg
