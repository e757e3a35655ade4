"""Run configuration: defaults, JSON file loading, CLI overrides.

A run is fully reproducible from one :class:`RunConfig`. Precedence is
CLI flag > config file > built-in default, and the resolved config is
echoed next to the outputs so any result can be audited and re-run.

The config dataclasses are the schema: each field is a key, a field
whose type is a config dataclass is a JSON section, and each field's
annotation picks the kind of value its key takes (``_KINDS``). One
reader and one echo walk them, so a new field is read and echoed with
no other edit. Range rules stay in each dataclass's ``__post_init__``.
Every failure is a :class:`ConfigError` led by the dotted key. The
README's "Configuration" section documents the schema; its example is
loaded by ``tests/test_readme.py``.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .datastore import parse_date
from .errors import ConfigError
from .portfolio import PortfolioConfig
from .scoring import ScoreConfig
from .screener import FilterConfig
from .simulate import (
    DEFAULT_BETA_RANGE,
    DEFAULT_BUY_RATING_RANGE,
    DEFAULT_MARKETS,
    DEFAULT_START_DATE,
    VARIABLES,
    SimulationSeedRange,
)

# Synthetic defaults for a universe of heavily shorted names: short
# interest dwarfs lendable availability, daily volume sits at a fraction
# of the short interest (days-to-cover in the high single digits), and
# price/rate volatilities are well below the share-quantity volatilities.
DEFAULT_SEED_RANGES: dict[str, SimulationSeedRange] = {
    "price": SimulationSeedRange("price", 10.0, 500.0, -0.10, 0.15, 0.15, 0.35),
    "availability": SimulationSeedRange("availability", 1e3, 3e4, -0.6, 0.6, 0.6, 1.5),
    "short_interest": SimulationSeedRange("short_interest", 1e6, 3e7, -0.5, 0.9, 0.6, 1.5),
    "volume": SimulationSeedRange("volume", 1.5e5, 1.2e6, -0.4, 0.6, 0.5, 1.2),
    "loan_balance": SimulationSeedRange("loan_balance", 0.0, 0.0, 1e6, 5e7, 2e6, 6e7),
    "loan_rate": SimulationSeedRange("loan_rate", 0.01, 0.12, -0.25, 0.35, 0.10, 0.45),
    "alt_loan_rate": SimulationSeedRange("alt_loan_rate", 0.012, 0.14, -0.25, 0.35, 0.10, 0.45),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a full pipeline run."""

    master_seed: int = 42
    n_securities: int = 100
    n_days: int = 253
    start_date: dt.date = DEFAULT_START_DATE
    markets: tuple[str, ...] = DEFAULT_MARKETS
    buy_rating_range: tuple[float, float] = DEFAULT_BUY_RATING_RANGE
    beta_range: tuple[float, float] = DEFAULT_BETA_RANGE
    seed_ranges: Mapping[str, SimulationSeedRange] = field(
        default_factory=lambda: dict(DEFAULT_SEED_RANGES)
    )
    scoring: ScoreConfig = field(default_factory=ScoreConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)
    portfolio: PortfolioConfig = field(default_factory=PortfolioConfig)

    def __post_init__(self) -> None:
        # The bound rng.NoiseStream enforces on a master seed.
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.n_securities < 1:
            raise ConfigError(f"n_securities must be >= 1, got {self.n_securities}")
        if self.n_days < 1:
            raise ConfigError(f"n_days must be >= 1, got {self.n_days}")
        missing = [v for v in VARIABLES if v not in self.seed_ranges]
        if missing:
            raise ConfigError(f"seed_ranges lacks variables: {missing}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view, inverse of :func:`run_config_from_dict`."""
        return _echo(self)


def _is_number(raw: Any) -> bool:
    """Whether ``raw`` reads as a float; a bool or an integer too large for a float does not."""
    return isinstance(raw, float) or (
        isinstance(raw, int) and not isinstance(raw, bool) and abs(raw) <= sys.float_info.max
    )


# The readers of _KINDS, one per kind of value: (raw JSON value, dotted key) -> field value.
def _integer(raw: Any, key: str) -> int:
    """``raw`` as an int: an integer, or a float with an integral value such as 60.0."""
    integral = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    return int(raw)


def _float(raw: Any, key: str) -> float:
    """``raw`` as a float: a finite JSON number, not a bool or a numeric string."""
    if not (_is_number(raw) and math.isfinite(raw)):
        raise ConfigError(f"{key} must be a finite number, got {raw!r}")
    return float(raw)


def _string(raw: Any, key: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{key} must be a string, got {raw!r}")
    return raw


def _date(raw: Any, key: str) -> dt.date:
    try:
        return parse_date(_string(raw, key))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _bounds(raw: Any, key: str) -> tuple[float, float]:
    """A ``[min, max]`` pair of JSON numbers, as floats."""
    if not (isinstance(raw, list) and len(raw) == 2 and all(map(_is_number, raw))):
        raise ConfigError(f"{key} must be a [min, max] pair of numbers, got {raw!r}")
    return float(raw[0]), float(raw[1])


def _pair(raw: Any, key: str) -> tuple[float, float]:
    """A ``[min, max]`` pair of finite numbers with ``min <= max``."""
    low, high = _bounds(raw, key)
    if not (math.isfinite(low) and math.isfinite(high) and low <= high):
        raise ConfigError(f"{key} must be finite with min <= max, got {raw!r}")
    return low, high


def _strings(raw: Any, key: str) -> list[str]:
    if not (isinstance(raw, list) and all(isinstance(s, str) for s in raw)):
        raise ConfigError(f"{key} must be a list of strings, got {raw!r}")
    return raw


def _names(raw: Any, key: str) -> tuple[str, ...]:
    if not _strings(raw, key):
        raise ConfigError(f"{key} must be a non-empty list of strings")
    return tuple(raw)


def _id_set(raw: Any, key: str) -> frozenset[str]:
    return frozenset(_strings(raw, key))


def _object(raw: Any, key: str) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be a JSON object, got {raw!r}")
    return raw


def _float_map(raw: Any, key: str) -> dict[str, float]:
    return {name: _float(value, f"{key}.{name}") for name, value in _object(raw, key).items()}


_SEED_SLOTS = ("start", "drift", "vol")


def _seed_ranges(raw: Any, key: str) -> dict[str, SimulationSeedRange]:
    """Blocks of ``[min, max]`` bounds by variable over the defaults, checked by SimulationSeedRange."""
    ranges = dict(DEFAULT_SEED_RANGES)
    for name, block in _object(raw, key).items():
        where = f"{key}[{name!r}]"
        if name not in VARIABLES:
            raise ConfigError(f"{where}: unknown variable; expected one of {list(VARIABLES)}")
        slots = set(_object(block, where))
        if not {"drift", "vol"} <= slots <= set(_SEED_SLOTS):
            raise ConfigError(f"{where} takes drift and vol pairs and an optional start pair, got {sorted(slots)}")
        start, drift, vol = (_bounds(block[s], f"{where}.{s}") if s in block else (0.0, 0.0) for s in _SEED_SLOTS)
        ranges[name] = _build(SimulationSeedRange, f"{where}: ", name, *start, *drift, *vol)
    return ranges


def _seed_ranges_echo(ranges: Mapping[str, SimulationSeedRange]) -> dict[str, Any]:
    return {
        name: {s: [getattr(r, f"{s}_min"), getattr(r, f"{s}_max")] for s in _SEED_SLOTS}
        for name, r in ranges.items()
    }


# Each field annotation of a config dataclass -> (reader, echo).
_KINDS: dict[Any, tuple[Callable[[Any, str], Any], Callable[[Any], Any]]] = {
    int: (_integer, int),
    float: (_float, float),
    str: (_string, str),
    dt.date: (_date, dt.date.isoformat),
    tuple[float, float]: (_pair, list),
    tuple[str, ...]: (_names, list),
    frozenset[str]: (_id_set, sorted),
    Mapping[str, float]: (_float_map, dict),
    Mapping[str, SimulationSeedRange]: (_seed_ranges, _seed_ranges_echo),
}


@functools.cache  # a few classes, read-only results
def _schema(cls: type) -> dict[str, Any]:
    """The fields of config dataclass ``cls`` with their resolved annotations, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _build(cls: type, prefix: str, *args: Any, **kwargs: Any) -> Any:
    """``cls(*args, **kwargs)``; a range rule's ValueError becomes a ConfigError led by ``prefix``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _read(cls: type, raw: Any, prefix: str) -> Any:
    """Config dataclass ``cls`` from the JSON object ``raw``; ``prefix`` is its dotted path plus "."."""
    schema = _schema(cls)
    kwargs = {}
    for name, value in _object(raw, prefix.rstrip(".") or "config").items():
        key = prefix + name
        if name not in schema:
            raise ConfigError(f"{key}: unknown key; expected one of {list(schema)}")
        kind = schema[name]
        kwargs[name] = _read(kind, value, key + ".") if is_dataclass(kind) else _KINDS[kind][0](value, key)
    return _build(cls, prefix, **kwargs)


def _echo(cfg: Any) -> dict[str, Any]:
    """The JSON view of config dataclass ``cfg``, inverse of :func:`_read`."""
    view = {}
    for name, kind in _schema(type(cfg)).items():
        value = getattr(cfg, name)
        view[name] = _echo(value) if is_dataclass(kind) else _KINDS[kind][1](value)
    return view


def run_config_from_dict(data: Mapping[str, Any]) -> RunConfig:
    """Build a RunConfig from a (possibly partial) plain dict; absent keys keep their defaults."""
    return _read(RunConfig, data, "")


def load_run_config(path: Path | str | None) -> RunConfig:
    """Load a config file, or the built-in defaults when path is None."""
    if path is None:
        return RunConfig()
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return run_config_from_dict(data)


def resolved_config_json(cfg: RunConfig) -> str:
    """Deterministic JSON echo of a resolved config."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
