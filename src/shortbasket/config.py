"""Run configuration: defaults, JSON file loading, CLI overrides.

A run is fully reproducible from one :class:`RunConfig`. Precedence is
CLI flag > config file > built-in default, and the resolved config is
echoed next to the outputs so any result can be audited and re-run.

Config file schema (JSON, all sections optional)::

    {
      "master_seed": 42,
      "n_securities": 100,
      "n_days": 253,
      "start_date": "2020-01-02",
      "markets": ["JP", "HK", "TW", "KR", "SG"],
      "buy_rating_range": [1.0, 5.0],
      "beta_range": [0.5, 2.0],
      "seed_ranges": {
        "price": {"start": [10.0, 500.0], "drift": [-0.1, 0.15], "vol": [0.15, 0.35]},
        "...": {}
      },
      "scoring":   {"rf": 0.02, "ma_window": 60, "vol_window": 60,
                    "lbg_lag": 60, "rate_source": "loan_rate"},
      "filters":   {"min_si_usd": 10000000.0, "min_loan_rate": 0.015,
                    "min_dtc": 4.0, "min_lbg": 1.25, "max_la_usd": 10000000.0,
                    "min_adv_usd": 25000000.0, "min_buy_rating": 3.5,
                    "min_beta": 1.2, "drop_bottom_pct": 20.0,
                    "market_scale": {}},
      "portfolio": {"top_m": 20, "cap": 0.1}
    }

Each ``seed_ranges`` block gives [min, max] bounds for the uniform
draws behind a variable's starting value, drift, and volatility. For
``loan_balance`` the drift/vol slots are the mean and standard
deviation (USD) of the daily absolute-normal draw and ``start`` may be
omitted. The built-in ranges are synthetic defaults shaped so that
price and rate volatilities sit well below the share-quantity
volatilities, and quantity drifts span a wider range than price or
rate drifts.
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .datastore import parse_date
from .errors import ConfigError
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
    top_m: int = 20
    cap: float = 0.10

    def __post_init__(self) -> None:
        if self.n_securities < 1 or self.n_days < 1:
            raise ConfigError("n_securities and n_days must be >= 1")
        if not 0 < self.cap <= 1:
            raise ConfigError(f"cap must be in (0, 1], got {self.cap}")
        if self.top_m < 1:
            raise ConfigError(f"top_m must be >= 1, got {self.top_m}")
        missing = [v for v in VARIABLES if v not in self.seed_ranges]
        if missing:
            raise ConfigError(f"seed_ranges lacks variables: {missing}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view, inverse of :func:`run_config_from_dict`."""
        return {
            "master_seed": self.master_seed,
            "n_securities": self.n_securities,
            "n_days": self.n_days,
            "start_date": self.start_date.isoformat(),
            "markets": list(self.markets),
            "buy_rating_range": list(self.buy_rating_range),
            "beta_range": list(self.beta_range),
            "seed_ranges": {
                name: {
                    "start": [r.start_min, r.start_max],
                    "drift": [r.drift_min, r.drift_max],
                    "vol": [r.vol_min, r.vol_max],
                }
                for name, r in sorted(self.seed_ranges.items())
            },
            "scoring": {
                "rf": self.scoring.rf,
                "ma_window": self.scoring.ma_window,
                "vol_window": self.scoring.vol_window,
                "lbg_lag": self.scoring.lbg_lag,
                "rate_source": self.scoring.rate_source,
            },
            "filters": {
                "min_si_usd": self.filters.min_si_usd,
                "min_loan_rate": self.filters.min_loan_rate,
                "min_dtc": self.filters.min_dtc,
                "min_lbg": self.filters.min_lbg,
                "max_la_usd": self.filters.max_la_usd,
                "min_adv_usd": self.filters.min_adv_usd,
                "min_buy_rating": self.filters.min_buy_rating,
                "min_beta": self.filters.min_beta,
                "drop_bottom_pct": self.filters.drop_bottom_pct,
                "market_scale": dict(sorted(self.filters.market_scale.items())),
            },
            "portfolio": {
                "top_m": self.top_m,
                "cap": self.cap,
            },
        }


def _pair(raw: Any, context: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{context} must be a [min, max] pair, got {raw!r}")
    try:
        return float(raw[0]), float(raw[1])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{context} must be a pair of numbers, got {raw!r}") from None


def _integer(raw: Any, key: str) -> int:
    """``raw`` as an int: an integer, or a float with an integral value such as 60.0."""
    # bool is an int subclass, but a JSON true is not a count.
    integral = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    return int(raw)


def _finite_number(raw: Any, key: str) -> float:
    """``raw`` as a float: a finite JSON number, not a bool or a numeric string."""
    # The bound fails NaN and +-inf, and an integer too large for a float.
    if isinstance(raw, (int, float)) and not isinstance(raw, bool) and abs(raw) <= sys.float_info.max:
        return float(raw)
    raise ConfigError(f"{key} must be a finite number, got {raw!r}")


def _seed_range_from_dict(name: str, raw: Mapping[str, Any]) -> SimulationSeedRange:
    unknown = set(raw) - {"start", "drift", "vol"}
    if unknown:
        raise ConfigError(f"seed_ranges[{name!r}]: unknown keys {sorted(unknown)}")
    start = _pair(raw["start"], f"seed_ranges[{name!r}].start") if "start" in raw else (0.0, 0.0)
    if "drift" not in raw or "vol" not in raw:
        raise ConfigError(f"seed_ranges[{name!r}] needs drift and vol pairs")
    drift = _pair(raw["drift"], f"seed_ranges[{name!r}].drift")
    vol = _pair(raw["vol"], f"seed_ranges[{name!r}].vol")
    try:
        return SimulationSeedRange(name, start[0], start[1], drift[0], drift[1], vol[0], vol[1])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_keys(raw: Mapping[str, Any], allowed: set[str], context: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def run_config_from_dict(data: Mapping[str, Any]) -> RunConfig:
    """Build a RunConfig from a (possibly partial) plain dict."""
    top_level = {
        "master_seed",
        "n_securities",
        "n_days",
        "start_date",
        "markets",
        "buy_rating_range",
        "beta_range",
        "seed_ranges",
        "scoring",
        "filters",
        "portfolio",
    }
    _check_keys(data, top_level, "config")

    kwargs: dict[str, Any] = {}
    for key in ("master_seed", "n_securities", "n_days"):
        if key in data:
            kwargs[key] = _integer(data[key], key)
    if "start_date" in data:
        try:
            kwargs["start_date"] = parse_date(str(data["start_date"]))
        except ValueError as exc:
            raise ConfigError(f"start_date: {exc}") from None
    if "markets" in data:
        markets = tuple(str(m) for m in data["markets"])
        if not markets:
            raise ConfigError("markets must be non-empty")
        kwargs["markets"] = markets
    for key in ("buy_rating_range", "beta_range"):
        if key in data:
            kwargs[key] = _pair(data[key], key)

    ranges = dict(DEFAULT_SEED_RANGES)
    for name, block in (data.get("seed_ranges") or {}).items():
        if name not in VARIABLES:
            raise ConfigError(f"seed_ranges: unknown variable {name!r}")
        ranges[name] = _seed_range_from_dict(name, block)
    kwargs["seed_ranges"] = ranges

    scoring_raw = dict(data.get("scoring") or {})
    _check_keys(scoring_raw, {f.name for f in fields(ScoreConfig)}, "scoring")
    for key in ("ma_window", "vol_window", "lbg_lag"):
        if key in scoring_raw:
            scoring_raw[key] = _integer(scoring_raw[key], f"scoring.{key}")
    try:
        kwargs["scoring"] = ScoreConfig(**scoring_raw)
    except ValueError as exc:
        raise ConfigError(f"scoring: {exc}") from None

    filters_raw = dict(data.get("filters") or {})
    _check_keys(
        filters_raw,
        {f.name for f in fields(FilterConfig)},
        "filters",
    )
    if "market_scale" in filters_raw:
        filters_raw["market_scale"] = dict(filters_raw["market_scale"])
    if "exclusions" in filters_raw:
        filters_raw["exclusions"] = frozenset(filters_raw["exclusions"])
    try:
        kwargs["filters"] = FilterConfig(**filters_raw)
    except ValueError as exc:
        raise ConfigError(f"filters: {exc}") from None

    portfolio_raw = dict(data.get("portfolio") or {})
    _check_keys(portfolio_raw, {"top_m", "cap"}, "portfolio")
    if "top_m" in portfolio_raw:
        kwargs["top_m"] = _integer(portfolio_raw["top_m"], "portfolio.top_m")
    if "cap" in portfolio_raw:
        kwargs["cap"] = _finite_number(portfolio_raw["cap"], "portfolio.cap")

    return RunConfig(**kwargs)


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
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return run_config_from_dict(data)


def resolved_config_json(cfg: RunConfig) -> str:
    """Deterministic JSON echo of a resolved config."""
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
