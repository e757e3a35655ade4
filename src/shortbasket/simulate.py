"""Synthetic lending-market time series.

Each security gets seven daily series. Price, availability, short
interest, trading volume, and both loan rates follow geometric Brownian
motion with the exact log-normal step

    S[t+1] = S[t] * exp((mu - sigma^2 / 2) * dt + sigma * sqrt(dt) * Z)

so every value stays strictly positive with no discretization bias. The
loan balance is drawn per day as the absolute value of a normal
variable (folded normal), independent across days.

The per-security (start, drift, volatility) parameters are themselves
uniform draws from configured ranges, one range block per variable, so
a whole universe is reproducible from the range config plus one master
seed. Every (security, variable) pair owns two independent substreams,
one for the parameter draw and one for the path noise; nothing depends
on evaluation order. A universe derives the seeds of its substreams in
``substream_seeds`` batches and hands each security its block.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .datastore import VARIABLES, LendingDataset, SecurityProfile
from .errors import MissingVariableRange
from .rng import NoiseStream, substream_seeds

TRADING_DAYS_PER_YEAR = 252
DEFAULT_DT = 1.0 / TRADING_DAYS_PER_YEAR

# Substream ids are derived from the indices of VARIABLES, so its order
# is part of every simulated dataset.
_LOAN_RATE, _ALT_LOAN_RATE = VARIABLES.index("loan_rate"), VARIABLES.index("alt_loan_rate")
_PROFILE_CHANNEL = len(VARIABLES)
_PARAMS, _PATH = 0, 1
# Id suffixes of one security's substreams, in the order of its seed
# block: (variable, purpose) for each variable, then the profile.
_SECURITY_SUBSTREAMS = tuple((v, p) for v in range(len(VARIABLES)) for p in (_PARAMS, _PATH)) + (
    (_PROFILE_CHANNEL,),
)
# A universe derives its seeds this many securities at a time. One batch
# for all 1000 securities of a run held its 480 KB seed table through the
# whole simulation and left the peak resident memory 3% higher.
_SEED_BATCH = 128

GBM_VARIABLES = tuple(v for v in VARIABLES if v != "loan_balance")

DEFAULT_MARKETS = ("JP", "HK", "TW", "KR", "SG")
DEFAULT_START_DATE = dt.date(2020, 1, 2)
DEFAULT_BUY_RATING_RANGE = (3.0, 5.0)
DEFAULT_BETA_RANGE = (1.0, 2.5)


@dataclass(frozen=True)
class SimulationSeedRange:
    """Uniform-draw bounds for one variable's (start, drift, volatility).

    For GBM variables the three slots are the initial level, annual
    drift, and annual volatility. For the loan balance the drift and
    volatility slots hold the mean and standard deviation (USD) of the
    underlying normal whose absolute value is sampled each day; the
    start slot is unused there and may be zero.
    """

    variable: str
    start_min: float
    start_max: float
    drift_min: float
    drift_max: float
    vol_min: float
    vol_max: float

    def __post_init__(self) -> None:
        if self.variable not in VARIABLES:
            raise ValueError(f"unknown variable {self.variable!r}; expected one of {VARIABLES}")
        for slot in ("start", "drift", "vol"):
            for name in (f"{slot}_min", f"{slot}_max"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{self.variable}: {name} must be finite, got {getattr(self, name)}")
            # numpy's uniform draw needs a finite interval width.
            if not math.isfinite(getattr(self, f"{slot}_max") - getattr(self, f"{slot}_min")):
                raise ValueError(f"{self.variable}: {slot}_max - {slot}_min overflows a float")
        if self.start_min > self.start_max:
            raise ValueError(f"{self.variable}: start_min > start_max")
        if self.drift_min > self.drift_max:
            raise ValueError(f"{self.variable}: drift_min > drift_max")
        if not 0 <= self.vol_min <= self.vol_max:
            raise ValueError(f"{self.variable}: need 0 <= vol_min <= vol_max")
        if self.variable in GBM_VARIABLES and self.start_min <= 0:
            raise ValueError(f"{self.variable}: start_min must be > 0 for GBM variables")


@dataclass(frozen=True)
class GbmParams:
    """Initial level, annual drift, and annual volatility of one series."""

    s0: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.s0 <= 0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


@dataclass(frozen=True)
class FoldedNormalParams:
    """Mean and std (USD) of the normal underlying the daily |N| draws."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


def draw_params(
    seed_range: SimulationSeedRange, stream: NoiseStream
) -> GbmParams | FoldedNormalParams:
    """Draw one security's process parameters from a seed range.

    GBM variables draw (s0, mu, sigma) in that order; the loan balance
    draws (mu, sigma) from the drift and volatility slots. Degenerate
    [x, x] intervals yield x exactly.
    """
    gen = stream.generator()
    if seed_range.variable == "loan_balance":
        mu = gen.uniform(seed_range.drift_min, seed_range.drift_max)
        sigma = gen.uniform(seed_range.vol_min, seed_range.vol_max)
        return FoldedNormalParams(mu=mu, sigma=sigma)
    s0 = gen.uniform(seed_range.start_min, seed_range.start_max)
    mu = gen.uniform(seed_range.drift_min, seed_range.drift_max)
    sigma = gen.uniform(seed_range.vol_min, seed_range.vol_max)
    return GbmParams(s0=s0, mu=mu, sigma=sigma)


def simulate_gbm(
    params: GbmParams, n_days: int, dt_step: float, stream: NoiseStream
) -> np.ndarray:
    """Exact-discretization GBM path of ``n_days`` values starting at s0."""
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    if dt_step <= 0:
        raise ValueError(f"dt must be positive, got {dt_step}")
    out = np.empty(n_days, dtype=np.float64)
    out[0] = params.s0
    if n_days > 1:
        z = stream.generator().standard_normal(n_days - 1)
        log_steps = (params.mu - 0.5 * params.sigma**2) * dt_step + params.sigma * np.sqrt(dt_step) * z
        out[1:] = params.s0 * np.exp(np.cumsum(log_steps))
    return out


def simulate_abs_normal(
    params: FoldedNormalParams, n_days: int, stream: NoiseStream
) -> np.ndarray:
    """Independent daily |N(mu, sigma^2)| draws (folded normal)."""
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    gen = stream.generator()
    return np.abs(gen.normal(params.mu, params.sigma, size=n_days))


def trading_dates(start_date: dt.date, n_days: int) -> list[dt.date]:
    """``n_days`` consecutive weekdays starting at or after ``start_date``."""
    dates: list[dt.date] = []
    day = start_date
    while len(dates) < n_days:
        if day.weekday() < 5:
            dates.append(day)
        day += dt.timedelta(days=1)
    return dates


def _security_id(index: int, n_securities: int) -> str:
    width = max(4, len(str(n_securities)))
    return f"SEC{index + 1:0{width}d}"


class _RangeMap(dict):
    """A variable -> range map that ``_as_range_map`` checked for completeness."""


def _as_range_map(
    seed_config: Iterable[SimulationSeedRange] | Mapping[str, SimulationSeedRange],
) -> _RangeMap:
    if isinstance(seed_config, Mapping):
        ranges = _RangeMap(seed_config)
    else:
        ranges = _RangeMap((r.variable, r) for r in seed_config)
    missing = [v for v in VARIABLES if v not in ranges]
    if missing:
        raise MissingVariableRange(f"seed config lacks ranges for: {missing}")
    return ranges


def _substream_ids(security_index: int) -> list[tuple[int, ...]]:
    return [(security_index, *suffix) for suffix in _SECURITY_SUBSTREAMS]


def simulate_security(
    seed_config: Iterable[SimulationSeedRange] | Mapping[str, SimulationSeedRange],
    security_index: int,
    n_securities: int,
    n_days: int,
    master_seed: int,
    *,
    dt_step: float = DEFAULT_DT,
    markets: tuple[str, ...] = DEFAULT_MARKETS,
    buy_rating_range: tuple[float, float] = DEFAULT_BUY_RATING_RANGE,
    beta_range: tuple[float, float] = DEFAULT_BETA_RANGE,
    seed_block: np.ndarray | None = None,
) -> tuple[np.ndarray, SecurityProfile]:
    """Simulate one security, independent of all others.

    Returns its ``(len(VARIABLES), n_days)`` rows, one per variable in
    ``VARIABLES`` order, and its profile. Depends only on
    ``(master_seed, security_index)`` plus the config, so securities can
    be generated in any order or in parallel and merged by index.

    ``seed_block`` holds the ``substream_seeds`` rows of this security's
    substreams, as ``simulate_universe`` derives them; without it each
    stream derives its own seed.
    """
    ranges = seed_config if isinstance(seed_config, _RangeMap) else _as_range_map(seed_config)
    words = seed_block if seed_block is not None else [None] * len(_SECURITY_SUBSTREAMS)
    streams = [
        NoiseStream(master_seed, key, seed_words=w)
        for key, w in zip(_substream_ids(security_index), words, strict=True)
    ]
    rows = np.empty((len(VARIABLES), n_days))
    for v, variable in enumerate(VARIABLES):
        params = draw_params(ranges[variable], streams[2 * v + _PARAMS])
        path_stream = streams[2 * v + _PATH]
        # draw_params returns FoldedNormalParams for the loan balance, GbmParams otherwise.
        if variable == "loan_balance":
            rows[v] = simulate_abs_normal(params, n_days, path_stream)
        else:
            rows[v] = simulate_gbm(params, n_days, dt_step, path_stream)

    # The end-borrower rate can never undercut the sourcing rate; floor
    # the independently simulated alternate-rate path at the loan rate.
    rows[_ALT_LOAN_RATE] = np.maximum(rows[_ALT_LOAN_RATE], rows[_LOAN_RATE])

    security_id = _security_id(security_index, n_securities)
    gen = streams[-1].generator()
    profile = SecurityProfile(
        security_id=security_id,
        market=markets[security_index % len(markets)],
        buy_rating=float(gen.uniform(*buy_rating_range)),
        beta=float(gen.uniform(*beta_range)),
    )
    return rows, profile


def simulate_universe(
    seed_config: Iterable[SimulationSeedRange] | Mapping[str, SimulationSeedRange],
    n_securities: int,
    n_days: int,
    master_seed: int,
    *,
    dt_step: float = DEFAULT_DT,
    start_date: dt.date = DEFAULT_START_DATE,
    markets: tuple[str, ...] = DEFAULT_MARKETS,
    buy_rating_range: tuple[float, float] = DEFAULT_BUY_RATING_RANGE,
    beta_range: tuple[float, float] = DEFAULT_BETA_RANGE,
) -> LendingDataset:
    """Simulate a whole universe on one calendar; deterministic given the master seed."""
    if n_securities < 1:
        raise ValueError(f"n_securities must be >= 1, got {n_securities}")
    ranges = _as_range_map(seed_config)
    values = np.empty((len(VARIABLES), n_securities, n_days))
    profiles = []
    for start in range(0, n_securities, _SEED_BATCH):
        stop = min(start + _SEED_BATCH, n_securities)
        seeds = substream_seeds(master_seed, (key for i in range(start, stop) for key in _substream_ids(i)))
        blocks = seeds.reshape(stop - start, len(_SECURITY_SUBSTREAMS), 4)
        for i, block in zip(range(start, stop), blocks):
            values[:, i], profile = simulate_security(
                ranges,
                i,
                n_securities,
                n_days,
                master_seed,
                dt_step=dt_step,
                markets=markets,
                buy_rating_range=buy_rating_range,
                beta_range=beta_range,
                seed_block=block,
            )
            profiles.append(profile)
    # Zero-padded ids sort in index order.
    return LendingDataset(
        dates=tuple(trading_dates(start_date, n_days)),
        security_ids=tuple(p.security_id for p in profiles),
        values=values,
        profiles=tuple(profiles),
    )
