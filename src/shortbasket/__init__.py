"""Securities-lending analytics and basket construction.

Simulates lending-market time series (prices, availability, short
interest, volume, loan balances, loan rates), computes Sharpe-style
short scores over them, screens the universe through threshold filters,
and turns the resulting ranking into a capped score-proportional long
basket, with path diagnostics that quantify volatility's blind spot for
direction changes.
"""

from .config import RunConfig, load_run_config
from .datastore import (
    LendingDataset,
    SecurityProfile,
    SecuritySeries,
    export_csv,
    ingest_csv,
)
from .pathdiag import PathStats, ScenarioResult, make_scenario, path_stats
from .portfolio import PortfolioAllocation, construct, rebalance, variance_penalized_weights
from .rng import NoiseStream
from .scoring import (
    DerivedFactors,
    ScoreConfig,
    ScoreRow,
    ScoreTable,
    moving_average,
    rate_stats,
    score_four,
    score_one,
    score_table,
    score_three,
    score_two,
    sharpe_like,
)
from .screener import FilterConfig, RankedSecurity, Ranking, apply_filters, rank, rank_stability
from .simulate import (
    FoldedNormalParams,
    GbmParams,
    SimulationSeedRange,
    draw_params,
    simulate_abs_normal,
    simulate_gbm,
    simulate_universe,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedFactors",
    "FilterConfig",
    "FoldedNormalParams",
    "GbmParams",
    "LendingDataset",
    "NoiseStream",
    "PathStats",
    "PortfolioAllocation",
    "RankedSecurity",
    "Ranking",
    "RunConfig",
    "ScenarioResult",
    "ScoreConfig",
    "ScoreRow",
    "ScoreTable",
    "SecurityProfile",
    "SecuritySeries",
    "SimulationSeedRange",
    "apply_filters",
    "construct",
    "draw_params",
    "export_csv",
    "ingest_csv",
    "load_run_config",
    "make_scenario",
    "moving_average",
    "path_stats",
    "rank",
    "rank_stability",
    "rate_stats",
    "rebalance",
    "score_four",
    "score_one",
    "score_table",
    "score_three",
    "score_two",
    "sharpe_like",
    "simulate_abs_normal",
    "simulate_gbm",
    "simulate_universe",
    "variance_penalized_weights",
]
