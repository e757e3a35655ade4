"""Threshold filters and the final top-shorts ranking.

A security enters the ranked set only if it clears every exclusion
filter: enough short interest and loan-balance growth, a loan rate and
days-to-cover above their floors, scarce availability, enough traded
liquidity, a consensus buy rating, and a high beta. Filters run in a
fixed documented order and an excluded security records the first
filter it failed, so traces are stable and auditable.

Ranking sorts by a composite key: the sign of the rate premium first,
then the selected score. A below-threshold security therefore never
outranks one with a positive premium, whatever its multipliers do to
the raw product. The bottom percentile of the sorted set is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .datastore import SecurityProfile
from .errors import EmptyAfterFilters, InsufficientSnapshots
from .scoring import ShortScoreRow

# Evaluation order; the first failed name becomes the exclusion reason.
FILTER_ORDER = (
    "min_si_usd",
    "min_loan_rate",
    "min_dtc",
    "min_lbg",
    "max_la_usd",
    "min_adv_usd",
    "min_buy_rating",
    "min_beta",
)

REASON_MANUAL = "manual_exclusion"
REASON_MISSING_PROFILE = "missing_profile"

_PERMISSIVE_MIN = -1e300
_PERMISSIVE_MAX = 1e300


@dataclass(frozen=True)
class FilterConfig:
    """Minimum-acceptable thresholds for basket inclusion.

    Conventions: ``min_*`` filters pass at or above the threshold,
    ``max_la_usd`` passes at or below it. ``min_lbg`` is a growth ratio
    (1.25 means +25% over the lookback). ``market_scale`` optionally
    divides the three USD thresholds for a market, so a smaller lending
    market clears them at proportionally smaller dollar amounts; empty
    by default. ``exclusions`` is the manual negative-event list
    (downgrades, litigation), maintained by hand as a one-column CSV.
    """

    min_si_usd: float = 10_000_000.0
    min_loan_rate: float = 0.015
    min_dtc: float = 4.0
    min_lbg: float = 1.25
    max_la_usd: float = 10_000_000.0
    min_adv_usd: float = 25_000_000.0
    min_buy_rating: float = 3.5
    min_beta: float = 1.2
    drop_bottom_pct: float = 20.0
    market_scale: Mapping[str, float] = field(default_factory=dict)
    exclusions: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in FILTER_ORDER:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.drop_bottom_pct < 100:
            raise ValueError(f"drop_bottom_pct must be in [0, 100), got {self.drop_bottom_pct}")
        for market, scale in self.market_scale.items():
            if scale <= 0:
                raise ValueError(f"market_scale[{market!r}] must be positive, got {scale}")

    @classmethod
    def permissive(cls) -> "FilterConfig":
        """Thresholds that keep every row; useful for audits and tests."""
        return cls(
            min_si_usd=_PERMISSIVE_MIN,
            min_loan_rate=_PERMISSIVE_MIN,
            min_dtc=_PERMISSIVE_MIN,
            min_lbg=_PERMISSIVE_MIN,
            max_la_usd=_PERMISSIVE_MAX,
            min_adv_usd=_PERMISSIVE_MIN,
            min_buy_rating=_PERMISSIVE_MIN,
            min_beta=_PERMISSIVE_MIN,
            drop_bottom_pct=0.0,
        )


def lbg_from_pct(growth_pct: float) -> float:
    """Convert a percentage growth threshold (25 -> +25%) to a ratio (1.25)."""
    return 1.0 + growth_pct / 100.0


@dataclass(frozen=True)
class ExclusionRecord:
    """Why one security fell out of the ranked universe."""

    security_id: str
    reason: str


@dataclass(frozen=True)
class RankedSecurity:
    """One entry of the final ranking; ranks are contiguous from 1."""

    security_id: str
    rank: int
    rank_key: tuple[int, float]
    score_flavor_used: str
    filter_trace: tuple[str, ...]

    @property
    def score(self) -> float:
        return self.rank_key[1]


def _profile_map(
    profiles: Mapping[str, SecurityProfile] | Iterable[SecurityProfile],
) -> Mapping[str, SecurityProfile]:
    if isinstance(profiles, Mapping):
        return profiles
    return {p.security_id: p for p in profiles}


def _first_failure(
    row: ShortScoreRow, profile: SecurityProfile, cfg: FilterConfig
) -> str | None:
    # The checks run in FILTER_ORDER and stop at the first failure. Each is
    # written "not passes", so that a NaN factor fails its filter.
    assert row.factors is not None
    f = row.factors
    scale = cfg.market_scale.get(profile.market, 1.0)
    if not f.si_usd >= cfg.min_si_usd / scale:
        return "min_si_usd"
    if not row.loan_rate >= cfg.min_loan_rate:
        return "min_loan_rate"
    if not f.dtc >= cfg.min_dtc:
        return "min_dtc"
    if not f.lbg >= cfg.min_lbg:
        return "min_lbg"
    if not f.la_usd <= cfg.max_la_usd / scale:
        return "max_la_usd"
    if not f.adv * row.price >= cfg.min_adv_usd / scale:
        return "min_adv_usd"
    if not profile.buy_rating >= cfg.min_buy_rating:
        return "min_buy_rating"
    if not profile.beta >= cfg.min_beta:
        return "min_beta"
    return None


def apply_filters(
    rows: Sequence[ShortScoreRow],
    profiles: Mapping[str, SecurityProfile] | Iterable[SecurityProfile],
    cfg: FilterConfig,
) -> tuple[list[ShortScoreRow], list[ExclusionRecord]]:
    """Split one evaluation date's rows into kept and excluded-with-reason.

    Rows already excluded upstream keep their scoring reason; the manual
    exclusion list and profile join are checked before the threshold
    filters. Output order follows input order; the split is idempotent.
    """
    by_id = _profile_map(profiles)
    kept: list[ShortScoreRow] = []
    excluded: list[ExclusionRecord] = []
    for row in rows:
        if row.excluded:
            excluded.append(ExclusionRecord(row.security_id, row.reason or "excluded"))
            continue
        if row.security_id in cfg.exclusions:
            excluded.append(ExclusionRecord(row.security_id, REASON_MANUAL))
            continue
        profile = by_id.get(row.security_id)
        if profile is None:
            excluded.append(ExclusionRecord(row.security_id, REASON_MISSING_PROFILE))
            continue
        failed = _first_failure(row, profile, cfg)
        if failed is not None:
            excluded.append(ExclusionRecord(row.security_id, failed))
        else:
            kept.append(row)
    return kept, excluded


def _premium_sign(row: ShortScoreRow) -> int:
    # score_one carries the sign of the rate premium by construction,
    # including the zero-deviation sentinel cases.
    assert row.score_one is not None
    if row.score_one > 0:
        return 1
    if row.score_one < 0:
        return -1
    return 0


def rank(
    kept: Sequence[ShortScoreRow],
    score_selector: str = "four",
    drop_bottom_pct: float = 0.0,
) -> list[RankedSecurity]:
    """Order the kept rows best-first and drop the bottom percentile.

    Sorting is by (premium sign, selected score) descending with ties
    broken by security_id, so output never depends on input order.
    ``ceil(K * pct / 100)`` rows fall off the bottom.
    """
    if not kept:
        raise EmptyAfterFilters("no securities survived the filters")
    if not 0 <= drop_bottom_pct < 100:
        raise ValueError(f"drop_bottom_pct must be in [0, 100), got {drop_bottom_pct}")

    # (premium sign, score) of each row, computed once.
    keys = []
    for row in kept:
        value = row.score(score_selector)
        if value is None or math.isnan(value):
            raise ValueError(f"{row.security_id}: score_{score_selector} is not rankable")
        keys.append((_premium_sign(row), float(value)))
    order = sorted(range(len(kept)), key=lambda i: (-keys[i][0], -keys[i][1], kept[i].security_id))
    n_drop = math.ceil(len(order) * drop_bottom_pct / 100.0)
    flavor = kept[0].flavor
    return [
        RankedSecurity(
            security_id=kept[i].security_id,
            rank=position + 1,
            rank_key=keys[i],
            score_flavor_used=flavor,
            filter_trace=FILTER_ORDER,
        )
        for position, i in enumerate(order[: len(order) - n_drop])
    ]


def rank_stability(
    rankings: Sequence[Sequence[RankedSecurity]],
) -> dict[str, float]:
    """Mean absolute rank change per snapshot transition, per security.

    A security missing from either side of a transition is charged the
    maximum penalty K (the universe size), so flickering in and out of
    the ranked set costs more than any in-set move.
    """
    if len(rankings) < 2:
        raise InsufficientSnapshots(f"need >= 2 ranking snapshots, got {len(rankings)}")
    universe = max(len(snapshot) for snapshot in rankings)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for prev, curr in zip(rankings, rankings[1:]):
        prev_ranks = {r.security_id: r.rank for r in prev}
        curr_ranks = {r.security_id: r.rank for r in curr}
        for security_id in set(prev_ranks) | set(curr_ranks):
            if security_id in prev_ranks and security_id in curr_ranks:
                penalty = abs(curr_ranks[security_id] - prev_ranks[security_id])
            else:
                penalty = universe
            totals[security_id] = totals.get(security_id, 0.0) + penalty
            counts[security_id] = counts.get(security_id, 0) + 1
    return {sid: totals[sid] / counts[sid] for sid in totals}
