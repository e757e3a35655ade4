"""Threshold filters and the final top-shorts ranking.

A security enters the ranked set only if it clears every exclusion
filter: enough short interest and loan-balance growth, a loan rate and
days-to-cover above their floors, scarce availability, enough traded
liquidity, a consensus buy rating, and a high beta. Filters run in a
fixed documented order and an excluded security records the first
filter it failed, so traces are stable and auditable.

The screen works on a whole :class:`~shortbasket.scoring.ScoreTable` at
once: one boolean mask per filter, in ``FILTER_ORDER``, and each row's
reason is its first failed mask (``argmax``). A mask marks the rows that
do not pass, so a NaN factor fails its filter. The kept rows are again a
``ScoreTable``.

Ranking sorts by a composite key: the sign of the rate premium first,
then the selected score. A below-threshold security therefore never
outranks one with a positive premium, whatever its multipliers do to
the raw product. Ties fall to the security id. The sort is one
``np.lexsort`` over the table's columns, and the result is a
:class:`Ranking` of ids, scores and signs, best first. The bottom
percentile of the sorted set is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .datastore import SecurityProfile
from .errors import EmptyAfterFilters, InsufficientSnapshots
from .scoring import SCORE_SELECTORS, ScoreTable

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
# FILTER_ORDER and "" (no failure), indexed by a row's first failed filter.
_FILTER_REASONS = np.array([*FILTER_ORDER, ""], dtype=object)

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


class ExclusionRecord(NamedTuple):
    """Why one security fell out of the ranked universe."""

    security_id: str
    reason: str


class RankedSecurity(NamedTuple):
    """One entry of a ranking, as Python values; ranks are contiguous from 1."""

    security_id: str
    rank: int
    rank_key: tuple[int, float]

    @property
    def score(self) -> float:
        return self.rank_key[1]


@dataclass(frozen=True)
class Ranking:
    """Securities best first, with the score and premium sign each was ranked by.

    Iterating a ranking yields one :class:`RankedSecurity` per entry,
    ranked from 1.
    """

    security_ids: tuple[str, ...]
    scores: tuple[float, ...]
    premium_signs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.security_ids)

    def __iter__(self) -> Iterator[RankedSecurity]:
        keys = zip(self.premium_signs, self.scores)
        for rank, (security_id, key) in enumerate(zip(self.security_ids, keys), start=1):
            yield RankedSecurity(security_id, rank, key)


class _NoProfile(NamedTuple):
    """Stands in for a missing profile: no market, and NaN attributes that fail their filters."""

    market: str | None = None
    buy_rating: float = math.nan
    beta: float = math.nan


_NO_PROFILE = _NoProfile()


def _profile_map(
    profiles: Mapping[str, SecurityProfile] | Iterable[SecurityProfile],
) -> Mapping[str, SecurityProfile]:
    if isinstance(profiles, Mapping):
        return profiles
    return {p.security_id: p for p in profiles}


def apply_filters(
    table: ScoreTable,
    profiles: Mapping[str, SecurityProfile] | Iterable[SecurityProfile],
    cfg: FilterConfig,
) -> tuple[ScoreTable, list[ExclusionRecord]]:
    """Split one evaluation date's table into kept rows and excluded-with-reason.

    Rows already excluded upstream keep their scoring reason; the manual
    exclusion list and profile join are checked before the threshold
    filters. Output order follows input order; the split is idempotent.
    """
    by_id = _profile_map(profiles)
    ids = table.security_ids
    profile_of = [by_id.get(sid, _NO_PROFILE) for sid in ids]
    scale = np.array([cfg.market_scale.get(p.market, 1.0) for p in profile_of]) if cfg.market_scale else 1.0
    price = table.column("price")
    # One row per filter in FILTER_ORDER. Each is written "not passes",
    # so that a NaN factor (or a missing profile's NaN) fails its filter.
    with np.errstate(invalid="ignore"):
        fails = ~np.array(
            [
                table.column("short_interest") * price >= cfg.min_si_usd / scale,
                table.column("loan_rate") >= cfg.min_loan_rate,
                table.column("dtc") >= cfg.min_dtc,
                table.column("lbg") >= cfg.min_lbg,
                table.column("availability") * price <= cfg.max_la_usd / scale,
                table.column("adv") * price >= cfg.min_adv_usd / scale,
                np.array([p.buy_rating for p in profile_of]) >= cfg.min_buy_rating,
                np.array([p.beta for p in profile_of]) >= cfg.min_beta,
            ]
        )
    # The first failed filter of each row, or "" where every filter passes;
    # then, overriding it in this order, the missing profile, the manual
    # list and the upstream reason.
    reasons = _FILTER_REASONS[np.where(fails.any(axis=0), fails.argmax(axis=0), len(FILTER_ORDER))]
    reasons[[p is _NO_PROFILE for p in profile_of]] = REASON_MISSING_PROFILE
    if cfg.exclusions:
        reasons[[sid in cfg.exclusions for sid in ids]] = REASON_MANUAL
    upstream = table.excluded
    reasons[upstream] = [r or "excluded" for r in table.reasons[upstream].tolist()]
    reasons = reasons.tolist()
    excluded = [ExclusionRecord(sid, reason) for sid, reason in zip(ids, reasons) if reason]
    kept = table if not excluded else table.take(np.flatnonzero([not reason for reason in reasons]))
    return kept, excluded


def rank(
    kept: ScoreTable,
    score_selector: str = "four",
    drop_bottom_pct: float = 0.0,
) -> Ranking:
    """Order the kept rows best-first and drop the bottom percentile.

    Sorting is by (premium sign, selected score) descending with ties
    broken by security_id, so output never depends on input order.
    ``ceil(K * pct / 100)`` rows fall off the bottom.
    """
    if not len(kept):
        raise EmptyAfterFilters("no securities survived the filters")
    if not 0 <= drop_bottom_pct < 100:
        raise ValueError(f"drop_bottom_pct must be in [0, 100), got {drop_bottom_pct}")
    if score_selector not in SCORE_SELECTORS:
        raise ValueError(f"unknown score selector {score_selector!r}")

    scores = kept.column(f"score_{score_selector}")
    unrankable = np.isnan(scores)
    if unrankable.any():
        raise ValueError(f"{kept.security_ids[unrankable.argmax()]}: score_{score_selector} is not rankable")
    # score_one carries the sign of the rate premium by construction,
    # including the zero-deviation sentinel cases.
    score_one = kept.column("score_one")
    sign = (score_one > 0).astype(np.int64) - (score_one < 0)
    # Ties fall to each id's place in Python's order of str; numpy's own
    # str comparison ignores trailing NULs. Equal ids keep input order, as
    # in a stable sort.
    n = len(kept)
    ids = kept.security_ids
    by_id = np.empty(n, dtype=np.intp)
    by_id[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    order = np.lexsort((by_id, -scores, -sign))
    order = order[: n - math.ceil(n * drop_bottom_pct / 100.0)]
    return Ranking(
        security_ids=tuple(ids[i] for i in order.tolist()),
        scores=tuple(scores[order].tolist()),
        premium_signs=tuple(sign[order].tolist()),
    )


def rank_stability(
    rankings: Sequence[Ranking],
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
