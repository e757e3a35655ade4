"""Score-proportional basket weights with a per-position cap.

The top M ranked securities are weighted by their scores,

    u_i = SS_i / sum(SS),

then any weight above the cap is clamped to it and the freed mass is
redistributed proportionally among the uncapped names, repeating until
no weight violates the cap. Each pass permanently caps at least one
security, so the loop ends within M passes at the unique fixed point
u_i = min(cap, lambda * SS_i) with the weights summing to one.

The selection is read straight from a :class:`~shortbasket.screener.Ranking`:
its first M ids and their scores, with no per-security object between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasibleCap, NonFiniteScore, NonPositiveScore
from .screener import Ranking

SUM_TOL = 1e-9
CAP_TOL = 1e-12


@dataclass(frozen=True)
class PortfolioConfig:
    """Basket size and per-position cap: the ``portfolio`` section of a run config."""

    top_m: int = 20
    cap: float = 0.10

    def __post_init__(self) -> None:
        if self.top_m < 1:
            raise ValueError(f"top_m must be >= 1, got {self.top_m}")
        if not 0 < self.cap <= 1:
            raise ValueError(f"cap must be in (0, 1], got {self.cap}")


@dataclass(frozen=True)
class PortfolioAllocation:
    """Normalized long-only holdings; weights sum to 1, none above cap."""

    holdings: tuple[tuple[str, float], ...]
    scores: tuple[float, ...]
    cap: float

    def __post_init__(self) -> None:
        weights = [w for _, w in self.holdings]
        # Negated comparisons, so that a NaN weight fails them.
        if not abs(math.fsum(weights) - 1.0) <= SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {math.fsum(weights)}")
        if not all(w > 0 for w in weights):
            raise ValueError("all weights must be strictly positive")
        if any(w > self.cap + CAP_TOL for w in weights):
            raise ValueError(f"a weight exceeds the cap {self.cap}")
        if len(self.scores) != len(self.holdings):
            raise ValueError("scores and holdings must align")

    @property
    def size(self) -> int:
        return len(self.holdings)

    def weights(self) -> dict[str, float]:
        return dict(self.holdings)


def _cap_and_redistribute(scores: Sequence[float], cap: float) -> list[float]:
    total = math.fsum(scores)
    weights = [s / total for s in scores]
    capped: set[int] = set()
    for _ in range(len(scores)):
        violators = [i for i, w in enumerate(weights) if i not in capped and w > cap + CAP_TOL]
        if not violators:
            break
        capped.update(violators)
        free_mass = 1.0 - cap * len(capped)
        open_total = math.fsum(scores[i] for i in range(len(scores)) if i not in capped)
        for i in range(len(scores)):
            if i in capped:
                weights[i] = cap
            else:
                weights[i] = scores[i] / open_total * free_mass
    return weights


def _validate_selection(scores: Sequence[float], cap: float) -> None:
    if not scores:
        raise ValueError("cannot build a portfolio from an empty selection")
    if not 0 < cap <= 1:
        raise ValueError(f"cap must be in (0, 1], got {cap}")
    if len(scores) * cap < 1.0 - SUM_TOL:
        raise InfeasibleCap(
            f"{len(scores)} positions at cap {cap} cannot reach full weight "
            f"({len(scores)} * {cap} < 1)"
        )
    # A score-one sentinel (+inf) has no proportional weight: inf/inf is NaN.
    non_finite = [s for s in scores if not math.isfinite(s)]
    if non_finite:
        raise NonFiniteScore(f"selected securities must have finite scores, got {non_finite[:3]}")
    bad = [s for s in scores if s <= 0]
    if bad:
        raise NonPositiveScore(f"selected securities must have positive scores, got {bad[:3]}")


def construct(ranked: Ranking, top_m: int, cap: float) -> PortfolioAllocation:
    """Build a capped, score-proportional allocation from a ranking's first ``top_m`` entries."""
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    scores = list(ranked.scores[:top_m])
    _validate_selection(scores, cap)
    weights = _cap_and_redistribute(scores, cap)
    return PortfolioAllocation(
        holdings=tuple(zip(ranked.security_ids[:top_m], weights)),
        scores=tuple(scores),
        cap=cap,
    )
