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

Rebalancing is gated: if the basket membership is unchanged and no
holding's score moved by more than the relative threshold, the current
allocation is returned untouched.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InfeasibleCap, InsufficientHistory, NonFiniteScore, NonPositiveScore
from .screener import Ranking

SUM_TOL = 1e-9
CAP_TOL = 1e-12


@dataclass(frozen=True)
class PortfolioAllocation:
    """Normalized long-only holdings; weights sum to 1, none above cap."""

    as_of: dt.date | None
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


def construct(
    ranked: Ranking,
    top_m: int,
    cap: float,
    as_of: dt.date | None = None,
) -> PortfolioAllocation:
    """Build a capped, score-proportional allocation from a ranking's first ``top_m`` entries."""
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    scores = list(ranked.scores[:top_m])
    _validate_selection(scores, cap)
    weights = _cap_and_redistribute(scores, cap)
    return PortfolioAllocation(
        as_of=as_of,
        holdings=tuple(zip(ranked.security_ids[:top_m], weights)),
        scores=tuple(scores),
        cap=cap,
    )


def rebalance(
    current: PortfolioAllocation,
    new_ranked: Ranking,
    threshold: float,
    as_of: dt.date | None = None,
) -> tuple[PortfolioAllocation, bool]:
    """Rebuild the basket only when scores or membership moved enough.

    Unchanged means: the new top-M ids equal the current holdings and
    every holding's relative score change is below ``threshold`` (exact
    zero change never triggers a rebuild, whatever the threshold).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    new_scores = dict(zip(new_ranked.security_ids[: current.size], new_ranked.scores))
    if set(new_scores) == {sid for sid, _ in current.holdings}:
        changes = [
            abs(new_scores[sid] - old) / abs(old)
            for (sid, _), old in zip(current.holdings, current.scores)
        ]
        max_change = max(changes)
        if max_change == 0.0 or max_change < threshold:
            return current, False
    return construct(new_ranked, current.size, current.cap, as_of=as_of), True


def variance_penalized_weights(
    ranked: Ranking,
    score_history: Mapping[str, Sequence[float]],
    top_m: int,
    cap: float,
    as_of: dt.date | None = None,
) -> PortfolioAllocation:
    """Cap-redistributed weights proportional to score over score variance.

    A noisier score history shrinks a security's weight. A zero-variance
    history gets the largest raw weight among the candidates, i.e. a
    perfectly stable score is never penalized.
    """
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    selected = ranked.security_ids[:top_m]
    scores = list(ranked.scores[:top_m])
    _validate_selection(scores, cap)

    variances = []
    for security_id in selected:
        history = score_history.get(security_id, ())
        if len(history) < 2:
            raise InsufficientHistory(
                f"{security_id}: need >= 2 historical score snapshots, have {len(history)}"
            )
        mean = math.fsum(history) / len(history)
        variances.append(math.fsum((h - mean) ** 2 for h in history) / (len(history) - 1))

    raw = [s / v if v > 0 else math.nan for s, v in zip(scores, variances)]
    finite = [r for r in raw if not math.isnan(r)]
    stable_weight = max(finite) if finite else 1.0
    raw = [stable_weight if math.isnan(r) else r for r in raw]

    weights = _cap_and_redistribute(raw, cap)
    return PortfolioAllocation(
        as_of=as_of,
        holdings=tuple(zip(selected, weights)),
        scores=tuple(scores),
        cap=cap,
    )
