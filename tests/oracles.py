"""Scalar reference forms of the four short scores.

``shortbasket.scoring.score_table`` scores a whole cross-section in
numpy. The functions here score one security from its
:class:`DerivedFactors` in plain Python, straight from the formulas,
and the kernel's columns are tested against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from shortbasket.scoring import ScoreConfig


@dataclass(frozen=True)
class DerivedFactors:
    """One security's inputs to the scalar score functions.

    ``ma_si``/``ma_la`` hold the flavor's level view (moving average for
    the ``ma`` flavor, single-day value otherwise). ``adv`` is the
    20-day average volume in shares. ``dtc`` and ``lbg`` are NaN when
    their denominators are zero. ``score_table`` computes the same
    quantities as columns of a ``ScoreTable``.
    """

    e_lr: float
    sigma_lr: float
    dtc: float
    lbg: float
    ma_si: float
    ma_la: float
    si_usd: float
    la_usd: float
    adv: float


def sharpe_like(e_x: float, threshold: float, sigma_x: float) -> float:
    """Excess value per unit of deviation, with signed-infinity sentinels.

    When the deviation is zero the result is +inf, -inf, or 0 matching
    the sign of the excess, so a riskless rate premium still ranks, in
    the right direction, instead of raising.
    """
    premium = e_x - threshold
    if sigma_x == 0:
        if premium > 0:
            return math.inf
        if premium < 0:
            return -math.inf
        return 0.0
    return premium / sigma_x


def score_one(factors: DerivedFactors, cfg: ScoreConfig) -> float:
    """Rate premium over the threshold per unit of rate deviation."""
    return sharpe_like(factors.e_lr, cfg.rf, factors.sigma_lr)


def score_two(factors: DerivedFactors, cfg: ScoreConfig) -> float | None:
    """Score one scaled by short interest relative to availability.

    Returns None when availability is zero (division undefined); the
    table builder turns that into an excluded row.
    """
    if factors.ma_la == 0:
        return None
    return (factors.ma_si / factors.ma_la) * score_one(factors, cfg)


def score_three(factors: DerivedFactors, cfg: ScoreConfig) -> float | None:
    """Score two scaled by days-to-cover; None when volume is zero."""
    base = score_two(factors, cfg)
    if base is None or factors.adv == 0 or math.isnan(factors.dtc):
        return None
    return factors.dtc * base


def score_four(factors: DerivedFactors, cfg: ScoreConfig) -> float | None:
    """Score three scaled by loan-balance growth; None on a zero base balance."""
    base = score_three(factors, cfg)
    if base is None or math.isnan(factors.lbg):
        return None
    return factors.lbg * base
