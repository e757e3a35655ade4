"""Capped weight construction and the allocation invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shortbasket.errors import InfeasibleCap, NonFiniteScore, NonPositiveScore
from shortbasket.portfolio import PortfolioAllocation, construct
from shortbasket.screener import Ranking


def ranking(scores: list[float], ids: list[str] | None = None) -> Ranking:
    ids = ids or [f"SEC{i + 1:04d}" for i in range(len(scores))]
    return Ranking(tuple(ids), tuple(scores), (1,) * len(scores))


def waterfill_oracle(scores: list[float], cap: float) -> list[float]:
    """Independent solver: find lam with sum(min(cap, lam * s)) = 1.

    The sum is increasing in lam, so bisection converges; this checks
    the iterative cap-and-redistribute against a different derivation.
    """

    def total(lam: float) -> float:
        return sum(min(cap, lam * s) for s in scores)

    lo, hi = 0.0, 1.0
    while total(hi) < 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if total(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    lam = (lo + hi) / 2.0
    return [min(cap, lam * s) for s in scores]


class TestConstruct:
    def test_single_security_full_weight(self):
        allocation = construct(ranking([7.0]), 1, 1.0)
        assert allocation.holdings == (("SEC0001", 1.0),)

    def test_uncapped_weights_are_raw_proportions(self):
        allocation = construct(ranking([2.0, 3.0, 5.0]), 3, 1.0)
        assert [w for _, w in allocation.holdings] == [0.2, 0.3, 0.5]

    def test_one_pass_cap_and_redistribute(self):
        allocation = construct(ranking([8.0, 1.0, 1.0]), 3, 0.5)
        weights = [w for _, w in allocation.holdings]
        assert weights == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)

    def test_cascading_caps(self):
        # capping the first name pushes the second over the cap too
        allocation = construct(ranking([10.0, 6.0, 1.0, 1.0]), 4, 0.35)
        weights = allocation.weights()
        oracle = waterfill_oracle([10.0, 6.0, 1.0, 1.0], 0.35)
        for got, want in zip(weights.values(), oracle):
            assert got == pytest.approx(want, abs=1e-9)
        assert weights["SEC0001"] == pytest.approx(0.35)
        assert weights["SEC0002"] == pytest.approx(0.35)

    def test_top_m_selects_prefix_of_ranking(self):
        allocation = construct(ranking([5.0, 3.0, 2.0, 1.0]), 2, 1.0)
        assert [sid for sid, _ in allocation.holdings] == ["SEC0001", "SEC0002"]
        assert [w for _, w in allocation.holdings] == [0.625, 0.375]

    def test_infeasible_cap(self):
        with pytest.raises(InfeasibleCap):
            construct(ranking([1.0, 1.0]), 2, 0.10)

    def test_non_positive_score(self):
        with pytest.raises(NonPositiveScore):
            construct(ranking([2.0, 0.0]), 2, 1.0)
        with pytest.raises(NonPositiveScore):
            construct(ranking([2.0, -1.0]), 2, 1.0)

    @pytest.mark.parametrize(
        "scores",
        [[math.inf], [math.inf, 2.0], [2.0, math.nan], [-math.inf, 1.0]],
        ids=["lone_inf", "inf_with_finite", "nan", "minus_inf"],
    )
    def test_non_finite_score_is_named_error(self, scores):
        with pytest.raises(NonFiniteScore, match="finite"):
            construct(ranking(scores), len(scores), 1.0)

    def test_cap_domain(self):
        with pytest.raises(ValueError):
            construct(ranking([1.0]), 1, 0.0)
        with pytest.raises(ValueError):
            construct(ranking([1.0]), 1, 1.5)

    def test_scale_invariance(self):
        base = construct(ranking([3.0, 2.0, 1.0, 0.5]), 4, 0.4)
        scaled = construct(ranking([30.0, 20.0, 10.0, 5.0]), 4, 0.4)
        for (sid_a, w_a), (sid_b, w_b) in zip(base.holdings, scaled.holdings):
            assert sid_a == sid_b
            assert w_a == pytest.approx(w_b, abs=1e-12)

    def test_uncapped_monotonicity(self):
        allocation = construct(ranking([9.0, 4.0, 2.0]), 3, 0.6)
        weights = allocation.weights()
        assert weights["SEC0001"] == 0.6
        assert weights["SEC0002"] > weights["SEC0003"]

    def test_randomized_invariants_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            m = int(rng.integers(1, 12))
            scores = rng.uniform(0.01, 100.0, m).tolist()
            min_cap = 1.0 / m
            cap = float(rng.uniform(min_cap, 1.0)) if min_cap < 1.0 else 1.0
            allocation = construct(ranking(scores), m, cap)
            weights = [w for _, w in allocation.holdings]
            assert abs(math.fsum(weights) - 1.0) <= 1e-9
            assert max(weights) <= cap + 1e-12
            for got, want in zip(weights, waterfill_oracle(scores, cap)):
                assert got == pytest.approx(want, abs=1e-9)


class TestAllocationInvariants:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            PortfolioAllocation((("A", 0.5), ("B", 0.4)), (1.0, 1.0), 1.0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            PortfolioAllocation((("A", 0.7), ("B", 0.3)), (1.0, 1.0), 0.5)

    def test_positive_weights_enforced(self):
        with pytest.raises(ValueError):
            PortfolioAllocation((("A", 1.0), ("B", 0.0)), (1.0, 1.0), 1.0)

    @pytest.mark.parametrize(
        "holdings",
        [(("A", math.nan),), (("A", 1.0), ("B", math.nan)), (("A", math.inf),)],
    )
    def test_non_finite_weight_rejected(self, holdings):
        with pytest.raises(ValueError):
            PortfolioAllocation(holdings, (1.0,) * len(holdings), 1.0)
