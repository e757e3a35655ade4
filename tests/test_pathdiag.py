"""Path statistics and the volatility-limitation scenario generator."""

from __future__ import annotations

import math
import statistics

import pytest

from shortbasket.errors import GenerationFailure, PathTooShort
from shortbasket.pathdiag import (
    annualized_volatility,
    direction_changes,
    make_scenario,
    path_stats,
    per_period_returns,
)


class TestPathStats:
    def test_constant_path(self):
        stats = path_stats([100.0] * 10)
        assert stats.total_return == 0.0
        assert stats.volatility == 0.0
        assert stats.direction_changes == 0
        assert stats.return_to_vol == 0.0

    def test_same_return_different_volatility(self):
        smooth = path_stats([100.0, 105.0, 109.0])
        lumpy = path_stats([100.0, 101.0, 109.0])
        assert smooth.total_return == pytest.approx(0.09)
        assert lumpy.total_return == pytest.approx(0.09)
        # independent recomputation of both volatilities
        for stats, path in ((smooth, [100.0, 105.0, 109.0]), (lumpy, [100.0, 101.0, 109.0])):
            rets = [path[1] / path[0] - 1, path[2] / path[1] - 1]
            expected = statistics.stdev(rets) * math.sqrt(252.0)
            assert stats.volatility == pytest.approx(expected, rel=1e-12)
        assert lumpy.volatility > smooth.volatility
        assert lumpy.return_to_vol < smooth.return_to_vol
        assert smooth.direction_changes == 0
        assert lumpy.direction_changes == 0

    def test_direction_change_count(self):
        stats = path_stats([100.0, 101.0, 100.0, 102.0])
        assert stats.direction_changes == 2

    def test_flat_steps_do_not_break_sign_runs(self):
        # +, 0, + has no change; +, 0, - has one
        assert direction_changes([0.01, 0.0, 0.02]) == 0
        assert direction_changes([0.01, 0.0, -0.02]) == 1

    def test_too_short(self):
        with pytest.raises(PathTooShort):
            path_stats([100.0])

    def test_direction_changes_bounded(self):
        path = [100.0, 101.0, 100.0, 101.0, 100.0]
        stats = path_stats(path)
        assert stats.direction_changes <= len(path) - 2

    def test_scale_invariance_exact_for_binary_scales(self):
        path = [100.0, 104.0, 99.0, 107.0, 103.0]
        base = path_stats(path)
        for factor in (2.0, 0.5, 8.0):
            scaled = path_stats([factor * p for p in path])
            assert scaled == base

    def test_scale_invariance_close_for_general_scales(self):
        path = [100.0, 104.0, 99.0, 107.0, 103.0]
        base = path_stats(path)
        scaled = path_stats([1.7 * p for p in path])
        assert scaled.total_return == pytest.approx(base.total_return, rel=1e-12)
        assert scaled.volatility == pytest.approx(base.volatility, rel=1e-12)
        assert scaled.direction_changes == base.direction_changes

    def test_reversed_return_sequence_preserves_stats_exactly(self):
        path = [100.0, 104.0, 99.0, 107.0, 103.0, 110.0]
        returns = per_period_returns(path)
        reversed_returns = list(reversed(returns))
        assert annualized_volatility(returns) == annualized_volatility(reversed_returns)
        assert direction_changes(returns) == direction_changes(reversed_returns)

    def test_volatility_annualization_factor(self):
        returns = [0.01, -0.01, 0.02]
        daily = annualized_volatility(returns, 1.0)
        yearly = annualized_volatility(returns, 252.0)
        assert yearly == pytest.approx(daily * math.sqrt(252.0))


class TestScenarios:
    def test_kind_one_clauses(self):
        result = make_scenario(1, 0.09, length=30, seed=5)
        assert result.ok
        names = {c.name for c in result.clauses}
        assert "b_higher_volatility" in names
        assert result.stats_a.total_return == result.stats_b.total_return
        assert result.stats_a.direction_changes == 0
        assert result.stats_b.direction_changes == 0
        assert result.stats_a.return_to_vol > result.stats_b.return_to_vol

    def test_kind_two_clauses(self):
        result = make_scenario(2, 0.09, length=30, seed=5)
        assert result.ok
        returns_b = per_period_returns(result.path_b)
        assert any(r < 0 for r in returns_b)
        assert result.stats_b.volatility < result.stats_a.volatility

    def test_kind_three_clauses(self):
        result = make_scenario(3, -0.09, length=30, seed=5)
        assert result.ok
        assert result.path_a[-1] == pytest.approx(91.0, abs=1e-9)
        assert result.path_b[-1] == pytest.approx(91.0, abs=1e-9)
        assert result.stats_a.direction_changes < result.stats_b.direction_changes
        assert result.stats_a.volatility > result.stats_b.volatility

    def test_deterministic_per_seed(self):
        a = make_scenario(1, 0.09, length=20, seed=11)
        b = make_scenario(1, 0.09, length=20, seed=11)
        assert a.path_a == b.path_a
        assert a.path_b == b.path_b

    def test_seeds_vary_paths(self):
        a = make_scenario(1, 0.09, length=20, seed=1)
        b = make_scenario(1, 0.09, length=20, seed=2)
        assert a.path_a != b.path_a

    def test_minimum_length(self):
        result = make_scenario(1, 0.09, length=4, seed=0)
        assert result.ok
        with pytest.raises(ValueError):
            make_scenario(1, 0.09, length=3, seed=0)

    def test_sign_preconditions(self):
        with pytest.raises(ValueError):
            make_scenario(1, -0.05)
        with pytest.raises(ValueError):
            make_scenario(3, 0.05)
        with pytest.raises(ValueError):
            make_scenario(4, 0.05)

    @pytest.mark.parametrize("kind", [1, 2, 3])
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_is_rejected_before_any_attempt(self, kind, target):
        with pytest.raises(ValueError, match=f"got {target}$"):
            make_scenario(kind, target)

    def test_report_text_lists_all_clauses(self):
        result = make_scenario(2, 0.09, length=12, seed=3)
        text = result.report_text()
        assert "verified" in text
        for clause in result.clauses:
            assert clause.name in text

    def test_small_lengths_all_kinds(self):
        for kind, target in ((1, 0.05), (2, 0.05), (3, -0.05)):
            for length in (4, 5, 8):
                result = make_scenario(kind, target, length=length, seed=7)
                assert result.ok, (kind, length)
