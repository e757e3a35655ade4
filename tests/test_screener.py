"""Exclusion filters, ranking, and rank-stability churn."""

from __future__ import annotations

import random

import pytest

from shortbasket.errors import EmptyAfterFilters, InsufficientSnapshots
from shortbasket.screener import (
    FILTER_ORDER,
    FilterConfig,
    RankedSecurity,
    apply_filters,
    lbg_from_pct,
    rank,
    rank_stability,
)

from conftest import make_profile, make_row

DEFAULTS = FilterConfig()


def compliant_row(security_id: str, **factor_overrides):
    # passes every default filter: si_usd 2e8, rate 5%, dtc 6, lbg 1.5,
    # la_usd 5e6, adv_usd 3e7, and the profile adds rating 4.5, beta 1.8
    overrides = dict(adv=300_000.0)
    overrides.update(factor_overrides)
    return make_row(security_id, factor_overrides=overrides)


def ranked_stub(security_id: str, position: int, score: float = 1.0) -> RankedSecurity:
    return RankedSecurity(security_id, position, (1, score), "ma", FILTER_ORDER)


class TestFilterConfig:
    def test_thresholds_must_be_finite(self):
        with pytest.raises(ValueError):
            FilterConfig(min_si_usd=float("inf"))

    def test_drop_pct_domain(self):
        with pytest.raises(ValueError):
            FilterConfig(drop_bottom_pct=100.0)
        with pytest.raises(ValueError):
            FilterConfig(drop_bottom_pct=-1.0)

    def test_market_scale_positive(self):
        with pytest.raises(ValueError):
            FilterConfig(market_scale={"TW": 0.0})

    def test_pct_to_ratio_converter(self):
        assert lbg_from_pct(25.0) == 1.25


class TestApplyFilters:
    def test_small_short_interest_excluded(self):
        row = compliant_row("SEC0001", si_usd=9_000_000.0)
        kept, excluded = apply_filters([row], [make_profile("SEC0001")], DEFAULTS)
        assert kept == []
        assert excluded[0].reason == "min_si_usd"

    def test_low_loan_rate_excluded(self):
        row = make_row("SEC0001", loan_rate=0.014)
        kept, excluded = apply_filters([row], [make_profile("SEC0001")], DEFAULTS)
        assert excluded[0].reason == "min_loan_rate"

    def test_permissive_config_keeps_everything(self):
        rows = [compliant_row(f"SEC{i:04d}") for i in range(1, 6)]
        rows.append(make_row("SEC0099", loan_rate=0.0001, factor_overrides=dict(si_usd=1.0)))
        profiles = [make_profile(r.security_id, buy_rating=1.0, beta=-0.5) for r in rows]
        kept, excluded = apply_filters(rows, profiles, FilterConfig.permissive())
        assert len(kept) == len(rows)
        assert excluded == []

    def test_first_failure_wins(self):
        # violates both the SI floor and the beta floor; SI is checked first
        row = compliant_row("SEC0001", si_usd=1.0)
        profile = make_profile("SEC0001", beta=0.1)
        _, excluded = apply_filters([row], [profile], DEFAULTS)
        assert excluded[0].reason == "min_si_usd"

    def test_reasons_follow_filter_order(self):
        # a row failing every filter; mended one filter at a time in
        # FILTER_ORDER, it must report each next filter in turn
        remaining = {
            "min_si_usd": ("si_usd", 1.0),
            "min_loan_rate": ("loan_rate", 0.0),
            "min_dtc": ("dtc", float("nan")),
            "min_lbg": ("lbg", 0.0),
            "max_la_usd": ("la_usd", 1e12),
            "min_adv_usd": ("adv", 0.0),
            "min_buy_rating": ("buy_rating", 1.0),
            "min_beta": ("beta", 0.0),
        }
        assert tuple(remaining) == FILTER_ORDER
        for name in FILTER_ORDER:
            bad = dict(remaining.values())
            profile = make_profile("SEC0001", **{k: bad.pop(k) for k in ("buy_rating", "beta") if k in bad})
            row = make_row("SEC0001", loan_rate=bad.pop("loan_rate", 0.05),
                           factor_overrides={"adv": 300_000.0, **bad})
            _, excluded = apply_filters([row], [profile], DEFAULTS)
            assert excluded[0].reason == name
            del remaining[name]

    def test_each_threshold_reports_itself(self):
        cases = {
            "min_si_usd": dict(si_usd=5e6),
            "min_dtc": dict(dtc=3.0),
            "min_lbg": dict(lbg=1.1),
            "max_la_usd": dict(la_usd=2e7),
            "min_adv_usd": dict(adv=1_000.0),
        }
        for expected, overrides in cases.items():
            row = compliant_row("SEC0001", **overrides)
            _, excluded = apply_filters([row], [make_profile("SEC0001")], DEFAULTS)
            assert excluded[0].reason == expected, expected

    def test_profile_thresholds(self):
        row = compliant_row("SEC0001")
        _, excluded = apply_filters([row], [make_profile("SEC0001", buy_rating=2.0)], DEFAULTS)
        assert excluded[0].reason == "min_buy_rating"
        _, excluded = apply_filters([row], [make_profile("SEC0001", beta=1.0)], DEFAULTS)
        assert excluded[0].reason == "min_beta"

    def test_market_scale_divides_usd_thresholds(self):
        # 6M USD of short interest fails the 10M floor, but passes in a
        # market whose divisor halves the bar.
        row = compliant_row("SEC0001", si_usd=6_000_000.0)
        tw = make_profile("SEC0001", market="TW")
        scaled = FilterConfig(market_scale={"TW": 2.0})
        kept, _ = apply_filters([row], [tw], scaled)
        assert len(kept) == 1
        jp = make_profile("SEC0001", market="JP")
        _, excluded = apply_filters([row], [jp], scaled)
        assert excluded[0].reason == "min_si_usd"

    def test_manual_exclusion_list(self):
        row = compliant_row("SEC0001")
        cfg = FilterConfig(exclusions=frozenset({"SEC0001"}))
        _, excluded = apply_filters([row], [make_profile("SEC0001")], cfg)
        assert excluded[0].reason == "manual_exclusion"

    def test_missing_profile(self):
        row = compliant_row("SEC0001")
        _, excluded = apply_filters([row], [], DEFAULTS)
        assert excluded[0].reason == "missing_profile"

    def test_upstream_exclusions_pass_through(self):
        row = make_row("SEC0001", excluded=True, reason="zero_availability", factors=None,
                       score_one=None, score_two=None, score_three=None, score_four=None)
        kept, excluded = apply_filters([row], [make_profile("SEC0001")], DEFAULTS)
        assert kept == []
        assert excluded[0].reason == "zero_availability"

    def test_idempotent(self):
        rows = [compliant_row(f"SEC{i:04d}") for i in range(1, 4)]
        rows.append(compliant_row("SEC0009", si_usd=1.0))
        profiles = [make_profile(r.security_id) for r in rows]
        kept_once, _ = apply_filters(rows, profiles, DEFAULTS)
        kept_twice, excluded_twice = apply_filters(kept_once, profiles, DEFAULTS)
        assert kept_twice == kept_once
        assert excluded_twice == []


class TestRank:
    def test_drop_bottom_percent_uses_ceiling(self):
        rows = [compliant_row(f"SEC{i:04d}", dtc=float(i)) for i in range(1, 11)]
        ranked = rank(rows, "three", 20.0)
        assert len(ranked) == 8
        assert [r.rank for r in ranked] == list(range(1, 9))

    def test_threshold_example_order(self):
        bbb = make_row("BBB", score_one=2.50)
        ccc = make_row("CCC", score_one=2.00)
        ranked = rank([ccc, bbb], "one", 0.0)
        assert [r.security_id for r in ranked] == ["BBB", "CCC"]

    def test_single_security(self):
        ranked = rank([compliant_row("SEC0001")], "four", 0.0)
        assert ranked[0].rank == 1
        assert ranked[0].score_flavor_used == "ma"

    def test_empty_input_raises(self):
        with pytest.raises(EmptyAfterFilters):
            rank([], "one", 0.0)

    def test_order_invariance(self):
        rows = [compliant_row(f"SEC{i:04d}", dtc=float((i * 7) % 11 + 1)) for i in range(1, 12)]
        ranked = rank(rows, "three", 20.0)
        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        assert rank(shuffled, "three", 20.0) == ranked

    def test_ties_broken_by_id(self):
        a = make_row("SEC0002", score_four=5.0)
        b = make_row("SEC0001", score_four=5.0)
        ranked = rank([a, b], "four", 0.0)
        assert [r.security_id for r in ranked] == ["SEC0001", "SEC0002"]
        assert [r.rank for r in ranked] == [1, 2]

    def test_negative_premium_never_outranks_positive(self):
        # hand-built pathology: a negative-premium row whose raw product
        # came out large and positive must still sink below any
        # positive-premium row.
        poisoned = make_row("SEC0001", score_one=-2.0, score_four=1_000_000.0)
        honest = make_row("SEC0002", score_one=0.5, score_four=3.0)
        ranked = rank([poisoned, honest], "four", 0.0)
        assert [r.security_id for r in ranked] == ["SEC0002", "SEC0001"]
        assert ranked[0].rank_key[0] == 1
        assert ranked[1].rank_key[0] == -1

    def test_excluded_rows_never_ranked(self):
        rows = [compliant_row("SEC0001"), compliant_row("SEC0002", si_usd=1.0)]
        profiles = [make_profile(r.security_id) for r in rows]
        kept, _ = apply_filters(rows, profiles, DEFAULTS)
        ranked = rank(kept, "four", 0.0)
        assert [r.security_id for r in ranked] == ["SEC0001"]

    def test_permissive_pipeline_is_pure_score_sort(self):
        rows = [compliant_row(f"SEC{i:04d}", dtc=float(i * 3 % 7 + 1)) for i in range(1, 9)]
        profiles = [make_profile(r.security_id) for r in rows]
        kept, _ = apply_filters(rows, profiles, FilterConfig.permissive())
        ranked = rank(kept, "three", 0.0)
        scores = {r.security_id: r.score_three for r in rows}
        expected = sorted(scores, key=lambda sid: (-scores[sid], sid))
        assert [r.security_id for r in ranked] == expected


class TestRankStability:
    def test_identical_snapshots_zero_churn(self):
        snap = [ranked_stub("A", 1), ranked_stub("B", 2)]
        churn = rank_stability([snap, snap, snap])
        assert churn == {"A": 0.0, "B": 0.0}

    def test_alternating_ranks(self):
        s1 = [ranked_stub("A", 1), ranked_stub("B", 2), ranked_stub("C", 3)]
        s2 = [ranked_stub("C", 1), ranked_stub("B", 2), ranked_stub("A", 3)]
        churn = rank_stability([s1, s2, s1])
        assert churn["A"] == 2.0
        assert churn["B"] == 0.0
        assert churn["C"] == 2.0

    def test_absent_security_pays_max_penalty(self):
        s1 = [ranked_stub("A", 1), ranked_stub("B", 2), ranked_stub("C", 3)]
        s2 = [ranked_stub("A", 1), ranked_stub("B", 2)]
        churn = rank_stability([s1, s2])
        assert churn["C"] == 3.0  # universe size K = 3
        assert churn["A"] == 0.0

    def test_requires_two_snapshots(self):
        with pytest.raises(InsufficientSnapshots):
            rank_stability([[ranked_stub("A", 1)]])
