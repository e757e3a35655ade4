"""Exclusion filters and ranking."""

from __future__ import annotations

import random

import pytest

from shortbasket.errors import EmptyAfterFilters
from shortbasket.screener import (
    FILTER_ORDER,
    FilterConfig,
    RankedSecurity,
    apply_filters,
    rank,
)

from conftest import make_profile, make_row, make_table

DEFAULTS = FilterConfig()


def ids_of(table) -> list[str]:
    return [r.security_id for r in table]


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


class TestApplyFilters:
    def test_small_short_interest_excluded(self):
        table = make_table(make_row("SEC0001", short_interest=90_000.0))  # 9M USD
        kept, excluded = apply_filters(table, [make_profile("SEC0001")], DEFAULTS)
        assert len(kept) == 0
        assert excluded[0].reason == "min_si_usd"

    def test_low_loan_rate_excluded(self):
        table = make_table(make_row("SEC0001", loan_rate=0.014))
        kept, excluded = apply_filters(table, [make_profile("SEC0001")], DEFAULTS)
        assert excluded[0].reason == "min_loan_rate"

    def test_permissive_config_keeps_everything(self):
        rows = [make_row(f"SEC{i:04d}") for i in range(1, 6)]
        rows.append(make_row("SEC0099", loan_rate=0.0001, short_interest=0.01))
        profiles = [make_profile(r["security_id"], buy_rating=1.0, beta=-0.5) for r in rows]
        kept, excluded = apply_filters(make_table(*rows), profiles, FilterConfig.permissive())
        assert len(kept) == len(rows)
        assert excluded == []

    def test_first_failure_wins(self):
        # violates both the SI floor and the beta floor; SI is checked first
        table = make_table(make_row("SEC0001", short_interest=0.01))
        profile = make_profile("SEC0001", beta=0.1)
        _, excluded = apply_filters(table, [profile], DEFAULTS)
        assert excluded[0].reason == "min_si_usd"

    def test_reasons_follow_filter_order(self):
        # a row failing every filter; mended one filter at a time in
        # FILTER_ORDER, it must report each next filter in turn
        remaining = {
            "min_si_usd": ("short_interest", 0.01),
            "min_loan_rate": ("loan_rate", 0.0),
            "min_dtc": ("dtc", float("nan")),
            "min_lbg": ("lbg", 0.0),
            "max_la_usd": ("availability", 1e10),
            "min_adv_usd": ("adv", 0.0),
            "min_buy_rating": ("buy_rating", 1.0),
            "min_beta": ("beta", 0.0),
        }
        assert tuple(remaining) == FILTER_ORDER
        for name in FILTER_ORDER:
            bad = dict(remaining.values())
            profile = make_profile("SEC0001", **{k: bad.pop(k) for k in ("buy_rating", "beta") if k in bad})
            table = make_table(make_row("SEC0001", **bad))
            _, excluded = apply_filters(table, [profile], DEFAULTS)
            assert excluded[0].reason == name
            del remaining[name]

    def test_each_threshold_reports_itself(self):
        cases = {
            "min_si_usd": dict(short_interest=50_000.0),
            "min_dtc": dict(dtc=3.0),
            "min_lbg": dict(lbg=1.1),
            "max_la_usd": dict(availability=200_000.0),
            "min_adv_usd": dict(adv=1_000.0),
        }
        for expected, overrides in cases.items():
            table = make_table(make_row("SEC0001", **overrides))
            _, excluded = apply_filters(table, [make_profile("SEC0001")], DEFAULTS)
            assert excluded[0].reason == expected, expected

    def test_missing_factor_fails_its_filter(self):
        # an empty factor cell reads as NaN, which passes no filter
        table = make_table(make_row("SEC0001", dtc=None))
        _, excluded = apply_filters(table, [make_profile("SEC0001")], DEFAULTS)
        assert excluded[0].reason == "min_dtc"

    def test_profile_thresholds(self):
        table = make_table(make_row("SEC0001"))
        _, excluded = apply_filters(table, [make_profile("SEC0001", buy_rating=2.0)], DEFAULTS)
        assert excluded[0].reason == "min_buy_rating"
        _, excluded = apply_filters(table, [make_profile("SEC0001", beta=1.0)], DEFAULTS)
        assert excluded[0].reason == "min_beta"

    def test_market_scale_divides_usd_thresholds(self):
        # 6M USD of short interest fails the 10M floor, but passes in a
        # market whose divisor halves the bar.
        table = make_table(make_row("SEC0001", short_interest=60_000.0))
        tw = make_profile("SEC0001", market="TW")
        scaled = FilterConfig(market_scale={"TW": 2.0})
        kept, _ = apply_filters(table, [tw], scaled)
        assert len(kept) == 1
        jp = make_profile("SEC0001", market="JP")
        _, excluded = apply_filters(table, [jp], scaled)
        assert excluded[0].reason == "min_si_usd"

    def test_manual_exclusion_list(self):
        table = make_table(make_row("SEC0001"))
        cfg = FilterConfig(exclusions=frozenset({"SEC0001"}))
        _, excluded = apply_filters(table, [make_profile("SEC0001")], cfg)
        assert excluded[0].reason == "manual_exclusion"

    def test_missing_profile(self):
        table = make_table(make_row("SEC0001"))
        _, excluded = apply_filters(table, [], DEFAULTS)
        assert excluded[0].reason == "missing_profile"

    def test_upstream_exclusions_pass_through(self):
        unscored = dict.fromkeys(["availability", "short_interest", "rate_volatility", "score_one",
                                  "score_two", "score_three", "score_four", "e_lr", "dtc", "lbg", "adv"])
        table = make_table(make_row("SEC0001", excluded=True, reason="zero_availability", **unscored))
        kept, excluded = apply_filters(table, [make_profile("SEC0001")], DEFAULTS)
        assert len(kept) == 0
        assert excluded[0].reason == "zero_availability"

    def test_reasons_and_kept_rows_follow_input_order(self):
        table = make_table(
            make_row("SEC0003", loan_rate=0.0),
            make_row("SEC0001"),
            make_row("SEC0002", excluded=True, reason="zero_adv"),
            make_row("SEC0004"),
            make_row("SEC0000", dtc=0.0),
        )
        profiles = [make_profile(f"SEC{i:04d}") for i in range(5)]
        kept, excluded = apply_filters(table, profiles, DEFAULTS)
        assert ids_of(kept) == ["SEC0001", "SEC0004"]
        assert [tuple(e) for e in excluded] == [
            ("SEC0003", "min_loan_rate"), ("SEC0002", "zero_adv"), ("SEC0000", "min_dtc")
        ]

    def test_idempotent(self):
        rows = [make_row(f"SEC{i:04d}") for i in range(1, 4)]
        rows.append(make_row("SEC0009", short_interest=0.01))
        profiles = [make_profile(r["security_id"]) for r in rows]
        kept_once, _ = apply_filters(make_table(*rows), profiles, DEFAULTS)
        kept_twice, excluded_twice = apply_filters(kept_once, profiles, DEFAULTS)
        assert kept_twice == kept_once
        assert excluded_twice == []


class TestRank:
    def test_drop_bottom_percent_uses_ceiling(self):
        table = make_table(*[make_row(f"SEC{i:04d}", score_three=float(i)) for i in range(1, 11)])
        ranked = rank(table, "three", 20.0)
        assert len(ranked) == 8
        assert [r.rank for r in ranked] == list(range(1, 9))

    def test_threshold_example_order(self):
        bbb = make_row("BBB", score_one=2.50)
        ccc = make_row("CCC", score_one=2.00)
        ranked = rank(make_table(ccc, bbb), "one", 0.0)
        assert [r.security_id for r in ranked] == ["BBB", "CCC"]

    def test_single_security(self):
        ranked = rank(make_table(make_row("SEC0001")), "four", 0.0)
        assert list(ranked) == [RankedSecurity("SEC0001", 1, (1, 1080.0))]
        assert type(ranked.scores[0]) is float and type(ranked.premium_signs[0]) is int

    def test_empty_input_raises(self):
        with pytest.raises(EmptyAfterFilters):
            rank(make_table(), "one", 0.0)

    def test_unknown_selector_and_unrankable_score(self):
        with pytest.raises(ValueError, match="unknown score selector 'five'"):
            rank(make_table(make_row("SEC0001")), "five", 0.0)
        table = make_table(make_row("SEC0001"), make_row("SEC0002", score_two=float("nan")))
        with pytest.raises(ValueError, match="SEC0002: score_two is not rankable"):
            rank(table, "two", 0.0)

    def test_order_invariance(self):
        rows = [make_row(f"SEC{i:04d}", score_three=float((i * 7) % 11 + 1)) for i in range(1, 12)]
        ranked = rank(make_table(*rows), "three", 20.0)
        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        assert rank(make_table(*shuffled), "three", 20.0) == ranked

    def test_ties_broken_by_id(self):
        a = make_row("SEC0002", score_four=5.0)
        b = make_row("SEC0001", score_four=5.0)
        ranked = rank(make_table(a, b), "four", 0.0)
        assert [r.security_id for r in ranked] == ["SEC0001", "SEC0002"]
        assert [r.rank for r in ranked] == [1, 2]

    def test_ties_follow_python_str_order(self):
        # numpy's str comparison ignores trailing NULs; Python's does not
        rows = [make_row(sid, score_four=5.0) for sid in ("A\0", "A", "A\0\0", "")]
        ranked = rank(make_table(*rows), "four", 0.0)
        assert ranked.security_ids == ("", "A", "A\0", "A\0\0")

    def test_negative_premium_never_outranks_positive(self):
        # hand-built pathology: a negative-premium row whose raw product
        # came out large and positive must still sink below any
        # positive-premium row.
        poisoned = make_row("SEC0001", score_one=-2.0, score_four=1_000_000.0)
        honest = make_row("SEC0002", score_one=0.5, score_four=3.0)
        ranked = rank(make_table(poisoned, honest), "four", 0.0)
        first, second = ranked
        assert [first.security_id, second.security_id] == ["SEC0002", "SEC0001"]
        assert first.rank_key[0] == 1
        assert second.rank_key[0] == -1

    def test_excluded_rows_never_ranked(self):
        rows = [make_row("SEC0001"), make_row("SEC0002", short_interest=0.01)]
        profiles = [make_profile(r["security_id"]) for r in rows]
        kept, _ = apply_filters(make_table(*rows), profiles, DEFAULTS)
        ranked = rank(kept, "four", 0.0)
        assert [r.security_id for r in ranked] == ["SEC0001"]

    def test_permissive_pipeline_is_pure_score_sort(self):
        rows = [make_row(f"SEC{i:04d}", score_three=float(i * 3 % 7 + 1)) for i in range(1, 9)]
        profiles = [make_profile(r["security_id"]) for r in rows]
        kept, _ = apply_filters(make_table(*rows), profiles, FilterConfig.permissive())
        ranked = rank(kept, "three", 0.0)
        scores = {r["security_id"]: r["score_three"] for r in rows}
        expected = sorted(scores, key=lambda sid: (-scores[sid], sid))
        assert [r.security_id for r in ranked] == expected
