"""Factor derivation and the four short-score formulas."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from shortbasket.errors import (
    DegenerateCrossSection,
    EmptySeries,
    InsufficientHistory,
    SchemaError,
)
from shortbasket.scoring import (
    FLAVORS,
    FactorWeights,
    ScoreConfig,
    factor_normalization,
    moving_average,
    rate_stats,
    read_score_csv,
    score_four,
    score_one,
    score_table,
    score_three,
    score_two,
    sharpe_like,
    weighted_score,
    weighted_scores,
    write_score_csv,
)

from conftest import dataset_from_series, make_factors, series_from_columns

CFG = ScoreConfig(rf=0.02)


def kendall_tau(order_a: list[str], order_b: list[str]) -> float:
    """Rank correlation of two orderings of the same ids (test oracle)."""
    pos_a = {sid: i for i, sid in enumerate(order_a)}
    pos_b = {sid: i for i, sid in enumerate(order_b)}
    ids = list(order_a)
    concordant = discordant = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a = pos_a[ids[i]] - pos_a[ids[j]]
            b = pos_b[ids[i]] - pos_b[ids[j]]
            if a * b > 0:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (concordant + discordant)


class TestMovingAverage:
    def test_constant_series(self):
        assert moving_average([7.0] * 10, 3) == 7.0
        assert moving_average([7.0] * 10, 100) == 7.0

    def test_trailing_window(self):
        assert moving_average([1.0, 2.0, 3.0, 4.0], 2) == 3.5

    def test_expanding_before_window_fills(self):
        assert moving_average([1.0, 2.0, 3.0], 60) == 2.0

    def test_empty_series_raises(self):
        with pytest.raises(EmptySeries):
            moving_average([], 5)


class TestRateStats:
    def test_constant_rate_zero_dispersion(self):
        series = series_from_columns("SEC0001", 70, loan_rate=0.05)
        e_lr, sigma = rate_stats(series, CFG, series.dates[-1], "ma")
        assert e_lr == pytest.approx(0.05)
        assert sigma == 0.0

    def test_two_point_std_closed_form(self):
        series = series_from_columns("SEC0001", 2, loan_rate=[0.04, 0.06])
        cfg = ScoreConfig(vol_window=2, ma_window=2, lbg_lag=2)
        _, sigma = rate_stats(series, cfg, series.dates[-1], "last_day")
        # sample std of {0.04, 0.06} = 0.01 * sqrt(2)
        assert sigma == pytest.approx(0.01 * math.sqrt(2.0), rel=1e-12)

    def test_first_day_flavor_anchors_window_forward(self):
        rates = [0.10] + [0.02] * 69
        series = series_from_columns("SEC0001", 70, loan_rate=rates)
        e_lr, sigma = rate_stats(series, CFG, series.dates[0], "first_day")
        assert e_lr == 0.10
        assert sigma > 0.0

    def test_ma_flavor_uses_moving_average_rate(self):
        rates = [0.02] * 60 + [0.08] * 10
        series = series_from_columns("SEC0001", 70, loan_rate=rates)
        e_lr, _ = rate_stats(series, CFG, series.dates[-1], "ma")
        expected = moving_average(rates, 60)
        assert e_lr == pytest.approx(expected)

    def test_single_observation_insufficient(self):
        series = series_from_columns("SEC0001", 1)
        with pytest.raises(InsufficientHistory):
            rate_stats(series, CFG, series.dates[0], "ma")

    def test_unknown_date_rejected(self):
        series = series_from_columns("SEC0001", 5)
        import datetime as dt

        with pytest.raises(InsufficientHistory):
            rate_stats(series, CFG, dt.date(1999, 1, 1), "ma")


class TestSharpeLike:
    def test_ratio_without_threshold(self):
        assert sharpe_like(5.00, 0.0, 2.00) == 2.50
        assert sharpe_like(8.00, 0.0, 4.00) == 2.00

    def test_threshold_flips_order(self):
        # any threshold above 2 ranks the (8, 4) security first
        assert sharpe_like(8.00, 3.00, 4.00) == 1.25
        assert sharpe_like(5.00, 3.00, 2.00) == 1.00

    def test_zero_sigma_sentinels(self):
        assert sharpe_like(5.0, 1.0, 0.0) == math.inf
        assert sharpe_like(0.0, 1.0, 0.0) == -math.inf
        assert sharpe_like(1.0, 1.0, 0.0) == 0.0


class TestScoreAlgebra:
    def test_score_one_zero_premium(self):
        assert score_one(make_factors(e_lr=0.02, sigma_lr=0.5), CFG) == 0.0

    def test_score_one_arithmetic(self):
        assert score_one(make_factors(e_lr=0.05, sigma_lr=0.01), CFG) == pytest.approx(3.0)

    def test_score_one_negative_below_threshold(self):
        assert score_one(make_factors(e_lr=0.01, sigma_lr=0.01), CFG) < 0

    def test_score_two_unit_multiplier(self):
        factors = make_factors(ma_si=1e6, ma_la=1e6)
        assert score_two(factors, CFG) == score_one(factors, CFG)

    def test_score_two_arithmetic(self):
        factors = make_factors(e_lr=0.05, sigma_lr=0.01, ma_si=2e6, ma_la=1e6)
        assert score_two(factors, CFG) == pytest.approx(6.0)

    def test_score_two_zero_availability_undefined(self):
        assert score_two(make_factors(ma_la=0.0), CFG) is None

    def test_score_three_unit_dtc(self):
        factors = make_factors(dtc=1.0)
        assert score_three(factors, CFG) == score_two(factors, CFG)

    def test_score_three_arithmetic(self):
        factors = make_factors(e_lr=0.05, sigma_lr=0.01, ma_si=2e6, ma_la=1e6, dtc=4.0)
        assert score_three(factors, CFG) == pytest.approx(24.0)

    def test_score_four_unit_ratio(self):
        factors = make_factors(lbg=1.0)
        assert score_four(factors, CFG) == score_three(factors, CFG)

    def test_score_four_arithmetic(self):
        factors = make_factors(
            e_lr=0.05, sigma_lr=0.01, ma_si=2e6, ma_la=1e6, dtc=4.0, lbg=1.25
        )
        assert score_four(factors, CFG) == pytest.approx(30.0)

    def test_falling_balance_shrinks_positive_score(self):
        grow = make_factors(lbg=1.0)
        shrink = make_factors(lbg=0.8)
        assert score_three(grow, CFG) > 0
        assert score_four(shrink, CFG) < score_three(shrink, CFG)

    def test_monotone_in_expected_rate(self):
        low = score_one(make_factors(e_lr=0.04), CFG)
        high = score_one(make_factors(e_lr=0.06), CFG)
        assert high > low

    def test_antitone_in_rate_dispersion_when_premium_positive(self):
        calm = score_one(make_factors(sigma_lr=0.01), CFG)
        noisy = score_one(make_factors(sigma_lr=0.02), CFG)
        assert calm > noisy

    def test_multiplier_monotonicity_when_score_one_positive(self):
        base = make_factors()
        assert score_two(make_factors(ma_si=3e6), CFG) > score_two(base, CFG)
        assert score_three(make_factors(dtc=8.0), CFG) > score_three(base, CFG)
        assert score_four(make_factors(lbg=2.0), CFG) > score_four(base, CFG)


class TestWeightedScore:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FactorWeights(0.5, 0.5, 0.5, 0.0, 0.0)

    def test_projection_onto_single_factor(self):
        table = [
            make_factors(dtc=2.0, e_lr=0.09, si_usd=1e8, lbg=1.1, la_usd=3e6),
            make_factors(dtc=9.0, e_lr=0.03, si_usd=4e8, lbg=0.8, la_usd=9e6),
            make_factors(dtc=5.0, e_lr=0.06, si_usd=2e8, lbg=1.7, la_usd=5e6),
        ]
        weights = FactorWeights(0.0, 0.0, 1.0, 0.0, 0.0)
        totals = weighted_scores(table, weights)
        by_total = sorted(range(3), key=lambda i: totals[i])
        by_dtc = sorted(range(3), key=lambda i: table[i].dtc)
        assert by_total == by_dtc

    def test_identical_rows_get_identical_scores(self):
        twin = make_factors()
        other = make_factors(dtc=12.0, e_lr=0.09, si_usd=5e8, lbg=2.0, la_usd=2e6)
        totals = weighted_scores([twin, twin, other], FactorWeights())
        assert totals[0] == totals[1]

    def test_degenerate_cross_section_raises(self):
        with pytest.raises(DegenerateCrossSection):
            weighted_scores([make_factors(), make_factors()], FactorWeights())

    def test_matches_independent_recomputation(self):
        table = [
            make_factors(si_usd=1e8, e_lr=0.05, dtc=5.0, lbg=1.2, la_usd=4e6),
            make_factors(si_usd=3e8, e_lr=0.02, dtc=9.0, lbg=0.9, la_usd=8e6),
            make_factors(si_usd=2e8, e_lr=0.08, dtc=2.0, lbg=1.6, la_usd=1e6),
        ]
        weights = FactorWeights(0.3, 0.25, 0.2, 0.15, 0.1)
        totals = weighted_scores(table, weights)

        # independent spreadsheet-style recomputation
        raw = {
            "si_usd": [f.si_usd for f in table],
            "e_lr": [f.e_lr for f in table],
            "dtc": [f.dtc for f in table],
            "lbg": [f.lbg for f in table],
            "ila": [1.0 / f.la_usd for f in table],
        }
        w = {"si_usd": 0.3, "e_lr": 0.25, "dtc": 0.2, "lbg": 0.15, "ila": 0.1}
        expected = []
        for i in range(3):
            total = 0.0
            for key, values in raw.items():
                mean = sum(values) / 3
                std = math.sqrt(sum((v - mean) ** 2 for v in values) / 3)
                total += w[key] * (values[i] - mean) / std
            expected.append(total)
        for got, want in zip(totals, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_availability_must_be_excluded_first(self):
        varied = make_factors(si_usd=9e8, e_lr=0.09, dtc=11.0, lbg=2.0)
        with pytest.raises(ValueError, match="la_usd"):
            factor_normalization([varied, make_factors(la_usd=0.0)])

    def test_weighted_score_uses_supplied_normalization(self):
        table = [make_factors(dtc=2.0), make_factors(dtc=6.0)]
        norms = {key: (0.0, 1.0) for key in ("si_usd", "e_lr", "dtc", "lbg", "ila")}
        value = weighted_score(table[0], FactorWeights(0.0, 0.0, 1.0, 0.0, 0.0), norms)
        assert value == 2.0


class TestScoreTable:
    def test_one_row_per_security_in_id_order(self, tiny_dataset):
        rows = score_table(tiny_dataset, CFG, "ma")
        assert [r.security_id for r in rows] == ["SEC0001", "SEC0002", "SEC0003"]
        assert all(not r.excluded for r in rows)
        assert all(r.flavor == "ma" for r in rows)

    def test_single_day_dataset_all_excluded(self):
        ds = dataset_from_series(series_from_columns("SEC0001", 1))
        rows = score_table(ds, CFG, "ma")
        assert rows[0].excluded
        assert rows[0].reason is not None and "insufficient_history" in rows[0].reason
        assert rows[0].score_one is None

    def test_zero_availability_flagged(self):
        ds = dataset_from_series(series_from_columns("SEC0001", 70, availability=0.0))
        rows = score_table(ds, CFG, "ma")
        assert rows[0].excluded
        assert rows[0].reason == "zero_availability"
        assert rows[0].score_one is not None
        assert rows[0].score_two is None

    def test_zero_volume_flagged(self):
        ds = dataset_from_series(series_from_columns("SEC0001", 70, volume=0.0))
        rows = score_table(ds, CFG, "ma")
        assert rows[0].excluded
        assert rows[0].reason == "zero_adv"

    def test_zero_loan_balance_flagged(self):
        balances = [0.0] * 69 + [100.0]
        ds = dataset_from_series(series_from_columns("SEC0001", 70, loan_balance=balances))
        rows = score_table(ds, CFG, "ma")
        assert rows[0].excluded
        assert rows[0].reason == "zero_loan_balance"
        assert rows[0].score_three is not None

    def test_dtc_worked_example(self):
        ds = dataset_from_series(
            series_from_columns("SEC0001", 70, short_interest=2e6, volume=1e6)
        )
        rows = score_table(ds, CFG, "last_day")
        assert rows[0].factors is not None
        assert rows[0].factors.dtc == 2.0

    def test_flavor_changes_ranking_on_crossing_rates(self):
        # rates that cross mid-sample flip the first-day vs last-day order
        n = 70
        rising = [0.02 + 0.001 * t for t in range(n)]
        falling = [0.09 - 0.001 * t for t in range(n)]
        ds = dataset_from_series(
            series_from_columns("SEC0001", n, loan_rate=rising),
            series_from_columns("SEC0002", n, loan_rate=falling),
            series_from_columns("SEC0003", n, loan_rate=0.05),
        )
        first = score_table(ds, CFG, "first_day")
        last = score_table(ds, CFG, "last_day")
        order_first = [r.security_id for r in sorted(first, key=lambda r: -r.score_one)]
        order_last = [r.security_id for r in sorted(last, key=lambda r: -r.score_one)]
        assert kendall_tau(order_first, order_last) < 1.0

    def test_constant_series_same_rows_across_flavors(self):
        ds = dataset_from_series(series_from_columns("SEC0001", 70))
        snapshots = []
        for flavor in FLAVORS:
            row = score_table(ds, CFG, flavor)[0]
            assert row.factors is not None
            assert row.factors.sigma_lr == 0.0  # sentinel territory
            snapshots.append(
                (
                    row.factors,
                    row.score_one,
                    row.score_two,
                    row.score_three,
                    row.score_four,
                )
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_lbg_lag_clamps_to_series_start(self):
        balances = [2.0] + [1.0] * 68 + [3.0]
        ds = dataset_from_series(series_from_columns("SEC0001", 70, loan_balance=balances))
        rows = score_table(ds, ScoreConfig(lbg_lag=100), "last_day")
        assert rows[0].factors is not None
        assert rows[0].factors.lbg == pytest.approx(3.0 / 2.0)

    def test_first_day_lbg_is_unity(self):
        balances = [2.0] + [5.0] * 69
        ds = dataset_from_series(series_from_columns("SEC0001", 70, loan_balance=balances))
        rows = score_table(ds, CFG, "first_day")
        assert rows[0].factors is not None
        assert rows[0].factors.lbg == 1.0

    def test_usd_views_use_as_of_price(self):
        ds = dataset_from_series(
            series_from_columns("SEC0001", 70, price=40.0, short_interest=1e6, availability=1e4)
        )
        row = score_table(ds, CFG, "last_day")[0]
        assert row.factors is not None
        assert row.factors.si_usd == pytest.approx(4e7)
        assert row.factors.la_usd == pytest.approx(4e5)


class TestScoreCsv:
    def test_round_trip(self, tmp_path, tiny_dataset):
        rows = score_table(tiny_dataset, CFG, "ma")
        path = write_score_csv(rows, tmp_path / "scores_ma.csv")
        assert read_score_csv(path, "ma") == rows

    def test_round_trip_with_sentinels_and_exclusions(self, tmp_path):
        ds = dataset_from_series(
            series_from_columns("SEC0001", 70),  # constant rate -> inf sentinel
            series_from_columns("SEC0002", 70, availability=0.0),
        )
        rows = score_table(ds, CFG, "ma")
        assert rows[0].score_one == math.inf
        path = write_score_csv(rows, tmp_path / "scores.csv")
        back = read_score_csv(path, "ma")
        assert back[0].score_one == math.inf
        assert back[1].excluded and back[1].reason == "zero_availability"
        assert back[1].factors is not None
        assert back[1].factors.ma_la == 0.0

    def test_deterministic_bytes(self, tmp_path, tiny_dataset):
        rows = score_table(tiny_dataset, CFG, "ma")
        a = write_score_csv(rows, tmp_path / "a.csv")
        b = write_score_csv(rows, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("column", ["availability", "short_interest", "rate_volatility"])
    def test_scored_row_missing_factor_cell_names_line(self, tmp_path, tiny_dataset, column):
        path = write_score_csv(score_table(tiny_dataset, CFG, "ma"), tmp_path / "scores_ma.csv")
        header, *lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[header.split(",").index(column)] = ""
        lines[1] = ",".join(cells)
        path.write_text("\n".join([header] + lines) + "\n")
        with pytest.raises(SchemaError, match=rf"scores_ma\.csv: row 3: .*{column}"):
            read_score_csv(path, "ma")


class TestConfigValidation:
    def test_window_minimums(self):
        with pytest.raises(ValueError):
            ScoreConfig(ma_window=1)
        with pytest.raises(ValueError):
            ScoreConfig(vol_window=0)

    def test_rate_source_validated(self):
        with pytest.raises(ValueError):
            ScoreConfig(rate_source="mid_rate")

    def test_alt_rate_source_used(self):
        series = series_from_columns("SEC0001", 70, loan_rate=0.05)
        cfg = ScoreConfig(rate_source="alt_loan_rate")
        e_lr, _ = rate_stats(series, cfg, series.dates[-1], "last_day")
        assert e_lr == pytest.approx(0.06)  # builder sets alt = 1.2 * loan
