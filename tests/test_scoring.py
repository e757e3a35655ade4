"""Factor derivation and the four short-score formulas."""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from shortbasket.errors import (
    EmptySeries,
    InsufficientHistory,
    SchemaError,
)
from shortbasket.scoring import (
    FLAVORS,
    SCORE_CSV_COLUMNS,
    ScoreConfig,
    moving_average,
    rate_stats,
    read_score_csv,
    score_four,
    score_one,
    score_table,
    score_three,
    score_two,
    sharpe_like,
    write_score_csv,
)
from shortbasket.screener import FilterConfig, apply_filters, rank

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


class TestScoreTable:
    def test_one_row_per_security_in_id_order(self, tiny_dataset):
        table = score_table(tiny_dataset, CFG, "ma")
        assert table.flavor == "ma"
        assert table.date == tiny_dataset.dates[-1]
        assert [r.security_id for r in table] == ["SEC0001", "SEC0002", "SEC0003"]
        assert all(not r.excluded for r in table)

    def test_single_day_dataset_all_excluded(self):
        ds = dataset_from_series(series_from_columns("SEC0001", 1))
        [row] = score_table(ds, CFG, "ma")
        assert row.excluded
        assert row.reason is not None and "insufficient_history" in row.reason
        assert row.score_one is None

    def test_zero_availability_flagged(self):
        ds = dataset_from_series(series_from_columns("SEC0001", 70, availability=0.0))
        [row] = score_table(ds, CFG, "ma")
        assert row.excluded
        assert row.reason == "zero_availability"
        assert row.score_one is not None
        assert row.score_two is None

    def test_zero_volume_flagged(self):
        ds = dataset_from_series(series_from_columns("SEC0001", 70, volume=0.0))
        [row] = score_table(ds, CFG, "ma")
        assert row.excluded
        assert row.reason == "zero_adv"

    def test_zero_loan_balance_flagged(self):
        balances = [0.0] * 69 + [100.0]
        ds = dataset_from_series(series_from_columns("SEC0001", 70, loan_balance=balances))
        [row] = score_table(ds, CFG, "ma")
        assert row.excluded
        assert row.reason == "zero_loan_balance"
        assert row.score_three is not None

    def test_riskless_premium_times_zero_short_interest_is_excluded(self):
        # a constant rate above rf gives score one +inf, and zero short
        # interest multiplies it by 0: the NaN scores must not reach a
        # ranking, even under filters that keep every row
        ds = dataset_from_series(
            series_from_columns("A", 70, loan_rate=0.05, short_interest=0.0),
            series_from_columns("B", 70, loan_rate=[0.04, 0.06] * 35),
        )
        table = score_table(ds, CFG, "last_day")
        a, b = table
        assert a.score_one == math.inf and math.isnan(a.score_two) and math.isnan(a.score_four)
        assert a.excluded and a.reason == "undefined_score"
        assert not b.excluded
        kept, excluded = apply_filters(table, ds.profiles, FilterConfig.permissive())
        assert [(e.security_id, e.reason) for e in excluded] == [("A", "undefined_score")]
        assert [r.security_id for r in rank(kept, "four")] == ["B"]

    def test_dtc_worked_example(self):
        ds = dataset_from_series(
            series_from_columns("SEC0001", 70, short_interest=2e6, volume=1e6)
        )
        [row] = score_table(ds, CFG, "last_day")
        assert row.dtc == 2.0

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
            [row] = score_table(ds, CFG, flavor)
            assert row.rate_volatility == 0.0  # sentinel territory
            snapshots.append(row[2:])  # every column but the date and the id
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_lbg_lag_clamps_to_series_start(self):
        balances = [2.0] + [1.0] * 68 + [3.0]
        ds = dataset_from_series(series_from_columns("SEC0001", 70, loan_balance=balances))
        [row] = score_table(ds, ScoreConfig(lbg_lag=100), "last_day")
        assert row.lbg == pytest.approx(3.0 / 2.0)

    def test_first_day_lbg_is_unity(self):
        balances = [2.0] + [5.0] * 69
        ds = dataset_from_series(series_from_columns("SEC0001", 70, loan_balance=balances))
        [row] = score_table(ds, CFG, "first_day")
        assert row.lbg == 1.0

    def test_usd_views_use_as_of_price(self):
        # 1e6 shares short and 1e4 available at the last day's price of 40:
        # 4e7 USD of short interest and 4e5 USD of availability
        prices = [10.0] * 69 + [40.0]
        ds = dataset_from_series(
            series_from_columns("SEC0001", 70, price=prices, short_interest=1e6, availability=1e4)
        )
        table = score_table(ds, CFG, "last_day")
        permissive = FilterConfig.permissive()
        for name, at, beyond in (("min_si_usd", 4e7, 4.0001e7), ("max_la_usd", 4e5, 3.9999e5)):
            kept, _ = apply_filters(table, ds.profiles, replace(permissive, **{name: at}))
            assert len(kept) == 1, name
            _, excluded = apply_filters(table, ds.profiles, replace(permissive, **{name: beyond}))
            assert [e.reason for e in excluded] == [name]


class TestScoreCsv:
    def test_round_trip(self, tmp_path, tiny_dataset):
        table = score_table(tiny_dataset, CFG, "ma")
        path = write_score_csv(table, tmp_path / "scores_ma.csv")
        assert read_score_csv(path, "ma") == table

    def test_round_trip_with_sentinels_and_exclusions(self, tmp_path):
        ds = dataset_from_series(
            series_from_columns("SEC0001", 70),  # constant rate -> inf sentinel
            series_from_columns("SEC0002", 70, availability=0.0),
            series_from_columns("SEC0003", 70, short_interest=0.0),  # inf * 0 -> nan scores
        )
        table = score_table(ds, CFG, "ma")
        assert next(iter(table)).score_one == math.inf
        path = write_score_csv(table, tmp_path / "scores.csv")
        back = read_score_csv(path, "ma")
        assert back == table
        first, second, third = back
        assert first.score_one == math.inf
        assert second.excluded and second.reason == "zero_availability"
        assert second.availability == 0.0 and second.score_two is None
        assert third.reason == "undefined_score" and math.isnan(third.score_two)
        # an empty cell is a score the row lacks; "nan" is a computed NaN
        lines = path.read_text().splitlines()
        column = SCORE_CSV_COLUMNS.index("score_two")
        assert [line.split(",")[column] for line in lines[2:]] == ["", "nan"]

    def test_deterministic_bytes(self, tmp_path, tiny_dataset):
        table = score_table(tiny_dataset, CFG, "ma")
        a = write_score_csv(table, tmp_path / "a.csv")
        b = write_score_csv(table, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_ids_and_reasons_are_quoted_as_csv_writer_quotes_them(self, tmp_path):
        ds = dataset_from_series(
            series_from_columns('A "quoted", id', 1), series_from_columns("B,1", 1)
        )
        table = score_table(ds, CFG, "ma")
        path = write_score_csv(table, tmp_path / "scores.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[1] for r in rows] == ['A "quoted", id', "B,1"]
        assert [r[SCORE_CSV_COLUMNS.index("reason")] for r in rows] == [r.reason for r in table]
        assert read_score_csv(path, "ma") == table

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

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda cells: cells.__setitem__(0, "2021-01-05"), SchemaError, "row 3: a score table has one as-of date"),
            (lambda cells: cells.__setitem__(2, ""), SchemaError, "row 3: column 'price' is empty"),
            (lambda cells: cells.__setitem__(SCORE_CSV_COLUMNS.index("score_four"), "x"), ValueError,
             "row 3: column 'score_four' is not numeric: 'x'"),
            (lambda cells: cells.append("1.0"), SchemaError, "row 3: wrong number of fields"),
        ],
        ids=["mixed_dates", "empty_price", "bad_number", "extra_field"],
    )
    def test_malformed_rows_name_their_line(self, tmp_path, tiny_dataset, edit, error, message):
        path = write_score_csv(score_table(tiny_dataset, CFG, "ma"), tmp_path / "scores_ma.csv")
        header, *lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        edit(cells)
        lines[1] = ",".join(cells)
        path.write_text("\n".join([header] + lines) + "\n")
        with pytest.raises(error, match=message):
            read_score_csv(path, "ma")

    @pytest.mark.parametrize("spelling", ["-0", "5", "-0.0", "1e400", " 2.5", "1_0", ".5", "+1", "1E5", "NaN", "-inf"])
    def test_cells_read_as_float_reads_them(self, tmp_path, spelling):
        # columns are parsed in one JSON call where they can be; a cell JSON
        # reads otherwise ("-0" is the int 0 there) must keep float()'s meaning
        ds = dataset_from_series(
            *(series_from_columns(f"SEC000{i}", 70, loan_rate=[0.04, 0.05 + i / 100] * 35) for i in range(3))
        )
        table = score_table(ds, CFG, "ma")
        assert np.isfinite(table.values).all()  # every column takes the one-call path
        path = write_score_csv(table, tmp_path / "scores_ma.csv")
        header, *lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[SCORE_CSV_COLUMNS.index("score_four")] = spelling
        lines[1] = ",".join(cells)
        path.write_text("\n".join([header] + lines) + "\n")
        got = read_score_csv(path, "ma").column("score_four")[1]
        assert repr(float(got)) == repr(float(spelling))

    def test_header_only_file_reads_as_an_empty_table(self, tmp_path):
        path = tmp_path / "scores_ma.csv"
        path.write_text(",".join(SCORE_CSV_COLUMNS) + "\n")
        table = read_score_csv(path, "ma")
        assert len(table) == 0 and table.date is None
        assert write_score_csv(table, tmp_path / "again.csv").read_bytes() == path.read_bytes()


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
