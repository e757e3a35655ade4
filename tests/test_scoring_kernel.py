"""The cross-section scoring kernel against the per-row oracle.

``score_table`` computes a flavor for every security of a dataset in one
numpy pass. The oracle below is the per-security path it replaced: one
Python row at a time, every window sum a ``math.fsum`` and every squared
deviation a Python ``**``, written one ``csv.writer`` row and one
``repr()`` per cell. The two must give the same score-table bytes.
"""

from __future__ import annotations

import datetime as dt
import math
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shortbasket.datastore import VARIABLES, LendingDataset, SecurityProfile, SecuritySeries
from shortbasket.errors import InsufficientHistory
from shortbasket.scoring import (
    ADV_WINDOW,
    FLAVORS,
    REASON_INSUFFICIENT_HISTORY,
    REASON_UNDEFINED_SCORE,
    REASON_ZERO_ADV,
    REASON_ZERO_AVAILABILITY,
    REASON_ZERO_LOAN_BALANCE,
    SCORE_CSV_COLUMNS,
    DerivedFactors,
    ScoreConfig,
    ScoreTable,
    moving_average,
    rate_stats,
    score_four,
    score_one,
    score_table,
    score_three,
    score_two,
    write_score_csv,
)

from conftest import dataset_from_series, score_csv_oracle_bytes, series_from_columns

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- the per-row oracle ------------------------------------------------------


def oracle_moving_average(series: Sequence[float], window: int) -> float:
    tail = series[-min(window, len(series)) :]
    return math.fsum(tail) / len(tail)


def oracle_sample_std(values: Sequence[float]) -> float:
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))


def oracle_rate_stats(series: SecuritySeries, cfg: ScoreConfig, idx: int, flavor: str) -> tuple[float, float]:
    rates = series.column(cfg.rate_source).tolist()
    if flavor == "first_day":
        window_vals = rates[idx : idx + cfg.vol_window]
    else:
        window_vals = rates[max(0, idx + 1 - cfg.vol_window) : idx + 1]
    if len(window_vals) < 2:
        raise InsufficientHistory(
            f"{series.security_id}: need >= 2 observations in the volatility window, "
            f"have {len(window_vals)}"
        )
    sigma_lr = oracle_sample_std(window_vals)
    if flavor == "ma":
        e_lr = oracle_moving_average(rates[: idx + 1], cfg.ma_window)
    else:
        e_lr = rates[idx]
    return e_lr, sigma_lr


def oracle_level(values: Sequence[float], idx: int, flavor: str, window: int) -> float:
    if flavor == "ma":
        return oracle_moving_average(values[: idx + 1], window)
    return values[idx]


def oracle_row(series: SecuritySeries, cfg: ScoreConfig, flavor: str) -> dict:
    """The security's score-table row as column values; None marks an empty cell."""
    n = len(series)
    idx = 0 if flavor == "first_day" else n - 1
    price = float(series.column("price")[idx])
    si = series.column("short_interest").tolist()
    la = series.column("availability").tolist()
    volume = series.column("volume").tolist()
    balance = series.column("loan_balance").tolist()
    row = dict(
        date=series.dates[idx],
        security_id=series.security_id,
        price=price,
        loan_rate=float(series.column("loan_rate")[idx]),
        alt_loan_rate=float(series.column("alt_loan_rate")[idx]),
        loan_balance_start=balance[0],
        loan_balance_end=balance[-1],
    )
    try:
        e_lr, sigma_lr = oracle_rate_stats(series, cfg, idx, flavor)
    except InsufficientHistory as exc:
        unscored = dict.fromkeys(SCORE_CSV_COLUMNS)
        return {**unscored, **row, "volume": volume[idx], "excluded": True,
                "reason": f"{REASON_INSUFFICIENT_HISTORY}: {exc}"}

    si_level = oracle_level(si, idx, flavor, cfg.ma_window)
    la_level = oracle_level(la, idx, flavor, cfg.ma_window)
    volume_view = oracle_level(volume, idx, flavor, cfg.ma_window)
    if flavor == "first_day":
        adv_vals = volume[idx : idx + ADV_WINDOW]
    else:
        adv_vals = volume[max(0, idx + 1 - ADV_WINDOW) : idx + 1]
    adv = math.fsum(adv_vals) / len(adv_vals)
    dtc = si_level / adv if adv > 0 else math.nan
    lag_idx = max(0, idx - cfg.lbg_lag)
    lbg = balance[idx] / balance[lag_idx] if balance[lag_idx] > 0 else math.nan
    factors = DerivedFactors(
        e_lr=e_lr,
        sigma_lr=sigma_lr,
        dtc=dtc,
        lbg=lbg,
        ma_si=si_level,
        ma_la=la_level,
        si_usd=si_level * price,
        la_usd=la_level * price,
        adv=adv,
    )
    scores = [score_one(factors, cfg), score_two(factors, cfg), score_three(factors, cfg), score_four(factors, cfg)]
    reason = None
    if scores[1] is None:
        reason = REASON_ZERO_AVAILABILITY
    elif scores[2] is None:
        reason = REASON_ZERO_ADV
    elif scores[3] is None:
        reason = REASON_ZERO_LOAN_BALANCE
    elif any(math.isnan(s) for s in scores):
        reason = REASON_UNDEFINED_SCORE
    return {
        **row,
        "availability": la_level,
        "short_interest": si_level,
        "volume": volume_view,
        "rate_volatility": sigma_lr,
        **dict(zip(("score_one", "score_two", "score_three", "score_four"), scores)),
        "excluded": reason is not None,
        "reason": reason,
        "e_lr": e_lr,
        "dtc": dtc,
        "lbg": lbg,
        "adv": adv,
    }


def oracle_table(dataset: LendingDataset, cfg: ScoreConfig, flavor: str) -> list[dict]:
    return [oracle_row(series, cfg, flavor) for series in dataset.series]


# --- random panels -------------------------------------------------------------

# How one security's series of one variable is drawn. Prices are never
# zero; "rf" is a constant rate equal to the threshold, for the
# zero-premium sentinel, and zero for the other variables.
KINDS = ("random", "wide", "constant", "zero", "rf")


@st.composite
def panels(draw) -> LendingDataset:
    n_securities = draw(st.integers(1, 4))
    n_days = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.empty((len(VARIABLES), n_securities, n_days))
    for v, name in enumerate(VARIABLES):
        for i in range(n_securities):
            kind = draw(st.sampled_from(KINDS))
            if name == "price" and kind in ("zero", "rf"):
                kind = "random"
            is_rate = name.endswith("loan_rate")
            scale = 0.1 if is_rate else 1e6
            if kind == "random":
                row = rng.uniform(0.0, scale, n_days)
            elif kind == "wide":
                row = rng.lognormal(0.0, 8.0, n_days) * scale
            elif kind == "constant":
                row = np.full(n_days, rng.uniform(0.0, scale))
            elif kind == "zero":
                row = np.zeros(n_days)
            else:
                row = np.full(n_days, 0.02 if is_rate else 0.0)
            if name == "price":
                row = row + 0.01
            values[v, i] = row
    loan, alt = VARIABLES.index("loan_rate"), VARIABLES.index("alt_loan_rate")
    values[alt] = np.maximum(values[alt], values[loan])
    ids = tuple(f"SEC{i:04d}" for i in range(n_securities))
    return LendingDataset(
        dates=tuple(dt.date(2021, 1, 4) + dt.timedelta(days=t) for t in range(n_days)),
        security_ids=ids,
        values=values,
        profiles=tuple(SecurityProfile(s, "JP", 3.0, 1.0) for s in ids),
    )


@st.composite
def score_configs(draw, n_days: int) -> ScoreConfig:
    window = st.integers(2, n_days + 5)
    return ScoreConfig(
        rf=0.02,
        ma_window=draw(window),
        vol_window=draw(window),
        lbg_lag=draw(window),
        rate_source=draw(st.sampled_from(["loan_rate", "alt_loan_rate"])),
    )


def table_bytes(table: ScoreTable) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return write_score_csv(table, Path(tmp) / "scores.csv").read_bytes()


def assert_python_values(table: ScoreTable) -> None:
    for row in table:
        for name, value in row._asdict().items():
            if name not in ("date", "security_id", "excluded", "reason"):
                assert value is None or type(value) is float, (name, type(value))
        assert type(row.excluded) is bool and type(row.security_id) is str


@SETTINGS
@given(st.data())
def test_kernel_bytes_match_per_row_oracle(data):
    dataset = data.draw(panels())
    cfg = data.draw(score_configs(len(dataset.dates)))
    flavor = data.draw(st.sampled_from(FLAVORS))
    got = score_table(dataset, cfg, flavor)
    assert_python_values(got)
    assert table_bytes(got) == score_csv_oracle_bytes(oracle_table(dataset, cfg, flavor))


@SETTINGS
@given(st.data())
def test_panel_forms_match_single_series_forms(data):
    dataset = data.draw(panels())
    cfg = data.draw(score_configs(len(dataset.dates)))
    flavor = data.draw(st.sampled_from(FLAVORS))
    for name in VARIABLES:
        panel = dataset.values[VARIABLES.index(name)]
        assert moving_average(panel, cfg.ma_window).tolist() == [
            moving_average(series.column(name), cfg.ma_window) for series in dataset.series
        ]
    as_of = dataset.dates[0 if flavor == "first_day" else -1]
    try:
        e_lr, sigma_lr = rate_stats(dataset, cfg, as_of, flavor)
    except InsufficientHistory:
        assert len(dataset.dates) == 1
        return
    per_series = [rate_stats(series, cfg, as_of, flavor) for series in dataset.series]
    assert list(zip(e_lr.tolist(), sigma_lr.tolist())) == per_series


def test_sentinels_and_exclusions_match_oracle():
    # constant rates above, at and below rf (score one +inf, 0, -inf);
    # +inf times zero short interest (NaN scores); zero availability,
    # volume and loan balance
    ramp = np.linspace(0.01, 0.05, 30)
    dataset = dataset_from_series(
        series_from_columns("A", 30, loan_rate=0.05),
        series_from_columns("B", 30, loan_rate=0.02),
        series_from_columns("C", 30, loan_rate=0.0),
        series_from_columns("D", 30, loan_rate=0.05, short_interest=0.0),
        series_from_columns("E", 30, loan_rate=ramp, availability=0.0),
        series_from_columns("F", 30, loan_rate=ramp, volume=0.0),
        series_from_columns("G", 30, loan_rate=ramp, loan_balance=0.0),
    )
    cfg = ScoreConfig(ma_window=10, vol_window=10, lbg_lag=5)
    for flavor in FLAVORS:
        got = score_table(dataset, cfg, flavor)
        assert table_bytes(got) == score_csv_oracle_bytes(oracle_table(dataset, cfg, flavor))
        by_id = {r.security_id: r for r in got}
        assert by_id["A"].score_one == math.inf
        assert by_id["B"].score_one == 0.0
        assert by_id["C"].score_one == -math.inf
        assert math.isnan(by_id["D"].score_two)
        assert [by_id[s].reason for s in "DEFG"] == [
            REASON_UNDEFINED_SCORE, REASON_ZERO_AVAILABILITY, REASON_ZERO_ADV, REASON_ZERO_LOAN_BALANCE
        ]
        assert [by_id[s].excluded for s in "ABCDEFG"] == [False] * 3 + [True] * 4


def test_rate_volatility_squares_with_python_pow():
    # With glibc's pow, (v - mean) ** 2 and (v - mean) * (v - mean) give
    # sample deviations one unit in the last place apart for these rates.
    rates = [0.0297, 0.0553, 0.096, 0.0379, 0.0369]
    dataset = dataset_from_series(series_from_columns("SEC0001", len(rates), loan_rate=rates))
    cfg = ScoreConfig(ma_window=5, vol_window=5, lbg_lag=5)
    for flavor in FLAVORS:
        table = score_table(dataset, cfg, flavor)
        [row] = table
        assert row.rate_volatility == oracle_sample_std(rates)
        assert table_bytes(table) == score_csv_oracle_bytes(oracle_table(dataset, cfg, flavor))


def test_single_day_excludes_every_row_with_its_own_reason():
    dataset = dataset_from_series(series_from_columns("AAA", 1), series_from_columns("BBB", 1))
    for flavor in FLAVORS:
        got = score_table(dataset, ScoreConfig(), flavor)
        assert table_bytes(got) == score_csv_oracle_bytes(oracle_table(dataset, ScoreConfig(), flavor))
        assert [r.reason for r in got] == [
            f"{REASON_INSUFFICIENT_HISTORY}: {s}: need >= 2 observations in the volatility window, have 1"
            for s in ("AAA", "BBB")
        ]


def test_empty_dataset_scores_no_rows():
    dataset = LendingDataset(dates=(), security_ids=(), values=np.empty((len(VARIABLES), 0, 0)), profiles=())
    table = score_table(dataset, ScoreConfig(), "ma")
    assert len(table) == 0 and list(table) == []
    assert table_bytes(table) == score_csv_oracle_bytes([])
