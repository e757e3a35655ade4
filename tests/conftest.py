"""Shared builders for hand-crafted rows, tables, series, and datasets."""

from __future__ import annotations

import csv
import datetime as dt
import io

import numpy as np
import pytest

from shortbasket.datastore import VARIABLES, LendingDataset, SecurityProfile, SecuritySeries
from shortbasket.scoring import SCORE_CSV_COLUMNS, SCORE_VALUE_COLUMNS, DerivedFactors, ScoreTable
from shortbasket.simulate import trading_dates

START = dt.date(2021, 1, 4)


def make_factors(**overrides) -> DerivedFactors:
    base = dict(
        e_lr=0.05,
        sigma_lr=0.01,
        dtc=6.0,
        lbg=1.5,
        ma_si=2_000_000.0,
        ma_la=50_000.0,
        si_usd=200_000_000.0,
        la_usd=5_000_000.0,
        adv=300_000.0,
    )
    base.update(overrides)
    return DerivedFactors(**base)


# A row that clears every default filter at price 100: si_usd 2e8, rate
# 5%, dtc 6, lbg 1.5, la_usd 5e6, adv_usd 3e7; make_profile adds rating
# 4.5 and beta 1.8.
ROW_DEFAULTS = dict(
    price=100.0,
    availability=50_000.0,
    short_interest=2_000_000.0,
    volume=300_000.0,
    loan_rate=0.05,
    alt_loan_rate=0.06,
    rate_volatility=0.01,
    loan_balance_start=1_000_000.0,
    loan_balance_end=1_500_000.0,
    score_one=3.0,
    score_two=120.0,
    score_three=720.0,
    score_four=1080.0,
    e_lr=0.05,
    dtc=6.0,
    lbg=1.5,
    adv=300_000.0,
)


def make_row(security_id: str = "SEC0001", **overrides) -> dict:
    """One score-table row as column values; None leaves a cell empty."""
    row = dict(ROW_DEFAULTS, security_id=security_id, excluded=False, reason=None)
    row.update(overrides)
    return row


def make_table(*rows: dict, flavor: str = "ma") -> ScoreTable:
    """A score table dated START holding the given rows, in that order."""
    shape = (len(SCORE_VALUE_COLUMNS), len(rows))
    cells = [row[name] for name in SCORE_VALUE_COLUMNS for row in rows]
    return ScoreTable(
        date=START if rows else None,
        flavor=flavor,
        security_ids=tuple(row["security_id"] for row in rows),
        values=np.array([np.nan if c is None else c for c in cells], dtype=float).reshape(shape),
        missing=np.array([c is None for c in cells], dtype=bool).reshape(shape),
        excluded=np.array([row["excluded"] for row in rows], dtype=bool),
        reasons=np.array([row["reason"] or "" for row in rows], dtype=object).reshape(len(rows)),
    )


def score_csv_oracle_bytes(rows: list[dict]) -> bytes:
    """Rows of column values (None for an empty cell) as the score-table CSV: one csv.writer row and one repr() per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_CSV_COLUMNS)
    for row in rows:
        cells = []
        for name in SCORE_CSV_COLUMNS:
            value = row[name]
            if name == "date":
                cells.append(value.isoformat())
            elif name == "excluded":
                cells.append("true" if value else "false")
            elif name in ("security_id", "reason"):
                cells.append(value or "")
            else:
                cells.append("" if value is None else repr(float(value)))
        writer.writerow(cells)
    return buf.getvalue().encode()


def make_profile(security_id: str = "SEC0001", **overrides) -> SecurityProfile:
    base = dict(security_id=security_id, market="JP", buy_rating=4.5, beta=1.8)
    base.update(overrides)
    return SecurityProfile(**base)


def series_from_columns(
    security_id: str,
    n_days: int,
    *,
    price=100.0,
    availability=50_000.0,
    short_interest=2_000_000.0,
    volume=300_000.0,
    loan_balance=1_000_000.0,
    loan_rate=0.05,
    alt_loan_rate=None,
) -> SecuritySeries:
    """One security's series, from scalars or per-day sequences.

    The alternate rate defaults to 1.2 times the loan rate. The series
    is a view of a one-security dataset with a default profile.
    """
    given = dict(
        price=price,
        availability=availability,
        short_interest=short_interest,
        volume=volume,
        loan_balance=loan_balance,
        loan_rate=loan_rate,
        alt_loan_rate=np.multiply(loan_rate, 1.2) if alt_loan_rate is None else alt_loan_rate,
    )
    rows = np.empty((len(VARIABLES), n_days))
    for v, name in enumerate(VARIABLES):
        rows[v] = given[name]
    dataset = LendingDataset(
        dates=tuple(trading_dates(START, n_days)),
        security_ids=(security_id,),
        values=rows[:, np.newaxis, :],
        profiles=(make_profile(security_id),),
    )
    return dataset.series[0]


def dataset_from_series(*series: SecuritySeries, profiles=None) -> LendingDataset:
    """Stack series that share one calendar, in id order, into a dataset."""
    if profiles is None:
        profiles = [make_profile(s.security_id) for s in series]
    return LendingDataset(
        dates=series[0].dates,
        security_ids=tuple(s.security_id for s in series),
        values=np.stack([[s.column(name) for name in VARIABLES] for s in series], axis=1),
        profiles=tuple(profiles),
    )


@pytest.fixture
def tiny_dataset() -> LendingDataset:
    """Three constant-ish securities over 70 trading days."""
    return dataset_from_series(
        series_from_columns("SEC0001", 70, loan_rate=0.05),
        series_from_columns("SEC0002", 70, loan_rate=0.03, price=50.0),
        series_from_columns("SEC0003", 70, loan_rate=0.08, short_interest=4_000_000.0),
    )
