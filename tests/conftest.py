"""Shared builders for hand-crafted rows, series, and datasets."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from shortbasket.datastore import VARIABLES, LendingDataset, SecurityProfile, SecuritySeries
from shortbasket.scoring import DerivedFactors, ShortScoreRow
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


def make_row(security_id: str = "SEC0001", **overrides) -> ShortScoreRow:
    factors = overrides.pop("factors", None) or make_factors(**overrides.pop("factor_overrides", {}))
    base = dict(
        date=START,
        security_id=security_id,
        flavor="ma",
        price=100.0,
        volume_view=300_000.0,
        loan_rate=0.05,
        alt_loan_rate=0.06,
        loan_balance_start=1_000_000.0,
        loan_balance_end=1_500_000.0,
        score_one=3.0,
        score_two=120.0,
        score_three=720.0,
        score_four=1080.0,
        factors=factors,
        excluded=False,
        reason=None,
    )
    base.update(overrides)
    return ShortScoreRow(**base)


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
