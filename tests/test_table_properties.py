"""Properties of the columnar score table: the screen, the ranking and the CSV round trip.

The mask-based screen and the lexsort ranking are checked against the
per-row code they replaced, kept here as oracles: ``first_failure``
walks the filters in ``FILTER_ORDER`` one row at a time, and
``oracle_rank`` sorts row indices by ``(-sign, -score, id)``. Tables are
drawn with NaN factors, infinite and tied scores, signed zeros, missing
profiles and empty cells.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shortbasket.datastore import SecurityProfile
from shortbasket.errors import EmptyAfterFilters
from shortbasket.scoring import (
    SCORE_SELECTORS,
    SCORE_VALUE_COLUMNS,
    ScoreTable,
    read_score_csv,
    write_score_csv,
)
from shortbasket.screener import (
    FILTER_ORDER,
    REASON_MANUAL,
    REASON_MISSING_PROFILE,
    FilterConfig,
    apply_filters,
    rank,
)

from conftest import START, score_csv_oracle_bytes

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

REQUIRED = ("price", "volume", "loan_rate", "alt_loan_rate", "loan_balance_start", "loan_balance_end")

# Values that sit on the edges the code must get right: signed zeros,
# infinities, NaN, and both sides of the magnitudes where orjson's text
# stops equalling repr()'s.
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
         5e-324, 1.7976931348623157e308, 1.0, -1.0, 3.0]

values = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True))
ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=6)


@st.composite
def tables(draw, cells=values, blank=st.booleans(), unique_ids: bool = True, max_rows: int = 7) -> ScoreTable:
    n = draw(st.integers(0, max_rows))
    row_ids = draw(st.lists(ids, min_size=n, max_size=n, unique=unique_ids))
    grid = np.array([[draw(cells) for _ in range(n)] for _ in SCORE_VALUE_COLUMNS], dtype=float)
    grid = grid.reshape(len(SCORE_VALUE_COLUMNS), n)
    missing = np.array(
        [[name not in REQUIRED and draw(blank) for _ in range(n)] for name in SCORE_VALUE_COLUMNS], dtype=bool
    ).reshape(grid.shape)
    # the file format requires the factor levels of a row that has e_lr
    scored = ~missing[SCORE_VALUE_COLUMNS.index("e_lr")]
    for name in ("availability", "short_interest", "rate_volatility"):
        missing[SCORE_VALUE_COLUMNS.index(name)] &= ~scored
    grid[missing] = np.nan
    excluded = np.array([draw(st.booleans()) for _ in range(n)], dtype=bool)
    reasons = [draw(st.sampled_from(["", "zero_adv", 'a, "quoted"\nreason'])) if x else "" for x in excluded]
    return ScoreTable(
        date=START if n else None,
        flavor=draw(st.sampled_from(["ma", "first_day", "last_day"])),
        security_ids=tuple(row_ids),
        values=grid,
        missing=missing,
        excluded=excluded,
        reasons=np.array(reasons, dtype=object).reshape(n),
    )


# --- the screen ---------------------------------------------------------------


def first_failure(row, profile: SecurityProfile, cfg: FilterConfig) -> str | None:
    """The per-row screen: the first filter in FILTER_ORDER the row does not pass."""
    def level(value):  # an empty cell reads as NaN
        return math.nan if value is None else value

    scale = cfg.market_scale.get(profile.market, 1.0)
    checks = (
        level(row.short_interest) * row.price >= cfg.min_si_usd / scale,
        row.loan_rate >= cfg.min_loan_rate,
        level(row.dtc) >= cfg.min_dtc,
        level(row.lbg) >= cfg.min_lbg,
        level(row.availability) * row.price <= cfg.max_la_usd / scale,
        level(row.adv) * row.price >= cfg.min_adv_usd / scale,
        profile.buy_rating >= cfg.min_buy_rating,
        profile.beta >= cfg.min_beta,
    )
    for name, passes in zip(FILTER_ORDER, checks):
        if not passes:
            return name
    return None


def oracle_filters(table: ScoreTable, profiles: dict, cfg: FilterConfig) -> tuple[list[str], list[tuple[str, str]]]:
    kept, excluded = [], []
    for row in table:
        if row.excluded:
            excluded.append((row.security_id, row.reason or "excluded"))
        elif row.security_id in cfg.exclusions:
            excluded.append((row.security_id, REASON_MANUAL))
        elif row.security_id not in profiles:
            excluded.append((row.security_id, REASON_MISSING_PROFILE))
        elif (failed := first_failure(row, profiles[row.security_id], cfg)) is not None:
            excluded.append((row.security_id, failed))
        else:
            kept.append(row.security_id)
    return kept, excluded


# Factor values around the default thresholds, so that every filter both
# passes and fails, with NaN and the infinities among them.
screen_values = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1.25, 4.0, 0.015, 1e5, 2.5e5, 1e6]),
    st.floats(0.0, 3e6),
)


@st.composite
def screens(draw) -> tuple[ScoreTable, dict, FilterConfig]:
    table = draw(tables(cells=screen_values))
    markets = ("JP", "TW", "HK")
    profiles = {
        sid: SecurityProfile(sid, draw(st.sampled_from(markets)), draw(st.floats(1.0, 5.0)), draw(st.floats(-1, 3)))
        for sid in table.security_ids
        if draw(st.integers(0, 5))  # one in six has no profile
    }
    cfg = draw(st.sampled_from([FilterConfig(), FilterConfig.permissive()]))
    scale = draw(st.dictionaries(st.sampled_from(markets), st.sampled_from([0.5, 2.0, 3.0])))
    exclusions = frozenset(draw(st.lists(st.sampled_from(table.security_ids), max_size=2))) if len(table) else frozenset()
    return table, profiles, replace(cfg, market_scale=scale, exclusions=exclusions)


@SETTINGS
@given(screens(), st.booleans())
def test_mask_screen_matches_per_row_first_failure(screen, as_mapping):
    table, profiles, cfg = screen
    kept, excluded = apply_filters(table, profiles if as_mapping else list(profiles.values()), cfg)
    want_kept, want_excluded = oracle_filters(table, profiles, cfg)
    assert [r.security_id for r in kept] == want_kept
    assert [tuple(e) for e in excluded] == want_excluded
    assert all(type(e.reason) is str for e in excluded)
    # the kept rows are the input's rows, unchanged, and screening them again keeps them all
    by_id = {r.security_id: r for r in table}
    assert [repr(r) for r in kept] == [repr(by_id[sid]) for sid in want_kept]
    again, none = apply_filters(kept, profiles, cfg)
    assert again == kept and none == []


# --- the ranking ----------------------------------------------------------------


def oracle_rank(table: ScoreTable, selector: str, pct: float) -> list[tuple[str, int, float]]:
    """The per-row ranking: sort by (-premium sign, -score, id), drop ceil(K * pct / 100)."""
    rows = list(table)
    keys = []
    for row in rows:
        value = getattr(row, f"score_{selector}")
        if value is None or math.isnan(value):
            raise ValueError(f"{row.security_id}: score_{selector} is not rankable")
        s1 = row.score_one
        keys.append((1 if s1 is not None and s1 > 0 else -1 if s1 is not None and s1 < 0 else 0, value))
    order = sorted(range(len(rows)), key=lambda i: (-keys[i][0], -keys[i][1], rows[i].security_id))
    n_drop = math.ceil(len(order) * pct / 100.0)
    return [(rows[i].security_id, *keys[i]) for i in order[: len(order) - n_drop]]


# A few distinct scores, so that ties are common, and few empty cells, so
# that most tables rank; NaN is put in by the test.
rank_values = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.5]), st.floats(allow_nan=False))


@SETTINGS
@given(
    tables(cells=rank_values, blank=st.integers(0, 19).map(lambda k: k == 0), unique_ids=False, max_rows=12),
    st.sampled_from(SCORE_SELECTORS),
    st.sampled_from([0.0, 10.0, 20.0, 50.0, 99.0]),
    st.booleans(),
)
def test_lexsort_ranking_matches_sorted(table, selector, pct, with_nan):
    if with_nan and len(table):
        # one unrankable score: both must refuse, naming the same row
        values = table.values.copy()
        values[SCORE_VALUE_COLUMNS.index(f"score_{selector}"), len(table) // 2] = math.nan
        table = ScoreTable(table.date, table.flavor, table.security_ids, values, table.missing.copy(),
                           table.excluded.copy(), table.reasons.copy())
    try:
        want = oracle_rank(table, selector, pct)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            rank(table, selector, pct)
        assert str(refused.value) == str(exc)
        return
    if not len(table):
        with pytest.raises(EmptyAfterFilters):
            rank(table, selector, pct)
        return
    ranking = rank(table, selector, pct)
    got = [(r.security_id, *r.rank_key) for r in ranking]
    # repr tells -0.0 from 0.0 and gives the types away
    assert repr(got) == repr(want)
    assert [r.rank for r in ranking] == list(range(1, len(want) + 1))


# --- the CSV round trip -------------------------------------------------------------


def csv_bytes(table: ScoreTable, tmp: Path) -> bytes:
    return write_score_csv(table, tmp / "scores.csv").read_bytes()


@SETTINGS
@given(tables())
def test_score_table_survives_the_csv_round_trip(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_score_csv(table, Path(tmp) / "scores.csv")
        written = path.read_bytes()
        back = read_score_csv(path, table.flavor)
    # the bytes are those of one csv.writer row and one repr() per cell
    assert written == score_csv_oracle_bytes([row._asdict() for row in table])
    assert back == table
    # equal under equal_nan, and with the same signed zeros and empty cells
    assert np.array_equal(np.signbit(back.values), np.signbit(table.values) & ~np.isnan(table.values))
    assert np.array_equal(back.missing, table.missing)
    assert [repr(r) for r in back] == [repr(r) for r in table]
