"""Derived lending factors and the four short-score formulas.

The ranking signal is a Sharpe-style ratio on loan rates rather than on
price returns: expected rate in excess of a threshold, per unit of rate
standard deviation. Three further scores extend it multiplicatively:

    score_one   = (E(rate) - rf) / stdev(rate)
    score_two   = (SI_level / LA_level)      * score_one
    score_three = days_to_cover              * score_two
    score_four  = loan_balance_growth        * score_three

Each table is evaluated under one of three flavors that differ only in
the level view the multipliers use:

* ``ma``        - trailing moving average of SI / availability / volume,
                  and of the rate for the expectation,
* ``first_day`` - raw values on the first day of the sample,
* ``last_day``  - raw values on the last day of the sample.

The rate standard deviation always comes from a full window of rate
levels (trailing for ``ma``/``last_day``; anchored forward from day one
for ``first_day``, which has no earlier history). Days-to-cover divides
the flavor's short-interest level by the 20-day average volume, the same
average the liquidity filter quotes in USD.

Division multipliers with zero denominators never leak infinities into
a table: the row is flagged excluded with a machine-readable reason, and
the scores it lacks are left empty. A zero rate standard deviation, by
contrast, is a legitimate score-one outcome and maps to a signed
infinity sentinel. The reasons, in the order they are checked:

* ``insufficient_history`` - fewer than two rates in the volatility
  window; the row has no factors and no scores,
* ``zero_availability``, ``zero_adv``, ``zero_loan_balance`` - the
  denominator of score two, three or four is zero,
* ``undefined_score`` - a score is NaN, as when an infinite score one
  meets zero short interest (``0 * inf``); the NaN scores are kept.

A table is computed for the whole cross-section at once. Every security
shares the dataset's calendar, so the as-of day and each window are the
same columns of the ``(securities, days)`` panel for every row; the
elementwise arithmetic and the sentinels run in numpy. Each window sum
is exactly rounded, bit for bit what ``math.fsum`` gives for its row:
every row is split error-free around a power of two (the ExtractVector
step of Rump, Ogita and Oishi, "Accurate floating-point summation,
part I", 2008) and its sum is kept where an error bound certifies it,
while the rows the bound cannot settle go through ``math.fsum``. Each
squared deviation is ``np.float_power(d, 2.0)``, the libm ``pow`` of
Python's ``d ** 2.0``. So a security's figures are those of scoring it
alone, whatever panel it sits in. ``moving_average`` and ``rate_stats``
accept a single series or a panel.

The result is a :class:`ScoreTable`: the as-of date, the id tuple and
one float64 array per numeric column of the score-table CSV, with a
mask of the cells left empty, the exclusion flags and reasons. No
per-security object is built; iterating a table yields lightweight
:class:`ScoreRow` tuples of Python values. ``write_score_csv`` and
``read_score_csv`` share the one schema, ``SCORE_CSV_COLUMNS``: the
writer formats the file with ``datastore.csv_text``, the one writer of
the small CSV files, and the reader splits and checks it with
``datastore.read_csv_columns``.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .datastore import (
    VARIABLES,
    LendingDataset,
    SecuritySeries,
    atomic_write_text,
    csv_text,
    parse_date,
    parse_float_column,
    read_csv_columns,
)
from .errors import EmptySeries, InsufficientHistory, SchemaError

FLAVORS = ("ma", "first_day", "last_day")
ADV_WINDOW = 20  # trading days behind every average-daily-volume figure

# Exclusion reasons, in the order they are checked.
REASON_INSUFFICIENT_HISTORY = "insufficient_history"
REASON_ZERO_AVAILABILITY = "zero_availability"
REASON_ZERO_ADV = "zero_adv"
REASON_ZERO_LOAN_BALANCE = "zero_loan_balance"
REASON_UNDEFINED_SCORE = "undefined_score"


@dataclass(frozen=True)
class ScoreConfig:
    """Windows and thresholds for one scoring run.

    ``rf`` is the annualized rate threshold: securities whose expected
    loan rate sits below it score negative and sink to the bottom of any
    ranking. ``lbg_lag`` is the lookback (days) for the loan-balance
    growth ratio, clamped to the series start on short samples.
    """

    rf: float = 0.02
    ma_window: int = 60
    vol_window: int = 60
    lbg_lag: int = 60
    rate_source: str = "loan_rate"

    def __post_init__(self) -> None:
        if not math.isfinite(self.rf):
            raise ValueError(f"rf must be finite, got {self.rf}")
        for name in ("ma_window", "vol_window", "lbg_lag"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if self.rate_source not in ("loan_rate", "alt_loan_rate"):
            raise ValueError(f"rate_source must be loan_rate or alt_loan_rate, got {self.rate_source!r}")


class ScoreRow(NamedTuple):
    """One line of a score table as Python values; None marks an empty cell.

    The fields are the score-table CSV columns, in file order. The
    leading columns mirror the presentation layout (price, level views,
    rates, rate volatility, first/last loan balance, four scores,
    exclusion flag); the trailing e_lr/dtc/lbg/adv columns carry the
    remaining factor state, so the screener stage can run from the file
    alone.
    """

    date: dt.date
    security_id: str
    price: float
    availability: float | None
    short_interest: float | None
    volume: float
    loan_rate: float
    alt_loan_rate: float
    rate_volatility: float | None
    loan_balance_start: float
    loan_balance_end: float
    score_one: float | None
    score_two: float | None
    score_three: float | None
    score_four: float | None
    excluded: bool
    reason: str | None
    e_lr: float | None
    dtc: float | None
    lbg: float | None
    adv: float | None


SCORE_CSV_COLUMNS = ScoreRow._fields
# The numeric columns, in file order: one row each of ScoreTable.values.
SCORE_VALUE_COLUMNS = tuple(
    c for c in SCORE_CSV_COLUMNS if c not in ("date", "security_id", "excluded", "reason")
)
_VALUE_INDEX = {name: k for k, name in enumerate(SCORE_VALUE_COLUMNS)}
# Columns every row fills; the others stay empty where a row was not scored that far.
_REQUIRED_COLUMNS = ("price", "volume", "loan_rate", "alt_loan_rate", "loan_balance_start", "loan_balance_end")
SCORE_SELECTORS = ("one", "two", "three", "four")


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """One flavor's scores for a cross-section at one as-of date, one array per column.

    ``values[k]`` holds column ``SCORE_VALUE_COLUMNS[k]`` of every
    security, in ``security_ids`` order. ``missing[k]`` marks the cells
    left empty because a row was not scored that far; their value is
    NaN. A NaN that is not missing is a computed NaN factor or score.
    ``reasons`` holds each row's exclusion reason, ``""`` for a row that
    is not excluded. ``date`` is None only for a table without rows.

    Iterating a table yields one :class:`ScoreRow` per security. The
    table takes ownership of its arrays and makes them read-only.
    """

    date: dt.date | None
    security_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    missing: np.ndarray = field(repr=False)
    excluded: np.ndarray = field(repr=False)
    reasons: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = (len(SCORE_VALUE_COLUMNS), len(self.security_ids))
        if self.values.shape != shape or self.missing.shape != shape:
            raise ValueError(f"values and missing must have shape {shape}")
        if self.excluded.shape != shape[1:] or self.reasons.shape != shape[1:]:
            raise ValueError(f"excluded and reasons must have shape {shape[1:]}")
        if self.date is None and self.security_ids:
            raise ValueError("a score table with rows needs an as-of date")
        for array in (self.values, self.missing, self.excluded, self.reasons):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.security_ids)

    def __iter__(self) -> Iterator[ScoreRow]:
        columns = dict(zip(SCORE_VALUE_COLUMNS, np.where(self.missing, None, self.values).tolist()))
        columns.update(
            date=[self.date] * len(self),
            security_id=self.security_ids,
            excluded=self.excluded.tolist(),
            reason=[reason or None for reason in self.reasons.tolist()],
        )
        return map(ScoreRow, *(columns[name] for name in SCORE_CSV_COLUMNS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return (
            self.date == other.date
            and self.security_ids == other.security_ids
            and np.array_equal(self.values, other.values, equal_nan=True)
            and np.array_equal(self.missing, other.missing)
            and np.array_equal(self.excluded, other.excluded)
            and self.reasons.tolist() == other.reasons.tolist()
        )

    def column(self, name: str) -> np.ndarray:
        """Read-only values of one numeric column, NaN where a cell is missing."""
        return self.values[_VALUE_INDEX[name]]

    def take(self, rows: np.ndarray) -> "ScoreTable":
        """The table of the given row positions, in that order."""
        return ScoreTable(
            date=self.date,
            security_ids=tuple([self.security_ids[i] for i in rows.tolist()]),
            values=self.values[:, rows],
            missing=self.missing[:, rows],
            excluded=self.excluded[rows],
            reasons=self.reasons[rows],
        )


# Rows the split sum takes: magnitudes well inside the double range, and
# lengths short enough that 4 * n**2 is exact and n * u stays tiny.
_SPLIT_TINY = 2.0**-900
_SPLIT_HUGE = 2.0**900
_SPLIT_MAX_LENGTH = 2**20


def _split_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums by one error-free split each, and where each is certified exactly rounded.

    Each row is split at ``sigma = 2**(e + ceil(log2(n + 2)))``, where
    ``max|x| < 2**e`` (the ExtractVector step of Rump, Ogita and Oishi,
    "Accurate floating-point summation, part I", SIAM J. Sci. Comput.
    31(1), 2008): ``high = (sigma + x) - sigma`` and ``low = x - high``
    are exact, the sum of ``high`` is exact in any order, and the sum of
    ``low`` is off by at most ``2 n**2 u**2 sigma`` in any order
    (``u = 2**-53``). TwoSum adds the two and gives the rounding error of
    that addition. A sum is certified where twice the bound plus that
    error stays below half the gap to the nearer neighbouring double, so
    the exact row sum rounds to it. Neither numpy's summation order nor
    its accumulator can change a certified sum.
    """
    n = rows.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        work = np.abs(rows)
        top = work.max(axis=1)
        split = (top >= _SPLIT_TINY) & (top <= _SPLIT_HUGE)
        scale = np.frexp(top)[1] + (n + 1).bit_length()
        sigma = np.ldexp(1.0, scale)[:, np.newaxis]
        high = np.add(rows, sigma, out=work)
        high -= sigma
        total = high.sum(axis=1)
        tail = np.subtract(rows, high, out=work).sum(axis=1)
        sums = total + tail
        back = sums - total
        error = (total - (sums - back)) + (tail - back)
        # A double's nearer neighbour is the one toward zero. A zero sum
        # has no gap there, so it is never certified and fsum signs it.
        size = np.abs(sums)
        gap = size - np.nextafter(size, 0.0)
        bound = np.ldexp(4.0 * n * n, scale - 106)
        certified = split & (bound < 0.5 * gap - np.abs(error))
    return sums, certified


def _row_fsums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded sums along the last axis, one per row: ``math.fsum``'s bits.

    Rows are summed at once by :func:`_split_sums`. ``math.fsum`` itself
    sums the rows it does not certify: near-ties, a zero sum (whose sign
    is fsum's), non-finite input, a largest magnitude outside
    ``[2**-900, 2**900]`` and rows longer than ``2**20``. Those give
    fsum's value or raise its exception.
    """
    rows = block.reshape(math.prod(block.shape[:-1]), block.shape[-1])
    if 0 < rows.shape[1] <= _SPLIT_MAX_LENGTH:
        sums, certified = _split_sums(rows)
    else:
        sums, certified = np.empty(len(rows)), np.zeros(len(rows), dtype=bool)
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = math.fsum(rows[i].tolist())
    return sums.reshape(block.shape[:-1])


def moving_average(values: Sequence[float] | np.ndarray, window: int) -> float | np.ndarray:
    """Mean of the trailing ``window`` values, expanding before it fills.

    ``values`` is one series, giving a float, or a panel whose last axis
    is days, giving one mean per row.
    """
    block = np.asarray(values, dtype=float)
    if block.shape[-1] == 0:
        raise EmptySeries("moving average of an empty series")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    tail = block[..., -min(window, block.shape[-1]) :]
    means = _row_fsums(tail) / tail.shape[-1]
    return means if block.ndim > 1 else float(means)


def _window(idx: int, length: int, flavor: str) -> slice:
    """Days of a ``length``-day window at day ``idx``: anchored forward for ``first_day``, else trailing."""
    if flavor == "first_day":
        return slice(idx, idx + length)
    return slice(max(0, idx + 1 - length), idx + 1)


def rate_stats(
    data: LendingDataset | SecuritySeries, cfg: ScoreConfig, as_of: dt.date, flavor: str = "ma"
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Expected rate and rate standard deviation at an evaluation date.

    The std uses the sample (n-1) deviation of rate levels over
    ``vol_window`` days, trailing and ending at ``as_of`` (anchored
    forward for the ``first_day`` flavor). The expectation is the
    ``ma_window`` moving average for the ``ma`` flavor and the as-of
    day's rate otherwise.

    For a series the result is two floats; for a dataset it is two
    arrays with one value per security, computed for the whole panel at
    once. Every sum has the bits of ``math.fsum`` (see :func:`_row_fsums`)
    and every squared deviation is ``np.float_power(d, 2.0)``, the libm
    ``pow`` that Python's ``d ** 2.0`` calls, so a security's figures do
    not depend on the panel it is computed in. A square that overflows
    raises OverflowError, as ``**`` does.
    """
    _check_flavor(flavor)
    single = isinstance(data, SecuritySeries)
    if single:
        subject = f"{data.security_id}: "
        rates = data.column(cfg.rate_source)[np.newaxis]
    else:
        subject = ""
        rates = data.values[VARIABLES.index(cfg.rate_source)]
    try:
        idx = data.dates.index(as_of)
    except ValueError:
        raise InsufficientHistory(f"{subject}{as_of} not in series") from None

    window_vals = rates[:, _window(idx, cfg.vol_window, flavor)]
    n = window_vals.shape[1]
    if n < 2:
        raise InsufficientHistory(
            f"{subject}need >= 2 observations in the volatility window, have {n}"
        )
    mean = _row_fsums(window_vals) / n
    deviations = window_vals - mean[:, np.newaxis]
    # np.float_power calls libm pow, as Python's ** does (** 2.0 is the
    # same call as ** 2). d * d, np.square and np.power differ from it in
    # the last bit for some doubles, which would move rate_volatility.
    with np.errstate(over="ignore"):
        squares = np.float_power(deviations, 2.0)
    if np.isinf(squares).any():
        # Python's ** raises OverflowError where a finite square overflows.
        for d in deviations[np.isinf(squares)].tolist():
            d**2.0
    sigma_lr = np.sqrt(_row_fsums(squares) / (n - 1))

    if flavor == "ma":
        e_lr = moving_average(rates[:, : idx + 1], cfg.ma_window)
    else:
        e_lr = rates[:, idx]
    if single:
        return float(e_lr[0]), float(sigma_lr[0])
    return e_lr, sigma_lr


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")


def _scored_columns(
    panel: Mapping[str, np.ndarray],
    cfg: ScoreConfig,
    flavor: str,
    idx: int,
    e_lr: np.ndarray,
    sigma_lr: np.ndarray,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """``(columns, blank cells, reasons)`` of a scored cross-section, one entry per security."""
    levels = ("short_interest", "availability", "volume")
    if flavor == "ma":
        si_level, la_level, volume_view = (moving_average(panel[v], cfg.ma_window) for v in levels)
    else:
        si_level, la_level, volume_view = (panel[v][:, idx] for v in levels)
    adv_vals = panel["volume"][:, _window(idx, ADV_WINDOW, flavor)]
    adv = _row_fsums(adv_vals) / adv_vals.shape[1]
    balance = panel["loan_balance"]
    lagged = balance[:, max(0, idx - cfg.lbg_lag)]

    # Each quotient is computed for every row and masked where its
    # denominator is zero. 0 * inf gives NaN here as it does for floats.
    with np.errstate(divide="ignore", invalid="ignore"):
        dtc = np.where(adv > 0, si_level / adv, np.nan)
        lbg = np.where(lagged > 0, balance[:, idx] / lagged, np.nan)
        premium = e_lr - cfg.rf
        sentinel = np.select([premium > 0, premium < 0], [np.inf, -np.inf], 0.0)
        s1 = np.where(sigma_lr == 0, sentinel, premium / sigma_lr)
        s2 = (si_level / la_level) * s1
        s3 = dtc * s2
        s4 = lbg * s3
    no_s2 = la_level == 0
    no_s3 = no_s2 | (adv == 0) | np.isnan(dtc)
    no_s4 = no_s3 | np.isnan(lbg)
    undefined = np.isnan([s1, s2, s3, s4]).any(axis=0)
    reasons = np.select(
        [no_s2, no_s3, no_s4, undefined],
        [REASON_ZERO_AVAILABILITY, REASON_ZERO_ADV, REASON_ZERO_LOAN_BALANCE, REASON_UNDEFINED_SCORE],
        "",
    ).astype(object)
    columns = {
        "availability": la_level,
        "short_interest": si_level,
        "volume": volume_view,
        "rate_volatility": sigma_lr,
        "score_one": s1,
        "score_two": s2,
        "score_three": s3,
        "score_four": s4,
        "e_lr": e_lr,
        "dtc": dtc,
        "lbg": lbg,
        "adv": adv,
    }
    blank = {"score_two": no_s2, "score_three": no_s3, "score_four": no_s4}
    return columns, blank, reasons


def score_table(dataset: LendingDataset, cfg: ScoreConfig, flavor: str) -> ScoreTable:
    """One row per security in id order, excluded rows flagged in place.

    The whole cross-section is computed at once: every security shares
    the dataset's calendar, so the as-of day and each window are the same
    columns of the panel for every row.
    """
    _check_flavor(flavor)
    ids = dataset.security_ids
    values = np.full((len(SCORE_VALUE_COLUMNS), len(ids)), np.nan)
    missing = np.ones(values.shape, dtype=bool)
    if not ids:
        return ScoreTable(None, ids, values, missing, np.zeros(0, dtype=bool), np.zeros(0, dtype=object))
    panel = dict(zip(VARIABLES, dataset.values))
    idx = 0 if flavor == "first_day" else len(dataset.dates) - 1
    as_of = dataset.dates[idx]
    balance = panel["loan_balance"]
    columns = {
        "price": panel["price"][:, idx],
        "loan_rate": panel["loan_rate"][:, idx],
        "alt_loan_rate": panel["alt_loan_rate"][:, idx],
        "loan_balance_start": balance[:, 0],
        "loan_balance_end": balance[:, -1],
    }
    blank: dict[str, np.ndarray] = {}
    try:
        e_lr, sigma_lr = rate_stats(dataset, cfg, as_of, flavor)
    except InsufficientHistory as exc:
        columns["volume"] = panel["volume"][:, idx]
        reasons = np.array([f"{REASON_INSUFFICIENT_HISTORY}: {sid}: {exc}" for sid in ids], dtype=object)
    else:
        scored, blank, reasons = _scored_columns(panel, cfg, flavor, idx, e_lr, sigma_lr)
        columns.update(scored)
    for name, column in columns.items():
        k = _VALUE_INDEX[name]
        values[k] = column
        missing[k] = blank.get(name, False)
    values[missing] = np.nan
    return ScoreTable(as_of, ids, values, missing, reasons != "", reasons)


# --- score-table CSV interchange -------------------------------------------
#
# One schema, SCORE_CSV_COLUMNS, serves the writer and the reader. A value
# is written as Python's repr() text, so it reads back exactly; an empty
# cell is a value the row was not scored far enough to have, while "nan"
# is a computed NaN.

def write_score_csv(table: ScoreTable, path: Path | str) -> Path:
    """Serialize a score table deterministically."""
    path = Path(path)
    columns = dict(zip(SCORE_VALUE_COLUMNS, table.values))
    columns.update(
        date=[str(table.date)] * len(table),
        security_id=table.security_ids,
        excluded=np.where(table.excluded, "true", "false").tolist(),
        reason=table.reasons.tolist(),
    )
    cells = [columns[name] for name in SCORE_CSV_COLUMNS]
    atomic_write_text(path, csv_text(SCORE_CSV_COLUMNS, cells, table.missing))
    return path


def read_score_csv(path: Path | str) -> ScoreTable:
    """Load a score table written by :func:`write_score_csv`.

    Each column is parsed into the table's arrays, and every row must
    carry the same as-of date.
    """
    path = Path(path)
    cells = dict(zip(SCORE_CSV_COLUMNS, read_csv_columns(path, SCORE_CSV_COLUMNS)))
    dates = cells["date"]
    n = len(dates)
    date = None
    if n:
        if len(set(dates)) > 1:
            line = 2 + next(k for k, d in enumerate(dates) if d != dates[0])
            raise SchemaError(f"{path}: row {line}: a score table has one as-of date; {dates[0]} came first")
        try:
            date = parse_date(dates[0])
        except ValueError as exc:
            raise ValueError(f"{path}: row 2: bad date {dates[0]!r}") from exc

    values = np.empty((len(SCORE_VALUE_COLUMNS), n))
    missing = np.zeros(values.shape, dtype=bool)
    for k, name in enumerate(SCORE_VALUE_COLUMNS):
        column = cells[name]
        if not all(column):
            missing[k] = [not c for c in column]
            if name in _REQUIRED_COLUMNS:
                raise SchemaError(f"{path}: row {2 + int(missing[k].argmax())}: column {name!r} is empty")
            column = [c or "nan" for c in column]
        values[k] = parse_float_column(column, name, path)

    v = _VALUE_INDEX
    scored = ~missing[v["e_lr"]]
    unfactored = scored & missing[[v["availability"], v["short_interest"], v["rate_volatility"]]].any(axis=0)
    if unfactored.any():
        raise SchemaError(
            f"{path}: row {2 + int(unfactored.argmax())}: a scored row needs availability, "
            f"short_interest and rate_volatility"
        )
    flags = cells["excluded"]
    if not set(flags) <= {"true", "false"}:
        line, raw = next((k, f) for k, f in enumerate(flags, start=2) if f not in ("true", "false"))
        raise SchemaError(f"{path}: row {line}: column 'excluded' must be true or false, got {raw!r}")
    return ScoreTable(
        date=date,
        security_ids=cells["security_id"],
        values=values,
        missing=missing,
        excluded=np.array([f == "true" for f in flags], dtype=bool),
        reasons=np.array(cells["reason"], dtype=object).reshape(n),
    )
