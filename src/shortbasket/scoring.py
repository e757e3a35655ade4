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
a table: the row is flagged excluded with a machine-readable reason. A
zero rate standard deviation, by contrast, is a legitimate score-one
outcome and maps to a signed infinity sentinel.

A table is computed for the whole cross-section at once. Every security
shares the dataset's calendar, so the as-of day and each window are the
same columns of the ``(securities, days)`` panel for every row; the
elementwise arithmetic and the sentinels run in numpy. Each window sum
is an exactly rounded ``math.fsum`` of its row and each squared
deviation a Python ``**``, so a security's figures are those of scoring
it alone, whatever panel it sits in. ``moving_average`` and
``rate_stats`` accept a single series or a panel.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datastore import VARIABLES, LendingDataset, SecuritySeries, atomic_write_text
from .errors import DegenerateCrossSection, EmptySeries, InsufficientHistory, SchemaError

FLAVORS = ("ma", "first_day", "last_day")
ADV_WINDOW = 20  # trading days behind every average-daily-volume figure

# Exclusion reasons, in the order they are checked.
REASON_INSUFFICIENT_HISTORY = "insufficient_history"
REASON_ZERO_AVAILABILITY = "zero_availability"
REASON_ZERO_ADV = "zero_adv"
REASON_ZERO_LOAN_BALANCE = "zero_loan_balance"


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
        for name in ("ma_window", "vol_window", "lbg_lag"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if self.rate_source not in ("loan_rate", "alt_loan_rate"):
            raise ValueError(f"rate_source must be loan_rate or alt_loan_rate, got {self.rate_source!r}")


@dataclass(frozen=True)
class FactorWeights:
    """Weights of the five-factor weighted total score; must sum to 1."""

    w_si: float = 0.2
    w_lr: float = 0.2
    w_dtc: float = 0.2
    w_lbg: float = 0.2
    w_ila: float = 0.2

    def __post_init__(self) -> None:
        total = self.w_si + self.w_lr + self.w_dtc + self.w_lbg + self.w_ila
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"factor weights must sum to 1, got {total}")

    def as_dict(self) -> dict[str, float]:
        return {
            "si_usd": self.w_si,
            "e_lr": self.w_lr,
            "dtc": self.w_dtc,
            "lbg": self.w_lbg,
            "ila": self.w_ila,
        }


@dataclass(frozen=True)
class DerivedFactors:
    """Per-security inputs shared by the scores and the filters.

    ``ma_si``/``ma_la`` hold the flavor's level view (moving average for
    the ``ma`` flavor, single-day value otherwise). ``adv`` is the
    20-day average volume in shares. ``dtc`` and ``lbg`` are NaN when
    their denominators are zero; rows carrying NaN factors are excluded
    before they can reach a ranking.
    """

    e_lr: float
    sigma_lr: float
    dtc: float
    lbg: float
    ma_si: float
    ma_la: float
    si_usd: float
    la_usd: float
    adv: float


@dataclass(frozen=True)
class ShortScoreRow:
    """One security's scores and factor snapshot on an evaluation date."""

    date: dt.date
    security_id: str
    flavor: str
    price: float
    volume_view: float
    loan_rate: float
    alt_loan_rate: float
    loan_balance_start: float
    loan_balance_end: float
    score_one: float | None
    score_two: float | None
    score_three: float | None
    score_four: float | None
    factors: DerivedFactors | None
    excluded: bool
    reason: str | None

    def score(self, selector: str) -> float | None:
        try:
            return getattr(self, f"score_{selector}")
        except AttributeError:
            raise ValueError(f"unknown score selector {selector!r}") from None


def _row_fsums(block: np.ndarray) -> np.ndarray:
    """Exactly rounded ``math.fsum`` along the last axis, one per row."""
    # One row of Python floats at a time: a whole block of them takes
    # fresh allocator arenas, which objects created meanwhile keep from
    # being released, and a run's peak memory grows.
    rows = block.reshape(-1, block.shape[-1])
    sums = np.fromiter(map(math.fsum, map(np.ndarray.tolist, rows)), float, len(rows))
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
    once. Every sum is an exactly rounded ``math.fsum`` and every squared
    deviation a Python ``**``, so a security's figures do not depend on
    the panel it is computed in.
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
    # Python's ** (libm pow; ** 2.0 is the same call as ** 2) rather than
    # d * d: the two differ in the last bit for some doubles, which would
    # move rate_volatility.
    squares = np.fromiter(
        (math.fsum([d**2.0 for d in row.tolist()]) for row in deviations), float, len(deviations)
    )
    sigma_lr = np.sqrt(squares / (n - 1))

    if flavor == "ma":
        e_lr = moving_average(rates[:, : idx + 1], cfg.ma_window)
    else:
        e_lr = rates[:, idx]
    if single:
        return float(e_lr[0]), float(sigma_lr[0])
    return e_lr, sigma_lr


def sharpe_like(e_x: float, threshold: float, sigma_x: float) -> float:
    """Excess value per unit of deviation, with signed-infinity sentinels.

    When the deviation is zero the result is +inf, -inf, or 0 matching
    the sign of the excess, so a riskless rate premium still ranks, in
    the right direction, instead of raising.
    """
    premium = e_x - threshold
    if sigma_x == 0:
        if premium > 0:
            return math.inf
        if premium < 0:
            return -math.inf
        return 0.0
    return premium / sigma_x


def score_one(factors: DerivedFactors, cfg: ScoreConfig) -> float:
    """Rate premium over the threshold per unit of rate deviation."""
    return sharpe_like(factors.e_lr, cfg.rf, factors.sigma_lr)


def score_two(factors: DerivedFactors, cfg: ScoreConfig) -> float | None:
    """Score one scaled by short interest relative to availability.

    Returns None when availability is zero (division undefined); the
    table builder turns that into an excluded row.
    """
    if factors.ma_la == 0:
        return None
    return (factors.ma_si / factors.ma_la) * score_one(factors, cfg)


def score_three(factors: DerivedFactors, cfg: ScoreConfig) -> float | None:
    """Score two scaled by days-to-cover; None when volume is zero."""
    base = score_two(factors, cfg)
    if base is None or factors.adv == 0 or math.isnan(factors.dtc):
        return None
    return factors.dtc * base


def score_four(factors: DerivedFactors, cfg: ScoreConfig) -> float | None:
    """Score three scaled by loan-balance growth; None on a zero base balance."""
    base = score_three(factors, cfg)
    if base is None or math.isnan(factors.lbg):
        return None
    return factors.lbg * base


FACTOR_KEYS = ("si_usd", "e_lr", "dtc", "lbg", "ila")


def _factor_value(factors: DerivedFactors, key: str) -> float:
    if key == "ila":
        if factors.la_usd == 0:
            raise ValueError("inverse availability undefined: la_usd is 0 (exclude the row first)")
        return 1.0 / factors.la_usd
    return getattr(factors, key)


def factor_normalization(
    table: Sequence[DerivedFactors],
) -> dict[str, tuple[float, float]]:
    """Cross-sectional (mean, std) per factor for z-scoring.

    Raises DegenerateCrossSection when any factor has zero dispersion
    across the table, since a z-score is then undefined.
    """
    if not table:
        raise ValueError("factor table is empty")
    norms: dict[str, tuple[float, float]] = {}
    for key in FACTOR_KEYS:
        values = [_factor_value(f, key) for f in table]
        if any(not math.isfinite(v) for v in values):
            raise ValueError(f"factor {key!r} has non-finite values; exclude those rows first")
        mean = math.fsum(values) / len(values)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        if std == 0:
            raise DegenerateCrossSection(f"factor {key!r} has zero cross-sectional dispersion")
        norms[key] = (mean, std)
    return norms


def weighted_score(
    factors: DerivedFactors,
    weights: FactorWeights,
    normalization: Mapping[str, tuple[float, float]],
) -> float:
    """Weighted sum of cross-sectionally z-scored factors.

    The five factors (SI in USD, expected rate, days-to-cover, balance
    growth, inverse availability in USD) live on incommensurable scales,
    so each is standardized against the evaluation date's cross-section
    before weighting.
    """
    total = 0.0
    for key, weight in weights.as_dict().items():
        mean, std = normalization[key]
        total += weight * ((_factor_value(factors, key) - mean) / std)
    return total


def weighted_scores(
    table: Sequence[DerivedFactors], weights: FactorWeights
) -> list[float]:
    """Weighted totals for a whole cross-section."""
    norms = factor_normalization(table)
    return [weighted_score(f, weights, norms) for f in table]


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")


def _or_none(values: np.ndarray, missing: np.ndarray) -> list[float | None]:
    return np.where(missing, None, values).tolist()


def _scored_columns(
    panel: Mapping[str, np.ndarray],
    cfg: ScoreConfig,
    flavor: str,
    idx: int,
    e_lr: np.ndarray,
    sigma_lr: np.ndarray,
) -> tuple[list, ...]:
    """``(volume_view, score_one .. score_four, factors, excluded, reason)``, one list entry per security."""
    levels = ("short_interest", "availability", "volume")
    if flavor == "ma":
        si_level, la_level, volume_view = (moving_average(panel[v], cfg.ma_window) for v in levels)
    else:
        si_level, la_level, volume_view = (panel[v][:, idx] for v in levels)
    adv_vals = panel["volume"][:, _window(idx, ADV_WINDOW, flavor)]
    adv = _row_fsums(adv_vals) / adv_vals.shape[1]
    balance = panel["loan_balance"]
    lagged = balance[:, max(0, idx - cfg.lbg_lag)]
    price = panel["price"][:, idx]

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
    reason = np.select(
        [no_s2, no_s3, no_s4], [REASON_ZERO_AVAILABILITY, REASON_ZERO_ADV, REASON_ZERO_LOAN_BALANCE], ""
    )

    factors = [
        DerivedFactors(*values)  # in field order
        for values in zip(
            e_lr.tolist(),
            sigma_lr.tolist(),
            dtc.tolist(),
            lbg.tolist(),
            si_level.tolist(),
            la_level.tolist(),
            (si_level * price).tolist(),
            (la_level * price).tolist(),
            adv.tolist(),
        )
    ]
    return (
        volume_view.tolist(),
        s1.tolist(),
        _or_none(s2, no_s2),
        _or_none(s3, no_s3),
        _or_none(s4, no_s4),
        factors,
        no_s4.tolist(),
        [r or None for r in reason.tolist()],
    )


def score_table(dataset: LendingDataset, cfg: ScoreConfig, flavor: str) -> list[ShortScoreRow]:
    """One row per security in id order, excluded rows flagged in place.

    The whole cross-section is computed at once: every security shares
    the dataset's calendar, so the as-of day and each window are the same
    columns of the panel for every row.
    """
    _check_flavor(flavor)
    ids = dataset.security_ids
    if not ids:
        return []
    panel = dict(zip(VARIABLES, dataset.values))
    idx = 0 if flavor == "first_day" else len(dataset.dates) - 1
    as_of = dataset.dates[idx]
    try:
        e_lr, sigma_lr = rate_stats(dataset, cfg, as_of, flavor)
    except InsufficientHistory as exc:
        unscored = [None] * len(ids)
        columns = (
            panel["volume"][:, idx].tolist(),
            *[unscored] * 5,
            [True] * len(ids),
            [f"{REASON_INSUFFICIENT_HISTORY}: {sid}: {exc}" for sid in ids],
        )
    else:
        columns = _scored_columns(panel, cfg, flavor, idx, e_lr, sigma_lr)
    balance = panel["loan_balance"]
    return [
        ShortScoreRow(
            date=as_of,
            security_id=sid,
            flavor=flavor,
            price=price,
            volume_view=volume_view,
            loan_rate=loan_rate,
            alt_loan_rate=alt_loan_rate,
            loan_balance_start=start,
            loan_balance_end=end,
            score_one=s1,
            score_two=s2,
            score_three=s3,
            score_four=s4,
            factors=factors,
            excluded=excluded,
            reason=reason,
        )
        for (sid, price, loan_rate, alt_loan_rate, start, end,
             volume_view, s1, s2, s3, s4, factors, excluded, reason) in zip(
            ids,
            panel["price"][:, idx].tolist(),
            panel["loan_rate"][:, idx].tolist(),
            panel["alt_loan_rate"][:, idx].tolist(),
            balance[:, 0].tolist(),
            balance[:, -1].tolist(),
            *columns,
        )
    ]


# --- score-table CSV interchange -------------------------------------------
#
# The leading columns mirror the presentation layout (price, level views,
# rates, rate volatility, first/last loan balance, four scores, exclusion
# flag); the trailing e_lr/dtc/lbg/adv columns carry the remaining factor
# state so the screener stage can run from this file alone.

SCORE_CSV_COLUMNS = (
    "date",
    "security_id",
    "price",
    "availability",
    "short_interest",
    "volume",
    "loan_rate",
    "alt_loan_rate",
    "rate_volatility",
    "loan_balance_start",
    "loan_balance_end",
    "score_one",
    "score_two",
    "score_three",
    "score_four",
    "excluded",
    "reason",
    "e_lr",
    "dtc",
    "lbg",
    "adv",
)


def _fmt_opt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_score_csv(rows: Sequence[ShortScoreRow], path: Path | str) -> Path:
    """Serialize a score table deterministically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_CSV_COLUMNS)
    for row in rows:
        f = row.factors
        writer.writerow(
            [
                row.date.isoformat(),
                row.security_id,
                repr(row.price),
                _fmt_opt(f.ma_la if f else None),
                _fmt_opt(f.ma_si if f else None),
                repr(row.volume_view),
                repr(row.loan_rate),
                repr(row.alt_loan_rate),
                _fmt_opt(f.sigma_lr if f else None),
                repr(row.loan_balance_start),
                repr(row.loan_balance_end),
                _fmt_opt(row.score_one),
                _fmt_opt(row.score_two),
                _fmt_opt(row.score_three),
                _fmt_opt(row.score_four),
                "true" if row.excluded else "false",
                row.reason or "",
                _fmt_opt(f.e_lr if f else None),
                _fmt_opt(f.dtc if f else None),
                _fmt_opt(f.lbg if f else None),
                _fmt_opt(f.adv if f else None),
            ]
        )
    path = Path(path)
    atomic_write_text(path, buf.getvalue())
    return path


def _parse_opt(raw: str) -> float | None:
    return None if raw == "" else float(raw)


def read_score_csv(path: Path | str, flavor: str = "ma") -> list[ShortScoreRow]:
    """Load a score table written by :func:`write_score_csv`."""
    path = Path(path)
    rows: list[ShortScoreRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        got = tuple(reader.fieldnames or ())
        if got != SCORE_CSV_COLUMNS:
            raise SchemaError(f"{path}: unexpected score-table header {got}")
        for line, raw in enumerate(reader, start=2):
            price = float(raw["price"])
            la = _parse_opt(raw["availability"])
            si = _parse_opt(raw["short_interest"])
            sigma = _parse_opt(raw["rate_volatility"])
            e_lr = _parse_opt(raw["e_lr"])
            factors = None
            if e_lr is not None:
                if la is None or si is None or sigma is None:
                    raise SchemaError(
                        f"{path}: row {line}: a scored row needs availability, "
                        f"short_interest and rate_volatility"
                    )
                factors = DerivedFactors(
                    e_lr=e_lr,
                    sigma_lr=sigma,
                    dtc=float(raw["dtc"]) if raw["dtc"] else math.nan,
                    lbg=float(raw["lbg"]) if raw["lbg"] else math.nan,
                    ma_si=si,
                    ma_la=la,
                    si_usd=si * price,
                    la_usd=la * price,
                    adv=float(raw["adv"]) if raw["adv"] else 0.0,
                )
            rows.append(
                ShortScoreRow(
                    date=dt.date.fromisoformat(raw["date"]),
                    security_id=raw["security_id"],
                    flavor=flavor,
                    price=price,
                    volume_view=float(raw["volume"]),
                    loan_rate=float(raw["loan_rate"]),
                    alt_loan_rate=float(raw["alt_loan_rate"]),
                    loan_balance_start=float(raw["loan_balance_start"]),
                    loan_balance_end=float(raw["loan_balance_end"]),
                    score_one=_parse_opt(raw["score_one"]),
                    score_two=_parse_opt(raw["score_two"]),
                    score_three=_parse_opt(raw["score_three"]),
                    score_four=_parse_opt(raw["score_four"]),
                    factors=factors,
                    excluded=raw["excluded"] == "true",
                    reason=raw["reason"] or None,
                )
            )
    return rows
