"""Lending dataset and deterministic CSV interchange.

A dataset is a security x day panel of the seven lending variables on
one trading calendar that every security shares, plus one static profile
per security. Simulated and broker-sourced data flow through the same
loader so the scoring pipeline never knows which one it got.

CSV schemas
-----------
observations.csv::

    date,security_id,price,availability,short_interest,volume,loan_balance,loan_rate,alt_loan_rate

profiles.csv::

    security_id,market,buy_rating,beta

Dates are ISO-8601, decimals use ``.``. Floats are written with
``repr()`` so values round-trip exactly and identical datasets always
produce identical bytes. Export orders rows by (security_id, date).
Ingest accepts the rows in any order of securities, date-major desk
files included, provided each security's dates are strictly increasing
and every security has the same dates. Non-finite values (``nan``,
``inf``) are rejected with their file, row and column.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import OrderError, SchemaError

OBSERVATIONS_FILENAME = "observations.csv"
PROFILES_FILENAME = "profiles.csv"

# Stable variable order: the panel's first axis, the CSV columns after
# (date, security_id), and the simulator's substream ids all follow it.
VARIABLES = (
    "price",
    "availability",
    "short_interest",
    "volume",
    "loan_balance",
    "loan_rate",
    "alt_loan_rate",
)
_VARIABLE_INDEX = {name: v for v, name in enumerate(VARIABLES)}
_PRICE, _LOAN_RATE, _ALT_LOAN_RATE = map(VARIABLES.index, ("price", "loan_rate", "alt_loan_rate"))

OBSERVATION_COLUMNS = ("date", "security_id", *VARIABLES)
PROFILE_COLUMNS = ("security_id", "market", "buy_rating", "beta")


@dataclass(frozen=True)
class SecurityProfile:
    """Static attributes used by the screener filters."""

    security_id: str
    market: str
    buy_rating: float
    beta: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.buy_rating <= 5.0:
            raise ValueError(f"buy_rating must be in [1, 5], got {self.buy_rating} ({self.security_id})")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta} ({self.security_id})")


def _first_invalid(values: np.ndarray) -> tuple[int, int, int, str] | None:
    """``(variable, security, day, reason)`` of the first invalid panel value, or None."""
    non_positive = np.zeros(values.shape, dtype=bool)
    non_positive[_PRICE] = values[_PRICE] <= 0
    below_rate = np.zeros(values.shape, dtype=bool)
    below_rate[_ALT_LOAN_RATE] = values[_ALT_LOAN_RATE] < values[_LOAN_RATE]
    for bad, reason in (
        (~np.isfinite(values), "is not finite"),
        (non_positive, "must be positive"),
        (values < 0, "must be non-negative"),
        (below_rate, "is below loan_rate"),
    ):
        if bad.any():
            v, i, t = np.unravel_index(bad.argmax(), bad.shape)
            return int(v), int(i), int(t), reason
    return None


@dataclass(frozen=True, eq=False)
class LendingDataset:
    """Security x day panel of the lending variables on one shared calendar.

    ``values[v, i, t]`` is variable ``VARIABLES[v]`` of security
    ``security_ids[i]`` on ``dates[t]``. Shares are stored for quantities
    (availability, short interest, volume); USD views such as SI * price
    are derived downstream. Rates are annualized fractions.

    Every value is finite, prices are positive and the rest non-negative,
    and the alternate loan rate (charged to end borrowers) is never below
    the sourcing loan rate. Ids are sorted and unique, dates strictly
    increasing, and ``profiles`` holds one profile per id, in id order.
    The dataset takes ownership of ``values`` and makes it read-only.
    """

    dates: tuple[dt.date, ...]
    security_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    profiles: tuple[SecurityProfile, ...]

    def __post_init__(self) -> None:
        shape = (len(VARIABLES), len(self.security_ids), len(self.dates))
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {self.values.shape}")
        for prev, date in zip(self.dates, self.dates[1:]):
            if date <= prev:
                raise OrderError(f"dates must be strictly increasing: {date} follows {prev}")
        if list(self.security_ids) != sorted(set(self.security_ids)):
            raise ValueError("security ids must be sorted and unique")
        profile_ids = tuple(p.security_id for p in self.profiles)
        if profile_ids != self.security_ids:
            unmatched = sorted(set(self.security_ids) ^ set(profile_ids))
            raise SchemaError(
                f"series and profiles do not cover the same securities one to one, in id order: "
                f"{unmatched}"
            )
        invalid = _first_invalid(self.values)
        if invalid is not None:
            v, i, t, reason = invalid
            raise ValueError(
                f"{VARIABLES[v]} {reason}, got {self.values[v, i, t]} "
                f"({self.security_ids[i]} {self.dates[t]})"
            )
        self.values.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LendingDataset):
            return NotImplemented
        return (
            self.dates == other.dates
            and self.security_ids == other.security_ids
            and self.profiles == other.profiles
            and np.array_equal(self.values, other.values)
        )

    @property
    def series(self) -> tuple[SecuritySeries, ...]:
        """One view per security, in id order."""
        return tuple(SecuritySeries(self, i) for i in range(len(self.security_ids)))


@dataclass(frozen=True, eq=False)
class SecuritySeries:
    """One security's history: a view of row ``index`` of a dataset, holding no copy."""

    dataset: LendingDataset = field(repr=False)
    index: int

    @property
    def security_id(self) -> str:
        return self.dataset.security_ids[self.index]

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return self.dataset.dates

    def __len__(self) -> int:
        return len(self.dataset.dates)

    def column(self, name: str) -> np.ndarray:
        """Read-only values of one variable across the series, in date order."""
        return self.dataset.values[_VARIABLE_INDEX[name], self.index]


def _fmt(value: float) -> str:
    # repr() is the shortest exact representation: deterministic bytes
    # and lossless float round-trips.
    return repr(float(value))


def atomic_write_text(path: Path, text: str) -> None:
    """Write the full content or nothing: temp file + atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def export_csv(dataset: LendingDataset, out_dir: Path | str) -> tuple[Path, Path]:
    """Write observations.csv and profiles.csv under ``out_dir``.

    Row order (security_id, then date) and float formatting are fixed,
    so equal datasets serialize to identical bytes.
    """
    out_dir = Path(out_dir)
    iso_dates = [d.isoformat() for d in dataset.dates]
    obs_buf = io.StringIO()
    writer = csv.writer(obs_buf, lineterminator="\n")
    writer.writerow(OBSERVATION_COLUMNS)
    for i, security_id in enumerate(dataset.security_ids):
        days = dataset.values[:, i].T.tolist()
        writer.writerows([date, security_id, *map(repr, day)] for date, day in zip(iso_dates, days))

    prof_buf = io.StringIO()
    writer = csv.writer(prof_buf, lineterminator="\n")
    writer.writerow(PROFILE_COLUMNS)
    for prof in dataset.profiles:
        writer.writerow([prof.security_id, prof.market, _fmt(prof.buy_rating), _fmt(prof.beta)])

    obs_path = out_dir / OBSERVATIONS_FILENAME
    prof_path = out_dir / PROFILES_FILENAME
    atomic_write_text(obs_path, obs_buf.getvalue())
    atomic_write_text(prof_path, prof_buf.getvalue())
    return obs_path, prof_path


def _check_header(got: Sequence[str], expected: Sequence[str], path: Path) -> None:
    if tuple(got) != tuple(expected):
        missing = [c for c in expected if c not in got]
        extra = [c for c in got if c not in expected]
        raise SchemaError(
            f"{path}: header mismatch (missing={missing}, unexpected={extra}, "
            f"expected order {list(expected)})"
        )


def _records(reader: Iterator[list[str]], columns: Sequence[str], path: Path) -> Iterator:
    """``(line, row)`` of each non-blank record after the checked header."""
    _check_header(next(reader, []), columns, path)
    for line, row in enumerate(filter(None, reader), start=2):
        if len(row) != len(columns):
            raise SchemaError(f"{path}: row {line}: wrong number of fields")
        yield line, row


def _parse_float(raw: str, column: str, path: Path, line: int) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: row {line}: column {column!r} is not numeric: {raw!r}") from exc


def load_profiles(path: Path | str) -> dict[str, SecurityProfile]:
    """Read and validate a profiles.csv into an id-keyed mapping, in file order."""
    path = Path(path)
    profiles: dict[str, SecurityProfile] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        records = _records(csv.reader(fh), PROFILE_COLUMNS, path)
        for line, (security_id, market, buy_rating, beta) in records:
            if security_id in profiles:
                raise SchemaError(f"{path}: row {line}: duplicate profile for {security_id}")
            buy_rating = _parse_float(buy_rating, "buy_rating", path, line)
            beta = _parse_float(beta, "beta", path, line)
            try:
                profiles[security_id] = SecurityProfile(security_id, market, buy_rating, beta)
            except ValueError as exc:
                raise ValueError(f"{path}: row {line}: {exc}") from None
    return profiles


def ingest_csv(data_dir: Path | str) -> LendingDataset:
    """Load and validate a dataset directory written by :func:`export_csv`.

    Every malformed row is reported with its file line number. No row is
    ever silently dropped: the result holds exactly the rows of the
    input, or an error is raised.
    """
    data_dir = Path(data_dir)
    obs_path = data_dir / OBSERVATIONS_FILENAME
    prof_path = data_dir / PROFILES_FILENAME
    for p in (obs_path, prof_path):
        if not p.exists():
            raise SchemaError(f"missing input file: {p}")

    # One pass over the file into flat buffers: a code per distinct date
    # and id string, and the seven values of each row.
    date_codes: dict[str, int] = {}
    id_codes: dict[str, int] = {}
    row_dates, row_ids, cells = array("q"), array("q"), array("d")
    with open(obs_path, newline="", encoding="utf-8") as fh:
        for line, row in _records(csv.reader(fh), OBSERVATION_COLUMNS, obs_path):
            row_dates.append(date_codes.setdefault(row[0], len(date_codes)))
            row_ids.append(id_codes.setdefault(row[1], len(id_codes)))
            try:
                cells.extend(map(float, row[2:]))
            except ValueError:
                for column, raw in zip(VARIABLES, row[2:]):
                    _parse_float(raw, column, obs_path, line)

    ordinals = []
    for code, raw in enumerate(date_codes):
        try:
            ordinals.append(dt.date.fromisoformat(raw).toordinal())
        except ValueError as exc:
            line = row_dates.index(code) + 2
            raise ValueError(f"{obs_path}: row {line}: bad date {raw!r}") from exc

    # Group the rows by security in id order, keeping file order within
    # each security, then require one strictly increasing calendar.
    security_ids = tuple(sorted(id_codes))
    position = {security_id: k for k, security_id in enumerate(security_ids)}
    security_of_code = np.array([position[s] for s in id_codes], dtype=np.intp)
    security_of_row = security_of_code[np.asarray(row_ids, dtype=np.intp)]
    rows = np.argsort(security_of_row, kind="stable")
    day_of_row = np.asarray(ordinals, dtype=np.int64)[np.asarray(row_dates, dtype=np.intp)][rows]
    bounds = np.cumsum(np.bincount(security_of_row, minlength=len(security_ids)))
    calendar = day_of_row[: bounds[0]] if security_ids else day_of_row
    for security_id, days in zip(security_ids, np.split(day_of_row, bounds[:-1])):
        regress = np.flatnonzero(np.diff(days) <= 0)
        if regress.size:
            k = regress[0]
            raise OrderError(
                f"{obs_path}: dates must be strictly increasing for {security_id}: "
                f"{dt.date.fromordinal(days[k + 1])} follows {dt.date.fromordinal(days[k])}"
            )
        if not np.array_equal(days, calendar):
            own, ref = days.tolist(), calendar.tolist()
            k = 0
            while k < len(own) and k < len(ref) and own[k] == ref[k]:
                k += 1
            first = own[k] if k < len(own) else ref[k]
            raise SchemaError(
                f"{obs_path}: {security_id}: dates differ from those of {security_ids[0]} "
                f"at {dt.date.fromordinal(first)}; every security must have the same dates"
            )

    n_days = len(calendar)
    by_row = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(VARIABLES))[rows]
    values = np.ascontiguousarray(by_row.T.reshape(len(VARIABLES), len(security_ids), n_days))
    invalid = _first_invalid(values)
    if invalid is not None:
        v, i, t, reason = invalid
        line = rows[i * n_days + t] + 2
        raise ValueError(
            f"{obs_path}: row {line}: column {VARIABLES[v]!r} {reason}: {float(values[v, i, t])!r}"
        )

    profiles = load_profiles(prof_path)
    return LendingDataset(
        dates=tuple(dt.date.fromordinal(d) for d in calendar.tolist()),
        security_ids=security_ids,
        values=values,
        profiles=tuple(profiles[s] for s in sorted(profiles)),
    )
