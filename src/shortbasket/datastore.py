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

Dates are written YYYY-MM-DD, the only spelling ingest accepts, and
decimals use ``.``. A float is written as Python's
shortest round-trip ``repr()`` text, so values round-trip exactly and
identical datasets always produce identical bytes. That text is made
in bulk by ``float_rows_text``: orjson formats a block of values in one
call, and rows holding a value outside the range where its text equals
``repr()`` are formatted by ``repr()``. observations.csv gets one call
per security's block: export orders rows by (security_id, date) and
streams them to the file one security at a time.

Ingest reads observations.csv as bytes, in chunks of whole lines. In
each chunk one numpy pass finds every comma and line feed, the dates
and ids are coded with only their distinct values decoded, and one
orjson call parses the seven value columns. A chunk that holds anything
else (``.5``, ``+1``, ``nan``, ``-0``, blank lines, a bare CR ...) is
parsed cell by cell with ``csv`` and ``float()`` instead, and a chunk
with a quote or NUL sends the rest of the file there, so the accepted
spellings and the error messages are those of ``float()``. Bytes that
are not UTF-8 are rejected with their file and row. The rows land in a
variable-major buffer; rows already in (security_id, date) order, as
export writes them, become the panel with no copy. Ingest also accepts
the rows in any other order of securities, date-major desk files
included, provided each security's dates are strictly increasing and
every security has the same dates. Non-finite values (``nan``, ``inf``)
are rejected with their file, row and column.

Every other CSV file is small, and one writer, ``csv_text``, writes it
whole: text as ``csv.writer`` writes it, quoted for a comma, a quote or
a line break, and floats by ``float_rows_text``. profiles.csv, the score
table and ranking.csv are read whole by ``read_csv_columns``: UTF-8,
blank lines skipped, quoted fields and CRLF line ends read as ``csv``
reads them, and a header or field count that does not match, or bytes
that are not UTF-8, rejected with the file and row. It returns each
column as a tuple of cells; ``parse_float_column`` parses a column of
numbers in one orjson call, or cell by cell where that call fails.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import math
import os
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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

# orjson writes a float as the same shortest round-trip digits as repr(),
# but changes to exponent notation at other magnitudes: repr() writes
# 1e-05 and 1e+16 where orjson writes 0.00001 and 1e16. For zero and
# magnitudes in [_ORJSON_REPR_MIN, _ORJSON_REPR_MAX) the two texts are equal.
_ORJSON_REPR_MIN, _ORJSON_REPR_MAX = 1e-4, 1e16
# Ingest reads observations.csv in chunks of whole lines of about this
# many bytes. This bounds the memory the parse holds besides the values.
_INGEST_CHUNK_CHARS = 1 << 20
# The only date spelling ingest accepts; date.fromisoformat of Python 3.11
# also reads 20210104 and 2021-W01-1.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# Decoding with "surrogateescape" turns each byte that is not UTF-8 into one of these.
_UNDECODABLE = re.compile("[\udc80-\udcff]")
_COMMA, _LINE_FEED, _CARRIAGE_RETURN, _SPACE = b",\n\r "
# Each observation line ends its fields with these: a comma after each but the last, then a line feed.
_LINE_ENDS = np.array([_COMMA] * (len(OBSERVATION_COLUMNS) - 1) + [_LINE_FEED], dtype=np.uint8)
# What the value columns of a chunk may hold for its one orjson call: digits, signs,
# exponents, the commas between values, the spaces that blank each date and id,
# and the CR of a CRLF line end, which JSON reads as whitespace.
_JSON_NUMBER_BYTES = b"0123456789.eE+-, \r"


@dataclass(frozen=True)
class SecurityProfile:
    """Static attributes used by the screener filters."""

    security_id: str
    market: str
    buy_rating: float
    beta: float

    def __post_init__(self) -> None:
        # A line break would split the id's row for any reader that reads
        # the file line by line: no id may hold one.
        if "\r" in self.security_id or "\n" in self.security_id:
            raise ValueError(f"security_id must not contain a line break, got {self.security_id!r}")
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
    ``values`` may be a view of a larger buffer: ingest hands over a view
    of the row buffer it parsed a file into.
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


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write the full content or nothing: a temp file of its own, then an atomic rename.

    ``text`` is the whole content or an iterable of chunks of it. The
    temp file gets a random name next to ``path``, so concurrent writers
    never share one, and it is removed if the write fails.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL rather than tempfile.mkstemp, which creates mode 0600: the
    # file keeps the mode that the umask gives any new file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it as a field of a row, quoted only if it must be."""
    buf = io.StringIO()
    # The "\r\n" terminator makes csv.writer quote a field holding either line break.
    csv.writer(buf, lineterminator="\r\n").writerow([text, "x"])
    return buf.getvalue()[: -len(",x\r\n")]


def csv_fields(texts: Sequence[str]) -> list[str]:
    """Each text as csv.writer writes it as one field of a row of several."""
    distinct = set(texts)
    # _csv_field quotes a field only for a delimiter, a quote or a line
    # break in it, and leaves every other field as it is; it formats those
    # fields, and any with a NUL.
    if not any(c in "".join(distinct) for c in ',"\r\n\0'):
        return list(texts)
    quoted = {text: _csv_field(text) for text in distinct}
    return [quoted[text] for text in texts]


def float_rows_text(block: np.ndarray, blank: np.ndarray | None = None) -> list[str]:
    """The rows of a 2-D float block as CSV text: each value as ``repr()`` writes it, comma-separated.

    Cells marked in ``blank`` are written empty. orjson formats, in one
    call, every row whose values all lie where its text equals ``repr()``;
    ``repr()`` formats the other rows, non-finite values included.
    """
    # Imported here and in _parse_chunk, not with the module: a process
    # that reads and writes no CSV values does not load orjson.
    import orjson

    magnitude = np.abs(block)
    plain = (magnitude == 0) | ((magnitude >= _ORJSON_REPR_MIN) & (magnitude < _ORJSON_REPR_MAX))
    if blank is not None:
        plain &= ~blank
    regular = plain.all(axis=1)
    if regular.all():
        if not len(block):
            return []
        # "[[a,b,...],[c,d,...]]": one list per row.
        nested = orjson.dumps(np.ascontiguousarray(block), option=orjson.OPT_SERIALIZE_NUMPY).decode()
        return nested[2:-2].split("],[")
    texts = [""] * len(block)
    if regular.any():
        nested = orjson.dumps(block[regular], option=orjson.OPT_SERIALIZE_NUMPY).decode()
        for i, text in zip(np.flatnonzero(regular).tolist(), nested[2:-2].split("],[")):
            texts[i] = text
    if blank is None:
        blank = np.zeros(block.shape, dtype=bool)
    for i in np.flatnonzero(~regular).tolist():
        texts[i] = ",".join(["" if b else repr(v) for v, b in zip(block[i].tolist(), blank[i].tolist())])
    return texts


def csv_text(
    header: Sequence[str], columns: Sequence[Sequence[str] | np.ndarray], blank: np.ndarray | None = None
) -> str:
    """The text of a small CSV file: the header line, then one line per row.

    A column is a sequence of str, each written as csv.writer writes a
    field (:func:`csv_fields`), or a 1-D float array, each value written
    as ``repr()`` writes it (:func:`float_rows_text`); adjacent float
    columns share one call. ``blank`` holds one row per float column, in
    order, marking the cells to write empty. With no rows, the text is
    the header line alone.
    """
    parts: list[list[str]] = []
    done = 0
    for floats, group in itertools.groupby(columns, key=lambda column: isinstance(column, np.ndarray)):
        group = list(group)
        if floats:
            mask = None if blank is None else blank[done : done + len(group)].T
            parts.append(float_rows_text(np.stack(group, axis=1), mask))
            done += len(group)
        else:
            parts += map(csv_fields, group)
    return "\n".join([",".join(header), *map(",".join, zip(*parts)), ""])


def _observation_text(dataset: LendingDataset) -> Iterator[str]:
    """observations.csv as chunks: the header, then the rows of one security at a time."""
    yield ",".join(OBSERVATION_COLUMNS) + "\n"
    date_fields = [f"{d.isoformat()}," for d in dataset.dates]
    for i, security_id in enumerate(dataset.security_ids):
        days = float_rows_text(dataset.values[:, i].T)
        prefix = _csv_field(security_id) + ","
        yield "".join([date + prefix + day + "\n" for date, day in zip(date_fields, days)])


def export_csv(dataset: LendingDataset, out_dir: Path | str) -> tuple[Path, Path]:
    """Write observations.csv and profiles.csv under ``out_dir``.

    Row order (security_id, then date) and float formatting are fixed,
    so equal datasets serialize to identical bytes.
    """
    out_dir = Path(out_dir)
    ids, markets, *numbers = [[getattr(p, name) for p in dataset.profiles] for name in PROFILE_COLUMNS]
    obs_path = out_dir / OBSERVATIONS_FILENAME
    prof_path = out_dir / PROFILES_FILENAME
    atomic_write_text(obs_path, _observation_text(dataset))
    atomic_write_text(prof_path, csv_text(PROFILE_COLUMNS, [ids, markets, *np.array(numbers, dtype=float)]))
    return obs_path, prof_path


def check_header(got: Sequence[str], expected: Sequence[str], path: Path) -> None:
    """Raise SchemaError naming the file unless its header is exactly ``expected``."""
    if tuple(got) != tuple(expected):
        missing = [c for c in expected if c not in got]
        extra = [c for c in got if c not in expected]
        raise SchemaError(
            f"{path}: header mismatch (missing={missing}, unexpected={extra}, "
            f"expected order {list(expected)})"
        )


def csv_records(reader: Iterator[list[str]], columns: Sequence[str], path: Path, start: int = 2) -> Iterator:
    """``(line, row)`` of each non-blank record, numbered from ``start``."""
    for line, row in enumerate(filter(None, reader), start=start):
        if len(row) != len(columns):
            raise SchemaError(f"{path}: row {line}: wrong number of fields")
        yield line, row


def parse_float(raw: str, column: str, path: Path, line: int) -> float:
    """``float(raw)``, or a ValueError naming the file, row and column."""
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: row {line}: column {column!r} is not numeric: {raw!r}") from exc


def _parse_chunk(chunk: bytes) -> tuple[list[str], np.ndarray, list[str], np.ndarray, np.ndarray] | None:
    """The observation lines of ``chunk`` parsed in bulk: ``(dates, date_codes, ids, id_codes, values)``.

    ``dates`` and ``ids`` hold the distinct strings of the chunk in order of
    first appearance, ``date_codes`` and ``id_codes`` index them row by row,
    and ``values`` is ``(rows, variables)``. One numpy pass finds every
    comma and line feed, only the distinct dates and ids are decoded, and
    one orjson call parses every value. The chunk holds no quote or NUL.
    None when it holds a blank line, a CR anywhere but before a line feed,
    a line without exactly nine fields, a date field that is not ten
    bytes, bytes that are not UTF-8, or a value cell that is not a plain
    JSON number: the per-cell path reads such chunks, accepting what
    ``float()`` accepts and naming a bad row.
    """
    import orjson

    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    # text[k + 1] is chunk[k]; text[0] becomes the "[" of the JSON list.
    text = bytearray(b" ") + chunk
    raw = np.frombuffer(text, dtype=np.uint8)
    separator = raw == _COMMA
    separator |= raw == _LINE_FEED
    ends = np.flatnonzero(separator)
    if ends.size % len(_LINE_ENDS):
        return None
    ends = ends.reshape(-1, len(_LINE_ENDS))
    if not np.array_equal(raw[ends], np.broadcast_to(_LINE_ENDS, ends.shape)):
        return None
    if b"\r" in chunk:
        cr = raw == _CARRIAGE_RETURN
        if np.count_nonzero(cr) != np.count_nonzero(cr[ends[:, -1] - 1]):
            return None
    starts = np.concatenate(([1], ends[:-1, -1] + 1))
    date_ends, id_ends = ends[:, 0], ends[:, 1]
    date_width = len("YYYY-MM-DD")
    if not (date_ends - starts == date_width).all():
        return None
    id_lengths = id_ends - date_ends - 1
    id_width = max(int(id_lengths.max()), 1)
    offsets = np.arange(id_width)
    # Each field as one fixed-width bytes value: ids are NUL-padded, which
    # no id holds, since a chunk with a NUL never comes here.
    id_bytes = np.take(raw, (date_ends + 1)[:, None] + offsets, mode="clip")
    id_bytes[offsets >= id_lengths[:, None]] = 0
    fields = []
    for block, width in ((raw[starts[:, None] + np.arange(date_width)], date_width), (id_bytes, id_width)):
        distinct, first, codes = np.unique(block.view(f"S{width}")[:, 0], return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        try:
            fields += [[value.decode() for value in distinct[order].tolist()], rank[codes.reshape(-1)]]
        except UnicodeDecodeError:
            return None
    # Blank each "date,id," to spaces and turn each line feed into a comma,
    # but the last into a space: the values of the chunk are then a JSON list.
    prefix = np.arange(date_width + 2 + id_width)
    blank = starts[:, None] + prefix
    if id_lengths.min() != id_width:
        blank = blank[prefix <= (id_ends - starts)[:, None]]
    raw[blank] = _SPACE
    raw[ends[:, -1]] = _COMMA
    raw[-1] = _SPACE
    if text.translate(None, _JSON_NUMBER_BYTES):
        return None
    # JSON reads "-0" as the int 0, where float() reads -0.0.
    if b"-" in text and any(b"-0" + end in text for end in (b",", b" ", b"\r")):
        return None
    raw[0], raw[-1] = b"[]"
    try:
        values = np.array(orjson.loads(text), dtype=np.float64)
    except orjson.JSONDecodeError:
        return None
    return (*fields, values.reshape(len(ends), len(VARIABLES)))


def _first_appearance_codes(strings: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct strings in order of first appearance, and the index of each string among them."""
    distinct = list(dict.fromkeys(strings))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, strings), np.intp, len(strings))


def _text_lines(chunk: bytes) -> list[str]:
    """The lines of ``chunk`` as a text file opened with ``newline=""`` reads them.

    Bytes that are not UTF-8 decode to lone surrogates, which
    :func:`_check_utf8` reports with the row that holds them.
    """
    return io.StringIO(chunk.decode("utf-8", "surrogateescape"), newline="").readlines()


def _csv_rows(chunks: Iterable[bytes]) -> Iterator[list[str]]:
    """csv.reader over chunks of whole lines, as over a text file opened with ``newline=""``."""
    return csv.reader(itertools.chain.from_iterable(map(_text_lines, chunks)))


def _check_utf8(row: Sequence[str], path: Path, line: int) -> None:
    if _UNDECODABLE.search("".join(row)):
        raise ValueError(f"{path}: row {line}: not UTF-8")


def _parse_records(records: Iterable[tuple[int, list[str]]], path: Path) -> tuple:
    """``_parse_chunk``'s result for csv records, each value parsed by ``float()``."""
    lines, dates, ids, values = [], [], [], array("d")

    def check_utf8() -> None:
        # One search over the records so far; a search row by row only to name the row.
        if _UNDECODABLE.search("".join(dates) + "".join(ids)):
            for line, date, security_id in zip(lines, dates, ids):
                _check_utf8((date, security_id), path, line)

    try:
        for line, row in records:
            lines.append(line)
            dates.append(row[0])
            ids.append(row[1])
            try:
                values.extend(map(float, row[2:]))
            except ValueError:
                check_utf8()
                _check_utf8(row, path, line)
                for column, raw in zip(VARIABLES, row[2:]):
                    parse_float(raw, column, path, line)
    except SchemaError:  # a later row with the wrong number of fields
        check_utf8()
        raise
    check_utf8()
    return (
        *_first_appearance_codes(dates),
        *_first_appearance_codes(ids),
        np.frombuffer(values).reshape(-1, len(VARIABLES)),
    )


def parse_date(raw: str) -> dt.date:
    """The date ``raw`` spells as YYYY-MM-DD; ValueError for any other spelling."""
    if not _ISO_DATE.fullmatch(raw):
        raise ValueError(f"not YYYY-MM-DD: {raw!r}")
    return dt.date.fromisoformat(raw)


def _read_text(path: Path) -> str:
    """The file as text; bytes that are not UTF-8 become lone surrogates, for :func:`_check_utf8`."""
    return path.read_bytes().decode("utf-8", "surrogateescape")


def read_lines(path: Path | str) -> list[str]:
    """The lines of a UTF-8 text file; a line holding other bytes is named with its file and row."""
    path = Path(path)
    lines = _read_text(path).splitlines()
    for line, text in enumerate(lines, start=1):
        _check_utf8((text,), path, line)
    return lines


def read_csv_columns(path: Path | str, columns: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """The cells of a small CSV file with the header ``columns``: one tuple per column, in file order.

    The text is split on line feeds and commas when it holds no quote, CR
    or NUL, and by ``csv`` otherwise. Blank lines are skipped, and the
    other rows are numbered from 2 as in the file without them. A header
    other than ``columns``, and a row with bytes that are not UTF-8 or
    the wrong number of fields, is rejected with the file and row.
    """
    path = Path(path)
    text = _read_text(path)
    if '"' in text or "\r" in text or "\0" in text:
        records = list(csv.reader(io.StringIO(text, newline="")))
    else:
        records = [line.split(",") if line else [] for line in text.split("\n")]
    header, *records = records or [[]]
    _check_utf8(header, path, 1)
    check_header(header, columns, path)
    rows = [row for row in records if row]
    if set(map(len, rows)) - {len(columns)} or not text.isascii() and _UNDECODABLE.search(text):
        for line, row in enumerate(rows, start=2):
            _check_utf8(row, path, line)
            if len(row) != len(columns):
                raise SchemaError(f"{path}: row {line}: wrong number of fields")
    return tuple(zip(*rows)) if rows else ((),) * len(columns)


def parse_float_column(cells: Sequence[str], column: str, path: Path) -> list[float]:
    """The cells of a column from :func:`read_csv_columns` as floats, as ``float()`` reads each.

    One orjson call parses the column when every cell is a JSON number
    that reads as a float; a cell JSON reads as an int (``5``, ``-0``),
    and any other spelling, is left to :func:`parse_float`, which names
    the file, row and column of a cell that is not a number.
    """
    # Imported here, not with the module, as in float_rows_text.
    import orjson

    try:
        parsed = orjson.loads("[" + ",".join(cells) + "]")
    except orjson.JSONDecodeError:
        parsed = None
    if parsed is not None and len(parsed) == len(cells) and set(map(type, parsed)) <= {float}:
        return parsed
    return [parse_float(raw, column, path, line) for line, raw in enumerate(cells, start=2)]


def load_profiles(path: Path | str) -> dict[str, SecurityProfile]:
    """Read and validate a profiles.csv into an id-keyed mapping, in file order."""
    path = Path(path)
    ids, markets, buy_ratings, betas = read_csv_columns(path, PROFILE_COLUMNS)
    buy_ratings = parse_float_column(buy_ratings, "buy_rating", path)
    rows = zip(ids, markets, buy_ratings, parse_float_column(betas, "beta", path))
    profiles: dict[str, SecurityProfile] = {}
    for line, row in enumerate(rows, start=2):
        if row[0] in profiles:
            raise SchemaError(f"{path}: row {line}: duplicate profile for {row[0]}")
        try:
            profiles[row[0]] = SecurityProfile(*row)
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
    # and id string, and the seven values of each row, variable-major as
    # in the panel. The buffers are sized once, for at most one row per
    # line break: growing them chunk by chunk leaves the heap fragmented
    # and raises peak memory.
    with open(obs_path, "rb") as raw:
        blocks = iter(functools.partial(raw.read, 1 << 20), b"")
        # Every byte up to CR counts, LF among them: numpy counts these
        # faster than bytes.count counts the two line breaks.
        capacity = 1 + sum(np.count_nonzero(np.frombuffer(block, np.uint8) <= _CARRIAGE_RETURN) for block in blocks)
    date_codes: dict[str, int] = {}
    id_codes: dict[str, int] = {}
    row_dates = np.empty(capacity, dtype=np.intp)
    row_ids = np.empty(capacity, dtype=np.intp)
    cells = np.empty((len(VARIABLES), capacity))
    n_rows = 0

    def append(dates: list[str], date_rows: np.ndarray, ids: list[str], id_rows: np.ndarray,
               values: np.ndarray) -> int:
        nonlocal n_rows
        end = n_rows + len(values)
        date_code = np.array([date_codes.setdefault(d, len(date_codes)) for d in dates], dtype=np.intp)
        id_code = np.array([id_codes.setdefault(s, len(id_codes)) for s in ids], dtype=np.intp)
        row_dates[n_rows:end] = date_code[date_rows]
        row_ids[n_rows:end] = id_code[id_rows]
        cells[:, n_rows:end] = values.T
        n_rows = end
        return len(values)

    with open(obs_path, "rb") as fh:
        first = fh.readline()
        chunks = iter(lambda: fh.read(_INGEST_CHUNK_CHARS) + fh.readline(), b"")
        head = _text_lines(first)
        line = 2
        if len(head) == 1 and '"' not in head[0]:
            reader = None
            header = next(csv.reader(head), [])
        else:
            # A header line split by a bare CR, or holding a quote: the csv
            # module reads the whole file.
            reader = _csv_rows(itertools.chain([first], chunks))
            header = next(reader, [])
        _check_utf8(header, obs_path, 1)
        check_header(header, OBSERVATION_COLUMNS, obs_path)
        if reader is None:
            for chunk in chunks:
                if b'"' in chunk or b"\0" in chunk:
                    # A quoted field may span lines, and the csv module of
                    # Python 3.10 rejects NUL: it reads the rest of the file.
                    reader = _csv_rows(itertools.chain([chunk], chunks))
                    break
                parsed = _parse_chunk(chunk)
                if parsed is None:
                    records = csv_records(_csv_rows([chunk]), OBSERVATION_COLUMNS, obs_path, line)
                    parsed = _parse_records(records, obs_path)
                line += append(*parsed)
        if reader is not None:
            records = csv_records(reader, OBSERVATION_COLUMNS, obs_path, line)
            batch_rows = max(1, _INGEST_CHUNK_CHARS >> 7)  # about a chunk of observation lines
            while append(*_parse_records(itertools.islice(records, batch_rows), obs_path)):
                pass
    row_dates, row_ids = row_dates[:n_rows], row_ids[:n_rows]

    ordinals = []
    for code, raw in enumerate(date_codes):
        try:
            ordinals.append(parse_date(raw).toordinal())
        except ValueError as exc:
            line = int(np.argmax(row_dates == code)) + 2
            raise ValueError(f"{obs_path}: row {line}: bad date {raw!r}") from exc

    # Group the rows by security in id order, keeping file order within
    # each security, then require one strictly increasing calendar. Rows
    # already in that order, as export writes them, are not moved.
    security_ids = tuple(sorted(id_codes))
    position = {security_id: k for k, security_id in enumerate(security_ids)}
    security_of_code = np.array([position[s] for s in id_codes], dtype=np.intp)
    security_of_row = security_of_code[row_ids]
    rows = None if (np.diff(security_of_row) >= 0).all() else np.argsort(security_of_row, kind="stable")
    day_of_row = np.asarray(ordinals, dtype=np.int64)[row_dates]
    if rows is not None:
        day_of_row = day_of_row[rows]
    bounds = np.cumsum(np.bincount(security_of_row, minlength=len(security_ids)))
    calendar = day_of_row[: bounds[0]] if security_ids else day_of_row
    n_days = len(calendar)
    # One check of the whole panel; the loop only finds the error to report.
    if (
        n_rows != len(security_ids) * n_days
        or not (np.diff(calendar) > 0).all()
        or not (day_of_row.reshape(len(security_ids), n_days) == calendar).all()
    ):
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

    panel_shape = (len(VARIABLES), len(security_ids), n_days)
    # In order, the panel is a view of the row buffer; otherwise one
    # gather straight into the panel's layout.
    cells = cells[:, :n_rows]
    values = (cells if rows is None else np.take(cells, rows, axis=1)).reshape(panel_shape)
    invalid = _first_invalid(values)
    if invalid is not None:
        v, i, t, reason = invalid
        row = i * n_days + t
        line = (row if rows is None else rows[row]) + 2
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
