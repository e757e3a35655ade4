"""observations.csv codec: bulk text against per-cell oracles.

Export formats floats in bulk and ingest parses them in bulk; both must
give what the per-cell ``repr()`` + ``csv.writer`` writer and the
per-cell ``csv.reader`` + ``float()`` reader give. The writer oracle is
kept here; the reader oracle is ingest with its bulk parse switched off,
so that every chunk takes the per-cell path.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shortbasket import datastore
from shortbasket.datastore import (
    OBSERVATION_COLUMNS,
    OBSERVATIONS_FILENAME,
    PROFILES_FILENAME,
    VARIABLES,
    LendingDataset,
    SecurityProfile,
    export_csv,
    ingest_csv,
)
from shortbasket.errors import SchemaError

OBS_HEADER = ",".join(OBSERVATION_COLUMNS)
PROF_HEADER = "security_id,market,buy_rating,beta"
PRICE, LOAN_RATE, ALT_LOAN_RATE = map(VARIABLES.index, ("price", "loan_rate", "alt_loan_rate"))

# Where repr() and orjson change notation, and the extremes of float64.
EDGES = [
    1e-4,
    float(np.nextafter(1e-4, 0)),
    float(np.nextafter(1e-4, 1)),
    1e-5,
    1e16,
    float(np.nextafter(1e16, 0)),
    float(np.nextafter(1e16, np.inf)),
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    1e300,
    0.1,
    123456.789,
]
SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reference_observations(dataset: LendingDataset) -> bytes:
    """observations.csv as one ``repr()`` per cell through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(OBSERVATION_COLUMNS)
    for i, security_id in enumerate(dataset.security_ids):
        for t, date in enumerate(dataset.dates):
            writer.writerow([date.isoformat(), security_id, *(repr(float(x)) for x in dataset.values[:, i, t])])
    return buf.getvalue().encode("utf-8")


def same_dataset(a: LendingDataset, b: LendingDataset) -> bool:
    """Equal datasets whose values also agree bit for bit, so the sign of a zero counts."""
    return a == b and a.values.tobytes() == b.values.tobytes()


@st.composite
def panels(draw) -> LendingDataset:
    n_securities = draw(st.integers(1, 3))
    n_days = draw(st.integers(1, 4))
    non_negative = st.one_of(
        st.sampled_from([0.0, -0.0, *EDGES]),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    positive = st.one_of(
        st.sampled_from(EDGES),
        st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    )
    shape = (len(VARIABLES), n_securities, n_days)
    size = len(VARIABLES) * n_securities * n_days
    values = np.reshape(draw(st.lists(non_negative, min_size=size, max_size=size)), shape)
    values[PRICE] = np.reshape(draw(st.lists(positive, min_size=n_securities * n_days,
                                             max_size=n_securities * n_days)), shape[1:])
    values[ALT_LOAN_RATE] = np.maximum(values[ALT_LOAN_RATE], values[LOAN_RATE])
    # Ids that csv.writer must quote: commas and quotes. A line break is
    # no longer a valid id (SecurityProfile rejects it).
    ids = sorted(draw(st.lists(st.text(alphabet='AZ09 ,"-', max_size=4), min_size=n_securities,
                               max_size=n_securities, unique=True)))
    offsets = sorted(draw(st.lists(st.integers(0, 4000), min_size=n_days, max_size=n_days, unique=True)))
    start = dt.date(2019, 1, 1).toordinal()
    profiles = tuple(
        SecurityProfile(security_id, draw(st.sampled_from(["JP", "US"])),
                        draw(st.floats(1.0, 5.0)), draw(st.floats(-10.0, 10.0)))
        for security_id in ids
    )
    return LendingDataset(
        dates=tuple(dt.date.fromordinal(start + k) for k in offsets),
        security_ids=tuple(ids),
        values=values,
        profiles=profiles,
    )


@SETTINGS
@given(panels())
def test_export_ingest_round_trip_is_exact(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        export_csv(dataset, tmp)
        assert same_dataset(ingest_csv(tmp), dataset)


@SETTINGS
@given(panels())
def test_observation_bytes_match_per_cell_repr(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        obs_path, _ = export_csv(dataset, tmp)
        assert obs_path.read_bytes() == reference_observations(dataset)


def test_large_export_matches_per_cell_repr(tmp_path):
    rng = np.random.default_rng(5)
    n_securities, n_days = 40, 30
    values = rng.lognormal(0.0, 12.0, (len(VARIABLES), n_securities, n_days))
    values[ALT_LOAN_RATE] = values[LOAN_RATE] * 1.5
    values[PRICE + 1 :, 3, 7] = 0.0  # every variable but price may be zero
    ids = tuple(f"SEC{i:04d}" for i in range(n_securities))
    dataset = LendingDataset(
        dates=tuple(dt.date(2021, 1, 1) + dt.timedelta(days=t) for t in range(n_days)),
        security_ids=ids,
        values=values,
        profiles=tuple(SecurityProfile(s, "JP", 3.0, 1.0) for s in ids),
    )
    obs_path, _ = export_csv(dataset, tmp_path)
    assert obs_path.read_bytes() == reference_observations(dataset)


def outcome(data_dir: Path):
    """The dataset ingest returns, or the type and message of what it raises."""
    try:
        return ingest_csv(data_dir)
    except Exception as exc:  # noqa: BLE001 - the outcome itself is compared
        return type(exc), str(exc)


def oracle_outcome(data_dir: Path):
    """``outcome`` with the bulk parse off: every chunk is read cell by cell with ``float()``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datastore, "_parse_chunk", lambda chunk: None)
        return outcome(data_dir)


def assert_same_outcome(got, want):
    if isinstance(want, LendingDataset):
        assert isinstance(got, LendingDataset), got
        assert same_dataset(got, want)
    else:
        assert got == want


GOOD_ROW = "{date},{sid},100.0,1000.0,2000.0,{volume},1e6,0.05,0.06"


def write_desk(tmp_path: Path, volume: str, *, extra_rows=(), n_days: int = 6) -> Path:
    """Two securities over ``n_days``; AAA's volume on its fourth day is ``volume``."""
    rows = []
    for sid in ("AAA", "BBB"):
        for t in range(n_days):
            date = (dt.date(2021, 1, 4) + dt.timedelta(days=t)).isoformat()
            cell = volume if (sid, t) == ("AAA", 3) else "500.0"
            rows.append(GOOD_ROW.format(date=date, sid=sid, volume=cell))
    rows[5:5] = extra_rows
    (tmp_path / OBSERVATIONS_FILENAME).write_text("\n".join([OBS_HEADER, *rows]) + "\n")
    (tmp_path / PROFILES_FILENAME).write_text(f"{PROF_HEADER}\nAAA,JP,4.0,1.5\nBBB,JP,4.0,1.5\n")
    return tmp_path


# Outcome of each spelling under the per-cell reader: the value it parses
# to, or the start of the error it raises.
SPELLINGS = {
    ".5": 0.5,
    "+1": 1.0,
    "1_0": 10.0,
    " 1.5": 1.5,
    "1E5": 1e5,
    "7": 7.0,
    "-0": -0.0,
    '"1.5"': 1.5,
    "1e400": "column 'volume' is not finite",
    "nan": "column 'volume' is not finite",
    "true": "column 'volume' is not numeric: 'true'",
    "null": "column 'volume' is not numeric: 'null'",
    "[1]": "column 'volume' is not numeric: '[1]'",
    "": "column 'volume' is not numeric: ''",
}


@pytest.mark.parametrize("chunk_chars", [1 << 17, 1], ids=["one_chunk", "line_per_chunk"])
@pytest.mark.parametrize("spelling", list(SPELLINGS))
def test_cell_spellings_ingest_as_per_cell_float(tmp_path, monkeypatch, spelling, chunk_chars):
    monkeypatch.setattr(datastore, "_INGEST_CHUNK_CHARS", chunk_chars)
    data_dir = write_desk(tmp_path, spelling)
    got = outcome(data_dir)
    assert_same_outcome(got, oracle_outcome(data_dir))
    expected = SPELLINGS[spelling]
    if isinstance(expected, float):
        volume = got.values[VARIABLES.index("volume"), 0, 3]
        assert volume == expected and np.signbit(volume) == np.signbit(expected)
    else:
        assert got[0] is ValueError
        assert got[1].startswith(f"{data_dir / OBSERVATIONS_FILENAME}: row 5: {expected}")


@pytest.mark.parametrize("chunk_chars", [1 << 17, 1], ids=["one_chunk", "line_per_chunk"])
@pytest.mark.parametrize(
    "extra_rows, expected",
    [
        (["2021-01-20,AAA,100.0,1000.0"], "row 7: wrong number of fields"),
        (["2021-01-20,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06,1"], "row 7: wrong number of fields"),
        (["20/01/2021,CCC,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"], "row 7: bad date '20/01/2021'"),
        (["", "2021-01-20,AAA,100.0,1000.0"], "row 7: wrong number of fields"),
        # Six values, then eight: seven per row on average.
        (["2021-01-20,AAA,1,2,3,4,5,6", "2021-01-21,AAA,1,2,3,4,5,6,7,8"], "row 7: wrong number of fields"),
    ],
    ids=["short_row", "long_row", "bad_date", "blank_then_short", "short_then_long"],
)
def test_bad_rows_name_the_same_row(tmp_path, monkeypatch, extra_rows, expected, chunk_chars):
    monkeypatch.setattr(datastore, "_INGEST_CHUNK_CHARS", chunk_chars)
    data_dir = write_desk(tmp_path, "500.0", extra_rows=extra_rows)
    got = outcome(data_dir)
    assert_same_outcome(got, oracle_outcome(data_dir))
    assert got[1] == f"{data_dir / OBSERVATIONS_FILENAME}: {expected}"


@pytest.mark.parametrize("chunk_chars", [1 << 17, 1], ids=["one_chunk", "line_per_chunk"])
def test_crlf_and_blank_lines_ingest_like_per_cell(tmp_path, monkeypatch, chunk_chars):
    monkeypatch.setattr(datastore, "_INGEST_CHUNK_CHARS", chunk_chars)
    data_dir = write_desk(tmp_path, "500.0", extra_rows=[""])
    obs = data_dir / OBSERVATIONS_FILENAME
    obs.write_bytes(obs.read_bytes().replace(b"\n", b"\r\n"))
    got = outcome(data_dir)
    assert isinstance(got, LendingDataset)
    assert_same_outcome(got, oracle_outcome(data_dir))


cell_text = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, max_value=1e30).map(lambda x: f"{x:.6e}"),
    st.integers(0, 10**25).map(str),
    st.text(alphabet="0123456789+-.eE_ inaftrul", max_size=8),
)


@SETTINGS
@given(column=st.integers(0, len(VARIABLES) - 1), cell=cell_text)
def test_random_cell_ingests_as_per_cell_float(column, cell):
    cells = ["100.0", "1000.0", "2000.0", "500.0", "1e6", "0.05", "0.06"]
    cells[column] = cell
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        row = ",".join(["2021-01-05", "AAA", *cells])
        good = "2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"
        (data_dir / OBSERVATIONS_FILENAME).write_text(f"{OBS_HEADER}\n{good}\n{row}\n")
        (data_dir / PROFILES_FILENAME).write_text(f"{PROF_HEADER}\nAAA,JP,4.0,1.5\n")
        assert_same_outcome(outcome(data_dir), oracle_outcome(data_dir))


# Cells the bulk parse must read as float() does: "-0" is the int 0 in
# JSON, "7" an int, "1e-05" is repr() text orjson never writes, and "1_0"
# is no JSON number at all.
ODD_CELLS = ["-0", "7", "1e-05", "1_0"]


@st.composite
def desk_files(draw) -> tuple[bytes, bytes]:
    """observations.csv and profiles.csv of a panel, rewritten the ways desk files differ from export."""
    panel = draw(panels())
    n_securities, n_days = len(panel.security_ids), len(panel.dates)
    # Ids of different lengths, non-ASCII ones, and ones csv.writer quotes.
    ids = sorted(draw(st.lists(st.text(alphabet='AZ09 ,"-éü日', max_size=6), min_size=n_securities,
                               max_size=n_securities, unique=True)))
    dataset = LendingDataset(
        dates=panel.dates,
        security_ids=tuple(ids),
        values=np.array(panel.values),
        profiles=tuple(SecurityProfile(s, p.market, p.buy_rating, p.beta) for s, p in zip(ids, panel.profiles)),
    )
    header, *rows = reference_observations(dataset).decode().split("\n")[:-1]
    cells = [row.rsplit(",", len(VARIABLES)) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(cells) - 1))
        cells[row][1 + draw(st.integers(0, len(VARIABLES) - 1))] = draw(st.sampled_from(ODD_CELLS))
    rows = [",".join(row) for row in cells]
    if draw(st.booleans()):  # date-major, as desk files often are
        rows = [rows[i * n_days + t] for t in range(n_days) for i in range(n_securities)]
    # A bare CR ends a line too, as in a text file opened with newline="".
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([header, *rows]) + (newline if draw(st.booleans()) else "")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["security_id", "market", "buy_rating", "beta"])
    for p in dataset.profiles:
        writer.writerow([p.security_id, p.market, repr(p.buy_rating), repr(p.beta)])
    return text.encode("utf-8"), buf.getvalue().encode("utf-8")


@SETTINGS
@given(desk_files())
def test_bulk_ingest_matches_per_cell_oracle_at_any_chunk_size(files):
    observations, profiles = files
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        (data_dir / OBSERVATIONS_FILENAME).write_bytes(observations)
        (data_dir / PROFILES_FILENAME).write_bytes(profiles)
        want = oracle_outcome(data_dir)
        for chunk_chars in (1, 64, 1 << 20):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(datastore, "_INGEST_CHUNK_CHARS", chunk_chars)
                assert_same_outcome(outcome(data_dir), want)


def test_exported_file_takes_the_bulk_path(tmp_path, monkeypatch):
    dataset = LendingDataset(
        dates=(dt.date(2021, 1, 4), dt.date(2021, 1, 5)),
        security_ids=("AAA", "BBBB"),
        values=np.full((len(VARIABLES), 2, 2), 0.25),
        profiles=(SecurityProfile("AAA", "JP", 3.0, 1.0), SecurityProfile("BBBB", "JP", 3.0, 1.0)),
    )
    export_csv(dataset, tmp_path)

    def per_cell(*args):
        raise AssertionError("a plain exported chunk was parsed cell by cell")

    monkeypatch.setattr(datastore, "_parse_records", per_cell)
    assert same_dataset(ingest_csv(tmp_path), dataset)


@pytest.mark.parametrize("chunk_chars", [1, 64, 1 << 20])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_undecodable_byte_names_the_row_like_the_oracle(tmp_path, chunk_chars, quoted):
    data_dir = write_desk(tmp_path, "500.0")
    obs = data_dir / OBSERVATIONS_FILENAME
    text = obs.read_bytes()
    if quoted:
        text = text.replace(b"04,AAA,", b'04,"AAA",')
    obs.write_bytes(text.replace(b"08,BBB,", b"08,B\xffB,"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datastore, "_INGEST_CHUNK_CHARS", chunk_chars)
        got = outcome(data_dir)
    assert got == oracle_outcome(data_dir)
    assert got == (ValueError, f"{obs}: row 12: not UTF-8")


@pytest.mark.parametrize("chunk_chars", [1, 1 << 20])
def test_first_bad_date_is_named_not_the_least(tmp_path, chunk_chars):
    # "2021-00-04" sorts before "2021-13-04" but comes later in the file.
    data_dir = write_desk(tmp_path, "500.0")
    obs = data_dir / OBSERVATIONS_FILENAME
    obs.write_bytes(obs.read_bytes().replace(b"2021-01-05,AAA", b"2021-13-04,AAA")
                    .replace(b"2021-01-06,AAA", b"2021-00-04,AAA"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datastore, "_INGEST_CHUNK_CHARS", chunk_chars)
        got = outcome(data_dir)
    assert got == oracle_outcome(data_dir)
    assert got == (ValueError, f"{obs}: row 3: bad date '2021-13-04'")


@pytest.mark.parametrize("chunk_chars", [1, 1 << 20])
def test_bare_cr_inside_a_line_ends_it_like_the_oracle(tmp_path, chunk_chars):
    data_dir = write_desk(tmp_path, "500.0")
    obs = data_dir / OBSERVATIONS_FILENAME
    obs.write_bytes(obs.read_bytes().replace(b"05,AAA,", b"05,AA\rA,"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datastore, "_INGEST_CHUNK_CHARS", chunk_chars)
        got = outcome(data_dir)
    assert got == oracle_outcome(data_dir)
    assert got == (SchemaError, f"{obs}: row 3: wrong number of fields")
