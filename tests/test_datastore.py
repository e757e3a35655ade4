"""CSV interchange: round trips, determinism, validation errors."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import shortbasket
from shortbasket.config import DEFAULT_SEED_RANGES
from shortbasket.datastore import (
    OBSERVATIONS_FILENAME,
    PROFILES_FILENAME,
    atomic_write_text,
    export_csv,
    ingest_csv,
    load_profiles,
)
from shortbasket.errors import OrderError, SchemaError
from shortbasket.simulate import simulate_universe

from conftest import dataset_from_series, make_profile, series_from_columns

OBS_HEADER = "date,security_id,price,availability,short_interest,volume,loan_balance,loan_rate,alt_loan_rate"
PROF_HEADER = "security_id,market,buy_rating,beta"


def write_dataset_dir(tmp_path, obs_rows: list[str], prof_rows: list[str]):
    (tmp_path / OBSERVATIONS_FILENAME).write_text("\n".join([OBS_HEADER] + obs_rows) + "\n")
    (tmp_path / PROFILES_FILENAME).write_text("\n".join([PROF_HEADER] + prof_rows) + "\n")
    return tmp_path


def test_export_ingest_round_trip(tmp_path):
    dataset = simulate_universe(DEFAULT_SEED_RANGES, 4, 12, 21)
    export_csv(dataset, tmp_path)
    assert ingest_csv(tmp_path) == dataset


def test_export_is_deterministic(tmp_path):
    dataset = simulate_universe(DEFAULT_SEED_RANGES, 3, 9, 8)
    a, b = tmp_path / "a", tmp_path / "b"
    export_csv(dataset, a)
    export_csv(dataset, b)
    assert (a / OBSERVATIONS_FILENAME).read_bytes() == (b / OBSERVATIONS_FILENAME).read_bytes()
    assert (a / PROFILES_FILENAME).read_bytes() == (b / PROFILES_FILENAME).read_bytes()


def test_row_counts(tmp_path):
    dataset = dataset_from_series(
        *(series_from_columns(f"SEC{i:04d}", 10) for i in range(1, 6))
    )
    obs_path, _ = export_csv(dataset, tmp_path)
    lines = obs_path.read_text().splitlines()
    assert len(lines) == 5 * 10 + 1


def test_single_observation_two_line_file(tmp_path):
    dataset = dataset_from_series(series_from_columns("SEC0001", 1))
    obs_path, _ = export_csv(dataset, tmp_path)
    assert len(obs_path.read_text().splitlines()) == 2


def test_header_only_files_give_empty_dataset(tmp_path):
    write_dataset_dir(tmp_path, [], [])
    dataset = ingest_csv(tmp_path)
    assert dataset.series == ()
    assert dataset.profiles == ()


def test_alt_rate_below_loan_rate_names_row(tmp_path):
    write_dataset_dir(
        tmp_path,
        [
            "2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06",
            "2021-01-05,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.04",
        ],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(ValueError, match=r"row 3.*alt_loan_rate"):
        ingest_csv(tmp_path)


def test_negative_price_names_row(tmp_path):
    write_dataset_dir(
        tmp_path,
        ["2021-01-04,AAA,-1.0,1000.0,2000.0,500.0,1e6,0.05,0.06"],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(ValueError, match=r"row 2.*price"):
        ingest_csv(tmp_path)


def test_non_monotone_dates_rejected(tmp_path):
    write_dataset_dir(
        tmp_path,
        [
            "2021-01-05,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06",
            "2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06",
        ],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(OrderError, match="AAA"):
        ingest_csv(tmp_path)


def test_duplicate_date_rejected(tmp_path):
    write_dataset_dir(
        tmp_path,
        [
            "2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06",
            "2021-01-04,AAA,101.0,1000.0,2000.0,500.0,1e6,0.05,0.06",
        ],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(OrderError):
        ingest_csv(tmp_path)


def test_missing_column_is_schema_error(tmp_path):
    (tmp_path / OBSERVATIONS_FILENAME).write_text(
        "date,security_id,price\n2021-01-04,AAA,100.0\n"
    )
    (tmp_path / PROFILES_FILENAME).write_text(PROF_HEADER + "\nAAA,JP,4.0,1.5\n")
    with pytest.raises(SchemaError, match="availability"):
        ingest_csv(tmp_path)


def test_missing_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="observations.csv"):
        ingest_csv(tmp_path)


def test_profile_coverage_mismatch_rejected(tmp_path):
    write_dataset_dir(
        tmp_path,
        ["2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"],
        ["AAA,JP,4.0,1.5", "BBB,JP,4.0,1.5"],
    )
    with pytest.raises(SchemaError, match="BBB"):
        ingest_csv(tmp_path)


def test_bad_date_names_row(tmp_path):
    write_dataset_dir(
        tmp_path,
        ["04/01/2021,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(ValueError, match="row 2"):
        ingest_csv(tmp_path)


def test_non_numeric_value_names_row_and_column(tmp_path):
    write_dataset_dir(
        tmp_path,
        ["2021-01-04,AAA,100.0,1000.0,x,500.0,1e6,0.05,0.06"],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(ValueError, match=r"row 2.*short_interest"):
        ingest_csv(tmp_path)


def test_load_profiles_standalone(tmp_path):
    path = tmp_path / PROFILES_FILENAME
    path.write_text(PROF_HEADER + "\nAAA,TW,3.5,1.1\n")
    profiles = load_profiles(path)
    assert profiles["AAA"].market == "TW"
    assert profiles["AAA"].beta == 1.1


def test_dataset_requires_matching_ids():
    series = series_from_columns("SEC0001", 3)
    with pytest.raises(SchemaError):
        dataset_from_series(series, profiles=[make_profile("SEC0002")])


def test_dataset_rejects_unsorted_ids():
    a, b = series_from_columns("SEC0001", 3), series_from_columns("SEC0002", 3)
    with pytest.raises(ValueError, match="sorted"):
        dataset_from_series(b, a)


def test_dataset_values_are_read_only():
    dataset = dataset_from_series(series_from_columns("SEC0001", 3))
    with pytest.raises(ValueError):
        dataset.values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        dataset.series[0].column("price")[0] = 1.0


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_value_names_row_and_column(tmp_path, raw):
    write_dataset_dir(
        tmp_path,
        [
            "2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06",
            f"2021-01-05,AAA,100.0,1000.0,2000.0,{raw},1e6,0.05,0.06",
        ],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(ValueError, match=r"observations\.csv: row 3: column 'volume' is not finite"):
        ingest_csv(tmp_path)


def test_non_finite_beta_names_row(tmp_path):
    write_dataset_dir(
        tmp_path,
        ["2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"],
        ["AAA,JP,4.0,nan"],
    )
    with pytest.raises(ValueError, match=r"profiles\.csv: row 2: beta must be finite"):
        ingest_csv(tmp_path)


@pytest.mark.parametrize(
    "bbb_dates, first_difference",
    [(["2021-01-04", "2021-01-06"], "2021-01-06"), (["2021-01-04"], "2021-01-05")],
)
def test_securities_must_share_one_calendar(tmp_path, bbb_dates, first_difference):
    row = "{},{},100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"
    write_dataset_dir(
        tmp_path,
        [row.format(d, "AAA") for d in ("2021-01-04", "2021-01-05")]
        + [row.format(d, "BBB") for d in bbb_dates],
        ["AAA,JP,4.0,1.5", "BBB,JP,4.0,1.5"],
    )
    with pytest.raises(SchemaError, match=rf"observations\.csv: BBB: .*{first_difference}"):
        ingest_csv(tmp_path)


def test_date_major_file_ingests_like_security_major(tmp_path):
    dataset = simulate_universe(DEFAULT_SEED_RANGES, 3, 5, 4)
    obs_path, _ = export_csv(dataset, tmp_path)
    header, *rows = obs_path.read_text().splitlines()
    rows.sort(key=lambda line: (line.split(",")[0], line.split(",")[1]))
    obs_path.write_text("\n".join([header] + rows) + "\n")
    assert ingest_csv(tmp_path) == dataset


def test_load_profiles_rejects_duplicate_id(tmp_path):
    path = tmp_path / PROFILES_FILENAME
    path.write_text(PROF_HEADER + "\nAAA,TW,3.5,1.1\nAAA,JP,4.0,1.2\n")
    with pytest.raises(SchemaError, match=r"profiles\.csv: row 3: duplicate profile for AAA"):
        load_profiles(path)


def test_load_profiles_rejects_short_row(tmp_path):
    path = tmp_path / PROFILES_FILENAME
    path.write_text(PROF_HEADER + "\nAAA,TW,3.5\n")
    with pytest.raises(SchemaError, match=r"profiles\.csv: row 2: wrong number of fields"):
        load_profiles(path)


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def chunks():
        yield "partial\n"
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write_text(target, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert target.read_text() == "old\n"


def test_concurrent_writers_to_one_path_both_finish(tmp_path):
    # Both writers hold their temp files at once: each waits for the other
    # half-way through its chunks.
    target = tmp_path / "out.csv"
    halfway = threading.Barrier(2, timeout=10)
    errors = []

    def write(tag: str) -> None:
        def chunks():
            yield f"{tag} first half\n"
            halfway.wait()
            yield f"{tag} second half\n"

        try:
            atomic_write_text(target, chunks())
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(tag,)) for tag in ("a", "b")]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=10)
    assert not any(writer.is_alive() for writer in writers)
    assert errors == []
    assert target.read_text() in ("a first half\na second half\n", "b first half\nb second half\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_atomic_write_file_mode_follows_umask(tmp_path):
    umask = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "out.csv", "x\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize("security_id", ["A\rB", "A\nB"])
def test_dataset_rejects_line_break_in_id(security_id):
    # csv.writer leaves an id with a bare \r unquoted, and ingest would
    # then split its row in two
    with pytest.raises(ValueError, match="line break"):
        dataset_from_series(series_from_columns(security_id, 3))


def test_ingest_rejects_quoted_line_break_in_profile_id(tmp_path):
    write_dataset_dir(
        tmp_path,
        ['2021-01-04,"A\rB",100.0,1000.0,2000.0,500.0,1e6,0.05,0.06'],
        ['"A\rB",JP,4.0,1.5'],
    )
    with pytest.raises(ValueError, match=r"profiles\.csv: row 2: .*line break"):
        ingest_csv(tmp_path)


def test_import_does_not_load_orjson():
    # orjson is loaded by the CSV codec when it first runs, not by import
    src = str(Path(shortbasket.__file__).resolve().parents[1])
    code = "import sys, shortbasket, shortbasket.cli; print('orjson' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("spelling", ["20210104", "2021-W01-1", "2021W011", "2021-01-4", "2021-004"])
def test_only_yyyy_mm_dd_dates_are_accepted(tmp_path, spelling):
    # date.fromisoformat of Python 3.11 also reads the basic and week
    # spellings; ingest must not depend on the Python version
    write_dataset_dir(
        tmp_path,
        [f"{spelling},AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"],
        ["AAA,JP,4.0,1.5"],
    )
    with pytest.raises(ValueError, match=rf"observations\.csv: row 2: bad date '{spelling}'$"):
        ingest_csv(tmp_path)


def test_one_day_spelled_two_ways_is_rejected(tmp_path):
    row = "{},{},100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"
    write_dataset_dir(
        tmp_path,
        [row.format("2021-01-04", "AAA"), row.format("20210104", "BBB")],
        ["AAA,JP,4.0,1.5", "BBB,JP,4.0,1.5"],
    )
    with pytest.raises(ValueError, match=r"observations\.csv: row 3: bad date '20210104'$"):
        ingest_csv(tmp_path)


def test_undecodable_observation_names_file_and_row(tmp_path):
    row = "2021-01-0{},{},100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"
    write_dataset_dir(tmp_path, [row.format(4, "AAA"), row.format(5, "AAA")], ["AAA,JP,4.0,1.5"])
    obs = tmp_path / OBSERVATIONS_FILENAME
    obs.write_bytes(obs.read_bytes().replace(b"05,AAA", b"05,A\xffA"))
    with pytest.raises(ValueError, match=r"observations\.csv: row 3: not UTF-8$"):
        ingest_csv(tmp_path)


@pytest.mark.parametrize("row", [2, 3])
def test_undecodable_profile_names_file_and_row(tmp_path, row):
    write_dataset_dir(
        tmp_path,
        ["2021-01-04,AAA,100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"],
        ["AAA,JP,4.0,1.5", "BBB,JP,4.0,1.5"],
    )
    prof = tmp_path / PROFILES_FILENAME
    lines = prof.read_bytes().split(b"\n")
    lines[row - 1] = lines[row - 1].replace(b"JP", b"J\xff")
    prof.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=rf"profiles\.csv: row {row}: not UTF-8$"):
        load_profiles(prof)


@pytest.mark.parametrize("first_id", ["AAA", '"AAA"'], ids=["plain", "quoted"])
def test_undecodable_row_is_named_before_a_later_short_row(tmp_path, first_id):
    row = "2021-01-0{},{},100.0,1000.0,2000.0,500.0,1e6,0.05,0.06"
    write_dataset_dir(
        tmp_path,
        [row.format(4, first_id), row.format(5, "AAA"), "2021-01-06,AAA,100.0"],
        ["AAA,JP,4.0,1.5"],
    )
    obs = tmp_path / OBSERVATIONS_FILENAME
    obs.write_bytes(obs.read_bytes().replace(b"05,AAA", b"05,A\xffA"))
    with pytest.raises(ValueError, match=r"observations\.csv: row 3: not UTF-8$"):
        ingest_csv(tmp_path)
