"""The three small-CSV readers read one set of rules: profiles.csv, the score table and ranking.csv.

Each case is applied to a valid two-row file of each reader: a
rejection must name the file (and the row, for a bad row), and an
accepted file must parse equal to the file it was made from.
"""

from __future__ import annotations

import re
from dataclasses import astuple

import pytest

from shortbasket.cli import _read_ranking
from shortbasket.datastore import PROFILE_COLUMNS, load_profiles
from shortbasket.errors import SchemaError
from shortbasket.scoring import read_score_csv, write_score_csv

from conftest import make_row, make_table


def profiles_file(tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text(",".join(PROFILE_COLUMNS) + "\nAAA,JP,4.0,1.5\nBBB,TW,3.0,-0.25\n")
    return path


def score_file(tmp_path):
    table = make_table(make_row("AAA"), make_row("BBB", score_four=None, excluded=True, reason="zero_loan_balance"))
    return write_score_csv(table, tmp_path / "scores_ma.csv")


def ranking_file(tmp_path):
    path = tmp_path / "ranking.csv"
    path.write_text("rank,security_id,score\n1,AAA,2.5\n2,BBB,-0.0\n")
    return path


# (writes the valid file, reads a file, its ids, everything else it read)
READERS = {
    "profiles": (profiles_file, load_profiles, list, lambda got: repr([astuple(p)[1:] for p in got.values()])),
    "scores": (score_file, read_score_csv, lambda got: list(got.security_ids),
               lambda got: repr([row._replace(security_id=None) for row in got])),
    "ranking": (ranking_file, _read_ranking, lambda got: list(got.security_ids),
                lambda got: repr((got.scores, got.premium_signs))),
}


def swap_header_columns(lines):
    header = lines[0].split(b",")
    header[:2] = header[1::-1]
    lines[0] = b",".join(header)


REJECTED = {
    "wrong_header": (swap_header_columns, SchemaError, "header mismatch"),
    "short_row": (lambda lines: lines.__setitem__(2, lines[2].rsplit(b",", 1)[0]), SchemaError,
                  "row 3: wrong number of fields"),
    "not_utf8": (lambda lines: lines.__setitem__(2, lines[2].replace(b"BBB", b"B\xffB")), ValueError,
                 "row 3: not UTF-8"),
}

# (edits the lines, how they are joined, the ids then read)
ACCEPTED = {
    "quoted_comma": (lambda lines: lines.__setitem__(2, lines[2].replace(b"BBB", b'"B,B"')), b"\n", ["AAA", "B,B"]),
    "crlf": (lambda lines: None, b"\r\n", ["AAA", "BBB"]),
    "blank_line": (lambda lines: lines.insert(2, b""), b"\n", ["AAA", "BBB"]),
    "no_final_newline": (lambda lines: lines.pop(), b"\n", ["AAA", "BBB"]),
}


def edited(path, edit, line_end=b"\n"):
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b""  # the writer ends the last row with a line feed
    edit(lines)
    path.write_bytes(line_end.join(lines))
    return path


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", REJECTED)
@pytest.mark.parametrize("reader", READERS)
def test_bad_file_is_named_with_its_row(tmp_path, reader, case, line_end):
    write, read, _, _ = READERS[reader]
    edit, error, message = REJECTED[case]
    path = edited(write(tmp_path), edit, line_end)
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}"):
        read(path)


@pytest.mark.parametrize("case", ACCEPTED)
@pytest.mark.parametrize("reader", READERS)
def test_accepted_file_reads_as_the_original(tmp_path, reader, case):
    write, read, ids, rest = READERS[reader]
    want = read(write(tmp_path))
    edit, line_end, want_ids = ACCEPTED[case]
    got = read(edited(write(tmp_path), edit, line_end))
    assert ids(got) == want_ids
    assert rest(got) == rest(want)
