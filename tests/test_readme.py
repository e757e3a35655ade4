"""The README's examples run as written.

The JSON block under "Configuration" must load as a run config, the
Python block under "Library use" must run on the default 100x253
universe it builds, and each header under "File formats" must be its
file's column constant. A doc that still names a config key, a library
name or a column that is gone fails here.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from shortbasket.cli import ALLOCATION_COLUMNS, EXCLUDED_COLUMNS, RANKING_COLUMNS, VOL_PATH_COLUMNS
from shortbasket.config import run_config_from_dict
from shortbasket.datastore import OBSERVATION_COLUMNS, PROFILE_COLUMNS
from shortbasket.scoring import SCORE_CSV_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"

# Each CSV file the pipeline writes, by its name under "File formats", and its header constant.
FILE_HEADERS = {
    "observations.csv": OBSERVATION_COLUMNS,
    "profiles.csv": PROFILE_COLUMNS,
    "scores_<flavor>.csv": SCORE_CSV_COLUMNS,
    "ranking.csv": RANKING_COLUMNS,
    "excluded.csv": EXCLUDED_COLUMNS,
    "allocation.csv": ALLOCATION_COLUMNS,
    "vol_paths_kind<k>.csv": VOL_PATH_COLUMNS,
}


def section_text(heading: str) -> str:
    """The text under the ``## heading`` heading, up to the next one."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def code_block(section: str, language: str) -> str:
    """The first fenced ``language`` block under the ``## section`` heading."""
    body = section_text(section)
    match = re.search(rf"^```{language}\n(.*?)^```$", body, re.MULTILINE | re.DOTALL)
    assert match, f"no {language} block under {section!r}"
    return match.group(1)


def test_configuration_block_loads():
    cfg = run_config_from_dict(json.loads(code_block("Configuration", "json")))
    assert (cfg.portfolio.top_m, cfg.portfolio.cap) == (20, 0.1)


def test_library_use_block_runs():
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code_block("Library use", "python"), str(README), "exec"), namespace)
    assert len(namespace["dataset"].security_ids) == 100
    assert namespace["basket"].size == 5


def test_file_format_headers():
    # each bullet opens with the file's name and its header: "* `name` — `header`"
    documented = dict(re.findall(r"^\* `([^`]+)` —\s+`([^`]+)`", section_text("File formats"), re.MULTILINE))
    assert documented == {name: ",".join(columns) for name, columns in FILE_HEADERS.items()}
