"""The README's examples run as written.

The JSON block under "Configuration" must load as a run config, and the
Python block under "Library use" must run on the default 100x253
universe it builds. A doc that still names a config key or a library
name that is gone fails here.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from shortbasket.config import run_config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(section: str, language: str) -> str:
    """The first fenced ``language`` block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
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
