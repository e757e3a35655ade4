"""The benchmark tracer's bindings exist in the package.

``perfbench/tracing.py`` rebinds module attributes by name, such as
``scoring.atomic_write_text`` and ``cli.ingest_csv``, to time each
layer. A rename or a dropped import in ``src/`` would otherwise show only
when a traced benchmark run fails at install.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_binding_is_a_callable_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._wrap_targets(tracing.package_modules())
    assert targets
    missing = [f"{owner.__name__}.{attribute}" for owner, attribute, *_ in targets
               if not callable(getattr(owner, attribute, None))]
    assert missing == []
