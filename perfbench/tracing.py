"""Per-layer tracing for the benchmark's traced run.

The traced run measures each module of ``shortbasket`` from outside the
package. It rebinds the module attributes that callers look up at call
time (``shortbasket.cli.ingest_csv``, ``shortbasket.scoring.rate_stats``,
``NoiseStream.generator`` ...) to wrappers that record one span per call,
and restores the originals afterwards. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent span id, pass id, ok)``. Spans are
kept in memory and written out once, at the end of the run. A layer's
self time is its span's duration minus the time its direct child spans
cover; calls on one thread nest, so direct children never overlap.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import json
import os
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def package_modules() -> dict[str, Any]:
    """The shortbasket modules whose bindings the tracer replaces."""
    names = ("cli", "datastore", "pathdiag", "portfolio", "rng", "scoring", "screener", "simulate")
    return {name: importlib.import_module(f"shortbasket.{name}") for name in names}


def _on_main(result, *args, **kwargs) -> dict[str, int]:
    return {"cli.nonzero_exits": int(result != 0)}


def _on_export(result, *args, **kwargs) -> dict[str, int]:
    return {"datastore.export_csv_bytes": sum(os.path.getsize(path) for path in result)}


def _on_write(result, path, *args, **kwargs) -> dict[str, int]:
    return {"datastore.atomic_write_text_bytes": os.path.getsize(path)}


def _on_ingest(result, *args, **kwargs) -> dict[str, int]:
    return {"datastore.ingest_csv_rows": sum(len(s) for s in result.series)}


def _on_score_table(result, *args, **kwargs) -> dict[str, int]:
    return {"scoring.rows_scored": len(result), "scoring.rows_excluded": sum(r.excluded for r in result)}


def _on_filters(result, rows, *args, **kwargs) -> dict[str, int]:
    return {"screener.rows_in": len(rows), "screener.rows_kept": len(result[0])}


def _on_construct(result, *args, **kwargs) -> dict[str, int]:
    return {"portfolio.capped_positions": sum(w >= result.cap for _, w in result.holdings)}


def _wrap_targets(sb: dict[str, Any]) -> list[tuple[Any, str, str, Callable | None, bool]]:
    """``(owner, attribute, name, result hook, records a span)`` for each binding.

    The owner is the module (or class) whose attribute the caller reads:
    ``cli`` imports ``ingest_csv`` into its own namespace, so that is the
    binding to replace, while it reaches scoring through ``scoring.<name>``.
    Count-only bindings are hot inner calls where a count is all the
    per-layer metrics need.
    """
    cli, ds, sc, scr = sb["cli"], sb["datastore"], sb["scoring"], sb["screener"]
    sim, pf, pd = sb["simulate"], sb["portfolio"], sb["pathdiag"]
    return [
        (cli, "main", "cli.main", _on_main, True),
        (cli, "cmd_rank", "cli.cmd_rank", None, False),
        (cli, "load_run_config", "config.load_run_config", None, True),
        (cli, "simulate_universe", "simulate.simulate_universe", None, True),
        (sim, "simulate_security", "simulate.simulate_security", None, True),
        (sim, "draw_params", "simulate.draw_params", None, True),
        (sim, "simulate_gbm", "simulate.simulate_gbm", None, True),
        (sim, "simulate_abs_normal", "simulate.simulate_abs_normal", None, True),
        (sim, "trading_dates", "simulate.trading_dates", None, True),
        (sb["rng"].NoiseStream, "generator", "rng.generator", None, True),
        (cli, "export_csv", "datastore.export_csv", _on_export, True),
        (cli, "ingest_csv", "datastore.ingest_csv", _on_ingest, True),
        (cli, "load_profiles", "datastore.load_profiles", None, True),
        (ds, "atomic_write_text", "datastore.atomic_write_text", _on_write, True),
        (cli, "atomic_write_text", "datastore.atomic_write_text", _on_write, True),
        (sc, "atomic_write_text", "datastore.atomic_write_text", _on_write, True),
        (sc, "score_table", "scoring.score_table", _on_score_table, True),
        (sc, "rate_stats", "scoring.rate_stats", None, True),
        (sc, "moving_average", "scoring.moving_average", None, False),
        (sc, "write_score_csv", "scoring.write_score_csv", None, True),
        (sc, "read_score_csv", "scoring.read_score_csv", None, True),
        (scr, "apply_filters", "screener.apply_filters", _on_filters, True),
        (scr, "rank", "screener.rank", None, True),
        (pf, "construct", "portfolio.construct", _on_construct, True),
        (pd, "make_scenario", "pathdiag.make_scenario", None, True),
        (pd, "path_stats", "pathdiag.path_stats", None, False),
    ]


class Tracer:
    """Records spans and counters for the traced passes of one run."""

    def __init__(self, sb: dict[str, Any]) -> None:
        self._targets = _wrap_targets(sb)
        self._originals: list[tuple[Any, str, Any]] = []
        self._stack: list[int] = []
        self.spans: list[tuple[str, float, float, int | None, int, bool] | None] = []
        self.counts: collections.Counter[tuple[int, str]] = collections.Counter()
        self.pass_id = -1

    def _span(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = len(self.spans)
            self.spans.append(None)
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[span_id] = (name, start, perf_counter(), parent, self.pass_id, False)
                self._stack.pop()
                raise
            self.spans[span_id] = (name, start, perf_counter(), parent, self.pass_id, True)
            self._stack.pop()
            if hook is not None:
                for key, value in hook(result, *args, **kwargs).items():
                    self.counts[(self.pass_id, key)] += value
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(self.pass_id, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, pass_id: int) -> None:
        """Rebind every target to its wrapper; spans get ``pass_id``."""
        self.pass_id = pass_id
        for owner, attr, name, hook, is_span in self._targets:
            fn = getattr(owner, attr)
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn, hook) if is_span else self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def fired(self) -> set[str]:
        """Names of every span and counted call recorded so far."""
        names = {span[0] for span in self.spans if span is not None}
        names |= {key[: -len(".calls")] for _, key in self.counts if key.endswith(".calls")}
        return names

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per traced pass: ``<name>.calls``, ``.s``, ``.self_s``, ``.failed`` and hook counters."""
        child_s: collections.Counter[int] = collections.Counter()
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        stats: dict[int, collections.Counter[str]] = collections.defaultdict(collections.Counter)
        for span_id, (name, start, end, _, pass_id, ok) in enumerate(self.spans):
            row = stats[pass_id]
            row[name + ".calls"] += 1
            row[name + ".s"] += end - start
            row[name + ".self_s"] += end - start - child_s[span_id]
            row[name + ".failed"] += not ok
        for (pass_id, key), value in self.counts.items():
            stats[pass_id][key] += value
        return stats

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, (name, start, end, parent, pass_id, ok) in enumerate(self.spans):
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "pass": pass_id, "ok": ok}
                fh.write(json.dumps(record) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, value from one pass's stats ``p``).
# A metric of a layer that does not run in a workload's passes reads 0.
PER_LAYER: list[tuple[str, str, Callable[[collections.Counter], float]]] = [
    ("rng.generator_calls", "count", lambda p: p["rng.generator.calls"]),
    ("rng.generator_s", "s", lambda p: p["rng.generator.s"]),
    ("simulate.trading_dates_calls", "count", lambda p: p["simulate.trading_dates.calls"]),
    ("simulate.trading_dates_s", "s", lambda p: p["simulate.trading_dates.s"]),
    ("simulate.draw_params_s", "s", lambda p: p["simulate.draw_params.s"]),
    ("simulate.paths_s", "s", lambda p: p["simulate.simulate_gbm.s"] + p["simulate.simulate_abs_normal.s"]),
    ("simulate.security_self_s", "s", lambda p: p["simulate.simulate_security.self_s"]),
    ("datastore.export_csv_s", "s", lambda p: p["datastore.export_csv.s"]),
    ("datastore.export_csv_bytes", "bytes", lambda p: p["datastore.export_csv_bytes"]),
    ("datastore.ingest_csv_s", "s", lambda p: p["datastore.ingest_csv.s"]),
    ("datastore.ingest_csv_rows", "count", lambda p: p["datastore.ingest_csv_rows"]),
    ("datastore.load_profiles_s", "s", lambda p: p["datastore.load_profiles.s"]),
    ("datastore.atomic_write_text_calls", "count", lambda p: p["datastore.atomic_write_text.calls"]),
    ("datastore.atomic_write_text_bytes", "bytes", lambda p: p["datastore.atomic_write_text_bytes"]),
    ("datastore.atomic_write_text_s", "s", lambda p: p["datastore.atomic_write_text.s"]),
    ("scoring.score_table_s", "s", lambda p: p["scoring.score_table.s"]),
    ("scoring.score_table_calls", "count", lambda p: p["scoring.score_table.calls"]),
    ("scoring.rows_scored", "count", lambda p: p["scoring.rows_scored"]),
    ("scoring.rows_excluded", "count", lambda p: p["scoring.rows_excluded"]),
    ("scoring.rate_stats_s", "s", lambda p: p["scoring.rate_stats.s"]),
    ("scoring.rate_stats_calls", "count", lambda p: p["scoring.rate_stats.calls"]),
    ("scoring.moving_average_calls", "count", lambda p: p["scoring.moving_average.calls"]),
    ("scoring.write_score_csv_s", "s", lambda p: p["scoring.write_score_csv.s"]),
    ("scoring.read_score_csv_s", "s", lambda p: p["scoring.read_score_csv.s"]),
    ("screener.apply_filters_s", "s", lambda p: p["screener.apply_filters.s"]),
    ("screener.rows_in", "count", lambda p: p["screener.rows_in"]),
    ("screener.rows_kept", "count", lambda p: p["screener.rows_kept"]),
    ("screener.kept_ratio", "ratio", lambda p: _ratio(p["screener.rows_kept"], p["screener.rows_in"])),
    ("screener.rank_s", "s", lambda p: p["screener.rank.s"]),
    ("screener.rank_calls", "count", lambda p: p["screener.rank.calls"]),
    ("screener.rank_failed", "count", lambda p: p["screener.rank.failed"]),
    ("portfolio.construct_s", "s", lambda p: p["portfolio.construct.s"]),
    ("portfolio.construct_calls", "count", lambda p: p["portfolio.construct.calls"]),
    ("portfolio.construct_failed", "count", lambda p: p["portfolio.construct.failed"]),
    ("portfolio.capped_positions", "count", lambda p: p["portfolio.capped_positions"]),
    ("pathdiag.make_scenario_s", "s", lambda p: p["pathdiag.make_scenario.s"]),
    # make_scenario checks each attempt with two path_stats calls.
    ("pathdiag.attempts_per_scenario", "ratio",
     lambda p: _ratio(p["pathdiag.path_stats.calls"] / 2, p["pathdiag.make_scenario.calls"])),
    ("cli.self_s", "s", lambda p: p["cli.main.self_s"]),
    ("cli.rank_calls_per_rank_stage", "ratio",
     lambda p: _ratio(p["screener.rank.calls"], p["cli.cmd_rank.calls"])),
    ("cli.nonzero_exits", "count", lambda p: p["cli.nonzero_exits"] + p["cli.main.failed"]),
    ("config.load_run_config_s", "s", lambda p: p["config.load_run_config.s"]),
]


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """Median over the traced passes of every per-layer metric; times are multiplied by ``scale``."""
    passes = list(tracer.per_pass().values())
    return {
        name: (statistics.median(float(fn(p)) for p in passes) * (scale if unit == "s" else 1.0), unit)
        for name, unit, fn in PER_LAYER
    }
