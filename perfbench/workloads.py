"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed with the package's
own functions, then runs passes of the work a user does. A pass times
only the calls into ``shortbasket``, in a block of ``speed.Sampler``;
preparing its directory and checking its outputs happen outside it.

Why these three:

* ``simulate_1000`` is the write path: ``shortbasket simulate`` of
  1000 securities x 253 days. It runs rng, simulate and export and never
  ingests, scores or ranks, so changes to those layers should not move it.
* ``desk_1000`` is the read path: the morning desk run (score in all
  three flavors, then rank and portfolio per flavor) on a 1000x253 CSV
  dataset written during setup. Simulate and export run only in setup,
  so it separates ingest and scoring gains from write-path costs.
* ``rescore_sweep_100`` is the in-memory parameter sweep a researcher
  runs on a 100x253 dataset: scoring dominates, with filter, rank,
  construct and the volatility diagnostics. No file I/O, so datastore
  changes should not move it.

Stage operations (a CLI command, or one library call in the sweep) are
counted as attempted, refused or unexpected. One refusal is known and
documented, and is counted, never avoided: under the ``first_day``
flavor the loan-balance growth is always 1.0, because the lag clamps to
day 0 while the rate window is anchored forward, so the default
``min_lbg`` filter removes every row and ``rank`` raises
``EmptyAfterFilters``. Any other failure is unexpected.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ContextManager

from speed import Block

from shortbasket import cli, pathdiag, portfolio, scoring, screener
from shortbasket.config import RunConfig
from shortbasket.datastore import OBSERVATIONS_FILENAME, PROFILES_FILENAME, ingest_csv
from shortbasket.errors import EmptyAfterFilters, ShortBasketError
from shortbasket.simulate import simulate_universe

N_DAYS = 253
DESK_TOP, DESK_CAP = 20, 0.10
FLAVOR_FLAGS = {"ma": "ma", "first_day": "first-day", "last_day": "last-day"}
EMPTY_AFTER_FILTERS_MESSAGE = "no securities survived the filters"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``shortbasket.cli.main`` in-process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


@dataclass
class Ledger:
    """Stage operations attempted, refused (known defect) and unexpected, plus check results."""

    attempted: int = 0
    refused: int = 0
    unexpected: list[str] = field(default_factory=list)
    check_failures: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)

    def same_bytes(self, name: str, digest: str) -> None:
        """Record an output's sha256; every pass of one seed must match the first."""
        first = self.hashes.setdefault(name, digest)
        self.check(first == digest, f"{name}: bytes differ between passes of one seed")

    @property
    def failed(self) -> int:
        return self.refused + len(self.unexpected)


def check_ranking(ledger: Ledger, where: str, ranks: list[int]) -> None:
    ledger.check(ranks == list(range(1, len(ranks) + 1)), f"{where}: ranks are not contiguous from 1")


def check_allocation(
    ledger: Ledger, where: str, holdings: list[tuple[str, float]], ranked_ids: list[str], top: int, cap: float
) -> None:
    weights = [w for _, w in holdings]
    ledger.check(
        abs(math.fsum(weights) - 1.0) <= portfolio.SUM_TOL, f"{where}: weights sum to {math.fsum(weights)}"
    )
    ledger.check(
        all(0 < w <= cap + portfolio.CAP_TOL for w in weights), f"{where}: a weight is outside (0, {cap}]"
    )
    ledger.check(
        [sid for sid, _ in holdings] == ranked_ids[:top], f"{where}: holdings are not the ranking's first {top} ids"
    )


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    setup_repeats = 1
    # Spans (or counted calls) the traced run must see; a missing one means
    # a wrapped binding is no longer the one callers look up.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.ledger = Ledger()

    def build_inputs(self, timed: Callable[[], ContextManager[Block]]) -> Block:
        """One build of the workload's inputs, in a ``timed()`` block; setup runs it ``setup_repeats`` times."""
        raise NotImplementedError

    def run_pass(self, index: int, timed: Callable[[], ContextManager[Block]]) -> Block:
        """Run one pass in a ``timed()`` block, check its outputs, return the block."""
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks that run once, after the timed passes."""


class Simulate1000(Workload):
    name = "simulate_1000"
    expected_spans = (
        "cli.main",
        "config.load_run_config",
        "simulate.simulate_universe",
        "simulate.simulate_security",
        "simulate.draw_params",
        "simulate.simulate_gbm",
        "simulate.simulate_abs_normal",
        "simulate.trading_dates",
        "rng.generator",
        "datastore.export_csv",
        "datastore.atomic_write_text",
    )
    N_SECURITIES = 1000

    def build_inputs(self, timed: Callable[[], ContextManager[Block]]) -> Block:
        with timed() as block:
            self.argv = ["simulate", "--n-securities", self.N_SECURITIES, "--n-days", N_DAYS,
                         "--master-seed", self.seed]
            self.work_dir.mkdir(parents=True, exist_ok=True)
        return block

    def run_pass(self, index: int, timed: Callable[[], ContextManager[Block]]) -> Block:
        out = self.work_dir / f"pass{index}"
        with timed() as block:
            code, err = run_cli([*self.argv, "--out", out])
        self.ledger.attempted += 1
        if code != 0:
            self.ledger.unexpected.append(f"pass {index}: simulate exited {code}: {err.strip()}")
        else:
            for path in sorted(out.iterdir()):
                self.ledger.same_bytes(path.name, sha256_file(path))
        if index > 0 and out.exists():  # the warm-up pass's dataset stays for the ingest check
            shutil.rmtree(out)
        return block

    def final_checks(self) -> None:
        try:
            dataset = ingest_csv(self.work_dir / "pass0")
        except (ShortBasketError, OSError, ValueError) as exc:
            self.ledger.check(False, f"simulated dataset does not ingest: {exc}")
            return
        self.ledger.check(
            len(dataset.series) == self.N_SECURITIES and all(len(s) == N_DAYS for s in dataset.series)
            and len(dataset.profiles) == self.N_SECURITIES,
            "simulated dataset does not ingest back as 1000 securities x 253 days",
        )


class Desk1000(Workload):
    name = "desk_1000"
    # One build simulates and exports 1000x253 in several seconds; repeating
    # it would leave too little of the run's time budget for timed passes.
    setup_repeats = 1
    expected_spans = (
        "cli.main",
        "cli.cmd_rank",
        "config.load_run_config",
        "datastore.ingest_csv",
        "datastore.load_profiles",
        "datastore.atomic_write_text",
        "scoring.score_table",
        "scoring.rate_stats",
        "scoring.moving_average",
        "scoring.write_score_csv",
        "scoring.read_score_csv",
        "screener.apply_filters",
        "screener.rank",
        "portfolio.construct",
    )

    def build_inputs(self, timed: Callable[[], ContextManager[Block]]) -> Block:
        # A child process builds the dataset, so that peak_rss_mb of this
        # process reflects the passes and not the simulation. The child
        # samples its own speed and prints its timed block, so ``timed`` is
        # not used here. subprocess.run waits for the child, and kills and
        # reaps it if this process fails.
        self.inputs = self.work_dir / "inputs"
        script = Path(__file__).resolve().parent / "build_desk.py"
        proc = subprocess.run([sys.executable, str(script), str(self.inputs), str(self.seed)],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"building the desk dataset failed (exit code {proc.returncode})")
        return Block(**json.loads(proc.stdout.splitlines()[-1]))

    def run_pass(self, index: int, timed: Callable[[], ContextManager[Block]]) -> Block:
        # Each morning the desk delivers the two CSV files into a fresh
        # directory; nothing else written next to them is carried over.
        pass_dir = self.work_dir / f"pass{index}"
        data, runs = pass_dir / "data", pass_dir / "runs"
        data.mkdir(parents=True)
        for name in (OBSERVATIONS_FILENAME, PROFILES_FILENAME):
            shutil.copyfile(self.inputs / name, data / name)

        results = []
        with timed() as block:
            flavor_args = [a for flag in FLAVOR_FLAGS.values() for a in ("--flavor", flag)]
            results.append(run_cli(["score", "--data", data, *flavor_args, "--out", runs]))
            for flavor in FLAVOR_FLAGS:
                out = runs / flavor
                results.append(run_cli(["rank", "--scores", runs / f"scores_{flavor}.csv",
                                        "--profiles", data / PROFILES_FILENAME, "--out", out]))
                results.append(run_cli(["portfolio", "--ranking", out / "ranking.csv",
                                        "--top", DESK_TOP, "--cap", DESK_CAP, "--out", out]))

        self._check(index, runs, results)
        shutil.rmtree(pass_dir)
        return block

    def _check(self, index: int, runs: Path, results: list[tuple[int, str]]) -> None:
        ledger = self.ledger
        ledger.attempted += len(results)
        (score_code, _), per_flavor = results[0], results[1:]
        if score_code != 0:
            ledger.unexpected += [
                f"pass {index}: command {i} exited {code}: {err.strip()}"
                for i, (code, err) in enumerate(results)
                if code != 0
            ]
            return
        for flavor in FLAVOR_FLAGS:
            ledger.same_bytes(f"scores_{flavor}.csv", sha256_file(runs / f"scores_{flavor}.csv"))
        for flavor, (rank_code, rank_err), (port_code, port_err) in zip(
            FLAVOR_FLAGS, per_flavor[0::2], per_flavor[1::2]
        ):
            where = f"pass {index} {flavor}"
            out = runs / flavor
            if rank_code != 0:
                known = flavor == "first_day" and rank_code == 1 and EMPTY_AFTER_FILTERS_MESSAGE in rank_err
                if known and port_code == 1 and not (out / "ranking.csv").exists():
                    ledger.refused += 2
                else:
                    ledger.unexpected.append(f"{where}: rank exited {rank_code}: {rank_err.strip()}")
                    if port_code != 0:
                        ledger.unexpected.append(f"{where}: portfolio exited {port_code}: {port_err.strip()}")
                continue
            for name in ("ranking.csv", "excluded.csv"):
                ledger.same_bytes(f"{flavor}/{name}", sha256_file(out / name))
            ranking = _read_csv(out / "ranking.csv")
            check_ranking(ledger, where, [int(r["rank"]) for r in ranking])
            if port_code != 0:
                ledger.unexpected.append(f"{where}: portfolio exited {port_code}: {port_err.strip()}")
                continue
            ledger.same_bytes(f"{flavor}/allocation.csv", sha256_file(out / "allocation.csv"))
            holdings = [(r["security_id"], float(r["weight"])) for r in _read_csv(out / "allocation.csv")]
            check_allocation(ledger, where, holdings, [r["security_id"] for r in ranking], DESK_TOP, DESK_CAP)


class RescoreSweep100(Workload):
    name = "rescore_sweep_100"
    setup_repeats = 3
    expected_spans = (
        "scoring.score_table",
        "scoring.rate_stats",
        "scoring.moving_average",
        "screener.apply_filters",
        "screener.rank",
        "portfolio.construct",
        "pathdiag.make_scenario",
        "pathdiag.path_stats",
    )
    N_SECURITIES = 100
    WINDOWS = (20, 60, 120)
    SELECTORS = ("one", "two", "three", "four")
    DROP_BOTTOM_PCT = 20.0
    # (filters, top M, cap): the default screen feeds a small concentrated
    # basket, the permissive one a wide capped basket.
    SCREENS = (("default", (5, 0.25)), ("permissive", (20, 0.10)))

    def build_inputs(self, timed: Callable[[], ContextManager[Block]]) -> Block:
        with timed() as block:
            cfg = RunConfig()
            self.dataset = simulate_universe(cfg.seed_ranges, self.N_SECURITIES, N_DAYS, self.seed)
            self.score_cfg = cfg.scoring
            self.filters = {"default": cfg.filters, "permissive": screener.FilterConfig.permissive()}
        return block

    def run_pass(self, index: int, timed: Callable[[], ContextManager[Block]]) -> Block:
        ledger = self.ledger
        ranked_out, scenarios = [], []
        with timed() as block:
            for window in self.WINDOWS:
                score_cfg = replace(self.score_cfg, ma_window=window, vol_window=window)
                for flavor in scoring.FLAVORS:
                    rows = scoring.score_table(self.dataset, score_cfg, flavor)
                    for screen, (top, cap) in self.SCREENS:
                        kept, _ = screener.apply_filters(rows, self.dataset.profiles, self.filters[screen])
                        for selector in self.SELECTORS:
                            where = f"pass {index} window {window} {flavor} {screen} score_{selector}"
                            try:
                                ranked = screener.rank(kept, selector, self.DROP_BOTTOM_PCT)
                            except EmptyAfterFilters:
                                if flavor == "first_day" and screen == "default" and not kept:
                                    ledger.refused += 1
                                else:
                                    ledger.unexpected.append(f"{where}: rank found nothing to rank")
                                continue
                            except Exception as exc:
                                ledger.unexpected.append(f"{where}: rank raised {exc!r}")
                                continue
                            try:
                                allocation = portfolio.construct(ranked, top, cap)
                            except Exception as exc:
                                ledger.unexpected.append(f"{where}: construct raised {exc!r}")
                                allocation = None
                            ranked_out.append((where, top, cap, ranked, allocation))
            for kind in (1, 2, 3):
                scenarios.append(pathdiag.make_scenario(kind, -0.09 if kind == 3 else 0.09, 30, self.seed))

        n_tables = len(self.WINDOWS) * len(scoring.FLAVORS)
        n_ranks = n_tables * len(self.SCREENS) * len(self.SELECTORS)
        # score_table + apply_filters + rank + construct (after a ranking) + make_scenario
        ledger.attempted += n_tables * (1 + len(self.SCREENS)) + n_ranks + len(ranked_out) + len(scenarios)
        digest = hashlib.sha256()
        for where, top, cap, ranked, allocation in ranked_out:
            check_ranking(ledger, where, [r.rank for r in ranked])
            digest.update(repr([(r.security_id, r.rank_key) for r in ranked]).encode())
            if allocation is not None:
                check_allocation(ledger, where, list(allocation.holdings),
                                 [r.security_id for r in ranked], top, cap)
                digest.update(repr(allocation.holdings).encode())
        for scenario in scenarios:
            digest.update(scenario.report_text().encode())
        ledger.same_bytes("sweep_results", digest.hexdigest())
        return block


WORKLOADS = {w.name: w for w in (Simulate1000, Desk1000, RescoreSweep100)}
