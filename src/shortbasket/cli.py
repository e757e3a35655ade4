"""Command-line pipeline: simulate, score, rank, portfolio, diagnostics.

Stages communicate only through files, so each step is independently
testable and desk-sourced data can replace the simulator at any point:

    shortbasket simulate --out data/
    shortbasket score --data data/ --flavor ma --out runs/
    shortbasket rank --scores runs/scores_ma.csv --profiles data/profiles.csv --out runs/
    shortbasket portfolio --ranking runs/ranking.csv --cap 0.25 --out runs/
    shortbasket diagnose-vol --kind 1 --target-return 0.09 --out runs/
    shortbasket ingest-check --data data/

Every output is written atomically (temp file + rename) and all stages
are deterministic given the config and master seed. Exit codes:
0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import portfolio as portfolio_mod
from . import scoring, screener
from .config import RunConfig, load_run_config, resolved_config_json
from .datastore import (
    atomic_write_text,
    csv_text,
    export_csv,
    ingest_csv,
    load_profiles,
    parse_float_column,
    read_csv_columns,
    read_lines,
)
from .errors import ShortBasketError
from .pathdiag import make_scenario
from .simulate import simulate_universe

CONFIG_ECHO_FILENAME = "config_resolved.json"
RANKING_COLUMNS = ("rank", "security_id", "score")
EXCLUDED_COLUMNS = ("security_id", "reason")
ALLOCATION_COLUMNS = ("security_id", "weight")
VOL_PATH_COLUMNS = ("step", "path_a", "path_b")

_FLAVOR_BY_FLAG = {"ma": "ma", "first-day": "first_day", "last-day": "last_day"}


def _apply_sim_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if args.master_seed is not None:
        updates["master_seed"] = args.master_seed
    if args.n_securities is not None:
        updates["n_securities"] = args.n_securities
    if args.n_days is not None:
        updates["n_days"] = args.n_days
    return replace(cfg, **updates) if updates else cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _apply_sim_overrides(load_run_config(args.config), args)
    dataset = simulate_universe(
        cfg.seed_ranges,
        cfg.n_securities,
        cfg.n_days,
        cfg.master_seed,
        start_date=cfg.start_date,
        markets=cfg.markets,
        buy_rating_range=cfg.buy_rating_range,
        beta_range=cfg.beta_range,
    )
    out_dir = Path(args.out)
    obs_path, prof_path = export_csv(dataset, out_dir)
    atomic_write_text(out_dir / CONFIG_ECHO_FILENAME, resolved_config_json(cfg))
    print(f"wrote {obs_path} ({len(dataset.security_ids)} securities x {len(dataset.dates)} days)")
    print(f"wrote {prof_path}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    score_cfg = cfg.scoring
    if args.window is not None:
        score_cfg = replace(score_cfg, ma_window=args.window, vol_window=args.window)
    dataset = ingest_csv(args.data)
    out_dir = Path(args.out)
    flavor_flags = args.flavor or ["ma"]
    for flag in flavor_flags:
        flavor = _FLAVOR_BY_FLAG[flag]
        table = scoring.score_table(dataset, score_cfg, flavor)
        path = scoring.write_score_csv(table, out_dir / f"scores_{flavor}.csv")
        print(f"wrote {path} ({len(table)} rows, {int(table.excluded.sum())} excluded)")
    return 0


def _load_exclusion_file(path: Path | None) -> frozenset[str]:
    if path is None:
        return frozenset()
    ids = set()
    for line in read_lines(path):
        token = line.strip()
        if token and token != "security_id":
            ids.add(token)
    return frozenset(ids)


def cmd_rank(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    filter_cfg = cfg.filters
    exclusions = _load_exclusion_file(args.exclude_file)
    if exclusions:
        filter_cfg = replace(filter_cfg, exclusions=filter_cfg.exclusions | exclusions)
    drop_pct = args.drop_bottom_pct if args.drop_bottom_pct is not None else filter_cfg.drop_bottom_pct

    table = scoring.read_score_csv(args.scores)
    profiles = load_profiles(args.profiles)

    kept, excluded = screener.apply_filters(table, profiles, filter_cfg)
    ranked = screener.rank(kept, args.score, drop_pct)
    surviving = set(ranked.security_ids)
    dropped = [sid for sid in kept.security_ids if sid not in surviving]

    out_dir = Path(args.out)
    _write_ranking(out_dir / "ranking.csv", ranked)
    exclusions = sorted([*excluded, *((sid, "drop_bottom_pct") for sid in dropped)])
    columns = [[sid for sid, _ in exclusions], [reason for _, reason in exclusions]]
    atomic_write_text(out_dir / "excluded.csv", csv_text(EXCLUDED_COLUMNS, columns))
    print(
        f"wrote {out_dir / 'ranking.csv'} ({len(ranked)} ranked, "
        f"{len(excluded)} filtered, {len(dropped)} dropped from bottom)"
    )
    return 0


def _write_ranking(path: Path, ranked: screener.Ranking) -> None:
    ranks = [str(rank) for rank in range(1, len(ranked) + 1)]
    columns = [ranks, ranked.security_ids, np.array(ranked.scores, dtype=float)]
    atomic_write_text(path, csv_text(RANKING_COLUMNS, columns))


def _read_ranking(path: Path) -> screener.Ranking:
    """The ids and scores of a ranking.csv, in file order; a malformed file is named with its row."""
    _, ids, scores = read_csv_columns(path, RANKING_COLUMNS)
    scores = tuple(parse_float_column(scores, "score", path))
    return screener.Ranking(ids, scores, premium_signs=tuple((s > 0) - (s < 0) for s in scores))


def cmd_portfolio(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config)
    top_m = cfg.portfolio.top_m if args.top is None else args.top
    cap = cfg.portfolio.cap if args.cap is None else args.cap
    ranked = _read_ranking(Path(args.ranking))
    allocation = portfolio_mod.construct(ranked, top_m, cap)
    out_dir = Path(args.out)
    ids = [sid for sid, _ in allocation.holdings]
    weights = np.array([weight for _, weight in allocation.holdings], dtype=float)
    atomic_write_text(out_dir / "allocation.csv", csv_text(ALLOCATION_COLUMNS, [ids, weights]))
    print(f"wrote {out_dir / 'allocation.csv'} ({allocation.size} holdings, cap {cap})")
    return 0


def cmd_diagnose_vol(args: argparse.Namespace) -> int:
    target = args.target_return
    if target is None:
        target = -0.09 if args.kind == 3 else 0.09
    result = make_scenario(args.kind, target, args.length, args.seed)
    out_dir = Path(args.out)
    paths_file = out_dir / f"vol_paths_kind{args.kind}.csv"
    steps = [str(step) for step in range(len(result.path_a))]
    paths = np.array([result.path_a, result.path_b], dtype=float)
    atomic_write_text(paths_file, csv_text(VOL_PATH_COLUMNS, [steps, *paths]))
    report_file = out_dir / f"vol_report_kind{args.kind}.txt"
    atomic_write_text(report_file, result.report_text())
    print(f"wrote {paths_file}")
    print(f"wrote {report_file}")
    print(result.report_text(), end="")
    return 0


def cmd_ingest_check(args: argparse.Namespace) -> int:
    dataset = ingest_csv(args.data)
    print(
        f"ok: {len(dataset.security_ids)} securities, {dataset.values[0].size} observations, "
        f"{len(dataset.profiles)} profiles"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortbasket",
        description="Securities-lending analytics: simulate, score, screen, and build baskets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic lending dataset")
    p_sim.add_argument("--config", type=Path, default=None, help="JSON run config")
    p_sim.add_argument("--master-seed", type=int, default=None)
    p_sim.add_argument("--n-securities", type=int, default=None)
    p_sim.add_argument("--n-days", type=int, default=None)
    p_sim.add_argument("--out", type=Path, required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_score = sub.add_parser("score", help="compute short-score tables from a dataset")
    p_score.add_argument("--config", type=Path, default=None)
    p_score.add_argument("--data", type=Path, required=True, help="dataset directory")
    p_score.add_argument(
        "--flavor",
        action="append",
        choices=sorted(_FLAVOR_BY_FLAG),
        help="evaluation flavor; repeatable (default: ma)",
    )
    p_score.add_argument(
        "--window",
        type=int,
        default=None,
        help="override both the moving-average and rate-volatility windows",
    )
    p_score.add_argument("--out", type=Path, required=True)
    p_score.set_defaults(func=cmd_score)

    p_rank = sub.add_parser("rank", help="filter and rank a score table")
    p_rank.add_argument("--config", type=Path, default=None)
    p_rank.add_argument("--scores", type=Path, required=True, help="score-table CSV")
    p_rank.add_argument("--profiles", type=Path, required=True, help="profiles CSV")
    p_rank.add_argument("--score", choices=("one", "two", "three", "four"), default="four")
    p_rank.add_argument("--drop-bottom-pct", type=float, default=None)
    p_rank.add_argument("--exclude-file", type=Path, default=None, help="one security_id per line")
    p_rank.add_argument("--out", type=Path, required=True)
    p_rank.set_defaults(func=cmd_rank)

    p_port = sub.add_parser("portfolio", help="build a capped allocation from a ranking")
    p_port.add_argument("--config", type=Path, default=None)
    p_port.add_argument("--ranking", type=Path, required=True, help="ranking CSV")
    p_port.add_argument(
        "--top", type=int, default=None, help="number of securities (default: the config's portfolio.top_m)"
    )
    p_port.add_argument(
        "--cap", type=float, default=None, help="max weight per security (default: the config's portfolio.cap)"
    )
    p_port.add_argument("--out", type=Path, required=True)
    p_port.set_defaults(func=cmd_portfolio)

    p_diag = sub.add_parser("diagnose-vol", help="generate a volatility-limitation path pair")
    p_diag.add_argument("--kind", type=int, choices=(1, 2, 3), required=True)
    p_diag.add_argument(
        "--target-return",
        type=float,
        default=None,
        help="total return of both paths (default +9%%; -9%% for kind 3)",
    )
    p_diag.add_argument("--length", type=int, default=30)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--out", type=Path, required=True)
    p_diag.set_defaults(func=cmd_diagnose_vol)

    p_check = sub.add_parser("ingest-check", help="validate a dataset directory")
    p_check.add_argument("--data", type=Path, required=True)
    p_check.set_defaults(func=cmd_ingest_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShortBasketError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
