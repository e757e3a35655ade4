"""Command-line pipeline: simulate, score, rank, portfolio, diagnostics.

Stages communicate only through files, so each step is independently
testable and desk-sourced data can replace the simulator at any point:

    shortbasket simulate --out data/
    shortbasket score --data data/ --flavor ma --out runs/
    shortbasket rank --scores runs/scores_ma.csv --profiles data/profiles.csv --out runs/
    shortbasket portfolio --ranking runs/ranking.csv --top 20 --cap 0.1 --out runs/
    shortbasket diagnose-vol --kind 1 --target-return 0.09 --out runs/
    shortbasket ingest-check --data data/

Every output is written atomically (temp file + rename) and all stages
are deterministic given the config and master seed. Exit codes:
0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from pathlib import Path

from . import portfolio as portfolio_mod
from . import scoring, screener
from .config import RunConfig, load_run_config, resolved_config_json
from .datastore import (
    atomic_write_text,
    check_header,
    csv_records,
    export_csv,
    ingest_csv,
    load_profiles,
    parse_float,
)
from .errors import ShortBasketError
from .pathdiag import make_scenario
from .simulate import simulate_universe

CONFIG_ECHO_FILENAME = "config_resolved.json"
RANKING_COLUMNS = ("rank", "security_id", "score", "filter_trace")

_FLAVOR_BY_FLAG = {"ma": "ma", "first-day": "first_day", "last-day": "last_day"}
_FLAG_BY_FLAVOR = {v: k for k, v in _FLAVOR_BY_FLAG.items()}


def _write_rows(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


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


def _flavor_from_scores_path(path: Path) -> str:
    stem = path.stem
    for flavor in scoring.FLAVORS:
        if stem.endswith(flavor):
            return flavor
    print(
        f"note: the flavor of {path.name} is not in its name; assuming 'ma' "
        f"(pass --flavor to choose)",
        file=sys.stderr,
    )
    return "ma"


def _load_exclusion_file(path: Path | None) -> frozenset[str]:
    if path is None:
        return frozenset()
    ids = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
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

    scores_path = Path(args.scores)
    flavor = _FLAVOR_BY_FLAG[args.flavor] if args.flavor else _flavor_from_scores_path(scores_path)
    table = scoring.read_score_csv(scores_path, flavor)
    profiles = load_profiles(args.profiles)

    kept, excluded = screener.apply_filters(table, profiles, filter_cfg)
    ranked = screener.rank(kept, args.score, drop_pct)
    surviving = set(ranked.security_ids)
    dropped = [sid for sid in kept.security_ids if sid not in surviving]

    out_dir = Path(args.out)
    trace = "|".join(screener.FILTER_ORDER)
    _write_rows(
        out_dir / "ranking.csv",
        RANKING_COLUMNS,
        [[str(r.rank), r.security_id, repr(r.score), trace] for r in ranked],
    )
    exclusion_rows = [[e.security_id, e.reason] for e in excluded]
    exclusion_rows += [[sid, "drop_bottom_pct"] for sid in dropped]
    exclusion_rows.sort()
    _write_rows(out_dir / "excluded.csv", ("security_id", "reason"), exclusion_rows)
    print(
        f"wrote {out_dir / 'ranking.csv'} ({len(ranked)} ranked, "
        f"{len(excluded)} filtered, {len(dropped)} dropped from bottom)"
    )
    return 0


def _read_ranking(path: Path) -> screener.Ranking:
    """The ids and scores of a ranking.csv, in file order; a malformed file is named with its row."""
    ids, scores = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        check_header(next(reader, []), RANKING_COLUMNS, path)
        for line, (_, security_id, score, _) in csv_records(reader, RANKING_COLUMNS, path):
            ids.append(security_id)
            scores.append(parse_float(score, "score", path, line))
    return screener.Ranking(
        security_ids=tuple(ids),
        scores=tuple(scores),
        premium_signs=tuple((s > 0) - (s < 0) for s in scores),
    )


def cmd_portfolio(args: argparse.Namespace) -> int:
    ranked = _read_ranking(Path(args.ranking))
    allocation = portfolio_mod.construct(ranked, args.top, args.cap)
    out_dir = Path(args.out)
    _write_rows(
        out_dir / "allocation.csv",
        ("security_id", "weight"),
        [[sid, repr(weight)] for sid, weight in allocation.holdings],
    )
    print(f"wrote {out_dir / 'allocation.csv'} ({allocation.size} holdings, cap {args.cap})")
    return 0


def cmd_diagnose_vol(args: argparse.Namespace) -> int:
    target = args.target_return
    if target is None:
        target = -0.09 if args.kind == 3 else 0.09
    result = make_scenario(args.kind, target, args.length, args.seed)
    out_dir = Path(args.out)
    paths_file = out_dir / f"vol_paths_kind{args.kind}.csv"
    _write_rows(
        paths_file,
        ("step", "path_a", "path_b"),
        [[str(i), repr(a), repr(b)] for i, (a, b) in enumerate(zip(result.path_a, result.path_b))],
    )
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
    p_rank.add_argument("--flavor", choices=sorted(_FLAVOR_BY_FLAG), default=None)
    p_rank.add_argument("--drop-bottom-pct", type=float, default=None)
    p_rank.add_argument("--exclude-file", type=Path, default=None, help="one security_id per line")
    p_rank.add_argument("--out", type=Path, required=True)
    p_rank.set_defaults(func=cmd_rank)

    p_port = sub.add_parser("portfolio", help="build a capped allocation from a ranking")
    p_port.add_argument("--ranking", type=Path, required=True, help="ranking CSV")
    p_port.add_argument("--top", type=int, required=True, help="number of securities")
    p_port.add_argument("--cap", type=float, default=0.10, help="max weight per security")
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
