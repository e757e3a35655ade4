"""Acceptance gate: one test per release criterion, stated tolerances.

Each test prints a single `[acceptance] ... PASS` line (visible with
`pytest -v -s tests/test_acceptance.py`) once its assertions hold, so a
run of this module doubles as the release checklist.
"""

from __future__ import annotations

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

from shortbasket.cli import main as cli_main
from shortbasket.config import DEFAULT_SEED_RANGES, RunConfig
from shortbasket.datastore import export_csv, ingest_csv
from shortbasket.pathdiag import make_scenario, per_period_returns
from shortbasket.portfolio import construct
from shortbasket.scoring import (
    ScoreConfig,
    score_one,
    score_three,
    score_two,
    score_four,
    sharpe_like,
)
from shortbasket.screener import apply_filters, FilterConfig, rank
from shortbasket.simulate import (
    FoldedNormalParams,
    SimulationSeedRange,
    simulate_abs_normal,
    simulate_universe,
)
from shortbasket.rng import NoiseStream

from conftest import make_factors, make_profile, make_row, make_table


def report(number: int, name: str, elapsed: float) -> None:
    print(f"[acceptance] criterion {number:02d} {name}: PASS ({elapsed:.3f}s)")


def test_criterion_01_rate_threshold_flips_ranking():
    # BBB: expected rate 5.00, deviation 2.00; CCC: 8.00, 4.00.
    # Plain ratio ranks BBB first; any threshold above 2 flips it.
    bbb = make_row("BBB", score_one=sharpe_like(5.00, 0.0, 2.00))
    ccc = make_row("CCC", score_one=sharpe_like(8.00, 0.0, 4.00))
    start = time.perf_counter()
    without = rank(make_table(bbb, ccc), "one", 0.0)
    assert without.security_ids[0] == "BBB"
    assert without.scores == (2.50, 2.00)

    for threshold in (2.5, 3.0, 4.5):
        bbb_t = make_row("BBB", score_one=sharpe_like(5.00, threshold, 2.00))
        ccc_t = make_row("CCC", score_one=sharpe_like(8.00, threshold, 4.00))
        with_threshold = rank(make_table(bbb_t, ccc_t), "one", 0.0)
        assert with_threshold.security_ids[0] == "CCC"
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    report(1, "rate threshold flips ranking", elapsed)


def test_criterion_02_days_to_cover_worked_example():
    start = time.perf_counter()
    short_interest = 2_000_000.0
    average_daily_volume = 1_000_000.0
    assert short_interest / average_daily_volume == 2.0
    factors = make_factors(ma_si=short_interest, adv=average_daily_volume,
                           dtc=short_interest / average_daily_volume)
    assert factors.dtc == 2.0
    report(2, "days-to-cover worked example", time.perf_counter() - start)


def test_criterion_03_gbm_moment_recovery():
    start = time.perf_counter()
    ranges = dict(DEFAULT_SEED_RANGES)
    ranges["price"] = SimulationSeedRange("price", 100.0, 100.0, 0.0, 0.0, 0.2, 0.2)
    dataset = simulate_universe(ranges, 1000, 253, 314)

    log_paths = [np.log(np.asarray(s.column("price"))) for s in dataset.series]
    pooled = np.concatenate([np.diff(lp) for lp in log_paths])
    realized_vol = pooled.std(ddof=1) * math.sqrt(252.0)
    assert abs(realized_vol - 0.2) / 0.2 < 0.02

    per_path = np.array([lp[-1] - lp[0] for lp in log_paths])  # one year each
    se = per_path.std(ddof=1) / math.sqrt(len(per_path))
    assert abs(per_path.mean() - (-0.02)) < 3 * se

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "GBM moment recovery (1000 securities)", elapsed)


def test_criterion_04_folded_normal_mean():
    start = time.perf_counter()
    values = simulate_abs_normal(FoldedNormalParams(0.0, 1.0), 100_000, NoiseStream(55, (0,)))
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - math.sqrt(2.0 / math.pi)) < 3 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, "folded-normal mean", elapsed)


def test_criterion_05_score_algebra_identities():
    start = time.perf_counter()
    gen = np.random.default_rng(4040)
    for i in range(1000):
        cfg = ScoreConfig(rf=float(gen.uniform(0.0, 0.05)))
        level = float(gen.uniform(1e4, 1e7))
        factors = make_factors(
            e_lr=float(gen.uniform(0.0, 0.2)),
            sigma_lr=float(gen.uniform(1e-4, 0.05)),
            ma_si=level if i % 3 == 0 else float(gen.uniform(1e4, 1e7)),
            ma_la=level if i % 3 == 0 else float(gen.uniform(1e2, 1e6)),
            dtc=1.0 if i % 3 == 1 else float(gen.uniform(0.1, 40.0)),
            lbg=1.0 if i % 3 == 2 else float(gen.uniform(0.2, 4.0)),
        )
        s1, s2 = score_one(factors, cfg), score_two(factors, cfg)
        s3, s4 = score_three(factors, cfg), score_four(factors, cfg)
        if i % 3 == 0:
            assert abs(s2 - s1) <= 1e-12
        elif i % 3 == 1:
            assert abs(s3 - s2) <= 1e-12
        else:
            assert abs(s4 - s3) <= 1e-12
    report(5, "score algebra identities (1000 tables)", time.perf_counter() - start)


def test_criterion_06_portfolio_invariants_against_oracle():
    def waterfill(scores, cap):
        def total(lam):
            return sum(min(cap, lam * s) for s in scores)

        lo, hi = 0.0, 1.0
        while total(hi) < 1.0:
            hi *= 2.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if total(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return [min(cap, s * (lo + hi) / 2.0) for s in scores]

    from shortbasket.screener import Ranking

    def ranking(scores):
        return Ranking(tuple(f"S{i:04d}" for i in range(len(scores))), tuple(scores), (1,) * len(scores))

    start = time.perf_counter()
    gen = np.random.default_rng(6060)
    for _ in range(1000):
        m = int(gen.integers(1, 16))
        scores = gen.uniform(0.01, 50.0, m).tolist()
        cap = 1.0 if m == 1 else float(gen.uniform(1.0 / m, 1.0))
        allocation = construct(ranking(scores), m, cap)
        weights = [w for _, w in allocation.holdings]

        assert abs(math.fsum(weights) - 1.0) <= 1e-9
        assert max(weights) <= cap + 1e-12

        factor = float(gen.uniform(0.1, 100.0))
        rescaled = construct(ranking([s * factor for s in scores]), m, cap)
        for (_, w_a), (_, w_b) in zip(allocation.holdings, rescaled.holdings):
            assert abs(w_a - w_b) <= 1e-12

        for got, want in zip(weights, waterfill(scores, cap)):
            assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, "portfolio invariants vs water-filling oracle", elapsed)


def test_criterion_07_each_filter_audited_individually():
    start = time.perf_counter()
    cfg = FilterConfig()  # shipped defaults
    profiles = {}
    rows = []

    def add(security_id, row_overrides=None, profile_overrides=None):
        rows.append(make_row(security_id, **(row_overrides or {})))
        profiles[security_id] = make_profile(security_id, **(profile_overrides or {}))

    # one violation each, everything else comfortably compliant; USD
    # figures are shares times the price of 100
    add("V_SI", row_overrides=dict(short_interest=90_000.0))  # 9M USD
    add("V_RATE", row_overrides=dict(loan_rate=0.014))
    add("V_DTC", row_overrides=dict(dtc=3.9))
    add("V_LBG", row_overrides=dict(lbg=1.20))
    add("V_LA", row_overrides=dict(availability=120_000.0))  # 12M USD
    add("V_ADV", row_overrides=dict(adv=100_000.0))  # 10M USD
    add("V_RATING", profile_overrides=dict(buy_rating=3.0))
    add("V_BETA", profile_overrides=dict(beta=1.1))
    add("OK")

    kept, excluded = apply_filters(make_table(*rows), profiles, cfg)
    reasons = {e.security_id: e.reason for e in excluded}
    assert reasons == {
        "V_SI": "min_si_usd",
        "V_RATE": "min_loan_rate",
        "V_DTC": "min_dtc",
        "V_LBG": "min_lbg",
        "V_LA": "max_la_usd",
        "V_ADV": "min_adv_usd",
        "V_RATING": "min_buy_rating",
        "V_BETA": "min_beta",
    }
    assert [r.security_id for r in kept] == ["OK"]
    report(7, "filter audit, one violation per security", time.perf_counter() - start)


def test_criterion_08_scenario_clauses_hold_across_seeds():
    start = time.perf_counter()
    for kind, target in ((1, 0.09), (2, 0.09), (3, -0.09)):
        for seed in range(100):
            result = make_scenario(kind, target, length=30, seed=seed)
            assert result.ok, (kind, seed, [c.name for c in result.clauses if not c.passed])
            assert abs(result.stats_a.total_return - result.stats_b.total_return) <= 1e-9
            if kind == 1:
                assert result.stats_b.volatility > result.stats_a.volatility
                assert result.stats_a.direction_changes == 0
                assert result.stats_b.direction_changes == 0
                assert result.stats_a.return_to_vol > result.stats_b.return_to_vol
            elif kind == 2:
                assert result.stats_b.volatility < result.stats_a.volatility
                assert any(r < 0 for r in per_period_returns(result.path_b))
            else:
                assert result.stats_a.volatility > result.stats_b.volatility
                assert result.stats_a.direction_changes < result.stats_b.direction_changes
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, "scenario clauses over 100 seeds per kind", elapsed)


def _run_pipeline(root: Path) -> list[Path]:
    data = root / "data"
    runs = root / "runs"
    assert cli_main(["simulate", "--out", str(data), "--master-seed", "42"]) == 0
    assert cli_main(["score", "--data", str(data), "--out", str(runs),
                     "--flavor", "ma", "--flavor", "first-day", "--flavor", "last-day"]) == 0
    assert cli_main(["rank", "--scores", str(runs / "scores_ma.csv"),
                     "--profiles", str(data / "profiles.csv"), "--out", str(runs)]) == 0
    assert cli_main(["portfolio", "--ranking", str(runs / "ranking.csv"),
                     "--top", "5", "--cap", "0.25", "--out", str(runs)]) == 0
    assert cli_main(["diagnose-vol", "--kind", "1", "--out", str(runs)]) == 0
    outputs = sorted(data.glob("*.csv")) + sorted(runs.glob("*.csv")) + sorted(runs.glob("*.txt"))
    assert len(outputs) >= 9
    return outputs


def test_criterion_09_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    first = _run_pipeline(tmp_path / "one")
    second = _run_pipeline(tmp_path / "two")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert filecmp.cmp(a, b, shallow=False), a.name
    report(9, "end-to-end determinism at master seed 42", time.perf_counter() - start)


def test_criterion_10_export_ingest_export_round_trip(tmp_path):
    start = time.perf_counter()
    cfg = RunConfig()  # 100 securities x 253 days
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
    first_dir = tmp_path / "first"
    export_csv(dataset, first_dir)
    reloaded = ingest_csv(first_dir)
    second_dir = tmp_path / "second"
    export_csv(reloaded, second_dir)
    for name in ("observations.csv", "profiles.csv"):
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
    assert reloaded == dataset
    report(10, "export/ingest/export byte round trip", time.perf_counter() - start)
