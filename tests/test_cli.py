"""CLI subcommands: file contracts, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

from shortbasket.cli import main


def run(argv: list[str]) -> int:
    return main(argv)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(["simulate", "--out", str(out), "--n-securities", "40", "--n-days", "80"]) == 0
    return out


class TestSimulate:
    def test_writes_dataset_and_config_echo(self, sim_dir):
        assert (sim_dir / "observations.csv").exists()
        assert (sim_dir / "profiles.csv").exists()
        echo = json.loads((sim_dir / "config_resolved.json").read_text())
        assert echo["n_securities"] == 40
        assert echo["master_seed"] == 42

    def test_deterministic_across_runs(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        assert run(["simulate", "--out", str(again), "--n-securities", "40", "--n-days", "80"]) == 0
        for name in ("observations.csv", "profiles.csv", "config_resolved.json"):
            assert (again / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_minimal_universe(self, tmp_path):
        out = tmp_path / "mini"
        assert run(["simulate", "--out", str(out), "--n-securities", "1", "--n-days", "1"]) == 0
        assert len((out / "observations.csv").read_text().splitlines()) == 2

    def test_master_seed_flag_overrides(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--out", str(a), "--n-securities", "2", "--n-days", "5"])
        run(["simulate", "--out", str(b), "--n-securities", "2", "--n-days", "5",
             "--master-seed", "9"])
        assert (a / "observations.csv").read_bytes() != (b / "observations.csv").read_bytes()

    def test_config_file_feeds_simulation(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_securities": 3, "n_days": 4, "master_seed": 1}))
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "observations.csv").read_text().splitlines()) == 13

    @pytest.mark.parametrize("block, named", [
        ('{"start": [10.0, 1e309], "drift": [0.0, 0.1], "vol": [0.1, 0.2]}', "price: start_max"),
        ('{"start": [10.0, 20.0], "drift": [NaN, 0.15], "vol": [0.1, 0.2]}', "price: drift_min"),
    ])
    def test_non_finite_seed_range_exits_one(self, tmp_path, capsys, block, named):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n_securities": 2, "n_days": 3, "seed_ranges": {"price": ' + block + "}}")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "x").exists()

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{bad")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fractional_seed_exits_one(self, tmp_path, capsys):
        # used to run seed 1 and echo "master_seed": 1
        cfg = tmp_path / "run.json"
        cfg.write_text('{"master_seed": 1.5, "n_securities": 2, "n_days": 3}')
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "master_seed must be an integer, got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestScore:
    def test_writes_requested_flavors(self, sim_dir, tmp_path):
        out = tmp_path / "scores"
        code = run(["score", "--data", str(sim_dir), "--out", str(out),
                    "--flavor", "ma", "--flavor", "last-day"])
        assert code == 0
        assert (out / "scores_ma.csv").exists()
        assert (out / "scores_last_day.csv").exists()
        assert len((out / "scores_ma.csv").read_text().splitlines()) == 41

    def test_unknown_flavor_is_usage_error(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["score", "--data", str(sim_dir), "--out", str(tmp_path), "--flavor", "weekly"])
        assert exc.value.code == 2

    def test_window_override(self, sim_dir, tmp_path):
        out = tmp_path / "w"
        assert run(["score", "--data", str(sim_dir), "--out", str(out),
                    "--flavor", "ma", "--window", "10"]) == 0

    def test_fractional_window_exits_one(self, tmp_path, capsys):
        # on 100 days a 60.5-day window used to crash with "slice indices must be integers"
        data = tmp_path / "data"
        assert run(["simulate", "--out", str(data), "--n-securities", "2", "--n-days", "100"]) == 0
        cfg = tmp_path / "run.json"
        cfg.write_text('{"scoring": {"ma_window": 60.5}}')
        assert run(["score", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "x")]) == 1
        assert "scoring.ma_window must be an integer, got 60.5" in capsys.readouterr().err

    def test_missing_data_dir_exits_one(self, tmp_path):
        assert run(["score", "--data", str(tmp_path / "void"), "--out", str(tmp_path)]) == 1


@pytest.fixture(scope="module")
def ranked_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    assert run(["score", "--data", str(sim_dir), "--out", str(out), "--flavor", "ma"]) == 0
    cfg = out / "permissive.json"
    cfg.write_text(json.dumps({
        "filters": {
            "min_si_usd": 0, "min_loan_rate": 0, "min_dtc": 0, "min_lbg": 0,
            "max_la_usd": 1e18, "min_adv_usd": 0, "min_buy_rating": 1.0,
            "min_beta": 0, "drop_bottom_pct": 0,
        }
    }))
    code = run(["rank", "--scores", str(out / "scores_ma.csv"),
                "--profiles", str(sim_dir / "profiles.csv"),
                "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


class TestRank:
    def test_ranking_and_exclusions_written(self, ranked_dir):
        lines = (ranked_dir / "ranking.csv").read_text().splitlines()
        assert lines[0] == "rank,security_id,score,filter_trace"
        assert len(lines) == 41  # permissive config keeps all 40
        assert (ranked_dir / "excluded.csv").exists()

    def test_ranking_is_sorted_by_score(self, ranked_dir):
        import csv as csv_mod

        with open(ranked_dir / "ranking.csv", newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        scores = [float(r["score"]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))

    def test_drop_bottom_pct_flag(self, sim_dir, ranked_dir, tmp_path):
        out = tmp_path / "drop"
        out.mkdir()
        code = run(["rank", "--scores", str(ranked_dir / "scores_ma.csv"),
                    "--profiles", str(sim_dir / "profiles.csv"),
                    "--config", str(ranked_dir / "permissive.json"),
                    "--drop-bottom-pct", "20", "--out", str(out)])
        assert code == 0
        assert len((out / "ranking.csv").read_text().splitlines()) == 33  # 40 - 8

    def test_failed_rank_writes_nothing(self, sim_dir, ranked_dir, tmp_path, capsys):
        # a universe that clears no filter fails with exit 1 and must not
        # leave a partial ranking behind
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"filters": {"min_si_usd": 1e15}}))
        out = tmp_path / "never"
        code = run(["rank", "--scores", str(ranked_dir / "scores_ma.csv"),
                    "--profiles", str(sim_dir / "profiles.csv"),
                    "--config", str(strict), "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "ranking.csv").exists()
        assert not (out / "excluded.csv").exists()

    def test_exclude_file(self, sim_dir, ranked_dir, tmp_path):
        exclude = tmp_path / "exclude.csv"
        exclude.write_text("security_id\nSEC0001\n")
        out = tmp_path / "ex"
        code = run(["rank", "--scores", str(ranked_dir / "scores_ma.csv"),
                    "--profiles", str(sim_dir / "profiles.csv"),
                    "--config", str(ranked_dir / "permissive.json"),
                    "--exclude-file", str(exclude), "--out", str(out)])
        assert code == 0
        assert "SEC0001" not in (out / "ranking.csv").read_text()
        assert "SEC0001,manual_exclusion" in (out / "excluded.csv").read_text()

    def rank_scores_file(self, sim_dir, ranked_dir, scores, out, *extra):
        return run(["rank", "--scores", str(scores), "--profiles", str(sim_dir / "profiles.csv"),
                    "--config", str(ranked_dir / "permissive.json"), "--out", str(out), *extra])

    def test_flavor_fallback_is_reported_on_stderr(self, sim_dir, ranked_dir, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes((ranked_dir / "scores_ma.csv").read_bytes())
        capsys.readouterr()
        assert self.rank_scores_file(sim_dir, ranked_dir, scores, tmp_path / "out") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("wrote ")
        assert all(line.startswith("wrote ") for line in captured.out.splitlines())
        note, = captured.err.splitlines()
        assert "'ma'" in note and "--flavor" in note and "scores.csv" in note

    @pytest.mark.parametrize("extra", [(), ("--flavor", "ma")], ids=["from_name", "from_flag"])
    def test_known_flavor_prints_no_note(self, sim_dir, ranked_dir, tmp_path, capsys, extra):
        capsys.readouterr()
        code = self.rank_scores_file(sim_dir, ranked_dir, ranked_dir / "scores_ma.csv", tmp_path, *extra)
        assert code == 0
        assert capsys.readouterr().err == ""


class TestPortfolio:
    def write_ranking(self, tmp_path, scores):
        path = tmp_path / "ranking.csv"
        lines = ["rank,security_id,score,filter_trace"]
        for i, s in enumerate(scores, start=1):
            lines.append(f"{i},SEC{i:04d},{s!r},")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_single_holding(self, tmp_path):
        path = self.write_ranking(tmp_path, [4.0])
        assert run(["portfolio", "--ranking", str(path), "--top", "1",
                    "--cap", "1.0", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "allocation.csv").read_text().splitlines()
        assert lines[1] == "SEC0001,1.0"

    def test_proportional_weights(self, tmp_path):
        path = self.write_ranking(tmp_path, [2.0, 3.0, 5.0])
        assert run(["portfolio", "--ranking", str(path), "--top", "3",
                    "--cap", "1.0", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "allocation.csv").read_text().splitlines()[1:]
        weights = {line.split(",")[0]: float(line.split(",")[1]) for line in lines}
        assert weights == {"SEC0001": 0.2, "SEC0002": 0.3, "SEC0003": 0.5}

    def test_infeasible_cap_exits_one(self, tmp_path, capsys):
        path = self.write_ranking(tmp_path, [2.0, 3.0])
        code = run(["portfolio", "--ranking", str(path), "--top", "2",
                    "--cap", "0.10", "--out", str(tmp_path)])
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_infinite_score_exits_one_with_named_error(self, tmp_path, capsys):
        path = self.write_ranking(tmp_path, [float("inf"), 3.0])
        code = run(["portfolio", "--ranking", str(path), "--top", "2",
                    "--cap", "1.0", "--out", str(tmp_path)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "allocation.csv").exists()

    def test_missing_score_column_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "ranking.csv"
        path.write_text("rank,security_id,filter_trace\n1,SEC0001,\n")
        code = run(["portfolio", "--ranking", str(path), "--top", "1",
                    "--cap", "1.0", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and "'score'" in err and "header" in err
        assert not (tmp_path / "allocation.csv").exists()

    def test_non_numeric_score_names_the_file_and_row(self, tmp_path, capsys):
        path = self.write_ranking(tmp_path, [2.0, 3.0])
        path.write_text(path.read_text().replace("3.0", "abc"))
        code = run(["portfolio", "--ranking", str(path), "--top", "2",
                    "--cap", "1.0", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: row 3: column 'score' is not numeric: 'abc'" in err
        assert not (tmp_path / "allocation.csv").exists()

    def test_short_row_names_the_file_and_row(self, tmp_path, capsys):
        path = self.write_ranking(tmp_path, [2.0, 3.0])
        path.write_text(path.read_text() + "3,SEC0003\n")
        code = run(["portfolio", "--ranking", str(path), "--top", "2",
                    "--cap", "1.0", "--out", str(tmp_path)])
        assert code == 1
        assert f"{path}: row 4: wrong number of fields" in capsys.readouterr().err


class TestDiagnoseVol:
    def test_writes_paths_and_verified_report(self, tmp_path):
        assert run(["diagnose-vol", "--kind", "1", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "vol_report_kind1.txt").read_text()
        assert report.strip().endswith("verified")
        lines = (tmp_path / "vol_paths_kind1.csv").read_text().splitlines()
        assert lines[0] == "step,path_a,path_b"
        assert len(lines) == 31  # default length 30

    def test_kind_three_defaults_to_negative_target(self, tmp_path):
        assert run(["diagnose-vol", "--kind", "3", "--out", str(tmp_path)]) == 0
        assert "-9.0000%" in (tmp_path / "vol_report_kind3.txt").read_text()

    def test_bad_target_sign_exits_one(self, tmp_path):
        assert run(["diagnose-vol", "--kind", "1", "--target-return", "-0.05",
                    "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("target", ["nan", "inf"])
    def test_non_finite_target_exits_one_naming_it(self, tmp_path, capsys, target):
        assert run(["diagnose-vol", "--kind", "1", "--target-return", target,
                    "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"got {target}" in err and "attempts" not in err


class TestIngestCheck:
    def test_valid_dataset(self, sim_dir, capsys):
        assert run(["ingest-check", "--data", str(sim_dir)]) == 0
        assert "40 securities" in capsys.readouterr().out

    def test_invalid_dataset_exits_one(self, tmp_path, capsys):
        (tmp_path / "observations.csv").write_text("date,security_id\n")
        (tmp_path / "profiles.csv").write_text("security_id,market,buy_rating,beta\n")
        assert run(["ingest-check", "--data", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
