"""Golden bytes of the 100x253 seed-42 pipeline.

Output bytes for a given seed are the behavioural contract. The
determinism criterion only compares two runs of the same code with each
other; this test pins the sha256 of every file the CLI writes, so any
refactor that drifts a single byte fails here.
"""

from __future__ import annotations

import hashlib

from shortbasket.cli import main

GOLDEN_SHA256 = {
    "data/observations.csv": "9488eb95b53d85d6084db1b9e9e126eb15e9781174ed43e765e46cc33fe5e766",
    "data/profiles.csv": "9ca788f7f8ceacd12ba11d9942a5ea0810bdf9007962636c9f5729fee19b9934",
    "data/config_resolved.json": "fb3ee0024c2e8b3dd06a7538f064eb464a8033d22462ebffee6047727e0d3560",
    "runs/scores_ma.csv": "b3b0f3ae1eef5b8045f653def5ab2b0e3d23e8b9b6dec2b40981432ecd9f1bde",
    "runs/scores_first_day.csv": "a2d7c58ee03924b58cfcce589411f29d386d2be7c44d595386f7cf1c6b5c6d28",
    "runs/scores_last_day.csv": "1744b5889185ea14d08b6127013555dedd77dc82615aa27bcbcfd6c4346b4897",
    "runs/ranking.csv": "19c420c759d5c38faeca1a598e2d337d59d928c04908d5b17c8c65a716fcab60",
    "runs/excluded.csv": "89351406e38f24ae0b0fb589730c4bc2e5d7548b3e8d639c8cc72f17556efe26",
    "runs/allocation.csv": "b883c717f0cb9be55d92366e34c87ad73c96488a93a67c422df4bba9ada66053",
    "runs/vol_paths_kind1.csv": "9364ce3a654fe3d912413de43e28305212bacea7944c125a3fb0ce32ab9f01a5",
    "runs/vol_report_kind1.txt": "022b8e92ad36c8210d8c79b26403ef93d95cbb3a293df5263e401100fcc9b0b7",
    "runs/vol_paths_kind2.csv": "c2a479a105cef567f733738c1d1d76b31944e03bb02669b877625cb8a27073ac",
    "runs/vol_report_kind2.txt": "208bb45d5f901c982c0c05cd93c049e9ed695b258c599b2c7b4d2c71133698e7",
    "runs/vol_paths_kind3.csv": "72af2f99932cd88df9febf4ccf910717c41c20ad23f3a17769a2285180ccdcbe",
    "runs/vol_report_kind3.txt": "6d94e244cd3946d08180f73d689d1cdeac0a4e0aedb69b847dbb86f69f413c26",
}


def test_seed_42_pipeline_bytes(tmp_path, capsys):
    data, runs = tmp_path / "data", tmp_path / "runs"
    steps = [
        ["simulate", "--n-securities", "100", "--n-days", "253", "--master-seed", "42", "--out", data],
        ["score", "--data", data, "--flavor", "ma", "--flavor", "first-day", "--flavor", "last-day",
         "--out", runs],
        ["rank", "--scores", runs / "scores_ma.csv", "--profiles", data / "profiles.csv", "--out", runs],
        ["portfolio", "--ranking", runs / "ranking.csv", "--top", "5", "--cap", "0.25", "--out", runs],
        ["diagnose-vol", "--kind", "1", "--out", runs],
        ["diagnose-vol", "--kind", "2", "--out", runs],
        ["diagnose-vol", "--kind", "3", "--out", runs],
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, capsys.readouterr().err

    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
