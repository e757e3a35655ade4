"""Run-config defaults, file loading, and override merging."""

from __future__ import annotations

import datetime as dt
import json

import pytest

from shortbasket.config import (
    DEFAULT_SEED_RANGES,
    RunConfig,
    load_run_config,
    resolved_config_json,
    run_config_from_dict,
)
from shortbasket.errors import ConfigError
from shortbasket.portfolio import PortfolioConfig
from shortbasket.simulate import VARIABLES


def test_defaults_cover_all_variables():
    cfg = RunConfig()
    assert set(cfg.seed_ranges) == set(VARIABLES)
    assert cfg.n_securities == 100
    assert cfg.n_days == 253


def test_default_ranges_keep_price_and_rate_vol_low():
    # share-quantity volatilities sit above price and rate volatilities,
    # and quantity drift ranges are wider than price/rate drift ranges
    price = DEFAULT_SEED_RANGES["price"]
    rate = DEFAULT_SEED_RANGES["loan_rate"]
    for quantity in ("availability", "short_interest", "volume"):
        q = DEFAULT_SEED_RANGES[quantity]
        assert q.vol_max > price.vol_max
        assert q.vol_max > rate.vol_max
        assert (q.drift_max - q.drift_min) > (price.drift_max - price.drift_min)


def test_none_path_gives_defaults():
    assert load_run_config(None) == RunConfig()


def test_partial_file_merges_over_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "master_seed": 7,
        "scoring": {"rf": 0.03},
        "filters": {"min_beta": 1.0},
        "seed_ranges": {"price": {"start": [50, 50], "drift": [0, 0], "vol": [0.2, 0.2]}},
    }))
    cfg = load_run_config(path)
    assert cfg.master_seed == 7
    assert cfg.scoring.rf == 0.03
    assert cfg.scoring.ma_window == 60  # untouched default
    assert cfg.filters.min_beta == 1.0
    assert cfg.filters.min_dtc == 4.0
    assert cfg.seed_ranges["price"].start_min == 50
    assert cfg.seed_ranges["volume"] == DEFAULT_SEED_RANGES["volume"]


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n_paths": 10}))
    with pytest.raises(ConfigError, match="n_paths"):
        load_run_config(path)
    path.write_text(json.dumps({"scoring": {"window": 10}}))
    with pytest.raises(ConfigError, match="window"):
        load_run_config(path)
    path.write_text(json.dumps({"portfolio": {"rebalance_threshold": 0.0}}))
    with pytest.raises(ConfigError, match="rebalance_threshold"):
        load_run_config(path)


def test_invalid_values_surface_as_config_errors(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scoring": {"ma_window": 1}}))
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text(json.dumps({"portfolio": {"cap": 0.0}}))
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text("not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(path)


@pytest.mark.parametrize(
    "pair", ["[10, 1" + "0" * 400 + "]", "[null, 5]", '["a", 5]'], ids=["huge_int", "null", "text"]
)
def test_unreadable_range_bound_is_a_config_error(tmp_path, pair):
    # a bound float() cannot read names its slot instead of escaping as a traceback
    path = tmp_path / "run.json"
    path.write_text('{"seed_ranges": {"price": {"start": ' + pair + ', "drift": [0, 0.1], "vol": [0.1, 0.2]}}}')
    with pytest.raises(ConfigError, match=r"seed_ranges\['price'\]\.start"):
        load_run_config(path)


def test_missing_file_reported():
    with pytest.raises(ConfigError, match="not found"):
        load_run_config("/nonexistent/run.json")


def test_start_date_parsing(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"start_date": "2022-03-01"}))
    assert load_run_config(path).start_date == dt.date(2022, 3, 1)
    # date.fromisoformat on Python 3.11 reads the last two as 2021-01-04
    for spelling in ("03/01/2022", "2021-W01-1", "20210104"):
        path.write_text(json.dumps({"start_date": spelling}))
        with pytest.raises(ConfigError, match="start_date"):
            load_run_config(path)


@pytest.mark.parametrize("value", ["0.5", True, "x", float("nan")], ids=repr)
def test_portfolio_cap_takes_only_a_finite_number(value):
    # float() would read the first two as 0.5 and 1.0
    with pytest.raises(ConfigError, match=r"portfolio\.cap must be a finite number"):
        run_config_from_dict({"portfolio": {"cap": value}})


def test_round_trip_through_dict():
    cfg = RunConfig(master_seed=5, portfolio=PortfolioConfig(top_m=7, cap=0.25))
    assert run_config_from_dict(cfg.to_dict()) == cfg


def test_resolved_json_is_deterministic():
    cfg = RunConfig()
    assert resolved_config_json(cfg) == resolved_config_json(RunConfig())
    parsed = json.loads(resolved_config_json(cfg))
    assert parsed["portfolio"]["cap"] == 0.1


INTEGER_KEYS = [
    ("master_seed", lambda v: {"master_seed": v}),
    ("n_securities", lambda v: {"n_securities": v}),
    ("n_days", lambda v: {"n_days": v}),
    ("portfolio.top_m", lambda v: {"portfolio": {"top_m": v}}),
    ("scoring.ma_window", lambda v: {"scoring": {"ma_window": v}}),
    ("scoring.vol_window", lambda v: {"scoring": {"vol_window": v}}),
    ("scoring.lbg_lag", lambda v: {"scoring": {"lbg_lag": v}}),
]


@pytest.mark.parametrize("key, build", INTEGER_KEYS, ids=[k for k, _ in INTEGER_KEYS])
@pytest.mark.parametrize("value", [1.5, 60.5, True, False, "60", None], ids=repr)
def test_integer_keys_reject_non_integers(key, build, value):
    # a fractional number used to be truncated (seed 1.5 ran seed 1), a bool
    # read as 0 or 1, and a fractional window crashed scoring later
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        run_config_from_dict(build(value))


@pytest.mark.parametrize("key, build", INTEGER_KEYS, ids=[k for k, _ in INTEGER_KEYS])
def test_integer_keys_accept_integral_floats(key, build):
    cfg = run_config_from_dict(build(60.0))
    section, _, name = key.rpartition(".")
    value = getattr(getattr(cfg, section) if section else cfg, name)
    assert value == 60 and type(value) is int


def test_fractional_seed_file_is_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"master_seed": 1.5}')
    with pytest.raises(ConfigError, match="master_seed must be an integer, got 1.5"):
        load_run_config(path)
