"""Properties of the run-config reader and its echo.

Any valid config reads back from its own echo as the same config, and
any JSON value at any key either loads or fails with a ConfigError
whose message starts with that key. Only the loader runs here: a drawn
config may ask for a universe far too large to simulate.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shortbasket.config import DEFAULT_SEED_RANGES, RunConfig, resolved_config_json, run_config_from_dict
from shortbasket.errors import ConfigError
from shortbasket.portfolio import PortfolioConfig
from shortbasket.scoring import ScoreConfig
from shortbasket.screener import FILTER_ORDER, FilterConfig
from shortbasket.simulate import GBM_VARIABLES, VARIABLES, SimulationSeedRange

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(max_size=6)
COUNTS = st.integers(1, 10**6)


def ordered_pairs(elements=FINITE):
    return st.tuples(elements, elements).map(lambda p: tuple(sorted(p)))


@st.composite
def seed_ranges(draw, variable: str) -> SimulationSeedRange:
    # bounded slots keep every max - min finite, as numpy's uniform draw needs
    start = draw(ordered_pairs(st.floats(1e-6, 1e6) if variable in GBM_VARIABLES else st.floats(-1e6, 1e6)))
    drift = draw(ordered_pairs(st.floats(-1e6, 1e6)))
    vol = draw(ordered_pairs(st.floats(0.0, 1e6)))
    return SimulationSeedRange(variable, *start, *drift, *vol)


valid_configs = st.builds(
    RunConfig,
    master_seed=st.integers(0, 2**64 - 1),
    n_securities=COUNTS,
    n_days=COUNTS,
    start_date=st.dates(),
    markets=st.lists(NAMES, min_size=1, max_size=5).map(tuple),
    buy_rating_range=ordered_pairs(),
    beta_range=ordered_pairs(),
    seed_ranges=st.fixed_dictionaries({}, optional={v: seed_ranges(v) for v in VARIABLES}).map(
        lambda drawn: {**DEFAULT_SEED_RANGES, **drawn}
    ),
    scoring=st.builds(
        ScoreConfig,
        rf=FINITE,
        ma_window=st.integers(2, 10**6),
        vol_window=st.integers(2, 10**6),
        lbg_lag=st.integers(2, 10**6),
        rate_source=st.sampled_from(["loan_rate", "alt_loan_rate"]),
    ),
    filters=st.builds(
        FilterConfig,
        **dict.fromkeys(FILTER_ORDER, FINITE),
        drop_bottom_pct=st.floats(0.0, 100.0, exclude_max=True),
        market_scale=st.dictionaries(NAMES, st.floats(0.0, exclude_min=True, allow_infinity=False), max_size=4),
        exclusions=st.frozensets(NAMES, max_size=4),
    ),
    portfolio=st.builds(PortfolioConfig, top_m=COUNTS, cap=st.floats(0.0, 1.0, exclude_min=True)),
)


@SETTINGS
@given(valid_configs)
def test_echo_reads_back_as_the_same_config(cfg):
    # an echo that dropped a key it accepts (filters.exclusions did) would not reproduce the run
    assert run_config_from_dict(json.loads(resolved_config_json(cfg))) == cfg


def dotted_keys(cls: type = RunConfig, prefix: str = "") -> list[str]:
    """Every key of the config schema, sections and their keys alike."""
    keys = []
    for f in fields(cls):
        keys.append(prefix + f.name)
        default = getattr(cls(), f.name)
        if is_dataclass(default):
            keys += dotted_keys(type(default), f"{prefix}{f.name}.")
    return keys


KEYS = dotted_keys()
# Object keys are often names the schema knows, so drawn sections reach their fields.
OBJECT_KEYS = st.text(max_size=8) | st.sampled_from(
    sorted({key.rpartition(".")[2] for key in KEYS}) + [*VARIABLES, "start", "drift", "vol"]
)

json_scalars = (
    st.none()
    | st.booleans()
    | st.text(max_size=8)
    | st.sampled_from(["loan_rate", "2020-01-02", "20200102", "JP"])
    | st.floats()  # NaN and +-Infinity included
    | st.integers(-5, 300)
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**64, 2**64 - 1, -1, 0.5, 60.0, 1e308])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(OBJECT_KEYS, inner, max_size=4),
    max_leaves=12,
)


def config_with(path: list[str], value) -> dict:
    """A config dict holding ``value`` at ``path`` and nothing else."""
    config: dict = {}
    node = config
    for part in path[:-1]:
        node = node.setdefault(part, {})
    node[path[-1]] = value
    return config


def loads_or_names(config: dict, prefix: str) -> None:
    try:
        run_config_from_dict(config)
    except ConfigError as exc:
        assert str(exc).startswith(prefix), (prefix, str(exc))


@SETTINGS
@given(st.sampled_from(KEYS), json_values)
def test_any_json_value_at_any_key_loads_or_names_the_key(key, value):
    loads_or_names(config_with(key.split("."), value), key)


@SETTINGS
@given(st.sampled_from(VARIABLES), st.sampled_from(["start", "drift", "vol"]), json_values)
def test_any_json_value_in_a_seed_range_slot_loads_or_names_the_variable(variable, slot, value):
    block = {"start": [10.0, 20.0], "drift": [0.0, 0.1], "vol": [0.1, 0.2], slot: value}
    loads_or_names({"seed_ranges": {variable: block}}, f"seed_ranges[{variable!r}]")
