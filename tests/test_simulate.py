"""Simulation engine: parameter draws, process laws, universe assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shortbasket.config import DEFAULT_SEED_RANGES
from shortbasket.errors import MissingVariableRange
from shortbasket.rng import NoiseStream
from shortbasket.simulate import (
    DEFAULT_DT,
    VARIABLES,
    FoldedNormalParams,
    GbmParams,
    SimulationSeedRange,
    draw_params,
    simulate_abs_normal,
    simulate_gbm,
    simulate_security,
    simulate_universe,
)

STREAM = NoiseStream(123)


def gbm_range(**overrides):
    base = dict(
        variable="price",
        start_min=10.0,
        start_max=500.0,
        drift_min=-0.1,
        drift_max=0.15,
        vol_min=0.15,
        vol_max=0.35,
    )
    base.update(overrides)
    return SimulationSeedRange(**base)


class TestSeedRange:
    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            gbm_range(start_min=10.0, start_max=5.0)
        with pytest.raises(ValueError):
            gbm_range(drift_min=0.2, drift_max=0.1)
        with pytest.raises(ValueError):
            gbm_range(vol_min=0.5, vol_max=0.1)

    def test_negative_vol_rejected(self):
        with pytest.raises(ValueError):
            gbm_range(vol_min=-0.1, vol_max=0.1)

    def test_gbm_needs_positive_start(self):
        with pytest.raises(ValueError):
            gbm_range(start_min=0.0)
        # the folded-normal channel may leave the start slot at zero
        SimulationSeedRange("loan_balance", 0.0, 0.0, 1e6, 5e7, 5e5, 2e7)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("slot", ["start_min", "start_max", "drift_min", "drift_max", "vol_min", "vol_max"])
    def test_non_finite_bound_rejected_naming_variable_and_slot(self, slot, bad):
        with pytest.raises(ValueError, match=f"price: {slot}"):
            gbm_range(**{slot: bad})

    def test_interval_wider_than_a_double_rejected(self):
        # numpy's uniform cannot draw from an interval whose width overflows.
        with pytest.raises(ValueError, match="drift_max - drift_min"):
            gbm_range(drift_min=-1e308, drift_max=1e308)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            gbm_range(variable="spread")


class TestDrawParams:
    def test_degenerate_interval_is_exact(self):
        rng_range = gbm_range(start_min=100.0, start_max=100.0)
        params = draw_params(rng_range, STREAM.child(0))
        assert isinstance(params, GbmParams)
        assert params.s0 == 100.0

    def test_uniform_mean_recovered(self):
        # mean of U(10, 500) is 255; Monte Carlo over 10^4 draws
        draws = np.array(
            [draw_params(gbm_range(), STREAM.child(2, i)).s0 for i in range(10_000)]
        )
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 255.0) < 3 * se

    def test_vol_support_containment(self):
        sigmas = [draw_params(gbm_range(), STREAM.child(3, i)).sigma for i in range(2_000)]
        assert all(0.15 <= s <= 0.35 for s in sigmas)

    def test_loan_balance_draws_folded_params(self):
        rng_range = SimulationSeedRange("loan_balance", 0.0, 0.0, 2e6, 2e6, 1e5, 1e5)
        params = draw_params(rng_range, STREAM.child(4))
        assert isinstance(params, FoldedNormalParams)
        assert params.mu == 2e6
        assert params.sigma == 1e5


class TestGbm:
    def test_zero_vol_path_is_deterministic_exponential(self):
        params = GbmParams(s0=100.0, mu=0.10, sigma=0.0)
        path = simulate_gbm(params, 253, 1.0 / 252.0, STREAM.child(5))
        expected = 100.0 * math.exp(0.10)
        assert path[0] == 100.0
        assert abs(path[-1] - expected) / expected < 1e-9

    def test_ito_drift_correction(self):
        # E[log(S_end / S_0)] over one year = mu - sigma^2/2 = -0.02
        params = GbmParams(s0=1.0, mu=0.0, sigma=0.2)
        totals = np.empty(10_000)
        for i in range(len(totals)):
            path = simulate_gbm(params, 253, 1.0 / 252.0, STREAM.child(6, i))
            totals[i] = math.log(path[-1] / path[0])
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean() - (-0.02)) < 3 * se

    def test_volatility_recovered_from_pooled_returns(self):
        params = GbmParams(s0=1.0, mu=0.0, sigma=0.2)
        pooled = []
        for i in range(2_000):
            path = simulate_gbm(params, 253, 1.0 / 252.0, STREAM.child(7, i))
            pooled.append(np.diff(np.log(path)))
        realized = np.concatenate(pooled).std(ddof=1) * math.sqrt(252.0)
        assert abs(realized - 0.2) / 0.2 < 0.02

    def test_paths_strictly_positive(self):
        params = GbmParams(s0=0.01, mu=-2.0, sigma=1.5)
        path = simulate_gbm(params, 500, 1.0 / 252.0, STREAM.child(8))
        assert (path > 0).all()

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            simulate_gbm(GbmParams(1.0, 0.0, 0.1), 0, DEFAULT_DT, STREAM)
        with pytest.raises(ValueError):
            simulate_gbm(GbmParams(1.0, 0.0, 0.1), 10, 0.0, STREAM)


class TestAbsNormal:
    def test_zero_sigma_folds_the_constant(self):
        params = FoldedNormalParams(mu=-5.0, sigma=0.0)
        values = simulate_abs_normal(params, 100, STREAM.child(9))
        assert (values == 5.0).all()

    def test_folded_mean_matches_closed_form(self):
        # |N(0,1)| has mean sqrt(2/pi)
        values = simulate_abs_normal(FoldedNormalParams(0.0, 1.0), 100_000, STREAM.child(10))
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - math.sqrt(2.0 / math.pi)) < 3 * se

    def test_non_negative_for_any_params(self):
        values = simulate_abs_normal(FoldedNormalParams(-3.0, 10.0), 10_000, STREAM.child(11))
        assert (values >= 0).all()


class TestUniverse:
    def test_shape_and_positivity(self):
        ds = simulate_universe(DEFAULT_SEED_RANGES, 10, 30, 42)
        assert len(ds.series) == 10
        assert all(len(s) == 30 for s in ds.series)
        assert ds.values.shape == (len(VARIABLES), 10, 30)
        price, balance, rate, alt = (
            ds.values[VARIABLES.index(v)] for v in ("price", "loan_balance", "loan_rate", "alt_loan_rate")
        )
        assert (price > 0).all()
        assert (balance >= 0).all()
        assert (alt >= rate).all()

    def test_deterministic_given_master_seed(self):
        a = simulate_universe(DEFAULT_SEED_RANGES, 5, 20, 99)
        b = simulate_universe(DEFAULT_SEED_RANGES, 5, 20, 99)
        assert a == b

    def test_master_seed_changes_output(self):
        a = simulate_universe(DEFAULT_SEED_RANGES, 5, 20, 1)
        b = simulate_universe(DEFAULT_SEED_RANGES, 5, 20, 2)
        assert a != b

    def test_degenerate_single_observation_equals_drawn_start(self):
        ds = simulate_universe(DEFAULT_SEED_RANGES, 1, 1, 7)
        first_price = ds.series[0].column("price")[0]
        # reconstruct the price start draw from the documented substream layout
        price_idx = VARIABLES.index("price")
        params = draw_params(
            DEFAULT_SEED_RANGES["price"], NoiseStream(7).child(0, price_idx, 0)
        )
        assert first_price == params.s0

    def test_order_independence_of_securities(self):
        ds = simulate_universe(DEFAULT_SEED_RANGES, 4, 15, 5)
        rebuilt = [
            simulate_security(DEFAULT_SEED_RANGES, i, 4, 15, 5) for i in reversed(range(4))
        ]
        rebuilt.reverse()
        assert np.array_equal(np.stack([rows for rows, _ in rebuilt], axis=1), ds.values)
        assert tuple(p for _, p in rebuilt) == ds.profiles

    def test_missing_variable_range_rejected(self):
        partial = {k: v for k, v in DEFAULT_SEED_RANGES.items() if k != "volume"}
        with pytest.raises(MissingVariableRange):
            simulate_universe(partial, 2, 5, 0)

    def test_profiles_within_configured_ranges(self):
        ds = simulate_universe(
            DEFAULT_SEED_RANGES, 20, 5, 3, buy_rating_range=(2.0, 4.0), beta_range=(1.0, 1.5)
        )
        for p in ds.profiles:
            assert 2.0 <= p.buy_rating <= 4.0
            assert 1.0 <= p.beta <= 1.5

    def test_moment_recovery_across_universe(self):
        # Pooled over >= 10^3 securities, realized drift and volatility
        # must match what the seed ranges imply. With sigma ~ U(v1, v2),
        # pooled variance per step is E[sigma^2] * dt, and the mean log
        # drift per path is E[mu] - E[sigma^2]/2 per year.
        ranges = dict(DEFAULT_SEED_RANGES)
        ranges["price"] = SimulationSeedRange("price", 100.0, 100.0, -0.05, 0.15, 0.1, 0.3)
        ds = simulate_universe(ranges, 1000, 127, 11)
        horizon_years = 126.0 / 252.0
        log_paths = [np.log(np.asarray(s.column("price"))) for s in ds.series]

        v1, v2 = 0.1, 0.3
        e_sigma_sq = (v1 * v1 + v1 * v2 + v2 * v2) / 3.0
        expected_vol = math.sqrt(e_sigma_sq)
        expected_drift = (-0.05 + 0.15) / 2.0 - e_sigma_sq / 2.0

        pooled = np.concatenate([np.diff(lp) for lp in log_paths])
        realized_vol = pooled.std(ddof=1) * math.sqrt(252.0)
        assert abs(realized_vol - expected_vol) / expected_vol < 0.02

        per_path_drift = np.array([(lp[-1] - lp[0]) / horizon_years for lp in log_paths])
        se = per_path_drift.std(ddof=1) / math.sqrt(len(per_path_drift))
        assert abs(per_path_drift.mean() - expected_drift) < 3 * se
