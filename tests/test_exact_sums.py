"""The scoring kernel's exact row sums and libm squares, against ``math.fsum`` and Python's ``**``.

``_row_fsums`` must give ``math.fsum``'s bits for every row, the sign of
zero included, and raise fsum's exception where fsum raises. Rows are
drawn to land on the split sum's hard cases: exact and near cancellation,
ties (multiples of 1/8 whose sums pass 2**53), sums just off a tie,
magnitudes from 1e-300 to 1e300, subnormals, non-finite values and
intermediate overflow.
``np.float_power(x, 2.0)`` must square exactly as ``x ** 2.0`` does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shortbasket.scoring import ScoreConfig, _row_fsums, _split_sums, rate_stats

from conftest import series_from_columns

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

HUGE = 1.7976931348623157e308


def fsum_outcome(row: list[float]) -> str | tuple[type, str]:
    """fsum's result as exact hex text, or its exception's type and message."""
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches_fsum(block: np.ndarray) -> None:
    rows = block.reshape(-1, block.shape[-1]).tolist()
    want = [fsum_outcome(row) for row in rows]
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        kind, message = errors[0]
        with pytest.raises(kind) as raised:
            _row_fsums(block)
        assert str(raised.value) == message
        return
    got = _row_fsums(block)
    assert got.shape == block.shape[:-1]
    assert [v.hex() for v in got.reshape(-1).tolist()] == want


def rows_of(elements: st.SearchStrategy[float], min_size: int = 1, max_size: int = 300):
    return st.lists(elements, min_size=min_size, max_size=max_size)


moderate = st.floats(-1e6, 1e6, allow_nan=False)
eighths = st.integers(-(2**58), 2**58).map(lambda k: k / 8)
scaled = st.builds(
    math.ldexp,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-1000, 997),
)
subnormal = st.integers(-(2**52), 2**52).map(lambda k: k * 5e-324)
wide = st.floats(-1e300, 1e300, allow_nan=False)
anything = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, HUGE, -HUGE, 1e308, -1e308, 0.0, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def cancelling(draw, elements=moderate) -> list[float]:
    """A row whose last value is minus the sum of the rest, shuffled in."""
    rest = draw(rows_of(elements, max_size=299))
    row = rest + [-math.fsum(rest)]
    return draw(st.permutations(row))


@st.composite
def mirrored(draw, elements=st.one_of(moderate, scaled, eighths)) -> list[float]:
    """A row and its negation, shuffled together: the exact sum is zero."""
    half = draw(rows_of(elements, max_size=150))
    return draw(st.permutations(half + [-v for v in half]))


@st.composite
def near_ties(draw) -> list[float]:
    """A value, half its ulp and a nudge far below that: the exact sum sits just off a tie."""
    base = draw(st.floats(1.0, 2.0**40)) * draw(st.sampled_from([1.0, -1.0]))
    half = math.ulp(base) / 2 * draw(st.sampled_from([1.0, -1.0]))
    nudge = math.ulp(base) * draw(st.sampled_from([1.0, -1.0])) * 2.0 ** -draw(st.integers(20, 80))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=20))
    return draw(st.permutations([base, half, nudge] + zeros))


def block_of(rows: st.SearchStrategy[list[float]], max_rows: int = 6) -> st.SearchStrategy[np.ndarray]:
    """2-D blocks of drawn rows, padded to one length with 0.0 or -0.0."""

    @st.composite
    def build(draw) -> np.ndarray:
        drawn = draw(st.lists(rows, min_size=1, max_size=max_rows))
        width = max(map(len, drawn))
        pad = draw(st.sampled_from([0.0, -0.0]))
        return np.array([row + [pad] * (width - len(row)) for row in drawn])

    return build()


@SETTINGS
@given(block_of(st.one_of(cancelling(), mirrored(), cancelling(scaled))))
@example(np.array([[1.0, -1.0], [-0.0, -0.0], [0.0, -0.0], [-1.0, 1.0]]))
def test_cancelling_rows_match_fsum(block):
    assert_matches_fsum(block)


@SETTINGS
@given(block_of(st.one_of(rows_of(eighths), near_ties())))
@example(np.array([[1.0, 2.0**-53, 2.0**-110], [-1.0, -(2.0**-53), -(2.0**-110)], [1.0, 2.0**-53, -(2.0**-110)]]))
@example(np.array([[1.0, 2.0**-53, 0.0], [1.0, -(2.0**-54), 0.0], [1.0, 2.0**-53, 2.0**-80], [2.0**53, 1.0, 1.0 / 8]]))
@example(np.array([[2.0**53 + 2, 1.0], [2.0**53 + 2, 1.0 + 2.0**-52], [2.0**53, 1.0], [-(2.0**53), -1.0]]))
def test_ties_match_fsum(block):
    assert_matches_fsum(block)


@SETTINGS
@given(block_of(rows_of(st.one_of(scaled, wide, subnormal, st.just(0.0)))))
@example(np.array([[1e-300, 1e300, -1e300], [5e-324, -5e-324, 5e-324], [2.0**-900, 2.0**-953, 2.0**-1000]]))
def test_magnitudes_and_subnormals_match_fsum(block):
    assert_matches_fsum(block)


@SETTINGS
@given(block_of(rows_of(anything, max_size=40)))
@example(np.array([[HUGE, HUGE, -HUGE]]))
@example(np.array([[math.inf, -math.inf]]))
@example(np.array([[1.0, 2.0], [math.nan, 1.0], [math.inf, 1.0], [HUGE, HUGE]]))
def test_non_finite_and_overflow_match_fsum(block):
    assert_matches_fsum(block)


@SETTINGS
@given(
    st.integers(1, 4), st.integers(1, 3), st.integers(1, 300),
    st.integers(0, 2**32 - 1), st.sampled_from([1e-12, 1.0, 1e9]),
)
def test_three_dimensional_blocks_match_fsum(a, b, n, seed, magnitude):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((a, b, n)) * magnitude
    block[..., -1] -= block[..., :-1].sum(axis=-1)
    assert_matches_fsum(block)


def test_one_value_and_empty_rows():
    assert_matches_fsum(np.array([[-0.0], [0.0], [3.5], [5e-324]]))
    assert _row_fsums(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert _row_fsums(np.empty((0, 5))).shape == (0,)


def test_typical_windows_take_the_split_path():
    # The fallback to math.fsum is for rare rows: rate, volume and squared
    # deviation windows are certified by the split sum itself.
    rng = np.random.default_rng(7)
    for block in (rng.uniform(0.0, 0.1, (100, 60)), rng.uniform(1e5, 1e7, (100, 20)),
                  rng.standard_normal((100, 253)) ** 2):
        sums, certified = _split_sums(block)
        assert certified.all()
        assert sums.tolist() == [math.fsum(row) for row in block.tolist()]


# --- squares ----------------------------------------------------------------

# Doubles whose x * x differs from x ** 2.0 in the last bit.
POW_DIFFERS = [5.411390095865136, 1.2291748224027053]


@pytest.mark.parametrize("x", POW_DIFFERS)
def test_float_power_squares_as_python_pow_where_multiplying_does_not(x):
    assert x * x != x**2.0
    assert np.float_power(np.array([x, -x]), 2.0).tolist() == [x**2.0, (-x) ** 2.0]


@SETTINGS
@given(st.lists(st.floats(-1.3e154, 1.3e154, allow_nan=False), min_size=1, max_size=200))
def test_float_power_squares_as_python_pow(values):
    assert [v.hex() for v in np.float_power(np.array(values), 2.0).tolist()] == [(v**2.0).hex() for v in values]


def test_float_power_squares_random_doubles_as_python_pow():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-8, 8, 20_000)
    assert np.float_power(values, 2.0).tolist() == [v**2.0 for v in values.tolist()]


def test_rate_stats_overflowing_square_raises_as_python_pow():
    series = series_from_columns("SEC0001", 5, loan_rate=[0.0, 1e200, 0.0, 1e200, 0.0])
    with pytest.raises(OverflowError) as raised:
        rate_stats(series, ScoreConfig(ma_window=5, vol_window=5), series.dates[-1])
    with pytest.raises(OverflowError) as python:
        (1e200 - 4e199) ** 2.0
    assert str(raised.value) == str(python.value)
