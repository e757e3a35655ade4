"""Substream reproducibility and independence."""

from __future__ import annotations

import numpy as np
import pytest

from shortbasket.rng import NoiseStream


def test_same_key_reproduces_sequence():
    a = NoiseStream(42, (3, 1)).generator().standard_normal(1000)
    b = NoiseStream(42, (3, 1)).generator().standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_substreams_are_uncorrelated():
    n = 10_000
    base = NoiseStream(7)
    draws = {
        key: base.child(*key).generator().standard_normal(n)
        for key in [(0, 0), (0, 1), (1, 0), (5, 3)]
    }
    keys = list(draws)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            corr = np.corrcoef(draws[keys[i]], draws[keys[j]])[0, 1]
            assert abs(corr) < 0.05, (keys[i], keys[j], corr)


def test_different_master_seeds_differ():
    a = NoiseStream(1, (0,)).generator().standard_normal(10)
    b = NoiseStream(2, (0,)).generator().standard_normal(10)
    assert not np.array_equal(a, b)


def test_child_extends_id():
    stream = NoiseStream(9, (1,)).child(2, 3)
    assert stream.substream_id == (1, 2, 3)
    assert stream.master_seed == 9


def test_generator_restarts_from_stream_origin():
    stream = NoiseStream(11, (4,))
    first = stream.generator().standard_normal(5)
    again = stream.generator().standard_normal(5)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_master_seed_range_validated(seed):
    with pytest.raises(ValueError):
        NoiseStream(seed)


def test_negative_substream_index_rejected():
    with pytest.raises(ValueError):
        NoiseStream(0, (-1,))


@pytest.mark.parametrize("seed", [1.5, 3.0, "3", None])
def test_non_integer_master_seed_rejected_at_construction(seed):
    with pytest.raises(TypeError):
        NoiseStream(seed)


@pytest.mark.parametrize("key", [(1.5,), (0, 2.0), ("1",)])
def test_non_integer_substream_index_rejected_at_construction(key):
    with pytest.raises(TypeError):
        NoiseStream(0, key)


def test_child_rejects_non_integer_index():
    with pytest.raises(TypeError):
        NoiseStream(0, (1,)).child(0.5)


def test_numpy_integers_accepted_and_normalised():
    stream = NoiseStream(np.uint64(7), [np.int64(3), np.uint8(1)])
    assert stream == NoiseStream(7, (3, 1))
    assert type(stream.master_seed) is int
    assert stream.substream_id == (3, 1)
    assert all(type(i) is int for i in stream.substream_id)
