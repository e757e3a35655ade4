"""Batch substream seeding: numpy's SeedSequence words, derived for many keys at once."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shortbasket
from shortbasket.config import DEFAULT_SEED_RANGES
from shortbasket.rng import NoiseStream, substream_seeds
from shortbasket import simulate
from shortbasket.simulate import simulate_security, simulate_universe

SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

WORD = 2**32
# 32-bit word boundaries of the master seed: one word, two words, extremes.
SEED_EDGES = [0, 1, WORD - 1, WORD, WORD + 1, 2**63, 2**63 + 12345, 2**64 - 1]
master_seeds = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1))
key_entries = st.one_of(st.sampled_from([0, 1, WORD - 1]), st.integers(0, WORD - 1))
keys = st.lists(key_entries, min_size=1, max_size=4).map(tuple)


def numpy_words(master_seed: int, key) -> np.ndarray:
    return np.random.SeedSequence(master_seed, spawn_key=key).generate_state(4, np.uint64)


@SETTINGS
@given(master_seeds, st.lists(keys, min_size=1, max_size=12))
def test_seeds_equal_numpy_seed_sequence(master_seed, ids):
    words = substream_seeds(master_seed, ids)
    assert words.shape == (len(ids), 4)
    assert words.dtype == np.uint64
    for row, key in zip(words, ids):
        assert np.array_equal(row, numpy_words(master_seed, key)), (master_seed, key)


@pytest.mark.parametrize("master_seed", SEED_EDGES)
def test_seeds_of_mixed_key_lengths_and_wide_entries(master_seed):
    ids = [(), (0,), (5, 7), (3, 1, 0), (WORD,), (WORD + 3,), (3,), (2**64 + 9, 1), (2**100,), (1, 2, 3, 4, 5, 6)]
    words = substream_seeds(master_seed, ids)
    for row, key in zip(words, ids):
        assert np.array_equal(row, numpy_words(master_seed, key)), key


def test_wide_index_is_not_truncated():
    wide, narrow = substream_seeds(42, [(WORD + 3,), (3,)])
    assert not np.array_equal(wide, narrow)
    assert NoiseStream(42, (WORD + 3,)).generator().random() != NoiseStream(42, (3,)).generator().random()


def test_empty_batch():
    assert substream_seeds(1, []).shape == (0, 4)


@pytest.mark.parametrize("ids, error", [
    ([(1.5,)], TypeError),
    ([(0, "1")], TypeError),
    ([(-1,)], ValueError),
    ([(0,), (2, -3)], ValueError),
])
def test_invalid_ids_rejected(ids, error):
    with pytest.raises(error):
        substream_seeds(0, ids)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (2**64, ValueError), (1.0, TypeError)])
def test_invalid_master_seed_rejected(seed, error):
    with pytest.raises(error):
        substream_seeds(seed, [(0,)])


@SETTINGS
@given(master_seeds, keys)
def test_batch_stream_matches_default_rng(master_seed, key):
    (words,) = substream_seeds(master_seed, [key])
    batch = NoiseStream(master_seed, key, seed_words=words).generator()
    lone = NoiseStream(master_seed, key).generator()
    reference = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))
    assert batch.bit_generator.state == reference.bit_generator.state
    assert lone.bit_generator.state == reference.bit_generator.state
    expected = reference.standard_normal(8)
    assert np.array_equal(batch.standard_normal(8), expected)
    assert np.array_equal(lone.standard_normal(8), expected)


def test_generators_of_one_batch_are_independent_objects():
    ids = [(0, 1, 0), (0, 1, 1)]
    words = substream_seeds(701, ids)
    stream = NoiseStream(701, ids[0], seed_words=words[0])
    first, second = stream.generator(), stream.generator()
    other = NoiseStream(701, ids[1], seed_words=words[1]).generator()
    assert first is not second and first.bit_generator is not second.bit_generator
    head = second.bit_generator.state
    first.standard_normal(100)
    other.standard_normal(100)
    assert second.bit_generator.state == head
    assert np.array_equal(second.standard_normal(5), stream.generator().standard_normal(5))


def test_generator_pickles():
    (words,) = substream_seeds(9, [(4, 2)])
    for stream in (NoiseStream(9, (4, 2)), NoiseStream(9, (4, 2), seed_words=words)):
        gen = stream.generator()
        gen.random(3)
        clone = pickle.loads(pickle.dumps(gen))
        assert clone.bit_generator.state == gen.bit_generator.state
        assert clone.random() == gen.random()


def test_generator_seeds_from_the_words_it_carries():
    # a batch-opened stream does not re-derive its seed from its id
    (other,) = substream_seeds(6, [(2,)])
    carried = NoiseStream(6, (1,), seed_words=other).generator()
    assert carried.bit_generator.state == NoiseStream(6, (2,)).generator().bit_generator.state


def test_seed_words_are_not_part_of_identity():
    (words,) = substream_seeds(3, [(1, 2)])
    assert NoiseStream(3, (1, 2), seed_words=words) == NoiseStream(3, (1, 2))
    assert "seed_words" not in repr(NoiseStream(3, (1, 2), seed_words=words))


def test_child_of_batch_stream_is_seeded_by_its_own_id():
    (words,) = substream_seeds(5, [(1,)])
    child = NoiseStream(5, (1,), seed_words=words).child(2)
    assert child.seed_words is None
    assert child.generator().random() == NoiseStream(5, (1, 2)).generator().random()


@pytest.mark.parametrize("words", [
    np.zeros(3, dtype=np.uint64),
    np.zeros(4, dtype=np.uint32),
    np.zeros((1, 4), dtype=np.uint64),
    np.zeros((4, 2), dtype=np.uint64)[:, 0],
])
def test_malformed_seed_words_rejected(words):
    with pytest.raises(ValueError):
        NoiseStream(0, (1,), seed_words=words)


@pytest.mark.parametrize("master_seed", [0, 42, 701, 2**32, 2**64 - 1])
def test_universe_equals_per_security_simulation(master_seed, monkeypatch):
    # seeds are derived a few securities at a time; cross batch edges
    monkeypatch.setattr(simulate, "_SEED_BATCH", 4)
    n_securities, n_days = 10, 12
    ds = simulate_universe(DEFAULT_SEED_RANGES, n_securities, n_days, master_seed)
    for i in range(n_securities):
        rows, profile = simulate_security(DEFAULT_SEED_RANGES, i, n_securities, n_days, master_seed)
        assert np.array_equal(rows, ds.values[:, i])
        assert profile == ds.profiles[i]


def test_import_does_not_load_numpy_random():
    # numpy.random is loaded by the first generator, not by import
    src = str(Path(shortbasket.__file__).resolve().parents[1])
    code = "import sys, shortbasket, shortbasket.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"
