"""Reproducible random substreams keyed by (master seed, index path).

Each substream is seeded as ``numpy.random.SeedSequence`` seeds it with
the substream id as the spawn key, so the sequence a stream produces
depends only on ``(master_seed, substream_id)`` and never on how many
other streams were consumed first. That makes per-security simulation
order free: workers can draw their streams in any order (or in parallel)
and still reproduce the exact dataset.

A generator is a ``PCG64`` built from four 64-bit seed words.
``substream_seeds`` derives the words of many substreams in one batch:
it runs ``SeedSequence``'s hash and mix steps on ``uint32`` arrays, one
column per entropy word, and returns exactly the words
``SeedSequence(master_seed, spawn_key=id).generate_state(4, np.uint64)``
gives. A simulated universe derives the seeds of all its substreams
that way; a stream opened on its own asks ``SeedSequence`` directly,
which is cheaper for one key.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

_MAX_SEED = 2**64
_WORD = 2**32
_MASK32 = _WORD - 1

# SeedSequence's constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe); the pool holds four 32-bit words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_UINT64 = np.dtype(np.uint64)


def _master_seed(seed: int) -> int:
    value = operator.index(seed)
    if not 0 <= value < _MAX_SEED:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {seed}")
    return value


def _substream_key(indices: Iterable[int]) -> tuple[int, ...]:
    key = tuple(map(operator.index, indices))
    if key and min(key) < 0:
        raise ValueError(f"substream indices must be non-negative, got {key}")
    return key


def _int_words(value: int) -> list[int]:
    """numpy's uint32 coercion of one non-negative integer: little-endian words, 0 as [0]."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _HashMix:
    """SeedSequence's ``hashmix`` on arrays; the multiplier advances on every call."""

    def __init__(self) -> None:
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * _MULT_A & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _state_words(master_seed: int, keys: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of ``SeedSequence(master_seed, spawn_key=row)`` per row.

    ``keys`` is ``(n, k)`` uint32, one column per spawn-key entropy word.
    Every step is the one numpy takes for a single key, applied to all
    rows at once. With a spawn key, numpy pads the run entropy to the
    pool size with zeros, so the pool starts from the same four words
    for every row; for an empty key that padding hashes the same as
    numpy's pool fill. The pool is therefore shared until the first key
    word is mixed in, and broadcasts from one element to ``n`` there.
    """
    hashmix = _HashMix()
    run_entropy = (master_seed & _MASK32, master_seed >> 32, 0, 0)
    pool = [hashmix(np.array([word], dtype=np.uint32)) for word in run_entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for j in range(keys.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(keys[:, j]))

    state = np.empty((keys.shape[0], 8), dtype="<u4")
    const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> _XSHIFT)
    # As in generate_state: read the uint32 words as little-endian pairs.
    return state.view("<u8").astype(np.uint64, copy=False)


def substream_seeds(master_seed: int, ids: Iterable[Sequence[int]]) -> np.ndarray:
    """The four PCG64 seed words of each substream id, as an ``(n, 4)`` uint64 array.

    Row ``r`` equals ``SeedSequence(master_seed, spawn_key=ids[r])
    .generate_state(4, np.uint64)``. Ids may differ in length, and an
    index of 2**32 or more spans several entropy words, as in numpy.
    """
    seed = _master_seed(master_seed)
    # Row numbers and keys, grouped by the number of spawn-key words.
    groups: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    n = 0
    for n, indices in enumerate(ids, 1):
        key = _substream_key(indices)
        if key and max(key) >= _WORD:
            key = tuple(w for i in key for w in _int_words(i))
        rows, keys = groups.setdefault(len(key), ([], []))
        rows.append(n - 1)
        keys.append(key)
    out = np.empty((n, 4), dtype=np.uint64)
    for length, (rows, keys) in groups.items():
        out[rows] = _state_words(seed, np.array(keys, dtype=np.uint32).reshape(len(rows), length))
    return out


class _SeedWords:
    """Hands PCG64 the four seed words a stream already holds.

    numpy accepts it as an ``ISeedSequence`` once ``_register_seed_words``
    has run. That happens on first use, so that importing this module
    does not load ``numpy.random`` (about 5 MiB) in a process that draws
    nothing.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != _UINT64:
            raise ValueError(f"holds four uint64 seed words, asked for {n_words} of {np.dtype(dtype)}")
        return self.words


@functools.cache
def _register_seed_words() -> None:
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)


@dataclass(frozen=True)
class NoiseStream:
    """A named, independently seeded source of random draws.

    ``substream_id`` is a tuple of non-negative integers (for the
    simulation engine: security index, variable channel, purpose). Two
    streams with different ids are statistically independent; two streams
    with equal ``(master_seed, substream_id)`` yield identical samples.

    ``seed_words`` is this stream's row of a ``substream_seeds`` batch.
    The stream trusts it to belong to its id; left ``None``, the
    generator asks ``SeedSequence`` for the words.
    """

    master_seed: int
    substream_id: tuple[int, ...] = ()
    seed_words: np.ndarray | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", _master_seed(self.master_seed))
        object.__setattr__(self, "substream_id", _substream_key(self.substream_id))
        words = self.seed_words
        if words is not None and (
            words.shape != (4,) or words.dtype != _UINT64 or not words.flags.c_contiguous
        ):
            raise ValueError(f"seed_words must be four contiguous uint64 words, got {words.dtype} {words.shape}")

    def child(self, *indices: int) -> "NoiseStream":
        """Derive a sub-stream by appending indices to the id path."""
        return NoiseStream(self.master_seed, self.substream_id + indices)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream's sequence."""
        words = self.seed_words
        if words is None:
            seq = np.random.SeedSequence(self.master_seed, spawn_key=self.substream_id)
            words = seq.generate_state(4, np.uint64)
        _register_seed_words()
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))
