"""Deterministic RNG stream derivation.

All randomness in the package flows from a single 64-bit master seed.
Sub-streams (per purpose, per path, per sample) are derived by feeding the
master seed together with stable integer-encoded keys into a
``numpy.random.SeedSequence``.  String keys are encoded via CRC32 so the
derivation never depends on Python's hash randomization; identical
(seed, keys) always yield bit-identical generators, on any worker.

``derive_rngs`` derives the streams (seed, *keys, i) for a whole range of
indices i at once: it computes ``SeedSequence``'s pool and PCG64 state words
(M. E. O'Neill's seed-sequence hashing) on uint32 arrays over i, so a scan
of n samples pays one derivation instead of n.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_rng", "derive_rngs", "path_seed"]

_MASK32 = 0xFFFFFFFF

#: numpy ``SeedSequence``'s hash constants: entropy hashing (A), output (B), mixing
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

#: ``SeedSequence``'s pool size in uint32 words
_POOL = 4


def _encode_key(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    raise TypeError(f"stream key must be str or int, got {type(key).__name__}")


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Generator for the sub-stream (seed, *keys); independent across keys."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_encode_key(k) for k in keys]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def path_seed(seed: int, index: int) -> int:
    """Seed of path ``index`` of an ensemble under the master ``seed``.

    ``derive_rng`` separates the streams; this fold only gives each path a
    distinct integer, which its record and noise realization carry.
    """
    return (int(seed) * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) & 0x7FFFFFFFFFFFFFFF


def _words(n: int) -> list:
    """``SeedSequence``'s coercion of an int >= 0 to uint32 words: little-endian, 0 as one word."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _hasher(const: int, mult: int):
    """``SeedSequence``'s hashmix on arrays of uint32 words; the constant advances per call."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def derive_rngs(seed: int, *keys, count: int):
    """An iterator over ``derive_rng(seed, *keys, i)`` for i in range(count), bit for bit.

    The state words of all ``count`` streams come from one derivation; each
    generator is built as the iterator reaches it, so a scan holds one at a
    time, as a loop of ``derive_rng`` calls does.
    """
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"count must lie in [0, 2**32], got {count}")
    # numpy.random loads on first use; importing it here keeps it out of start-up
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _State(ISeedSequence):
        """Hands PCG64 its precomputed state words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    # uint32 words held in uint64 arrays and masked after each product; every
    # index below 2**32 is one word, so all rows share one entropy layout
    head = [w for k in [int(seed) & 0xFFFFFFFFFFFFFFFF, *map(_encode_key, keys)] for w in _words(k)]
    entropy = [np.full(count, w, dtype=np.uint64) for w in head] + [np.arange(count, dtype=np.uint64)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, dtype=np.uint64)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 output words, paired little-endian
    out = _hasher(_INIT_B, _MULT_B)
    halves = [out(pool[k % _POOL]) for k in range(8)]
    state = np.stack([halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)], axis=1)
    return (Generator(PCG64(_State(row))) for row in state)
