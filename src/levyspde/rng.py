"""Deterministic RNG stream derivation.

All randomness in the package flows from a single 64-bit master seed.
Sub-streams (per purpose, per path, per sample) are derived by feeding the
master seed together with stable integer-encoded keys into a
``numpy.random.SeedSequence``.  String keys are encoded via CRC32 so the
derivation never depends on Python's hash randomization; identical
(seed, keys) always yield bit-identical generators, on any worker.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_rng", "derive_seed_sequence", "path_seed"]


def _encode_key(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    raise TypeError(f"stream key must be str or int, got {type(key).__name__}")


def derive_seed_sequence(seed: int, *keys) -> np.random.SeedSequence:
    """Build the seed sequence for the sub-stream identified by ``keys``."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_encode_key(k) for k in keys]
    return np.random.SeedSequence(entropy)


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Generator for the sub-stream (seed, *keys); independent across keys."""
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(seed, *keys)))


def path_seed(seed: int, index: int) -> int:
    """Seed of path ``index`` of an ensemble under the master ``seed``.

    ``derive_rng`` separates the streams; this fold only gives each path a
    distinct integer, which its record and noise realization carry.
    """
    return (int(seed) * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 + 1) & 0x7FFFFFFFFFFFFFFF
