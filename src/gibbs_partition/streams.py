"""Deterministic RNG substreams.

A 64-bit master seed plus a (stage tag, index) pair derives independent
numpy Generators through SeedSequence spawn keys, so results reproduce
bit-for-bit for a fixed seed regardless of worker count.  Stage tags are
hashed with blake2b (not Python's salted hash) to stay stable across runs.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stage_key(stage: str) -> int:
    return int.from_bytes(hashlib.blake2b(stage.encode(), digest_size=8).digest(), "big")


def stage_stream(master_seed: int, stage: str, index: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stage, index) coordinate."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(_stage_key(stage), index))
    )
