"""Deterministic RNG derivation.

Every stochastic piece of the simulator (the one receiver noise current,
phase walks, jitter, symbol draws) pulls its generator from here: a single
master seed plus a short string tag ("thermal", "drive-phase", "jitter"), so
adding a new noise source or reordering calls never perturbs the streams of
existing ones, and parallel sweep tasks stay byte-reproducible in any order.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["derive_rng", "derive_seed_sequence"]


def derive_seed_sequence(master_seed: int, *tags: str | int) -> np.random.SeedSequence:
    """Build a SeedSequence from the master seed and a path of tags.

    String tags are hashed with crc32 so the entropy path is stable across
    runs and platforms; integer tags (e.g. a channel index or sweep task
    index) pass through unchanged.
    """
    words: list[int] = [int(master_seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode("utf-8")))
        else:
            words.append(int(tag) & 0xFFFFFFFF)
    return np.random.SeedSequence(words)


def derive_rng(master_seed: int, *tags: str | int) -> np.random.Generator:
    """Return a Generator dedicated to the noise source named by ``tags``."""
    return np.random.default_rng(derive_seed_sequence(master_seed, *tags))
