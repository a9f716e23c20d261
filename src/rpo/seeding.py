"""Namespaced sub-seed derivation.

One run seed governs every stochastic component (class pick, splits,
projection generation, weight init, shuffling). Each component draws from
its own named stream so changing one knob never perturbs the others.
"""

from __future__ import annotations

import zlib

import numpy as np

SEED_END = 2**32  # sub_rng keeps a seed's low 32 bits, so a user's seed must lie below this


def sub_rng(seed: int, *names: str) -> np.random.Generator:
    """Return a generator for the stream named by ``names`` under ``seed``."""
    entropy = [int(seed) & (SEED_END - 1)] + [zlib.crc32(n.encode("utf-8")) for n in names]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sub_seed(seed: int, *names: str) -> int:
    """Return a plain integer seed for the named stream (for APIs taking ints)."""
    return int(sub_rng(seed, *names).integers(0, 2**63 - 1))
