"""Seed derivation and RNG construction.

All randomness in the package flows through numpy Generators seeded from
explicit integer chains, so any run is reproducible from its root seed.
"""

import operator

import numpy as np


def spawn_seed(*parts: int) -> int:
    """Derive a child seed from an integer chain, e.g. (root, stage, attempt).
    Each part is an integer, numpy ones too, taken mod 2**64, so seeds -1 and
    2**64 - 1 derive the same; a float part is a TypeError, not its int part."""
    ss = np.random.SeedSequence([operator.index(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(operator.index(seed))
