"""Seed derivation and RNG construction.

All randomness in the package flows through numpy Generators seeded from
explicit integer chains, so any run is reproducible from its root seed.
"""

import numpy as np


def spawn_seed(*parts: int) -> int:
    """Derive a child seed from an integer chain, e.g. (root, stage, attempt).
    Each part is taken mod 2**64, so seeds -1 and 2**64 - 1 derive the same."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))
