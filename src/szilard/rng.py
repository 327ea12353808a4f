"""Seeded random generators for reproducible simulation.

Philox is counter-based, so replay is exact: the same 64-bit seed always
yields the same draw sequence.
"""
from __future__ import annotations

import numpy as np

from .errors import BadSeed


def make_rng(seed: int) -> np.random.Generator:
    """Generator over a Philox counter-based stream keyed by ``seed``."""
    if seed < 0:
        raise BadSeed(f"seed {seed} is negative")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
