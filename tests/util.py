"""Shared generators for randomized tests."""
from __future__ import annotations

import numpy as np

from szilard import ExplicitDistribution, make_explicit


def random_explicit(
    rng: np.random.Generator,
    n: int,
    support_size: int | None = None,
    levels: tuple[float, ...] | None = None,
) -> ExplicitDistribution:
    """Random explicit distribution on n boxes with a random (or given) support.

    Weights are exponential draws, or draws from ``levels`` to make ties.
    """
    space = 1 << n
    if support_size is None:
        support_size = int(rng.integers(1, space + 1))
    idx = rng.choice(space, size=support_size, replace=False)
    if levels is None:
        raw = rng.exponential(size=support_size)
    else:
        raw = rng.choice(levels, size=support_size)
    probs = raw / raw.sum()
    return make_explicit(n, list(zip(idx.tolist(), probs.tolist())))


def random_mixture_params(rng: np.random.Generator, n: int, max_components: int = 3):
    """Random (weights, left_probs) for a MixtureOfProducts on n boxes."""
    j = int(rng.integers(1, max_components + 1))
    raw = rng.random(j) + 0.05
    weights = (raw / raw.sum()).tolist()
    lefts = rng.uniform(0.05, 0.95, size=j).tolist()
    return weights, lefts
