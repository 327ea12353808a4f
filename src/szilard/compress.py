"""The canonical compression of an explicit table, kept for the benchmark.

A reversible interaction between boxes is, for diagonal (classical) states,
just a permutation of outcome indices. The canonical compression sorts
outcomes by descending probability so all support mass lands on the lowest
indices. The game plays that compression off the table's spectrum and never
builds the relabeling; the plan here is read only by the benchmark's tracer
and probes (``perfbench/tracing.py``, ``perfbench/workloads.py``). The box
profile, Bennett's figure and the playing of other relabelings are
references in ``oracle``.
"""
from __future__ import annotations

import functools

import numpy as np

from .probdist import ExplicitDistribution, _check_cap


class CompressionPlan:
    """The probability-sorting relabeling of one table: ``ranks`` (the new
    index of each support entry) and the dense permutation of all 2^n
    indices (SupportOverflow over DEFAULT_EXPLICIT_CAP), each built on first
    read. The game reads neither, only the table's levels and top-K mask;
    the benchmark's tracer reads ``permutation`` for its plan bytes.
    """

    def __init__(self, table: ExplicitDistribution):
        self.table = table

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        return _canonical_ranks(self.table)

    @functools.cached_property
    def permutation(self) -> np.ndarray:
        _check_cap(self.table.n)  # SupportOverflow before any 2^n array over the cap
        return _dense_permutation(self.table, self.ranks)


def canonical_permutation(dist: ExplicitDistribution) -> CompressionPlan:
    """The probability-sorting relabeling, as a plan over ``dist``.

    Support outcomes map to indices 0..k-1 in order of non-increasing
    probability; ties and the zero-probability remainder keep their original
    index order, which makes recompression the identity. Nothing is computed
    here: the plan builds its ranks (one stable sort of the probabilities)
    and dense permutation when a caller reads them.
    """
    return CompressionPlan(dist)


def _canonical_ranks(dist: ExplicitDistribution) -> np.ndarray:
    """The new index of each support entry: its place in a stable sort of
    ``-probs`` (indices ascend, so ties break by index)."""
    k = dist.support_size
    ranks = np.empty(k, dtype=np.int64)
    ranks[np.argsort(-dist.probs, kind="stable")] = np.arange(k)
    ranks.setflags(write=False)
    return ranks


def _dense_permutation(dist: ExplicitDistribution, ranks: np.ndarray) -> np.ndarray:
    """The whole relabeling of 2^n indices: support entries go to their
    ranks, and the other indices fill k.. in index order."""
    k, size = dist.support_size, 1 << dist.n
    if k == size:  # the support is every index, in order: the ranks are the permutation
        return ranks
    # a non-support index x goes to k + (number of non-support indices below x)
    perm = np.ones(size, dtype=np.int64)
    perm[0] = k
    perm[dist.indices[dist.indices < size - 1] + 1] = 0
    np.cumsum(perm, out=perm)
    perm[dist.indices] = ranks
    perm.setflags(write=False)
    return perm
