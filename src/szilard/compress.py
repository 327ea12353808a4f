"""Information-compressing relabelings of the outcome space.

A reversible interaction between boxes is, for diagonal (classical) states,
just a permutation of outcome indices. The canonical compression sorts
outcomes by descending probability so all support mass lands on the lowest
indices; the leading boxes then read L with certainty and can be harvested
for work, while the randomness is squeezed into the trailing boxes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BiasedBitsPresent, IndexOutOfRange, SamePosition
from .probdist import ExplicitDistribution, _from_arrays, _sorted_table, apply_permutation

#: |marginal(bit=1) - 1/2| below this counts as uniform (explicit-path floats)
UNIFORMITY_TOL = 1e-12

KNOWN, BIASED, UNIFORM = "known", "biased", "uniform"


@dataclass(frozen=True)
class BitInfo:
    """Classification of one box after compression."""

    kind: str  # known | biased | uniform
    value: int | None = None  # fixed content for known bits (0=L, 1=R)


class CompressionPlan:
    """A permutation of outcome indices and the per-box profile it leaves.

    A general plan is given by its dense permutation,
    ``CompressionPlan(n, permutation)``; it has no table to profile, so
    reading its ``profile`` raises TypeError. A canonical plan holds only
    its table. ``ranks`` (the new index of each support entry of the
    table), the dense permutation and the profile (``bit_profile`` of the
    compressed table) are built the first time they are read. The game
    reads none of them for the canonical bets: it asks the table's ``top``
    which entries are among the most likely ones.
    """

    def __init__(self, n: int, permutation=None, *, table=None):
        if permutation is None and table is None:
            raise TypeError("a plan needs a permutation or a table")
        self.n = n
        self.table = table
        if permutation is not None:  # shadows the lazy builder below
            self.permutation = permutation

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        return _canonical_ranks(self.table)

    @functools.cached_property
    def permutation(self) -> np.ndarray:
        return _dense_permutation(self.table, self.ranks)

    @functools.cached_property
    def profile(self) -> tuple[BitInfo, ...]:
        if self.table is None:
            raise TypeError("a plan built from a permutation has no table to profile")
        # the compressed table: the levels, descending, on indices 0..k-1
        levels, k = self.table.levels, self.table.support_size
        return bit_profile(_sorted_table(self.n, np.arange(k), np.repeat(levels.p, levels.count)))

    def image(self, dist: ExplicitDistribution) -> np.ndarray:
        """New index of each support entry of ``dist``, in index order."""
        if dist is self.table:
            return self.ranks
        return self.permutation[dist.indices]


def bit_profile(dist: ExplicitDistribution) -> tuple[BitInfo, ...]:
    """Label each box: known if its content is certain, uniform if its
    marginal is exactly 1/2 (within UNIFORMITY_TOL), else biased."""
    out = []
    for pos in range(dist.n):
        bits = (dist.indices >> (dist.n - 1 - pos)) & 1
        if np.all(bits == bits[0]):
            out.append(BitInfo(KNOWN, int(bits[0])))
            continue
        p_one = float(dist.probs[bits == 1].sum() / dist.probs.sum())
        if abs(p_one - 0.5) <= UNIFORMITY_TOL:
            out.append(BitInfo(UNIFORM))
        else:
            out.append(BitInfo(BIASED))
    return tuple(out)


def canonical_permutation(dist: ExplicitDistribution) -> CompressionPlan:
    """The probability-sorting relabeling, as a plan over ``dist``.

    Support outcomes map to indices 0..k-1 in order of non-increasing
    probability; ties and the zero-probability remainder keep their original
    index order, which makes recompression the identity. Nothing is computed
    here: the plan builds its ranks (one stable sort of the probabilities),
    dense permutation and profile when a caller reads them.
    """
    return CompressionPlan(dist.n, table=dist)


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


def apply_plan(dist: ExplicitDistribution, plan: CompressionPlan) -> ExplicitDistribution:
    return apply_permutation(dist, plan.permutation)


def bennett_work(profile: tuple[BitInfo, ...], c: float) -> float:
    """(n - #uniform) * c for profiles with no biased boxes.

    Applies only when every box is fully known or fully unknown; a biased
    box means the risk-free / gambling bounds must be used instead.
    """
    if any(b.kind == BIASED for b in profile):
        raise BiasedBitsPresent("profile contains biased boxes")
    n_unknown = sum(1 for b in profile if b.kind == UNIFORM)
    return (len(profile) - n_unknown) * c


def apply_cnot(dist: ExplicitDistribution, control: int, target: int) -> ExplicitDistribution:
    """Flip the target box content wherever the control box reads R."""
    if control == target:
        raise SamePosition(f"control and target are both {control}")
    for pos in (control, target):
        if not 0 <= pos < dist.n:
            raise IndexOutOfRange(f"position {pos} outside [0, {dist.n})")
    control_bit = (dist.indices >> (dist.n - 1 - control)) & 1
    new_indices = dist.indices ^ (control_bit << (dist.n - 1 - target))
    return _from_arrays(dist.n, new_indices, dist.probs)
