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
from .probdist import ExplicitDistribution, _from_arrays, apply_permutation

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
    ``CompressionPlan(n, permutation, profile)``. A canonical plan holds
    only its table. ``ranks`` (the new index of each support entry of the
    table), the dense permutation and the profile are built the first time
    they are read. The game reads none of them for the canonical bets: it
    asks the table's ``top`` which entries are among the most likely ones.
    """

    def __init__(self, n: int, permutation=None, profile=None, *, table=None):
        if permutation is None and table is None:
            raise TypeError("a plan needs a permutation or a table")
        self.n = n
        self.table = table
        # set values shadow the lazy builders below
        if permutation is not None:
            self.permutation = permutation
        if profile is not None:
            self.profile = profile

    @functools.cached_property
    def ranks(self) -> np.ndarray:
        return _canonical_ranks(self.table)

    @functools.cached_property
    def permutation(self) -> np.ndarray:
        return _dense_permutation(self.table, self.ranks)

    @functools.cached_property
    def profile(self) -> tuple[BitInfo, ...]:
        return _canonical_profile(self.table)

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
    here: the plan builds its ranks, dense permutation and profile when a
    caller reads them.
    """
    return CompressionPlan(dist.n, table=dist)


def _canonical_ranks(dist: ExplicitDistribution) -> np.ndarray:
    """The new index of each support entry: a stable sort of each entry's
    level in the table's descending levels (indices ascend, so ties break by
    index). The levels are held in the smallest unsigned type, which numpy
    radix-sorts up to 65536 levels."""
    k = dist.support_size
    ascending = dist.levels.p[::-1]
    top = ascending.size - 1
    # every probability is one of the levels, so its left insertion point is exact
    level = np.searchsorted(ascending, dist.probs)
    np.subtract(top, level, out=level)
    level = level.astype(np.min_scalar_type(top))
    ranks = np.empty(k, dtype=np.int64)
    ranks[np.argsort(level, kind="stable")] = np.arange(k)
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


def _canonical_profile(dist: ExplicitDistribution) -> tuple[BitInfo, ...]:
    """The profile of the compressed table (0..k-1, probabilities descending).

    A box of weight w >= k is known L, and a trailing box sums its R half
    in the same order as ``bit_profile``.
    """
    n, k = dist.n, dist.support_size
    probs = np.repeat(dist.levels.p, dist.levels.count)
    total = probs.sum()
    buf = np.empty(k // 2)  # no box of weight w < k reads R on more than k/2 outcomes
    profile = []
    for pos in range(n):
        w = 1 << (n - 1 - pos)
        if w >= k:
            profile.append(BitInfo(KNOWN, 0))
            continue
        # the R half of every full 2w block, then the tail's R part, ascending
        full = k - k % (2 * w)
        rows = probs[:full].reshape(-1, 2, w)[:, 1, :]
        tail = probs[full + w :]
        ones = buf[: rows.size + tail.size]
        ones[: rows.size].reshape(rows.shape)[...] = rows
        ones[rows.size :] = tail
        p_one = float(ones.sum() / total)
        profile.append(BitInfo(UNIFORM if abs(p_one - 0.5) <= UNIFORMITY_TOL else BIASED))
    return tuple(profile)


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
