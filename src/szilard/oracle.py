"""Brute-force reference implementations for small instances.

Everything here recomputes results from first principles, sharing only the
probdist data types with the code it validates: subset enumeration instead
of the greedy tail cut, grid/rejection sampling instead of the exact cut
solve, full microstate enumeration instead of support arithmetic, and raw
search over every permutation/bet/guess instead of the compress-and-bet
construction, and every position subset and guess instead of the closed-form
gambler bet. Three references check figures the fast paths read otherwise:
the smoothing ball's distance, which each smoothing witness must keep within
eps; the box profile of a relabeled table and Bennett's figure read off it,
which the CLI reads off the spectrum; and the relabelings themselves
(``apply_permutation``, ``relabeled_game_eval``), which the game never
builds. Slow by design, trustworthy by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .errors import (
    ArityMismatch,
    BadEpsilon,
    BiasedBitsPresent,
    InvalidBets,
    NotBijective,
    TooLarge,
)
from .game import ExactResult
from .probdist import ExplicitDistribution, _from_arrays

_SUBSET_CHUNK = 1 << 16
#: cut levels on ``brute_hmin_smooth``'s grid, and its random ball members
_GRID_POINTS = 10_000
_BALL_SAMPLES = 10_000

#: |marginal(bit=1) - 1/2| below this counts as uniform (explicit-path floats)
UNIFORMITY_TOL = 1e-12

KNOWN, BIASED, UNIFORM = "known", "biased", "uniform"


def _check_epsilon(eps: float):
    """At eps >= 1 the smoothing ball holds the empty table, which has no
    entropy. The reference states the valid range itself rather than call
    ``entropy``'s check, so it stays independent of the code it checks."""
    if not 0.0 <= eps < 1.0:
        raise BadEpsilon(f"need 0 <= epsilon < 1, got {eps}")


def brute_hmax_smooth(dist: ExplicitDistribution, eps: float) -> float:
    """Minimal log2 support over all deletions of total mass <= eps.

    Enumerates every subset of the support as a removal candidate.
    """
    _check_epsilon(eps)
    s = dist.support_size
    if s > 20:
        raise TooLarge(f"support {s} > 20")
    best_removed = 0
    for start in range(0, 1 << s, _SUBSET_CHUNK):
        masks = np.arange(start, min(start + _SUBSET_CHUNK, 1 << s), dtype=np.int64)
        removal = ((masks[:, None] >> np.arange(s)) & 1).astype(float)
        mass = removal @ dist.probs
        feasible = mass <= eps
        if feasible.any():
            best_removed = max(best_removed, int(removal[feasible].sum(axis=1).max()))
    return math.log2(s - best_removed)


def brute_hmin_smooth(
    dist: ExplicitDistribution,
    eps: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Best -log2(peak) found by a cut-level grid plus random ball members.

    A lower bound on the true smooth min-entropy; the greedy solve must
    beat or tie every candidate produced here.
    """
    _check_epsilon(eps)
    s = dist.support_size
    if s > 20:
        raise TooLarge(f"support {s} > 20")
    p = dist.probs
    pmax = float(p.max())
    # 0.0 - x is -x except at a zero, which it makes +0.0 (a point mass's)
    best = 0.0 - math.log2(pmax)

    levels = np.linspace(pmax / _GRID_POINTS, pmax, _GRID_POINTS)
    shaved = np.minimum(p[None, :], levels[:, None])
    feasible = (p[None, :] - shaved).sum(axis=1) <= eps
    if feasible.any():
        peaks = shaved[feasible].max(axis=1)
        best = max(best, float(0.0 - np.log2(peaks.min())))

    if rng is not None and eps > 0.0:
        raw = rng.random((_BALL_SAMPLES, s))
        raw /= raw.sum(axis=1, keepdims=True)
        removals = np.minimum(raw * (eps * rng.random((_BALL_SAMPLES, 1))), p[None, :])
        peaks = (p[None, :] - removals).max(axis=1)
        best = max(best, float(0.0 - np.log2(peaks.min())))
    return best


def statistical_distance(p: ExplicitDistribution, q: ExplicitDistribution) -> float:
    """Mass removed from p relative to q: sum over x of max(p(x) - q(x), 0).

    q may be subnormalized; this is the distance the smoothing ball uses,
    and every smoothing witness must lie within eps of its table.
    """
    if p.n != q.n:
        raise ArityMismatch(f"distributions on {p.n} and {q.n} boxes")
    union = np.union1d(p.indices, q.indices)
    pv = np.zeros(union.size)
    qv = np.zeros(union.size)
    pv[np.searchsorted(union, p.indices)] = p.probs
    qv[np.searchsorted(union, q.indices)] = q.probs
    return float(np.maximum(pv - qv, 0.0).sum())


@dataclass(frozen=True)
class BitInfo:
    """Classification of one box after compression."""

    kind: str  # known | biased | uniform
    value: int | None = None  # fixed content for known bits (0=L, 1=R)


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


def bennett_work(profile: tuple[BitInfo, ...], c: float) -> float:
    """(n - #uniform) * c for profiles with no biased boxes.

    Applies only when every box is fully known or fully unknown; a biased
    box means the risk-free / gambling bounds must be used instead.
    """
    if any(b.kind == BIASED for b in profile):
        raise BiasedBitsPresent("profile contains biased boxes")
    n_unknown = sum(1 for b in profile if b.kind == UNIFORM)
    return (len(profile) - n_unknown) * c


def _check_bets(n: int, bets: tuple[tuple[int, int], ...]):
    if len({pos for pos, _ in bets}) != len(bets):
        raise InvalidBets(f"duplicate bet positions in {bets}")
    for pos, val in bets:
        if not 0 <= pos < n:
            raise InvalidBets(f"bet position {pos} outside [0, {n})")
        if val not in (0, 1):
            raise InvalidBets(f"bet value {val} is not 0/1")


def _match_mask(indices: np.ndarray, n: int, bets) -> np.ndarray:
    mask = want = 0
    for pos, val in bets:
        mask |= 1 << (n - 1 - pos)
        want |= val << (n - 1 - pos)
    return (indices & mask) == want


def _as_permutation(permutation, n: int) -> np.ndarray:
    """``permutation``, an integer array, as int64, checked to be a bijection
    on the 2^n outcome indices."""
    perm = np.asarray(permutation)
    if not np.issubdtype(perm.dtype, np.integer):  # a cast would truncate floats
        raise NotBijective(f"permutation entries are {perm.dtype}, not integers")
    perm = perm.astype(np.int64, copy=False)
    if perm.shape != (1 << n,) or not np.array_equal(np.sort(perm), np.arange(1 << n)):
        raise NotBijective(f"not a bijection on 2^{n} outcome indices")
    return perm


def apply_permutation(p: ExplicitDistribution, permutation: np.ndarray) -> ExplicitDistribution:
    """Relabel outcomes: new index of outcome x is permutation[x]."""
    return _from_arrays(p.n, _as_permutation(permutation, p.n)[p.indices], p.probs)


def relabeled_game_eval(
    dist: ExplicitDistribution, permutation, bets, committed_work: float
) -> ExactResult:
    """Exact play of any relabeling of the 2^n outcomes and any bets: the
    mass, summed in index order, of the outcomes whose new index reads every
    guess. A relabeling must be a bijection (NotBijective), and the bets
    distinct boxes guessed 0 or 1 (InvalidBets)."""
    perm = _as_permutation(permutation, dist.n)
    _check_bets(dist.n, bets)
    success = float(dist.probs[_match_mask(perm[dist.indices], dist.n, bets)].sum())
    return ExactResult(success, success * committed_work)


def exhaustive_game_eval(
    dist: ExplicitDistribution, permutation, bets, committed_work: float
) -> ExactResult:
    """Walk all 2^n microstates and add up the mass of full bet matches."""
    if dist.n > 20:
        raise TooLarge(f"n {dist.n} > 20")
    perm = _as_permutation(permutation, dist.n)
    _check_bets(dist.n, bets)
    dense = np.zeros(1 << dist.n)
    dense[dist.indices] = dist.probs
    success = 0.0
    for state in range(1 << dist.n):
        if dense[state] == 0.0:
            continue
        relabeled = int(perm[state])
        if all((relabeled >> (dist.n - 1 - pos)) & 1 == val for pos, val in bets):
            success += float(dense[state])
    return ExactResult(success, success * committed_work)


@dataclass(frozen=True)
class SearchResult:
    work: float  # joules of the best committed work
    bet_count: int
    permutation: tuple[int, ...]
    bets: tuple[tuple[int, int], ...]


def exhaustive_strategy_search(
    dist: ExplicitDistribution, eps: float, c: float
) -> SearchResult:
    """Best committed work over every permutation, bet set and guess.

    Ground truth for the risk-free claim at toy scale: a strategy counts as
    admissible when its exact success probability is at least 1 - eps.
    """
    if dist.n > 3:
        raise TooLarge(f"n {dist.n} > 3")
    size = 1 << dist.n
    dense = np.zeros(size)
    dense[dist.indices] = dist.probs

    perms = np.array(list(permutations(range(size))), dtype=np.int64)
    relabeled = np.zeros((perms.shape[0], size))
    rows = np.repeat(np.arange(perms.shape[0]), size)
    relabeled[rows, perms.ravel()] = np.tile(dense, perms.shape[0])

    best = SearchResult(0.0, 0, tuple(range(size)), ())
    # admissibility tolerance absorbs float summation noise in tied cases
    for count in range(dist.n, 0, -1):
        for positions in combinations(range(dist.n), count):
            shifts = [dist.n - 1 - p for p in positions]
            for guesses in product((0, 1), repeat=count):
                cells = [
                    i
                    for i in range(size)
                    if all((i >> sh) & 1 == g for sh, g in zip(shifts, guesses))
                ]
                success = relabeled[:, cells].sum(axis=1)
                hit = int(np.argmax(success))
                if success[hit] >= 1.0 - eps - 1e-12:
                    return SearchResult(
                        count * c,
                        count,
                        tuple(int(x) for x in perms[hit]),
                        tuple(zip(positions, guesses)),
                    )
    return best


def exhaustive_gambler_search(
    dist: ExplicitDistribution, m: int
) -> tuple[tuple[tuple[int, int], ...], float]:
    """Most probable guess on m boxes of the compressed table, and its mass.

    The table is compressed from scratch (outcomes by descending probability,
    ties by index), then every position subset and every guess is scored by
    the exactly rounded mass of its cell, so equal cells score equal and the
    first subset and guess in lexicographic order win ties.
    """
    if dist.n > 12:
        raise TooLarge(f"n {dist.n} > 12")
    order = np.lexsort((dist.indices, -dist.probs))
    probs = dist.probs[order]
    compressed = np.arange(dist.support_size)
    best_bets, best_mass = (), -1.0
    for positions in combinations(range(dist.n), m):
        cell = np.zeros_like(compressed)
        for pos in positions:
            cell = (cell << 1) | ((compressed >> (dist.n - 1 - pos)) & 1)
        for value in range(1 << m):
            mass = math.fsum(probs[cell == value].tolist())
            if mass > best_mass:
                guess = ((value >> (m - 1 - i)) & 1 for i in range(m))
                best_bets, best_mass = tuple(zip(positions, guess)), mass
    return best_bets, best_mass
