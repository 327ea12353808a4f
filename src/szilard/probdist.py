"""Probability distributions over n two-state boxes (L=0, R=1).

Two representations are provided. Explicit tables hold the support of a
distribution over {L,R}^n as (outcome index, probability) pairs and are
limited to small n (the outcome space 2^n must stay under
DEFAULT_EXPLICIT_CAP). Mixtures of i.i.d. Bernoulli products cover the
structured families used at large n; they aggregate exactly over
Hamming-weight classes, so n = 1000 costs an array of length 1001 rather
than 2^1000 entries.

Every representation carries its ``Spectrum`` as the cached property
``levels``: the distinct per-outcome probabilities with their
multiplicities, computed on first read and kept on the object.

An outcome is its index or its L/R string. Indices are big-endian: box 0
is the most significant bit, L=0, R=1, so the all-L string is index 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadOutcomeLength,
    IndexOutOfRange,
    MixedArity,
    NegativeProbability,
    NotNormalized,
    SupportOverflow,
    SzilardError,
    TooLarge,
    WeightSumError,
)
from .numerics import binomials

#: default ceiling on the explicit outcome-space size 2^n
DEFAULT_EXPLICIT_CAP = 2**24

NORMALIZATION_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Distinct per-outcome probabilities of a distribution, descending.

    Level i holds the outcomes of probability ``p[i]`` = 2**log_p[i]:
    ``mass[i]`` is their total probability (linear), ``log_count[i]`` the
    log2 of their number and ``count[i]`` that number exactly. ``count`` is
    None where only the logs are known (type classes above
    EXACT_BINOMIAL_MAX_N). ``p`` holds the exact probabilities of an
    explicit table and is None on type classes, whose per-string
    probabilities underflow below the smallest float, so only ``log_p`` is
    read there. Every distribution computes its spectrum once, as its
    ``levels``.
    """

    n: int
    p: np.ndarray | None
    log_p: np.ndarray
    mass: np.ndarray
    log_count: np.ndarray
    count: np.ndarray | None

    @functools.cached_property
    def smoothed(self) -> dict:
        """The spectrum-level answers of the smoothing solves by (solver,
        eps), which ``entropy`` fills on first ask: every figure read from
        the spectrum at one eps shares one solve."""
        return {}

    @functools.cached_property
    def _cumulative_count(self) -> np.ndarray:
        """``np.cumsum(count)``, built on the first ``top`` and kept."""
        return _freeze(np.cumsum(self.count))

    def top(self, size: int) -> tuple[int, int, float]:
        """The boundary level of the ``size`` most likely outcomes, ``rem``
        (how many of its outcomes they take) and their mass: the levels'
        ``mass`` above it, then ``rem * p[boundary]``, in one ``np.sum``.
        Reads ``p``, which tables hold; a size past the support takes all."""
        cum = self._cumulative_count
        size = min(size, int(cum[-1]))
        boundary = int(np.searchsorted(cum, size, side="right"))
        rem = size - (int(cum[boundary - 1]) if boundary else 0)
        terms = self.mass[:boundary]
        if rem:
            terms = np.append(terms, rem * self.p[boundary])
        return boundary, rem, float(np.sum(terms))


@dataclass(frozen=True, eq=False, init=False)
class ExplicitDistribution:
    """Support of a distribution over {L,R}^n as aligned index/probability arrays.

    ``indices`` is strictly increasing; ``probs`` holds strictly positive
    entries only (zero-probability outcomes are not part of the support).
    Arrays are frozen read-only; every operation returns a new object.
    Subnormalized tables (total < 1) appear only as smoothing witnesses.

    A table that holds every outcome is built with ``indices=None``: its
    indices are 0..2^n-1, and the range is allocated on first read only.
    """

    n: int
    probs: np.ndarray

    def __init__(self, n: int, indices: np.ndarray | None, probs: np.ndarray):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "probs", probs)
        if indices is not None:
            vars(self)["indices"] = indices

    @functools.cached_property
    def indices(self) -> np.ndarray:
        """0..2^n-1, for a table built without its indices."""
        return _freeze(np.arange(1 << self.n, dtype=np.int64))

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @functools.cached_property
    def levels(self) -> Spectrum:
        """The table's spectrum: one sort, once per table, int64 counts.
        ``explicit_of`` sets it from the type classes instead."""
        return _table_spectrum(self.n, *np.unique(self.probs, return_counts=True))

    def top(self, size: int) -> np.ndarray | None:
        """Mask of the ``size`` most likely support entries, ties broken by
        index, or None for the whole support: Monte Carlo's wins, and what
        the H_max^eps witness keeps. Every entry above the ``levels.top``
        boundary level, and that level's first ``rem`` entries in index
        order, found ``_CHUNK`` entries at a time."""
        if size >= self.support_size:
            return None
        boundary, rem, _ = self.levels.top(size)
        p = self.levels.p[boundary]
        mask = self.probs > p
        start = 0
        while rem:  # the boundary level holds more than rem entries
            hits = start + np.flatnonzero(self.probs[start : start + _CHUNK] == p)[:rem]
            mask[hits] = True
            rem -= hits.size
            start += _CHUNK
        return mask

    def items(self) -> Iterable[tuple[str, float]]:
        """The support as (L/R string, probability) pairs, in index order."""
        for idx, p in zip(self.indices.tolist(), self.probs.tolist()):
            yield _lr_string(idx, self.n), p

    def as_dict(self) -> dict[str, float]:
        return dict(self.items())


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _spectrum(n: int, *arrays: np.ndarray | None) -> Spectrum:
    return Spectrum(n, *(a if a is None else _freeze(a) for a in arrays))


def _table_spectrum(n: int, p: np.ndarray, count: np.ndarray) -> Spectrum:
    """An explicit table's spectrum from its distinct probabilities in
    ascending order, contiguous, and their counts, as ``np.unique`` returns
    them. The logs are taken of the reversed view: numpy's log2 can round a
    reversed view differently from contiguous memory, in the last bit."""
    p, count = p[::-1], count[::-1].astype(np.int64)
    return _spectrum(n, p, np.log2(p), p * count, np.log2(count), count)


def _from_arrays(n: int, indices: np.ndarray, probs: np.ndarray) -> ExplicitDistribution:
    """Assemble without normalization checks; sorts by index, drops zeros."""
    indices = np.asarray(indices, dtype=np.int64)
    order = np.argsort(indices)
    return _sorted_table(n, indices[order], np.asarray(probs, dtype=float)[order])


def _sorted_table(n: int, indices: np.ndarray, probs: np.ndarray) -> ExplicitDistribution:
    """A table from distinct ascending indices and fresh probability arrays,
    keeping the positive entries; a table of every outcome drops its indices."""
    keep = probs > 0.0
    if not keep.all():
        indices, probs = indices[keep], probs[keep]
    full = probs.size == 1 << n
    return ExplicitDistribution(n, None if full else _freeze(indices), _freeze(probs))


def _on_support(dist: ExplicitDistribution, probs: np.ndarray) -> ExplicitDistribution:
    """``dist``'s support with new, all positive probabilities: the indices
    are shared, and a table of every outcome stays without its index range."""
    full = dist.support_size == 1 << dist.n
    return ExplicitDistribution(dist.n, None if full else dist.indices, _freeze(probs))


def _sub_table(dist: ExplicitDistribution, keep: np.ndarray) -> ExplicitDistribution:
    """The entries of ``dist`` that the mask ``keep`` selects; on a table of
    every outcome the kept positions are the kept indices, so no index
    range is built."""
    kept = np.flatnonzero(keep) if dist.support_size == 1 << dist.n else dist.indices[keep]
    return _sorted_table(dist.n, kept, dist.probs[keep])


def _lr_string(index: int, n: int) -> str:
    """The L/R string of outcome ``index`` on n boxes."""
    return format(index, f"0{n}b").replace("0", "L").replace("1", "R")


def _as_index(outcome, n: int) -> int:
    """The index of an outcome on n boxes, given as its index (a Python or
    numpy int) or as its L/R string."""
    # raw indices first: they are what large tables are built from
    if isinstance(outcome, (int, np.integer)):
        if not 0 <= int(outcome) < (1 << n):
            raise IndexOutOfRange(f"index {outcome} outside [0, 2^{n})")
        return int(outcome)
    if not isinstance(outcome, str):
        raise BadOutcomeLength(f"an outcome is an index or an L/R string, got {outcome!r}")
    if not outcome or not set(outcome) <= {"L", "R"}:
        raise BadOutcomeLength(f"outcome string must use only L/R, got {outcome!r}")
    if len(outcome) != n:
        raise BadOutcomeLength(
            f"outcome {outcome} has {len(outcome)} bits, distribution has {n}"
        )
    return int(outcome.replace("L", "0").replace("R", "1"), 2)


def _check_cap(n: int):
    if n > 62 or (1 << n) > DEFAULT_EXPLICIT_CAP:
        raise SupportOverflow(
            f"outcome space 2^{n} exceeds the explicit cap {DEFAULT_EXPLICIT_CAP}"
        )


def make_explicit(n: int, entries: Iterable[tuple[object, float]]) -> ExplicitDistribution:
    """Validated explicit table from (outcome, probability) pairs.

    An outcome is its index (a Python or numpy int) or its L/R string of
    length n; any other form is a BadOutcomeLength. Zero entries are
    dropped from the support; the total must be 1 within NORMALIZATION_TOL.

    The checks run in this order, each over every entry, and the first
    failing one raises, naming the first offending entry: the outcome's
    form and range (BadOutcomeLength, IndexOutOfRange), a negative
    probability (NegativeProbability), an outcome given twice
    (SzilardError), and the total (NotNormalized).
    """
    if n < 1:
        raise BadOutcomeLength(f"need n >= 1, got {n}")
    _check_cap(n)
    pairs = list(entries)
    size = 1 << n
    # exact ints in range pass straight through; every other form is checked
    raw = [o if type(o) is int and 0 <= o < size else _as_index(o, n) for o, _ in pairs]
    values = [float(p) for _, p in pairs]
    probs = np.array(values, dtype=float)
    negative = np.flatnonzero(probs < 0.0)
    if negative.size:
        i = int(negative[0])
        raise NegativeProbability(f"probability {values[i]} for outcome {pairs[i][0]}")
    indices = np.array(raw, dtype=np.int64)
    order = np.argsort(indices)
    indices = indices[order]
    if np.any(indices[1:] == indices[:-1]):
        seen: set[int] = set()
        for i, idx in enumerate(raw):
            if idx in seen:
                raise SzilardError(f"duplicate outcome {pairs[i][0]}")
            seen.add(idx)
    total = math.fsum(values)
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # a NaN total fails too
        raise NotNormalized(f"probabilities sum to {total!r}")
    return _sorted_table(n, indices, probs[order])


def point_mass(outcome: str) -> ExplicitDistribution:
    """The distribution on ``len(outcome)`` boxes that holds the L/R string
    ``outcome`` with certainty; its index must fit int64, as every table's
    indices do (SupportOverflow)."""
    index = _as_index(outcome, len(outcome))
    if index >= 1 << 63:
        raise SupportOverflow(
            f"outcome index of {outcome} on {len(outcome)} boxes does not fit int64"
        )
    return _from_arrays(len(outcome), np.array([index]), np.array([1.0]))


@dataclass(frozen=True)
class MixtureOfProducts:
    """Convex mixture of i.i.d. Bernoulli product distributions on n boxes.

    Component j has weight w_j and per-box left-probability q_j, i.e. it is
    the n-fold independent product of [q_j, 1-q_j].
    """

    n: int
    components: tuple[tuple[float, float], ...]  # (weight, left_prob)

    @functools.cached_property
    def levels(self) -> Spectrum:
        """The spectrum of the mixture's type classes, aggregated once."""
        return to_type_classes(self).levels


def bernoulli_product(left_prob: float, n: int) -> MixtureOfProducts:
    """The i.i.d. product of n boxes each holding L with probability ``left_prob``."""
    if not 0.0 <= left_prob <= 1.0:
        raise NegativeProbability(f"left probability {left_prob} outside [0, 1]")
    if n < 1:
        raise BadOutcomeLength(f"need n >= 1, got {n}")
    return MixtureOfProducts(n, ((1.0, float(left_prob)),))


def uniform_product(n: int) -> MixtureOfProducts:
    return bernoulli_product(0.5, n)


def mixture(
    weights: Sequence[float],
    components: Sequence[MixtureOfProducts | ExplicitDistribution],
) -> MixtureOfProducts | ExplicitDistribution:
    """Weighted mixture of distributions on one box count: the one place a
    mixture is formed, with one set of weight and box-count checks. Product
    families alone flatten (outer weights scale the inner ones); with any
    table among the components, each outcome's weighted probabilities in
    the components' tables are added in component order.
    """
    if len(weights) != len(components) or not components:
        raise WeightSumError("need one positive weight per component")
    if not all(w > 0.0 for w in weights):  # a NaN weight fails too
        raise WeightSumError(f"weights must be positive, got {list(weights)}")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"weights sum to {total!r}")
    n = components[0].n
    if any(c.n != n for c in components):
        raise MixedArity(f"components have box counts {[c.n for c in components]}")
    if all(isinstance(c, MixtureOfProducts) for c in components):
        flat = ((float(w) * wj, qj) for w, c in zip(weights, components) for wj, qj in c.components)
        return MixtureOfProducts(n, tuple(flat))
    parts = [_as_table(c) for c in components]
    # bincount adds in input order, component by component, as a running sum would
    indices, inverse = np.unique(np.concatenate([t.indices for t in parts]), return_inverse=True)
    weighted = np.concatenate([float(w) * t.probs for w, t in zip(weights, parts)])
    return _sorted_table(n, indices, np.bincount(inverse, weights=weighted))


def _as_table(dist: MixtureOfProducts | ExplicitDistribution) -> ExplicitDistribution:
    """A mixture component as a table; a family of point masses (left
    probabilities 0 or 1) is its all-L and all-R strings, not 2^n entries."""
    if isinstance(dist, MixtureOfProducts) and all(q in (0.0, 1.0) for _, q in dist.components):
        ends = [point_mass(("L" if q else "R") * dist.n) for _, q in dist.components]
        return mixture([w for w, _ in dist.components], ends)
    return explicit_of(dist)


@dataclass(frozen=True, eq=False)
class TypeClassView:
    """Exact Hamming-weight aggregation of a MixtureOfProducts.

    Class k collects the C(n, k) strings with k R's; every string in a class
    has the same probability. ``class_log_prob[k]`` is the log2 per-string
    probability, ``class_log_count[k]`` is log2 C(n, k), and
    ``class_count[k]`` is C(n, k) as an exact Python int (None for n above
    EXACT_BINOMIAL_MAX_N). Entropy and smoothing routines run on these
    arrays.
    """

    n: int
    class_log_prob: np.ndarray
    class_log_count: np.ndarray
    class_count: np.ndarray | None = None

    def support_classes(self) -> np.ndarray:
        return np.isfinite(self.class_log_prob)

    @functools.cached_property
    def levels(self) -> Spectrum:
        """Support classes sorted by per-string probability; classes of
        equal probability share one level.

        Where the support classes are one run whose probabilities are
        strictly monotone in k, as for one i.i.d. component, that run or its
        reverse is the order, and it has no ties: no argsort, no gather and
        no tie merge. Ties (q = 1/2) and mixtures whose probabilities turn
        are argsorted, and equal classes merged. Every array is contiguous,
        as a gather leaves it: numpy's exp2 and log2 can round a reversed
        view differently from contiguous memory.
        """
        support = self.support_classes()
        run = _monotone_run(self.class_log_prob, support)
        if run is not None:
            log_p, log_count, count = (
                None if a is None else np.ascontiguousarray(a[run])
                for a in (self.class_log_prob, self.class_log_count, self.class_count)
            )
            mass = log_p + log_count
            return _spectrum(self.n, None, log_p, np.exp2(mass, out=mass), log_count, count)
        sup = np.flatnonzero(support)
        order = sup[np.argsort(-self.class_log_prob[sup], kind="stable")]
        log_p, log_count = self.class_log_prob[order], self.class_log_count[order]
        count = None if self.class_count is None else self.class_count[order]
        starts = np.flatnonzero(np.diff(log_p, prepend=np.inf))
        if starts.size < log_p.size:
            top = np.maximum.reduceat(log_count, starts)
            spread = np.repeat(top, np.diff(starts, append=log_p.size))
            log_count = top + np.log2(np.add.reduceat(np.exp2(log_count - spread), starts))
            if count is not None:
                count = np.add.reduceat(count, starts)
            elif starts.size == 1 and log_p.size == self.n + 1:
                # all n + 1 classes share one probability: every one of the 2^n strings
                count = np.array([1 << self.n], dtype=object)
            log_p = log_p[starts]
        return _spectrum(self.n, None, log_p, np.exp2(log_p + log_count), log_count, count)


def _monotone_run(values: np.ndarray, support: np.ndarray) -> slice | None:
    """The slice that lists the ``support`` entries of ``values`` in
    descending order of value, when they are one run of consecutive entries
    strictly monotone in value (and so without ties); None otherwise."""
    if support.all():
        lo, hi = 0, support.size
    else:
        sup = np.flatnonzero(support)
        if not sup.size or sup[-1] - sup[0] + 1 != sup.size:
            return None
        lo, hi = int(sup[0]), int(sup[-1]) + 1
    run = values[lo:hi]
    if (run[1:] < run[:-1]).all():
        return slice(lo, hi)
    if (run[1:] > run[:-1]).all():
        return slice(hi - 1, lo - 1 if lo else None, -1)
    return None


def _check_class_limit(n: int):
    # the class arrays take about 85 bytes per box while they are built, and
    # the ln k! row the process keeps above EXACT_BINOMIAL_MAX_N 8 more for
    # as long as it runs (80 MB at the limit; 16 while the row grows)
    if n > 10**7:
        raise TooLarge(f"{n} boxes exceed the type-class limit of 10**7")


def to_type_classes(m: MixtureOfProducts) -> TypeClassView:
    """Aggregate a mixture over Hamming-weight classes, in log2 space.

    A spread component (0 < q < 1) gives class k the per-string log2 mass
    log2 w + ((n - k) log2 q + k log2(1 - q)). A point mass (q in {0, 1})
    is finite in one class only (k = n for q = 0, k = 0 for q = 1), where
    it is log2 w exactly, so it builds no row. A class with two or more
    finite components takes their log-sum, added in component order; a
    class with one takes that term as it is, which is what the log-sum
    gives it (mx + log2(exp2(0)) = mx); a class with none is -inf.
    """
    n = m.n
    _check_class_limit(n)
    ks = np.arange(n + 1, dtype=float)
    # per component, in order: (None, its row) or (its class, [log2 w])
    terms = []
    for w, q in m.components:
        if q == 0.0 or q == 1.0:
            terms.append((0 if q else n, np.array([math.log2(w)])))
        else:
            # 0 * log2 q at k = n (and 0 * log2(1 - q) at k = 0) is -0.0 where the
            # 0 log 0 convention has 0.0, but the other term there is nonzero or
            # +0.0, so the sum is the same; at q = 1/2 it is exactly -n in every
            # class, so uniform terms stay flat
            row = n - ks
            row *= math.log2(q)
            row += ks * math.log2(1.0 - q)
            row += math.log2(w)
            terms.append((None, row))
    rows = [row for k, row in terms if k is None]
    log_prob = _log_sum(rows) if rows else np.full(n + 1, -np.inf)
    for end in {0, n}:
        # a point mass in an end class joins the spread rows' terms there, in component order
        if any(k == end for k, _ in terms):
            here = [row if k == end else row[end : end + 1] for k, row in terms if k in (None, end)]
            log_prob[end] = _log_sum(here)[0]
    log_count, count = binomials(n)
    return TypeClassView(
        n, _freeze(log_prob), _freeze(log_count), None if count is None else _freeze(count)
    )


def _log_sum(parts: list[np.ndarray]) -> np.ndarray:
    """log2 of the sum of 2**part over the equal-length, everywhere finite
    parts: the largest term plus log2 of the sum of 2**(part - largest),
    added in part order as numpy's axis-0 sum adds the rows of their stack.
    One part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    mx = functools.reduce(np.maximum, parts)
    total = np.exp2(parts[0] - mx)
    for part in parts[1:]:
        total += np.exp2(part - mx)
    return mx + np.log2(total)


def explicit_of(
    dist: MixtureOfProducts | TypeClassView | ExplicitDistribution,
) -> ExplicitDistribution:
    """Entrywise expansion of a structured distribution to an explicit table;
    a table is returned as it is.

    Per-string probabilities below the smallest positive float collapse to
    zero and drop out of the support. Both size limits are checked on
    ``dist.n`` before any class is built.

    Each string takes its class's probability through its Hamming weight.
    An index splits into its high and low n/2 bits, and its weight is the
    sum of theirs, so the table is a row per high half: row a of the
    (hi + 1) x 2^lo gather ``class_p[a + w_lo]`` serves every high half of
    weight a, and is copied whole into place. Where every class is
    positive the table holds every outcome and carries no index array.
    Where the exact class counts are known, the table's ``levels`` come
    from the n + 1 class probabilities, so the table is never sorted:
    ``np.unique`` over the classes gives its distinct probabilities, and
    each one's count is the sum of its classes' counts.
    """
    if isinstance(dist, ExplicitDistribution):
        return dist
    _check_class_limit(dist.n)
    _check_cap(dist.n)
    view = to_type_classes(dist) if isinstance(dist, MixtureOfProducts) else dist
    lo = view.n // 2
    hi = view.n - lo
    w_lo = np.bitwise_count(np.arange(1 << lo))
    w_hi = np.bitwise_count(np.arange(1 << hi))
    class_p = np.exp2(view.class_log_prob)
    rows = class_p[np.arange(hi + 1)[:, None] + w_lo]
    probs = rows[w_hi].reshape(-1)
    support = class_p > 0.0
    if support.all():
        table = ExplicitDistribution(view.n, None, _freeze(probs))
    else:
        keep = probs > 0.0
        table = ExplicitDistribution(view.n, _freeze(np.flatnonzero(keep)), _freeze(probs[keep]))
    if view.class_count is not None:
        p, level = np.unique(class_p[support], return_inverse=True)
        count = np.zeros(p.size, dtype=np.int64)
        np.add.at(count, level, view.class_count[support].astype(np.int64))
        vars(table)["levels"] = _table_spectrum(view.n, p, count)
    return table


def sample_indices(
    dist: ExplicitDistribution, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized draw of ``size`` outcome indices from an explicit table.

    On a table of every outcome the drawn position is the index.
    """
    probs = dist.probs / dist.probs.sum()
    picks = rng.choice(dist.support_size, size=size, p=probs)
    return picks if dist.support_size == 1 << dist.n else dist.indices[picks]


#: support entries ``_draws_in`` folds into the running cdf, and
#: ``ExplicitDistribution.top`` scans for its boundary level, at a time
_CHUNK = 1 << 16


def _flips(mask: np.ndarray, start: int) -> np.ndarray:
    """Whether ``mask`` changes from entry i to entry i + 1, for each i in
    the chunk at ``start``; the last entry has no next one."""
    stop = min(start + _CHUNK, mask.size - 1)
    return mask[start:stop] != mask[start + 1 : stop + 1]


def _draws_in(
    dist: ExplicitDistribution, mask: np.ndarray, rng: np.random.Generator, size: int
) -> int:
    """How many of the ``size`` draws of ``sample_indices`` land on the
    support entries ``mask`` selects.

    ``choice(k, size, p=p)`` is ``cdf.searchsorted(rng.random(size),
    side="right")`` over ``cdf = cumsum(p); cdf /= cdf[-1]``, so a draw u
    picks entry i exactly when cdf[i-1] <= u < cdf[i]; cdf[-1] is exactly
    1.0, above every uniform. A draw's win state therefore changes only
    where u passes an edge: a cdf[i] with ``mask[i] != mask[i+1]``. The
    edges are counted from the mask, so that they fill one array. The cdf
    is then built ``_CHUNK`` entries at a time, each chunk's cumsum carried
    on from the last, which is the same left fold as one cumsum, and only
    the edges are kept; they are divided by the last running sum at the
    end, so each is the float the whole cdf would hold there.

    The shorter sorted array is searched in the longer one. With at most
    ``size`` edges they cut the sorted uniforms into runs that alternate
    between win and loss, starting with ``mask[0]``; with more, a draw wins
    when the number of edges at or below it is even and ``mask[0]`` holds,
    or odd and it does not. The count is the same integer either way, and
    the generator ends where ``sample_indices`` leaves it.
    """
    probs = dist.probs
    total, k = probs.sum(), probs.size
    starts = range(0, k, _CHUNK)
    edges = np.empty(sum(np.count_nonzero(_flips(mask, start)) for start in starts))
    buf = np.empty(min(_CHUNK, k))
    running, kept = 0.0, 0
    for start in starts:
        chunk = buf[: min(_CHUNK, k - start)]
        np.divide(probs[start : start + chunk.size], total, out=chunk)
        chunk[0] += running
        np.cumsum(chunk, out=chunk)
        flips = _flips(mask, start)
        at_edges = chunk[: flips.size][flips]
        edges[kept : kept + at_edges.size] = at_edges
        kept += at_edges.size
        running = chunk[-1]
    edges /= running
    u = rng.random(size)
    u.sort()
    if edges.size <= size:
        runs = np.diff(u.searchsorted(edges, side="left"), prepend=0, append=size)
        return int(runs[0 if mask[0] else 1 :: 2].sum())
    odd = edges.searchsorted(u, side="right")
    odd &= 1
    return int(np.count_nonzero(odd != mask[0]))
