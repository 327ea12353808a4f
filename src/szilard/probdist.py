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

Outcome indices are big-endian: box 0 is the most significant bit, L=0,
R=1, so the all-L string is index 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    BadOutcomeLength,
    EmptySubset,
    IndexOutOfRange,
    MixedArity,
    NegativeProbability,
    NotBijective,
    NotNormalized,
    SupportOverflow,
    SzilardError,
    TooLarge,
    WeightSumError,
)
from .numerics import binomials, logsumexp2

#: default ceiling on the explicit outcome-space size 2^n
DEFAULT_EXPLICIT_CAP = 2**24

NORMALIZATION_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    """One microstate: a fixed-length string of box contents, L=0 / R=1."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) == 0 or any(b not in (0, 1) for b in self.bits):
            raise BadOutcomeLength(f"bits must be a nonempty 0/1 sequence, got {self.bits!r}")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        i = 0
        for b in self.bits:
            i = (i << 1) | b
        return i

    @classmethod
    def from_index(cls, index: int, n: int) -> "Outcome":
        if not 0 <= index < (1 << n):
            raise IndexOutOfRange(f"index {index} outside [0, 2^{n})")
        return cls(tuple((index >> (n - 1 - i)) & 1 for i in range(n)))

    @classmethod
    def from_string(cls, text: str) -> "Outcome":
        table = {"L": 0, "R": 1}
        try:
            return cls(tuple(table[ch] for ch in text))
        except KeyError:
            raise BadOutcomeLength(f"outcome string must use only L/R, got {text!r}") from None

    def __str__(self) -> str:
        return "".join("LR"[b] for b in self.bits)


@dataclass(frozen=True)
class LogProb:
    """A nonnegative real carried as its base-2 logarithm (-inf encodes 0)."""

    log2_value: float

    @classmethod
    def from_value(cls, value: float) -> "LogProb":
        if value < 0.0:
            raise NegativeProbability(f"cannot take log of {value}")
        return cls(-math.inf if value == 0.0 else math.log2(value))

    @property
    def value(self) -> float:
        return 0.0 if self.log2_value == -math.inf else 2.0**self.log2_value

    def __mul__(self, other: "LogProb") -> "LogProb":
        return LogProb(self.log2_value + other.log2_value)

    def __add__(self, other: "LogProb") -> "LogProb":
        return LogProb(logsumexp2([self.log2_value, other.log2_value]))

    def __lt__(self, other: "LogProb") -> bool:
        return self.log2_value < other.log2_value

    def __le__(self, other: "LogProb") -> bool:
        return self.log2_value <= other.log2_value


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
        index, or None when that is the whole support.

        Read off the levels without ranking the support: every entry above
        the boundary level, where the cumulative count first exceeds
        ``size``, and the first entries of that level in index order.
        """
        if size >= self.support_size:
            return None
        cum = np.cumsum(self.levels.count)
        boundary = int(np.searchsorted(cum, size, side="right"))
        p = self.levels.p[boundary]
        mask = self.probs > p
        rem = size - (int(cum[boundary - 1]) if boundary else 0)
        if rem:
            mask[np.flatnonzero(self.probs == p)[:rem]] = True
        return mask

    @property
    def p_max(self) -> float:
        return float(self.probs.max())

    def total(self) -> float:
        return float(self.probs.sum())

    def prob_of(self, outcome: Outcome | int | str) -> float:
        idx = _as_index(outcome, self.n)
        pos = np.searchsorted(self.indices, idx)
        if pos < self.indices.size and self.indices[pos] == idx:
            return float(self.probs[pos])
        return 0.0

    def items(self) -> Iterable[tuple[Outcome, float]]:
        for idx, p in zip(self.indices.tolist(), self.probs.tolist()):
            yield Outcome.from_index(idx, self.n), p

    def as_dict(self) -> dict[str, float]:
        return {str(o): p for o, p in self.items()}

    def same_table(self, other: "ExplicitDistribution", tol: float = 0.0) -> bool:
        return (
            self.n == other.n
            and self.support_size == other.support_size
            # two tables that hold every outcome share their indices
            and (self.support_size == 1 << self.n or np.array_equal(self.indices, other.indices))
            and bool(np.all(np.abs(self.probs - other.probs) <= tol))
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _spectrum(n: int, *arrays: np.ndarray | None) -> Spectrum:
    return Spectrum(n, *(a if a is None else _freeze(a) for a in arrays))


def _table_spectrum(n: int, p: np.ndarray, count: np.ndarray) -> Spectrum:
    """An explicit table's spectrum from its distinct probabilities in
    ascending order and their counts, as ``np.unique`` returns them."""
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


def _as_index(outcome, n: int) -> int:
    # raw indices first: they are what large tables are built from
    if isinstance(outcome, (int, np.integer)):
        if not 0 <= int(outcome) < (1 << n):
            raise IndexOutOfRange(f"index {outcome} outside [0, 2^{n})")
        return int(outcome)
    if isinstance(outcome, Outcome):
        o = outcome
    elif isinstance(outcome, str):
        o = Outcome.from_string(outcome)
    else:
        o = Outcome(tuple(outcome))
    if o.n != n:
        raise BadOutcomeLength(f"outcome {o} has {o.n} bits, distribution has {n}")
    return o.index


def _check_cap(n: int):
    if n > 62 or (1 << n) > DEFAULT_EXPLICIT_CAP:
        raise SupportOverflow(
            f"outcome space 2^{n} exceeds the explicit cap {DEFAULT_EXPLICIT_CAP}"
        )


def make_explicit(n: int, entries: Iterable[tuple[object, float]]) -> ExplicitDistribution:
    """Validated explicit table from (outcome, probability) pairs.

    Outcomes may be Outcome objects, L/R strings, bit sequences or raw
    indices. Zero entries are dropped from the support; the total must be
    1 within NORMALIZATION_TOL.

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


def point_mass(outcome: Outcome | str) -> ExplicitDistribution:
    o = outcome if isinstance(outcome, Outcome) else Outcome.from_string(outcome)
    return _from_arrays(o.n, np.array([o.index]), np.array([1.0]))


def tensor(p: ExplicitDistribution, q: ExplicitDistribution) -> ExplicitDistribution:
    """Independent combination: box strings concatenate, probabilities multiply."""
    n = p.n + q.n
    _check_cap(n)
    # block layout keeps indices sorted: p-index picks the block, q-index the offset
    idx = (p.indices[:, None] << q.n | q.indices[None, :]).ravel()
    pr = (p.probs[:, None] * q.probs[None, :]).ravel()
    return _sorted_table(n, idx, pr)


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
    components: Sequence[MixtureOfProducts],
) -> MixtureOfProducts:
    """Weighted mixture of product families sharing the same box count.

    Mixing mixtures flattens: outer weights scale the inner component weights.
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
    flat: list[tuple[float, float]] = []
    for w, comp in zip(weights, components):
        for wj, qj in comp.components:
            flat.append((float(w) * wj, qj))
    return MixtureOfProducts(n, tuple(flat))


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

    def class_log_mass(self) -> np.ndarray:
        return self.class_log_prob + self.class_log_count

    def support_classes(self) -> np.ndarray:
        return np.isfinite(self.class_log_prob)

    @functools.cached_property
    def levels(self) -> Spectrum:
        """Support classes sorted by per-string probability; classes of
        equal probability share one level."""
        sup = np.flatnonzero(self.support_classes())
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


def _check_class_limit(n: int):
    if n > 10**7:  # the class arrays take about 85 bytes per box
        raise TooLarge(f"{n} boxes exceed the type-class limit of 10**7")


def to_type_classes(m: MixtureOfProducts) -> TypeClassView:
    """Aggregate a mixture over Hamming-weight classes, in log2 space.

    Degenerate components (q in {0, 1}) contribute -inf per-string log
    probabilities outside their single feasible class; the 0 * log 0
    convention applies to the k = 0 and k = n exponents.
    """
    n = m.n
    _check_class_limit(n)
    ks = np.arange(n + 1, dtype=float)
    per_component = np.full((len(m.components), n + 1), -np.inf)
    for j, (w, q) in enumerate(m.components):
        logq = math.log2(q) if q > 0.0 else -math.inf
        log1mq = math.log2(1.0 - q) if q < 1.0 else -math.inf
        with np.errstate(invalid="ignore"):
            left = np.where(ks == n, 0.0, (n - ks) * logq)
            right = np.where(ks == 0, 0.0, ks * log1mq)
        # left + right is exactly -n in every class when q = 1/2: uniform terms stay flat
        per_component[j] = math.log2(w) + (left + right)
    if len(m.components) == 1:
        # the log-sum of one term is the identity, mx + log2(exp2(0))
        log_prob = per_component[0]
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            mx = np.max(per_component, axis=0)
            log_prob = np.where(
                np.isfinite(mx),
                mx + np.log2(np.sum(np.exp2(per_component - np.where(np.isfinite(mx), mx, 0.0)), axis=0)),
                -np.inf,
            )
    log_count, count = binomials(n)
    return TypeClassView(
        n, _freeze(log_prob), _freeze(log_count), None if count is None else _freeze(count)
    )


def explicit_of(dist: MixtureOfProducts | TypeClassView) -> ExplicitDistribution:
    """Entrywise expansion of a structured distribution to an explicit table.

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
    from the n + 1 class probabilities, so the table is never sorted: its
    distinct probabilities are those of the classes, and each one's count
    is the sum of its classes' counts.
    """
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


def marginal(p: ExplicitDistribution, positions: Sequence[int]) -> ExplicitDistribution:
    """Marginal distribution on the given box positions (ascending order)."""
    pos = sorted(set(int(i) for i in positions))
    if not pos:
        raise EmptySubset("marginal needs at least one position")
    if pos[0] < 0 or pos[-1] >= p.n:
        raise IndexOutOfRange(f"positions {pos} outside [0, {p.n})")
    m = len(pos)
    sub = np.zeros_like(p.indices)
    for out_bit, in_pos in enumerate(pos):
        bit = (p.indices >> (p.n - 1 - in_pos)) & 1
        sub |= bit << (m - 1 - out_bit)
    uniq, inverse = np.unique(sub, return_inverse=True)
    acc = np.zeros(uniq.size)
    np.add.at(acc, inverse, p.probs)
    return _from_arrays(m, uniq, acc)


def apply_permutation(p: ExplicitDistribution, permutation: np.ndarray) -> ExplicitDistribution:
    """Relabel outcomes: new index of outcome x is permutation[x]."""
    perm = np.asarray(permutation, dtype=np.int64)
    if perm.shape != (1 << p.n,) or not np.array_equal(np.sort(perm), np.arange(1 << p.n)):
        raise NotBijective(f"not a bijection on 2^{p.n} outcome indices")
    return _from_arrays(p.n, perm[p.indices], p.probs)


def statistical_distance(p: ExplicitDistribution, q: ExplicitDistribution) -> float:
    """Mass removed from p relative to q: sum over x of max(p(x) - q(x), 0).

    q may be subnormalized; this is the distance the smoothing ball uses.
    """
    if p.n != q.n:
        raise ArityMismatch(f"distributions on {p.n} and {q.n} boxes")
    union = np.union1d(p.indices, q.indices)
    pv = np.zeros(union.size)
    qv = np.zeros(union.size)
    pv[np.searchsorted(union, p.indices)] = p.probs
    qv[np.searchsorted(union, q.indices)] = q.probs
    return float(np.maximum(pv - qv, 0.0).sum())


def sample(
    dist: ExplicitDistribution | MixtureOfProducts | TypeClassView,
    rng: np.random.Generator,
) -> Outcome:
    """One outcome drawn from ``dist``; deterministic given the generator state.

    Type-class views draw a Hamming-weight class by its total mass and then
    a uniformly random member of the class.
    """
    if isinstance(dist, ExplicitDistribution):
        return Outcome.from_index(int(sample_indices(dist, rng, 1)[0]), dist.n)
    view = to_type_classes(dist) if isinstance(dist, MixtureOfProducts) else dist
    masses = np.exp2(view.class_log_mass())
    masses = np.where(np.isfinite(view.class_log_prob), masses, 0.0)
    k = int(rng.choice(view.n + 1, p=masses / masses.sum()))
    bits = [0] * view.n
    for pos in rng.choice(view.n, size=k, replace=False):
        bits[int(pos)] = 1
    return Outcome(tuple(bits))


def sample_indices(
    dist: ExplicitDistribution, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized draw of ``size`` outcome indices from an explicit table.

    On a table of every outcome the drawn position is the index.
    """
    probs = dist.probs / dist.probs.sum()
    picks = rng.choice(dist.support_size, size=size, p=probs)
    return picks if dist.support_size == 1 << dist.n else dist.indices[picks]


def _sorted_draws(
    dist: ExplicitDistribution, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cdf numpy's ``choice`` searches and the uniforms it draws, sorted.

    ``choice(k, size, p=p)`` is ``cdf.searchsorted(rng.random(size),
    side="right")`` over ``cdf = cumsum(p); cdf /= cdf[-1]``, so a draw u
    picks entry i exactly when cdf[i-1] <= u < cdf[i]. cdf[-1] is exactly
    1.0, above every uniform. The generator ends where ``choice`` leaves it.
    """
    cdf = dist.probs / dist.probs.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    u = rng.random(size)
    u.sort()
    return cdf, u


def _sorted_picks(dist: ExplicitDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """The support positions ``sample_indices`` would draw, in ascending order.

    With sorted keys the search walks the cdf once instead of jumping about it.
    """
    cdf, u = _sorted_draws(dist, rng, size)
    return cdf.searchsorted(u, side="right")


def _draws_in(
    dist: ExplicitDistribution, mask: np.ndarray, rng: np.random.Generator, size: int
) -> int:
    """How many of the ``size`` draws of ``sample_indices`` land on the
    support entries ``mask`` selects.

    The shorter sorted array is searched in the longer one. On a support of
    at most ``size`` entries each cdf entry is searched among the uniforms:
    the draws below cdf[i] less those below cdf[i-1] are the hits on entry i
    (none on a cdf plateau), and every draw lands on some entry. On a larger
    support each uniform is searched in the cdf, as in ``_sorted_picks``.
    The count is the same integer either way.
    """
    cdf, u = _sorted_draws(dist, rng, size)
    if cdf.size <= size:
        hits = np.diff(u.searchsorted(cdf, side="left"), prepend=0)
        return int(hits[mask].sum())
    return int(np.count_nonzero(mask[cdf.searchsorted(u, side="right")]))
