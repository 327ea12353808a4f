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
from .numerics import binomials, logsumexp2, popcount

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
    EXACT_BINOMIAL_MAX_N). ``p`` is exact for explicit tables; for type
    classes it is ``exp2(log_p)`` and underflows to 0 below the smallest
    float, so only ``log_p`` is read there. Every distribution computes its
    spectrum once, as its ``levels``.
    """

    n: int
    p: np.ndarray
    log_p: np.ndarray
    mass: np.ndarray
    log_count: np.ndarray
    count: np.ndarray | None


@dataclass(frozen=True, eq=False)
class ExplicitDistribution:
    """Support of a distribution over {L,R}^n as aligned index/probability arrays.

    ``indices`` is strictly increasing; ``probs`` holds strictly positive
    entries only (zero-probability outcomes are not part of the support).
    Arrays are frozen read-only; every operation returns a new object.
    Subnormalized tables (total < 1) appear only as smoothing witnesses.
    """

    n: int
    indices: np.ndarray
    probs: np.ndarray

    @property
    def support_size(self) -> int:
        return int(self.indices.size)

    @functools.cached_property
    def levels(self) -> Spectrum:
        """The table's spectrum: one sort, once per table, int64 counts."""
        p, count = np.unique(self.probs, return_counts=True)
        p, count = p[::-1], count[::-1].astype(np.int64)
        return _spectrum(self.n, p, np.log2(p), p * count, np.log2(count), count)

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
            and self.indices.size == other.indices.size
            and bool(np.all(self.indices == other.indices))
            and bool(np.all(np.abs(self.probs - other.probs) <= tol))
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _spectrum(n: int, *arrays: np.ndarray | None) -> Spectrum:
    return Spectrum(n, *(a if a is None else _freeze(a) for a in arrays))


def _from_arrays(n: int, indices: np.ndarray, probs: np.ndarray) -> ExplicitDistribution:
    """Assemble without normalization checks; sorts by index, drops zeros."""
    indices = np.asarray(indices, dtype=np.int64)
    probs = np.asarray(probs, dtype=float)
    keep = probs > 0.0
    indices, probs = indices[keep], probs[keep]
    order = np.argsort(indices)
    return ExplicitDistribution(n, _freeze(indices[order]), _freeze(probs[order].copy()))


def _as_index(outcome, n: int) -> int:
    if isinstance(outcome, Outcome):
        o = outcome
    elif isinstance(outcome, str):
        o = Outcome.from_string(outcome)
    elif isinstance(outcome, (int, np.integer)):
        if not 0 <= int(outcome) < (1 << n):
            raise IndexOutOfRange(f"index {outcome} outside [0, 2^{n})")
        return int(outcome)
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
    """
    if n < 1:
        raise BadOutcomeLength(f"need n >= 1, got {n}")
    _check_cap(n)
    seen: dict[int, float] = {}
    for outcome, p in entries:
        p = float(p)
        if p < 0.0:
            raise NegativeProbability(f"probability {p} for outcome {outcome}")
        idx = _as_index(outcome, n)
        if idx in seen:
            raise SzilardError(f"duplicate outcome {outcome}")
        seen[idx] = p
    total = math.fsum(seen.values())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}")
    return _from_arrays(n, np.fromiter(seen.keys(), dtype=np.int64, count=len(seen)),
                        np.fromiter(seen.values(), dtype=float, count=len(seen)))


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
    return ExplicitDistribution(n, _freeze(idx), _freeze(pr))


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
    if any(w <= 0.0 for w in weights):
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
            count = None if count is None else np.add.reduceat(count, starts)
            log_p = log_p[starts]
        return _spectrum(
            self.n, np.exp2(log_p), log_p, np.exp2(log_p + log_count), log_count, count
        )


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
    """
    _check_class_limit(dist.n)
    _check_cap(dist.n)
    view = to_type_classes(dist) if isinstance(dist, MixtureOfProducts) else dist
    idx = np.arange(1 << view.n, dtype=np.int64)
    probs = np.exp2(view.class_log_prob)[popcount(idx)]
    if not probs.all():
        keep = probs > 0.0
        idx, probs = idx[keep], probs[keep]
    return ExplicitDistribution(view.n, _freeze(idx), _freeze(probs))


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
        probs = dist.probs / dist.probs.sum()
        i = int(rng.choice(dist.indices.size, p=probs))
        return Outcome.from_index(int(dist.indices[i]), dist.n)
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
    """Vectorized draw of ``size`` outcome indices from an explicit table."""
    probs = dist.probs / dist.probs.sum()
    picks = rng.choice(dist.indices.size, size=size, p=probs)
    return dist.indices[picks]


def _sorted_picks(dist: ExplicitDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """The support positions ``sample_indices`` would draw, in ascending order.

    numpy's ``choice(k, size, p=p)`` is ``cdf.searchsorted(rng.random(size),
    side="right")`` over ``cdf = cumsum(p); cdf /= cdf[-1]``. This draws the
    same uniforms and sorts them before the search, which then walks the cdf
    once instead of jumping about it; the generator ends in the same state.
    """
    cdf = dist.probs / dist.probs.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    u = rng.random(size)
    u.sort()
    return cdf.searchsorted(u, side="right")
