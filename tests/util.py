"""Shared generators and reference implementations for randomized tests."""
from __future__ import annotations

import math

import numpy as np

from szilard import ExplicitDistribution, MixtureOfProducts, TypeClassView, make_explicit
from szilard.game import MonteCarloEstimate
from szilard.numerics import EXACT_BINOMIAL_MAX_N, HALF_LN_2PI, LN2, STIRLING_MIN_K
from szilard.probdist import Spectrum, sample_indices
from szilard.rng import make_rng


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


def sorted_draws(
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


def sorted_picks(dist: ExplicitDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """The support positions ``sample_indices`` would draw, in ascending
    order: the reference ``probdist._draws_in`` is checked against, one
    pick per play on the whole cdf."""
    cdf, u = sorted_draws(dist, rng, size)
    return cdf.searchsorted(u, side="right")


def level_sum(probs: np.ndarray) -> float:
    """The probabilities added level by level, as exact success adds them:
    each distinct value times its count, in descending order of value, in
    one ``np.sum``."""
    p, count = np.unique(probs, return_counts=True)
    return float(np.sum(p[::-1] * count[::-1]))


def same_table(a: ExplicitDistribution, b: ExplicitDistribution, tol: float = 0.0) -> bool:
    """Whether two tables have the same boxes and support, and probabilities
    within ``tol``; two tables of every outcome compare no indices."""
    return (
        a.n == b.n
        and a.support_size == b.support_size
        and (a.support_size == 1 << a.n or np.array_equal(a.indices, b.indices))
        and bool(np.all(np.abs(a.probs - b.probs) <= tol))
    )


def prob_of(dist: ExplicitDistribution, outcome) -> float:
    """The probability of one outcome, given as its L/R string, 0.0 off the
    support."""
    return dist.as_dict().get(outcome, 0.0)


def tensor(p: ExplicitDistribution, q: ExplicitDistribution) -> ExplicitDistribution:
    """The product table of independent ``p`` and ``q``: box strings
    concatenate, probabilities multiply. The entries are a generator, so
    ``make_explicit`` checks the cap before any product is built."""
    entries = ((i << q.n | j, a * b) for i, a in zip(p.indices.tolist(), p.probs.tolist())
               for j, b in zip(q.indices.tolist(), q.probs.tolist()))
    return make_explicit(p.n + q.n, entries)


def cnot(n: int, control: int, target: int) -> np.ndarray:
    """The CNOT on n boxes as a relabeling for ``apply_permutation``: the
    target box's content flips wherever the control box reads R."""
    x = np.arange(1 << n, dtype=np.int64)
    return x ^ (((x >> (n - 1 - control)) & 1) << (n - 1 - target))


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits per element of a nonnegative integer array."""
    return np.bitwise_count(values).astype(np.int64)


def draw_by_draw(d: ExplicitDistribution, permutation, bets, committed_work: float, config):
    """Monte Carlo the way it was first written: one index per play, relabeled
    through the dense permutation and matched against the bets. It plays any
    relabeling, and on a strategy's own plan it is ``monte_carlo`` bit for bit."""
    draws = sample_indices(d, make_rng(config.seed), config.n_samples)
    permuted = np.asarray(permutation)[draws]
    mask = want = 0
    for pos, val in bets:
        mask |= 1 << (d.n - 1 - pos)
        want |= val << (d.n - 1 - pos)
    rate = float(((permuted & mask) == want).mean())
    return estimate(rate, committed_work, config)


def estimate(rate: float, committed_work: float, config) -> MonteCarloEstimate:
    """The Monte Carlo figures ``monte_carlo`` reports for a success rate."""
    return MonteCarloEstimate(
        rate, rate * committed_work, math.sqrt(rate * (1.0 - rate) / config.n_samples),
        config.seed, config.n_samples,
    )


def random_mixture_params(rng: np.random.Generator, n: int, max_components: int = 3):
    """Random (weights, left_probs) for a MixtureOfProducts on n boxes."""
    j = int(rng.integers(1, max_components + 1))
    raw = rng.random(j) + 0.05
    weights = (raw / raw.sum()).tolist()
    lefts = rng.uniform(0.05, 0.95, size=j).tolist()
    return weights, lefts


# ----------------------------------------------- class-path reference builds
#
# The type-class path as it was before it learned to skip work whose answer
# it already knows: every component as a full row, one log-sum over the
# stacked (J, n + 1) array, an argsort of the support classes with a tie
# merge, an ``np.unique`` of the class probabilities for ``explicit_of``, and
# a smooth min-entropy cut scanned from the first level. The library must
# give the same floats, bit for bit.


def reference_type_classes(m: MixtureOfProducts) -> TypeClassView:
    """``to_type_classes`` with one guarded row per component and one
    log-sum over all of them, and binomial counts built afresh: ``math.comb``
    and their ``math.log2`` up to EXACT_BINOMIAL_MAX_N, a fresh ln k! row
    above, never the rows ``numerics`` shares."""
    n = m.n
    ks = np.arange(n + 1, dtype=float)
    per_component = np.full((len(m.components), n + 1), -np.inf)
    for j, (w, q) in enumerate(m.components):
        logq = math.log2(q) if q > 0.0 else -math.inf
        log1mq = math.log2(1.0 - q) if q < 1.0 else -math.inf
        with np.errstate(invalid="ignore"):
            left = np.where(ks == n, 0.0, (n - ks) * logq)
            right = np.where(ks == 0, 0.0, ks * log1mq)
        per_component[j] = math.log2(w) + (left + right)
    if len(m.components) == 1:
        log_prob = per_component[0]
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            mx = np.max(per_component, axis=0)
            safe = np.where(np.isfinite(mx), mx, 0.0)
            log_prob = np.where(
                np.isfinite(mx),
                mx + np.log2(np.sum(np.exp2(per_component - safe), axis=0)),
                -np.inf,
            )
    if n <= EXACT_BINOMIAL_MAX_N:
        count = np.array([math.comb(n, k) for k in range(n + 1)], dtype=object)
        log_count = np.array([math.log2(c) for c in count])
    else:
        count, log_count = None, reference_binomial_logs(n)
    return TypeClassView(n, log_prob, log_count, count)


def reference_levels(view: TypeClassView) -> Spectrum:
    """``TypeClassView.levels`` by argsort and tie merge, whatever the order."""
    sup = np.flatnonzero(view.support_classes())
    order = sup[np.argsort(-view.class_log_prob[sup], kind="stable")]
    log_p, log_count = view.class_log_prob[order], view.class_log_count[order]
    count = None if view.class_count is None else view.class_count[order]
    starts = np.flatnonzero(np.diff(log_p, prepend=np.inf))
    if starts.size < log_p.size:
        top = np.maximum.reduceat(log_count, starts)
        spread = np.repeat(top, np.diff(starts, append=log_p.size))
        log_count = top + np.log2(np.add.reduceat(np.exp2(log_count - spread), starts))
        if count is not None:
            count = np.add.reduceat(count, starts)
        elif starts.size == 1 and log_p.size == view.n + 1:
            count = np.array([1 << view.n], dtype=object)
        log_p = log_p[starts]
    return Spectrum(view.n, None, log_p, np.exp2(log_p + log_count), log_count, count)


def reference_table_levels(view: TypeClassView) -> Spectrum:
    """The spectrum ``explicit_of`` gives its table, by ``np.unique`` of the
    positive class probabilities and ``np.add.at`` of their counts."""
    class_p = np.exp2(view.class_log_prob)
    support = class_p > 0.0
    p, level = np.unique(class_p[support], return_inverse=True)
    count = np.zeros(p.size, dtype=np.int64)
    np.add.at(count, level, view.class_count[support].astype(np.int64))
    p, count = p[::-1], count[::-1].astype(np.int64)
    return Spectrum(view.n, p, np.log2(p), p * count, np.log2(count), count)


def reference_cut(s: Spectrum, prefix_mass: np.ndarray, eps: float) -> int:
    """The H_min^eps cut from one accumulate over every level: no start
    past the levels within eps, no seed and no chunks."""
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = np.log2(prefix_mass - eps) - np.logaddexp2.accumulate(s.log_count)
    return int(np.argmax(levels >= np.append(s.log_p[1:], -np.inf))) + 1


def reference_log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n built afresh, as ``numerics`` built it for every
    distribution before the process shared one row: math.lgamma below
    STIRLING_MIN_K, the Stirling series in x = k + 1 from there."""
    row = np.empty(n + 1)
    row[:STIRLING_MIN_K] = [math.lgamma(k + 1.0) for k in range(STIRLING_MIN_K)]
    x = np.arange(STIRLING_MIN_K + 1.0, n + 2.0)
    big = row[STIRLING_MIN_K:]
    np.log(x, out=big)
    tmp = x - 0.5
    big *= tmp
    big -= x
    big += HALF_LN_2PI
    r = np.reciprocal(x, out=x)
    np.multiply(r, r, out=tmp)
    tmp /= 1188.0
    tmp -= 1.0 / 1680.0
    for c in (1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0):
        tmp *= r
        tmp *= r
        tmp += c
    tmp *= r
    big += tmp
    return row


def reference_binomial_logs(n: int) -> np.ndarray:
    """log2 C(n, k) for k = 0..n from a fresh ln k! row, as ``binomials``
    takes them from the shared one above EXACT_BINOMIAL_MAX_N."""
    lf = reference_log_factorials(n)
    logs = lf[n] - lf
    logs -= lf[::-1]
    logs /= LN2
    return logs


def eager_class_gather(view: TypeClassView) -> np.ndarray:
    """Every string's class probability in index order, gathered as
    ``explicit_of`` once built every table of every outcome up front: a row
    per high half of the index, ``class_p[a + w_lo]`` for high-half weight
    a, copied whole into place. The reference its lazy entries are
    checked against, bit for bit."""
    lo = view.n // 2
    hi = view.n - lo
    w_lo = np.bitwise_count(np.arange(1 << lo))
    w_hi = np.bitwise_count(np.arange(1 << hi))
    class_p = np.exp2(view.class_log_prob)
    rows = class_p[np.arange(hi + 1)[:, None] + w_lo]
    return rows[w_hi].reshape(-1)
