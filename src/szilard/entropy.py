"""Exact and smoothed entropies of box distributions.

Three functionals: Shannon entropy, min-entropy (-log2 of the peak
probability) and max-entropy (log2 of the support size), plus their
epsilon-smoothed versions. Smoothing optimizes over the mass-removal ball

    { Q : 0 <= Q <= P pointwise,  sum(P - Q) <= eps },

i.e. epsilon is the total probability of events one agrees to ignore.
Over this ball both smooth values have closed-form greedy solutions:

* smooth max-entropy deletes outcomes in ascending probability order until
  the budget is exhausted (deleting cheapest strings maximizes the number
  removed, hence minimizes the retained support);
* smooth min-entropy shaves every probability above a cut level lambda,
  where lambda solves sum_i max(p_i - lambda, 0) = eps (no redistribution;
  lowering the peak any further would overdraw the budget).

All six figures depend only on the multiset of outcome probabilities, so
each is computed once, over the distribution's ``Spectrum``: its distinct
per-outcome probabilities in descending order with their multiplicities.
``probdist`` owns the spectrum: explicit tables, mixtures and type-class
views each build theirs once, as their cached ``levels``, which keeps
i.i.d. and mixture families exact at n = 1000 and beyond and lets every
function here take the distribution itself.

Each smoothing problem is solved once per spectrum and eps: the
spectrum-level answer (no witness) is kept in the spectrum's ``smoothed``,
so ``smooth_report``, the work figures and the strategy builders in
``game`` all read one solve. Explicit tables still build their witnesses
per call. The smooth min-entropy cut is found on a prefix: no cut falls
before the first level whose prefix mass exceeds eps, so the running
log-count of the levels before it is one ``logsumexp2`` (a sequential
fold, where they are few), and from there it is accumulated in chunks of
doubling length only as far as the cut, not over all n + 1 levels. Where
the log-sum could give another cut than the fold of a full scan (a
comparison within a proven error bound of its level), the scan is run
again from the fold, so the cut is always that of a full scan.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadEpsilon
from .numerics import logsumexp2
from .probdist import (
    ExplicitDistribution,
    MixtureOfProducts,
    Spectrum,
    TypeClassView,
    _on_support,
    _sub_table,
)

Distribution = ExplicitDistribution | MixtureOfProducts | TypeClassView | Spectrum


@dataclass(frozen=True)
class EntropyReport:
    """All six entropy figures of one distribution at one epsilon."""

    n: int
    shannon: float
    h_min: float
    h_max: float
    epsilon: float
    h_min_smooth: float
    h_max_smooth: float


@dataclass(frozen=True)
class CutLevel:
    """Witness for the smooth min-entropy: the peak-shaving level.

    The level is carried in log2 form because it underflows linear floats
    for large n; ``removed_mass`` is the budget actually spent.
    """

    log2_level: float
    removed_mass: float


@dataclass(frozen=True)
class SmoothedMax:
    bits: float
    removed_mass: float
    retained_count: int | None            # exact wherever the spectrum's counts are
    witness: ExplicitDistribution | None  # subnormalized table, explicit input only


@dataclass(frozen=True)
class SmoothedMin:
    bits: float
    cut: CutLevel
    witness: ExplicitDistribution | None  # subnormalized table, explicit input only


def binary_entropy(p: float) -> float:
    """-p log2 p - (1-p) log2(1-p) on [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need p in [0, 1], got {p}")
    out = 0.0
    if p > 0.0:
        out -= p * math.log2(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log2(1.0 - p)
    return out


def spectrum(dist: Distribution) -> Spectrum:
    """The distribution's cached spectrum; a spectrum is returned as it is."""
    return dist if isinstance(dist, Spectrum) else dist.levels


def shannon(dist: Distribution) -> float:
    """-sum p log2 p, with 0 log 0 = 0.

    The sum runs over the sorted spectrum, so the value is identical for
    any relabeling of the same probability multiset; numpy's pairwise sum
    keeps its error near 1e-11 bits at n = 1e5.
    """
    s = spectrum(dist)
    # 0.0 - x is -x except at a zero, which it makes +0.0 (a point mass's)
    return 0.0 - float(np.sum(s.mass * s.log_p))


def h_min(dist: Distribution) -> float:
    """-log2 of the largest outcome probability."""
    return 0.0 - float(spectrum(dist).log_p[0])


def h_max(dist: Distribution) -> float:
    """log2 of the support size."""
    s = spectrum(dist)
    if s.count is not None:
        return math.log2(int(s.count.sum()))
    return logsumexp2(s.log_count)


def _check_epsilon(eps: float):
    if not 0.0 <= eps < 1.0:
        raise BadEpsilon(f"need 0 <= epsilon < 1, got {eps}")


def _int_exp2(x: float, rounding=math.floor) -> int:
    """2**x rounded to an int, without overflowing floats for large x."""
    shift = max(0, int(x) - 60)
    return rounding(2.0 ** (x - shift)) << shift


def _once(solve, s: Spectrum, eps: float):
    """``solve(s, eps)`` on the first ask; the answer is kept on the spectrum,
    so every later figure of this spectrum at this eps reads it."""
    key = (solve, eps)
    if key not in s.smoothed:
        s.smoothed[key] = solve(s, eps)
    return s.smoothed[key]


def h_max_smooth(dist: Distribution, eps: float) -> float:
    """H_max^eps in bits; the spectrum is passed on so no witness is built."""
    return h_max_smooth_detail(spectrum(dist), eps).bits


def h_max_smooth_detail(dist: Distribution, eps: float) -> SmoothedMax:
    """Minimal support size reachable by deleting total mass <= eps.

    Solved once per spectrum and eps (``_solve_max``). The witness, built
    for explicit tables only, deletes tied outcomes in descending index
    order, so it keeps the table's ``top`` entries.
    """
    _check_epsilon(eps)
    result = _once(_solve_max, spectrum(dist), eps)
    if not isinstance(dist, ExplicitDistribution):
        return result
    keep = dist.top(result.retained_count)
    return dataclasses.replace(result, witness=dist if keep is None else _sub_table(dist, keep))


def _solve_max(s: Spectrum, eps: float) -> SmoothedMax:
    """H_max^eps of a spectrum, without witness.

    Deletes whole levels in ascending probability while the budget lasts,
    then as many outcomes of the boundary level as the rest buys. That
    count is the floor of the linear quotient rest / p wherever it is below
    2^53, so a rest that is an exact multiple of p buys all of its
    outcomes; above, it is taken in log form.
    """
    top = s.log_p.size - 1
    cum = np.cumsum(s.mass[::-1])
    # eps < 1 = total mass, so an outcome of the top level survives; the min()
    # only shields against float cum[-1] landing a hair below eps
    gone = min(int(np.searchsorted(cum, eps, side="right")), top) if eps > 0.0 else 0
    b = top - gone
    removed = float(cum[gone - 1]) if gone else 0.0
    log_p = float(s.log_p[b])
    # the linear p of a type class is the one ``explicit_of`` gives its strings
    p = float(s.p[b] if s.p is not None else np.exp2(log_p))
    count_b = _int_exp2(float(s.log_count[b]), round) if s.count is None else int(s.count[b])
    rest, t = eps - removed, 0
    if 0.0 < rest < p * 2**53:
        t = min(math.floor(rest / p), count_b - 1)
        removed += t * p
    elif rest > 0.0:
        t = min(_int_exp2(math.log2(rest) - log_p), count_b - 1)
        if t:
            removed += 2.0 ** (math.log2(t) + log_p)
    if s.count is None:
        retained = None
        bits = logsumexp2(np.append(s.log_count[:b], math.log2(count_b - t)))
    else:
        retained = int(s.count[:b].sum()) + count_b - t
        bits = math.log2(retained)
    return SmoothedMax(bits, removed, retained, None)


def h_min_smooth(dist: Distribution, eps: float) -> float:
    """H_min^eps in bits; the spectrum is passed on so no witness is built."""
    return h_min_smooth_detail(spectrum(dist), eps).bits


def h_min_smooth_detail(dist: Distribution, eps: float) -> SmoothedMin:
    """Largest min-entropy reachable by removing mass <= eps (peak shaving).

    Solved once per spectrum and eps (``_solve_min``). The witness, built
    for explicit tables only, caps every probability at the linear cut
    level; all of them stay positive, so it keeps the table's support.
    """
    _check_epsilon(eps)
    result, lam = _once(_solve_min, spectrum(dist), eps)
    if not isinstance(dist, ExplicitDistribution):
        return result
    probs = dist.probs if lam is None else np.minimum(dist.probs, lam)
    return dataclasses.replace(result, witness=_on_support(dist, probs))


def _solve_min(s: Spectrum, eps: float) -> tuple[SmoothedMin, float | None]:
    """H_min^eps of a spectrum, without witness, and the cut level lam in
    linear form where the witness can use it (None elsewhere).

    Shaving the top m levels to lam removes S_m - N_m lam, with S_m their
    mass and N_m their outcome count, so lam = (S_m - eps) / N_m.
    """
    lam = None
    if eps == 0.0:
        log_lam = float(s.log_p[0])
    else:
        prefix_mass = np.cumsum(s.mass)
        if eps >= prefix_mass[-1]:
            # nothing would be left to take a peak of
            raise BadEpsilon(f"epsilon {eps} removes the whole mass {float(prefix_mass[-1])!r}")
        m = _cut(s, prefix_mass, eps)
        slack = float(prefix_mass[m - 1]) - eps
        # a linear lam, exact below 2^53 shaved outcomes, is what the witness
        # caps the table at, so the witness peak gives back bits exactly
        if s.count is not None and (shaved := int(s.count[:m].sum())) < 2**53:
            lam = slack / shaved
            log_lam = math.log2(lam)
        else:
            log_lam = math.log2(slack) - logsumexp2(s.log_count[:m])
    return SmoothedMin(0.0 - log_lam, CutLevel(log_lam, eps), None), lam


#: levels in the first chunk ``_scan`` scans; each later chunk doubles
_CUT_CHUNK = 64

#: ulps of max(log2 N_m, 1) per level by which the two seeds of ``_cut``
#: can move a scanned log2(N); a margin within it reruns the exact fold
_SEED_ULPS = 16

#: below this many leading levels the exact fold (30 to 40 ns a level) is
#: cheaper than the log-sum seed and its guard (about 20 us), so it seeds
#: the scan itself
_FOLD_MAX_START = 512


def _cut(s: Spectrum, prefix_mass: np.ndarray, eps: float) -> int:
    """The number m of top levels the eps shave cuts to one level.

    The cut is the first m whose level log2(S_m - eps) - log2(N_m) is at
    or above level m + 1 (the last level is above -inf, so some m is).
    No m with S_m <= eps qualifies, since log2 of S_m - eps is -inf or nan
    there, so ``_scan`` starts at the first level whose prefix mass
    exceeds eps, seeded by log2 of the count of the levels before it.

    The pinned m is that of one ``np.logaddexp2.accumulate`` over all
    levels, whose value before the start is the sequential fold
    ``np.logaddexp2.reduce(log_count[1:start], initial=log_count[0])``
    (the same left fold; started from the first level, not from the
    identity -inf, which turns a -0.0 into +0.0). That fold costs 30 to
    40 ns a level, so from ``_FOLD_MAX_START`` leading levels on the seed
    is ``logsumexp2`` of them instead, and the fold runs only where the
    two seeds could give another m. With u = max(log2 N_m, 1), the
    largest log2(N) the scan reaches:

    * One logaddexp2 step errs by at most about 3 ulp(u): half an ulp of
      its result, which is at most u, and an absolute error of order
      2^-53 <= ulp(u) in its log2(1 + 2^-d) term. The exact step
      a -> log2(2^a + 2^c) has slope below 1, so an error carried into
      it does not grow, and the fold errs by at most 3 · start ulp(u).
    * ``logsumexp2`` errs by about start · 2^-53 / ln 2 in its sum of
      start terms, plus a few roundings: at most 3 · start ulp(u).
    * From the start both scans take the same steps, each of which can
      add twice its error to their distance: 6 ulp(u) a level.

    So their log2(N) differ by at most 6 · m ulp(u) at every scanned
    level; ``_SEED_ULPS`` takes 16. lhs = log2(S - eps) - log2(N) moves
    by at most that plus its own rounding, so a comparison lhs >= level
    can turn only where |lhs - level| - 2 ulp(lhs) is within the bound.
    That margin is taken over every level scanned up to the hit, not
    only at m - 1 and m: the hit is monotone in m, but its margin need
    not be. Where the smallest margin is within the bound, the scan runs
    again from the fold. Otherwise both seeds give this m, and with it
    every float of the solve.
    """
    start = int(np.searchsorted(prefix_mass, eps, side="right"))
    if start < _FOLD_MAX_START:
        return _scan(s, prefix_mass, eps, start, _fold(s, start))[0]
    m, log_n, scanned = _scan(s, prefix_mass, eps, start, logsumexp2(s.log_count[:start]))
    margin = min(
        float(np.min(np.abs(lhs - level) - 2.0 * np.spacing(np.abs(lhs))))
        for lhs, level in scanned
    )
    if margin <= _SEED_ULPS * m * np.spacing(max(log_n, 1.0)):
        m = _scan(s, prefix_mass, eps, start, _fold(s, start))[0]
    return m


def _fold(s: Spectrum, start: int) -> float | None:
    """log2 of the count of the first ``start`` levels as the sequential
    fold that one accumulate over all levels passes through; None for
    none."""
    return np.logaddexp2.reduce(s.log_count[1:start], initial=s.log_count[0]) if start else None


def _scan(
    s: Spectrum, prefix_mass: np.ndarray, eps: float, start: int, seed: float | None
) -> tuple[int, float, list[tuple[np.ndarray, np.ndarray]]]:
    """The cut m from level ``start`` on, log2(N_m), and the compared
    pairs (lhs, level) of every level scanned up to the hit, chunk by
    chunk.

    log2(N) is ``np.logaddexp2.accumulate`` of the log counts, from
    ``seed``, log2 of the count of the levels before ``start`` (None for
    none), in chunks of doubling length, each chunk's accumulate started
    from the last value before it; that is one left fold, so each float is
    the one a single accumulate from the seed gives.
    """
    size = s.log_p.size
    width, acc, scanned = _CUT_CHUNK, seed, []
    while True:
        stop = min(start + width, size)
        counts = s.log_count[start:stop]
        if acc is None:
            log_n = np.logaddexp2.accumulate(counts)
        else:
            log_n = np.logaddexp2.accumulate(np.concatenate(([acc], counts)))[1:]
        below = s.log_p[start + 1 : stop + 1]
        if stop == size:
            below = np.append(below, -np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = np.log2(prefix_mass[start:stop] - eps) - log_n
        hit = lhs >= below
        if hit.any():
            seen = int(np.argmax(hit)) + 1
            scanned.append((lhs[:seen], below[:seen]))
            return start + seen, float(log_n[seen - 1]), scanned
        scanned.append((lhs, below))
        start, width, acc = stop, 2 * width, log_n[-1]


def smooth_report(dist: Distribution, eps: float) -> EntropyReport:
    """All six entropy figures at once, over the distribution's one spectrum."""
    return EntropyReport(
        n=dist.n,
        shannon=shannon(dist),
        h_min=h_min(dist),
        h_max=h_max(dist),
        epsilon=eps,
        h_min_smooth=h_min_smooth(dist, eps),
        h_max_smooth=h_max_smooth(dist, eps),
    )
