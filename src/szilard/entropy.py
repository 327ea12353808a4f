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
    _from_arrays,
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

    @property
    def level(self) -> float:
        return 2.0**self.log2_level


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
    return -float(np.sum(s.mass * s.log_p))


def h_min(dist: Distribution) -> float:
    """-log2 of the largest outcome probability."""
    return -float(spectrum(dist).log_p[0])


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


def h_max_smooth(dist: Distribution, eps: float) -> float:
    """H_max^eps in bits; the spectrum is passed on so no witness is built."""
    return h_max_smooth_detail(spectrum(dist), eps).bits


def h_max_smooth_detail(dist: Distribution, eps: float) -> SmoothedMax:
    """Minimal support size reachable by deleting total mass <= eps.

    Deletes whole levels in ascending probability while the budget lasts,
    then as many outcomes of the boundary level as the rest buys. The
    witness, built for explicit tables only, deletes tied outcomes in
    descending index order.
    """
    _check_epsilon(eps)
    s = spectrum(dist)
    top = s.log_p.size - 1
    cum = np.cumsum(s.mass[::-1])
    # eps < 1 = total mass, so an outcome of the top level survives; the min()
    # only shields against float cum[-1] landing a hair below eps
    gone = min(int(np.searchsorted(cum, eps, side="right")), top) if eps > 0.0 else 0
    b = top - gone
    removed = float(cum[gone - 1]) if gone else 0.0
    log_p = float(s.log_p[b])
    count_b = _int_exp2(float(s.log_count[b]), round) if s.count is None else int(s.count[b])
    t = min(_int_exp2(math.log2(eps - removed) - log_p), count_b - 1) if eps > removed else 0
    if t:
        removed += 2.0 ** (math.log2(t) + log_p)
    if s.count is None:
        retained = None
        bits = logsumexp2(np.append(s.log_count[:b], math.log2(count_b - t)))
    else:
        retained = int(s.count[:b].sum()) + count_b - t
        bits = math.log2(retained)
    result = SmoothedMax(bits, removed, retained, None)
    if not isinstance(dist, ExplicitDistribution):
        return result
    order = np.lexsort((-dist.indices, dist.probs))
    keep = np.ones(dist.support_size, dtype=bool)
    keep[order[: dist.support_size - retained]] = False
    witness = _from_arrays(dist.n, dist.indices[keep], dist.probs[keep])
    return dataclasses.replace(result, witness=witness)


def h_min_smooth(dist: Distribution, eps: float) -> float:
    """H_min^eps in bits; the spectrum is passed on so no witness is built."""
    return h_min_smooth_detail(spectrum(dist), eps).bits


def h_min_smooth_detail(dist: Distribution, eps: float) -> SmoothedMin:
    """Largest min-entropy reachable by removing mass <= eps (peak shaving).

    Shaving the top m levels to lam removes S_m - N_m lam, with S_m their
    mass and N_m their outcome count, so lam = (S_m - eps) / N_m; the cut
    is the first m whose lam is at or above level m + 1. The witness is
    built for explicit tables only.
    """
    _check_epsilon(eps)
    s = spectrum(dist)
    lam = None
    if eps == 0.0:
        log_lam = float(s.log_p[0])
    else:
        prefix_mass = np.cumsum(s.mass)
        if eps >= prefix_mass[-1]:
            # nothing would be left to take a peak of
            raise BadEpsilon(f"epsilon {eps} removes the whole mass {float(prefix_mass[-1])!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            levels = np.log2(prefix_mass - eps) - np.logaddexp2.accumulate(s.log_count)
        m = int(np.argmax(levels >= np.append(s.log_p[1:], -np.inf))) + 1
        slack = float(prefix_mass[m - 1]) - eps
        # a linear lam, exact below 2^53 shaved outcomes, is what the witness
        # caps the table at, so the witness peak gives back bits exactly
        if s.count is not None and (shaved := int(s.count[:m].sum())) < 2**53:
            lam = slack / shaved
            log_lam = math.log2(lam)
        else:
            log_lam = math.log2(slack) - logsumexp2(s.log_count[:m])
    result = SmoothedMin(-log_lam, CutLevel(log_lam, eps), None)
    if not isinstance(dist, ExplicitDistribution):
        return result
    probs = dist.probs if lam is None else np.minimum(dist.probs, lam)
    return dataclasses.replace(result, witness=_from_arrays(dist.n, dist.indices, probs))


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
