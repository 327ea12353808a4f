"""The work-extraction game and its two enveloping bounds.

An agent holding n boxes of work value c = kT ln 2 presets, in advance of
any extraction: a permutation of the outcome space, the set of boxes to
couple to the weight together with a guessed content for each, and the
weight itself (here quantized as |bets| * c). Extraction succeeds, paying
the committed work, exactly when every guessed box reads as guessed.

Two closed-form figures envelope all risk preferences:

* risk-free work  (n - H_max^eps) * c  -- achievable with failure
  probability at most eps by compressing and betting the leading boxes;
* gambling bound  (n - H_min^eps + log2(1/eps)) * c  -- no strategy that
  succeeds with probability above eps can commit more, because the peak of
  a marginal on b boxes is at most 2^(n-b) times the global peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compress import CompressionPlan, canonical_permutation
from .entropy import (
    Distribution,
    binary_entropy,
    h_max_smooth,
    h_max_smooth_detail,
    h_min,
    h_min_smooth,
    spectrum,
)
from .errors import (
    BadBetSize,
    BadEpsilon,
    BadSampleCount,
    InvalidBets,
    NonpositiveTemperature,
    TooLarge,
)
from .probdist import ExplicitDistribution, _sorted_picks
from .rng import make_rng

BOLTZMANN_J_PER_K = 1.380649e-23  # CODATA exact
ELECTRON_VOLT_J = 1.602176634e-19  # CODATA exact


@dataclass(frozen=True)
class Work:
    """An energy figure in bits of work value, joules and electron volts."""

    bits: float
    joules: float
    ev: float

    @classmethod
    def from_bits(cls, bits: float, c_joules: float) -> "Work":
        j = bits * c_joules
        return cls(bits, j, j / ELECTRON_VOLT_J)


@dataclass(frozen=True)
class WorkBounds:
    """Risk-free (min) and gambling (max) work figures for one distribution."""

    n: int
    epsilon: float
    min_work: Work
    max_work: Work


@dataclass(frozen=True)
class GameConfig:
    temperature: float = 300.0
    epsilon: float = 1e-3
    seed: int = 0
    n_samples: int = 100_000

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise NonpositiveTemperature(f"temperature {self.temperature} K")
        if not 0.0 <= self.epsilon < 1.0:
            raise BadEpsilon(f"epsilon {self.epsilon}")
        if self.n_samples < 1:
            raise BadSampleCount(f"need at least one Monte Carlo sample, got {self.n_samples}")
        if self.n_samples > 10**7:  # Monte Carlo holds about 40 bytes per play
            raise TooLarge(f"{self.n_samples} Monte Carlo samples exceed 10**7")

    @property
    def work_value(self) -> float:
        return work_unit(self.temperature).joules


@dataclass(frozen=True)
class Strategy:
    """Preset plan, bet set and committed weight; immutable once built."""

    plan: CompressionPlan
    bets: tuple[tuple[int, int], ...]  # (box position, guessed content)
    committed_work: float  # joules, equals |bets| * c


@dataclass(frozen=True)
class ExactResult:
    success_prob: float
    expected_work: float  # joules


@dataclass(frozen=True)
class MonteCarloEstimate:
    success_rate: float
    mean_work: float  # joules per play
    stderr: float  # binomial standard error of the success rate
    seed: int
    n_samples: int


def work_unit(temperature: float) -> Work:
    """Work value of one perfectly known box at the given temperature."""
    if temperature <= 0.0:
        raise NonpositiveTemperature(f"temperature {temperature} K")
    return Work.from_bits(1.0, BOLTZMANN_J_PER_K * temperature * math.log(2.0))


def riskfree_work(dist: Distribution, eps: float, c: float) -> Work:
    """(n - H_max^eps) * c: certain except with probability < eps."""
    return Work.from_bits(dist.n - h_max_smooth(dist, eps), c)


def riskfree_bet_count(dist: Distribution, eps: float) -> int:
    """Number of boxes an executable risk-free strategy bets: n - ceil(H_max^eps)."""
    detail = h_max_smooth_detail(spectrum(dist), eps)
    if detail.retained_count is not None:
        uncertain = (detail.retained_count - 1).bit_length()
    else:  # counts known in log2 form only: type classes above EXACT_BINOMIAL_MAX_N
        uncertain = math.ceil(detail.bits - 1e-9)
    return dist.n - uncertain


def riskfree_work_executable(dist: Distribution, eps: float, c: float) -> Work:
    """Integer-box variant (n - ceil(H_max^eps)) * c, what a strategy commits."""
    return Work.from_bits(riskfree_bet_count(dist, eps), c)


def gambler_work_bound(dist: Distribution, eps: float, c: float) -> Work:
    """(n - H_min^eps + log2(1/eps)) * c, the cap for success probability > eps."""
    if eps <= 0.0:
        raise BadEpsilon("the gambling bound needs epsilon > 0")
    bits = dist.n - h_min_smooth(dist, eps) + math.log2(1.0 / eps)
    return Work.from_bits(bits, c)


def shannon_limit_work(p: float, n: int, c: float) -> Work:
    """n (1 - h(p)) * c: the thermodynamic-limit work of an i.i.d. source."""
    return Work.from_bits(n * (1.0 - binary_entropy(p)), c)


def work_bounds(dist: Distribution, eps: float, c: float) -> WorkBounds:
    return WorkBounds(
        n=dist.n,
        epsilon=eps,
        min_work=riskfree_work(dist, eps, c),
        max_work=gambler_work_bound(dist, eps, c),
    )


def _check_bets(n: int, bets: tuple[tuple[int, int], ...]):
    positions = [b[0] for b in bets]
    if len(set(positions)) != len(positions):
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


def exact_evaluate(dist: ExplicitDistribution, strategy: Strategy) -> ExactResult:
    """Success probability of a strategy and the work it earns in expectation.

    Success is the post-permutation marginal probability of the guessed
    assignment on the bet positions; failure pays nothing.
    """
    _check_bets(dist.n, strategy.bets)
    image = strategy.plan.image(dist)
    success = float(dist.probs[_match_mask(image, dist.n, strategy.bets)].sum())
    return ExactResult(success, success * strategy.committed_work)


def build_riskfree_strategy(dist: ExplicitDistribution, eps: float, c: float) -> Strategy:
    """Compress, then bet L on every box left of the smoothed support.

    The retained support (the top k outcomes) lands on indices below
    2^ceil(log2 k) after compression, so the leading n - ceil(log2 k) boxes
    read L unless a deleted (total mass <= eps) outcome occurred.
    """
    plan = canonical_permutation(dist)
    bet_count = riskfree_bet_count(dist, eps)
    bets = tuple((pos, 0) for pos in range(bet_count))
    return Strategy(plan, bets, bet_count * c)


def build_gambler_strategy(dist: ExplicitDistribution, m: int, c: float) -> Strategy:
    """Compress, then bet L on the leading m boxes: the best m-box bet.

    Any guess on m boxes wins on one cell of 2^(n-m) outcomes, so no bet
    succeeds with more than the mass of the top 2^(n-m) outcomes (the
    Ky-Fan sum). Compression puts exactly those outcomes on indices below
    2^(n-m), the cell where boxes 0..m-1 all read L, which reaches it.
    """
    if not 1 <= m <= dist.n:
        raise BadBetSize(f"bet size {m} outside [1, {dist.n}]")
    bets = tuple((pos, 0) for pos in range(m))
    return Strategy(canonical_permutation(dist), bets, m * c)


def monte_carlo(
    dist: ExplicitDistribution, strategy: Strategy, config: GameConfig
) -> MonteCarloEstimate:
    """Play the game config.n_samples times with a seeded Philox stream.

    Plays are i.i.d.; the full committed work is credited on each total
    match. Results are a pure function of (distribution, strategy, seed,
    n_samples), so replay is exact. The plays are the support entries
    ``sample_indices`` draws, taken in ascending order, and each is matched
    through the plan's image of the support: the order does not change the
    number of wins, so the rate is the one matching the draws in order gives.
    """
    _check_bets(dist.n, strategy.bets)
    picks = _sorted_picks(dist, make_rng(config.seed), config.n_samples)
    wins = _match_mask(strategy.plan.image(dist)[picks], dist.n, strategy.bets)
    rate = float(wins.mean())
    stderr = math.sqrt(rate * (1.0 - rate) / config.n_samples)
    return MonteCarloEstimate(
        success_rate=rate,
        mean_work=rate * strategy.committed_work,
        stderr=stderr,
        seed=config.seed,
        n_samples=config.n_samples,
    )


def check_inequalities(
    dist: ExplicitDistribution,
    strategy: Strategy,
    exact: ExactResult,
    eps: float,
    c: float,
) -> list[str]:
    """Consistency checks a finished game run must satisfy; empty when sound."""
    violations = []
    bounds = work_bounds(dist, eps, c) if eps > 0 else None
    if bounds is not None and eps <= 1.0 / 3.0:
        # provable only for eps <= 1/3 under mass-removal smoothing
        if bounds.min_work.bits > bounds.max_work.bits + 1e-9:
            violations.append(
                f"risk-free work {bounds.min_work.bits:.6g} bits exceeds the "
                f"gambling bound {bounds.max_work.bits:.6g} bits"
            )
    if eps > 0.0 and exact.success_prob > eps:
        cap = dist.n - h_min(dist) + math.log2(1.0 / eps)
        if not len(strategy.bets) < cap:
            violations.append(
                f"{len(strategy.bets)} bets succeed with p={exact.success_prob:.6g} "
                f"> eps but reach the marginal-peak cap {cap:.6g}"
            )
    return violations
