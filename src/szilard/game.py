"""The work-extraction game and its two enveloping bounds.

An agent holding n boxes of work value c = kT ln 2 presets, in advance of
any extraction, the canonical bet: compress the table (sort its outcomes by
descending probability), guess L on its leading b boxes and commit the
weight b * c. Extraction succeeds, paying the committed work, exactly when
every guessed box reads L, that is on the 2^(n-b) most likely outcomes.
Other relabelings and bets are played by ``oracle.relabeled_game_eval``.

Two closed-form figures envelope all risk preferences:

* risk-free work  (n - H_max^eps) * c  -- achievable with failure
  probability at most eps by compressing and betting the leading boxes;
* gambling bound  (n - H_min^eps + log2(1/eps)) * c  -- no strategy that
  succeeds with probability above 2 eps can commit more. A bet on b boxes
  wins on one cell of 2^(n-b) outcomes, which holds at most
  eps + 2^(n-b) 2^(-H_min^eps), so success P > eps needs
  b <= n - H_min^eps + log2(1/(P - eps)); at P > 2 eps that is the figure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .compress import canonical_permutation
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
    BadSeed,
    InvalidBets,
    NonpositiveTemperature,
    TooLarge,
)
from .probdist import ExplicitDistribution, _draws_in
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
        _check_temperature(self.temperature)
        if not 0.0 <= self.epsilon < 1.0:
            raise BadEpsilon(f"epsilon {self.epsilon}")
        if self.seed < 0:  # checked here too: a bet that wins every play draws nothing
            raise BadSeed(f"seed {self.seed} is negative")
        if self.n_samples < 1:
            raise BadSampleCount(f"need at least one Monte Carlo sample, got {self.n_samples}")
        if self.n_samples > 10**7:  # Monte Carlo holds about 17 bytes per play
            raise TooLarge(f"{self.n_samples} Monte Carlo samples exceed 10**7")

    @property
    def work_value(self) -> float:
        return work_unit(self.temperature).joules


@dataclass(frozen=True)
class Strategy:
    """Compress ``table``, bet L on boxes 0..bet_count-1 and commit the
    weight; ``bets`` and ``plan`` are derived, and only ``table`` is played.
    ``plan`` is read only by the benchmark's tracer, for its plan bytes."""

    table: ExplicitDistribution
    bet_count: int
    committed_work: float  # joules, equals bet_count * c

    def __post_init__(self):
        if not 0 <= self.bet_count <= self.table.n:
            raise BadBetSize(f"bet count {self.bet_count} outside [0, {self.table.n}]")

    @property
    def bets(self) -> tuple[tuple[int, int], ...]:
        return tuple((pos, 0) for pos in range(self.bet_count))  # (box position, guess)

    @property
    def plan(self):  # the table's canonical compress.CompressionPlan; only the benchmark reads it
        return canonical_permutation(self.table)


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


def _check_temperature(temperature: float):
    if not 0.0 < temperature < math.inf:  # NaN fails too
        raise NonpositiveTemperature(f"temperature {temperature} K is not finite and positive")


def work_unit(temperature: float) -> Work:
    """Work value of one perfectly known box at the given temperature."""
    _check_temperature(temperature)
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
    """(n - H_min^eps + log2(1/eps)) * c, the cap for success probability > 2 eps.

    Success just above eps can commit more: the cap for success P > eps is
    n - H_min^eps + log2(1/(P - eps)), which ``check_inequalities`` checks.
    """
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


def _cell_size(dist: ExplicitDistribution, strategy: Strategy) -> int:
    """How many outcomes L on boxes 0..b-1 of the compressed table wins on,
    the 2^(n-b) most likely; a strategy is played on its own table only."""
    if strategy.table is not dist:
        raise InvalidBets("a strategy is played only on the table it was built for")
    return 1 << (dist.n - strategy.bet_count)


def _wins(dist: ExplicitDistribution, strategy: Strategy):
    """Monte Carlo's win mask, the one a game builds: ``dist.top`` of the cell."""
    return dist.top(_cell_size(dist, strategy))


def exact_evaluate(dist: ExplicitDistribution, strategy: Strategy) -> ExactResult:
    """Success probability of a strategy and the work it earns in expectation:
    the mass of the 2^(n-b) most likely outcomes, added level by level by
    ``Spectrum.top`` with no mask; failure pays nothing."""
    success = dist.levels.top(_cell_size(dist, strategy))[2]
    return ExactResult(success, success * strategy.committed_work)


def build_riskfree_strategy(dist: ExplicitDistribution, eps: float, c: float) -> Strategy:
    """Compress, then bet L on every box left of the smoothed support.

    The retained support (the top k outcomes) lands on indices below
    2^ceil(log2 k) after compression, so the leading n - ceil(log2 k) boxes
    read L unless a deleted (total mass <= eps) outcome occurred.
    """
    bet_count = riskfree_bet_count(dist, eps)
    return Strategy(dist, bet_count, bet_count * c)


def build_gambler_strategy(dist: ExplicitDistribution, m: int, c: float) -> Strategy:
    """Compress, then bet L on the leading m boxes: the best m-box bet.

    Any guess on m boxes wins on one cell of 2^(n-m) outcomes, so no bet
    succeeds with more than the mass of the top 2^(n-m) outcomes (the
    Ky-Fan sum). Compression puts exactly those outcomes on indices below
    2^(n-m), the cell where boxes 0..m-1 all read L, which reaches it.
    """
    if not 1 <= m <= dist.n:
        raise BadBetSize(f"bet size {m} outside [1, {dist.n}]")
    return Strategy(dist, m, m * c)


def monte_carlo(
    dist: ExplicitDistribution, strategy: Strategy, config: GameConfig
) -> MonteCarloEstimate:
    """Play the game config.n_samples times with a seeded Philox stream.

    Plays are i.i.d.; the full committed work is credited on each total
    match. Results are a pure function of (distribution, strategy, seed,
    n_samples), so replay is exact. The plays are the draws of
    ``sample_indices``, and the wins are those landing in the top-K mask.
    They are counted from the sorted uniforms and the cdf at the mask's
    edges, the entries where it flips, so no support-sized cdf is held;
    the count is the number of matching draws, so the rate is the one
    matching the draws in order gives. A bet that
    wins on the whole support wins every play, so nothing is drawn: each
    draw picks a support entry, and the generator is the call's own.
    """
    wins = _wins(dist, strategy)
    if wins is None:
        hits = config.n_samples
    else:
        hits = _draws_in(dist, wins, make_rng(config.seed), config.n_samples)
    rate = hits / config.n_samples
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
        if not strategy.bet_count < cap:
            violations.append(
                f"{strategy.bet_count} bets succeed with p={exact.success_prob:.6g} "
                f"> eps but reach the marginal-peak cap {cap:.6g}"
            )
        # the winning cell holds at most eps + 2^(n-b) 2^(-H_min^eps)
        smoothed_cap = (
            bounds.max_work.bits - math.log2(1.0 / eps)
            + math.log2(1.0 / (exact.success_prob - eps))
        )
        if strategy.bet_count > smoothed_cap + 1e-9:
            violations.append(
                f"{strategy.bet_count} bets succeed with p={exact.success_prob:.6g} "
                f"> eps but exceed the smoothed cap {smoothed_cap:.6g}"
            )
    return violations
