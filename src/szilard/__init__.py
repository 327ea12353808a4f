"""Smooth min/max entropies and work extraction for two-state box ensembles.

A box holds one particle on the left (L) or right (R) of a divider at
temperature T; knowing its side is worth c = kT ln 2 of work. This package
computes exact and epsilon-smoothed Shannon/min/max entropies of
distributions over n such boxes, evaluates the risk-free and gambling work
figures those entropies induce, and simulates the betting game that
realizes them, with brute-force oracles validating every fast path at desk
scale.
"""

__version__ = "0.1.0"

from .compress import canonical_permutation
from .entropy import (
    CutLevel,
    EntropyReport,
    Spectrum,
    binary_entropy,
    h_max,
    h_max_smooth,
    h_max_smooth_detail,
    h_min,
    h_min_smooth,
    h_min_smooth_detail,
    shannon,
    smooth_report,
    spectrum,
)
from .game import (
    BOLTZMANN_J_PER_K,
    ELECTRON_VOLT_J,
    ExactResult,
    GameConfig,
    MonteCarloEstimate,
    Strategy,
    Work,
    WorkBounds,
    build_gambler_strategy,
    build_riskfree_strategy,
    check_inequalities,
    exact_evaluate,
    gambler_work_bound,
    monte_carlo,
    riskfree_work,
    riskfree_work_executable,
    shannon_limit_work,
    work_bounds,
    work_unit,
)
from .probdist import (
    DEFAULT_EXPLICIT_CAP,
    ExplicitDistribution,
    MixtureOfProducts,
    TypeClassView,
    bernoulli_product,
    explicit_of,
    make_explicit,
    mixture,
    point_mass,
    sample_indices,
    to_type_classes,
    uniform_product,
)
from .rng import make_rng

__all__ = [name for name in dir() if not name.startswith("_")]
