import json
import math

import numpy as np
import pytest

from szilard import (
    GameConfig,
    Strategy,
    bernoulli_product,
    build_gambler_strategy,
    build_riskfree_strategy,
    canonical_permutation,
    exact_evaluate,
    explicit_of,
    gambler_work_bound,
    h_max_smooth,
    h_max_smooth_detail,
    h_min,
    h_min_smooth,
    h_min_smooth_detail,
    make_explicit,
    mixture,
    monte_carlo,
    point_mass,
    riskfree_work,
    riskfree_work_executable,
    shannon_limit_work,
    uniform_product,
    work_bounds,
    work_unit,
)
from szilard import compress, entropy, game, probdist
from szilard.compress import CompressionPlan
from szilard.errors import (
    ArityMismatch,
    BadBetSize,
    BadEpsilon,
    BadSampleCount,
    BadSeed,
    InvalidBets,
    NonpositiveTemperature,
    TooLarge,
)
from szilard.game import (
    ExactResult,
    MonteCarloEstimate,
    check_inequalities,
    riskfree_bet_count,
)
from szilard.probdist import _sorted_picks, sample_indices
from szilard.rng import make_rng
from szilard.oracle import exhaustive_gambler_search, exhaustive_game_eval

from util import random_explicit

C300_J = 2.870978885078724e-21
C300_EV = 0.0179192407638041


def row3_mixture(n):
    return mixture([0.5, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.5, n)])


def row4_mixture(n):
    return mixture([0.5, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.0, n)])


# -------------------------------------------------------------- work unit


def test_work_unit_room_temperature():
    c = work_unit(300.0)
    assert c.joules == pytest.approx(C300_J, rel=1e-12)
    assert c.ev == pytest.approx(C300_EV, rel=1e-12)


def test_work_unit_is_linear_in_temperature():
    assert work_unit(600.0).joules == 2.0 * work_unit(300.0).joules


def test_work_unit_rejects_nonpositive_temperature():
    with pytest.raises(NonpositiveTemperature):
        work_unit(0.0)
    with pytest.raises(NonpositiveTemperature):
        work_unit(-10.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonpositiveTemperature):
            work_unit(bad)
        with pytest.raises(NonpositiveTemperature):
            GameConfig(temperature=bad)


# -------------------------------------------------------------- risk-free


def test_riskfree_work_two_spike_family():
    w = riskfree_work(row4_mixture(20), 1e-3, work_unit(300).joules)
    assert w.bits == 19.0


def test_riskfree_work_nearly_zero_for_half_deterministic_mixture():
    m = row3_mixture(20)
    w = riskfree_work(m, 1e-3, 1.0)
    assert w.bits <= 1.1
    assert h_max_smooth(m, 1e-3) >= 20 + math.log2(1 - 2e-3) - 1


def test_riskfree_work_point_mass():
    w = riskfree_work(point_mass("LLLL"), 0.0, work_unit(300).joules)
    assert w.bits == 4.0
    assert w.joules == pytest.approx(4 * C300_J, rel=1e-12)


def test_riskfree_executable_floors_to_whole_boxes(rng):
    for _ in range(20):
        d = random_explicit(rng, 5)
        eps = float(rng.uniform(0.0, 0.2))
        real = riskfree_work(d, eps, 1.0).bits
        integer = riskfree_work_executable(d, eps, 1.0).bits
        assert integer == float(int(integer))
        assert integer <= real + 1e-12
        assert real - integer < 1.0 + 1e-12


def det_plus_uniform(n, w):
    return mixture([1.0 - w, w], [bernoulli_product(1.0, n), uniform_product(n)])


def test_riskfree_bet_count_one_above_a_power_of_two():
    # eps buys 2^39 - 1/2 of the 2^40 - 1 outcomes of probability 0.001 * 2^-40:
    # 2^39 + 1 outcomes stay, and telling them apart takes all 40 boxes
    m = det_plus_uniform(40, 0.001)
    eps = (2**39 - 0.5) * 0.001 * 2.0**-40
    assert h_max_smooth_detail(m, eps).retained_count == 2**39 + 1
    assert riskfree_bet_count(m, eps) == 0
    assert riskfree_work_executable(m, eps, 1.0).bits == 0.0


def test_riskfree_bet_count_at_an_exact_power_of_two():
    assert h_max_smooth_detail(uniform_product(40), 0.0).retained_count == 2**40
    assert riskfree_bet_count(uniform_product(40), 0.0) == 0


def test_riskfree_bet_count_exact_next_to_every_power_of_two():
    n, w = 40, 0.001
    m = det_plus_uniform(n, w)
    low = w * 2.0**-n  # probability of each outcome but the all-L one
    for k in range(1, n):
        for retained in (2**k, 2**k + 1):
            # the budget deletes all but `retained` outcomes, with half of one to spare
            eps = (2**n - retained + 0.5) * low
            assert h_max_smooth_detail(m, eps).retained_count == retained
            assert riskfree_bet_count(m, eps) == n - (retained - 1).bit_length()


# ---------------------------------------------------------- gambling bound


def test_gambler_bound_half_deterministic_mixture():
    w = gambler_work_bound(row3_mixture(20), 1e-3, 1.0)
    assert abs(w.bits - 20.0) <= 1.0 + math.log2(1000.0)


def test_gambler_bound_uniform():
    w = gambler_work_bound(uniform_product(10), 1e-3, 1.0)
    assert w.bits == pytest.approx(math.log2(1.0 / 1e-3), abs=0.01)


def test_gambler_bound_bernoulli_1000_room_temperature():
    w = gambler_work_bound(bernoulli_product(0.7, 1000), 2e-4, C300_J)
    assert abs(w.ev - 3.5) <= 0.35
    assert w.ev == pytest.approx(3.43153, abs=1e-4)  # frozen exact value


def test_gambler_bound_rejects_zero_epsilon():
    with pytest.raises(BadEpsilon):
        gambler_work_bound(uniform_product(2), 0.0, 1.0)


def test_benchmark_pair_recovered_at_small_epsilon():
    # with the support-size smoothing, 1.0 eV / 3.5 eV appear jointly
    # around eps ~ 1e-5 at 300 K (frozen: 1.0636 eV and 3.7304 eV)
    m = bernoulli_product(0.7, 1000)
    lo = riskfree_work(m, 1e-5, C300_J)
    hi = gambler_work_bound(m, 1e-5, C300_J)
    assert abs(lo.ev - 1.0) <= 0.1
    assert abs(hi.ev - 3.5) <= 0.35
    assert lo.ev == pytest.approx(1.06364, abs=1e-4)
    assert hi.ev == pytest.approx(3.73043, abs=1e-4)


# ------------------------------------------------------------ shannon limit


def test_shannon_limit_endpoints():
    assert shannon_limit_work(0.5, 7, 1.0).bits == 0.0
    assert shannon_limit_work(1.0, 7, 1.0).bits == 7.0


def test_shannon_limit_bernoulli_07_at_1000():
    w = shannon_limit_work(0.7, 1000, C300_J)
    assert w.bits == pytest.approx(118.70910076930741, rel=1e-9)
    assert w.ev == pytest.approx(2.127176957539902, rel=1e-9)
    bounds = work_bounds(bernoulli_product(0.7, 1000), 2e-4, C300_J)
    assert bounds.min_work.ev < w.ev < bounds.max_work.ev


# ------------------------------------------------------------ exact & bets


def test_exact_evaluate_known_single_box():
    d = point_mass("L")
    s = build_riskfree_strategy(d, 0.0, C300_J)
    result = exact_evaluate(d, s)
    assert result.success_prob == 1.0
    assert result.expected_work == pytest.approx(C300_J, rel=1e-12)


def test_exact_evaluate_uniform_bit_bet():
    d = explicit_of(uniform_product(1))
    plan = canonical_permutation(d)
    s = Strategy(plan, ((0, 0),), C300_J)
    result = exact_evaluate(d, s)
    assert result.success_prob == 0.5
    assert result.expected_work == pytest.approx(C300_J / 2, rel=1e-12)


def test_exact_evaluate_matches_exhaustive_enumeration(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        d = random_explicit(rng, n)
        perm = rng.permutation(1 << n).astype(np.int64)
        k = int(rng.integers(1, n + 1))
        positions = rng.choice(n, size=k, replace=False)
        bets = tuple((int(p), int(rng.integers(0, 2))) for p in sorted(positions))
        s = Strategy(CompressionPlan(n, perm), bets, k * 1.0)
        mine = exact_evaluate(d, s)
        ref = exhaustive_game_eval(d, s)
        assert mine.success_prob == pytest.approx(ref.success_prob, abs=1e-12)
        assert mine.expected_work == pytest.approx(ref.expected_work, abs=1e-12)


def test_exact_evaluate_rejects_bad_bets():
    d = explicit_of(uniform_product(2))
    plan = canonical_permutation(d)
    with pytest.raises(InvalidBets):
        exact_evaluate(d, Strategy(plan, ((0, 0), (0, 1)), 2.0))
    with pytest.raises(InvalidBets):
        exact_evaluate(d, Strategy(plan, ((5, 0),), 1.0))
    with pytest.raises(InvalidBets):
        exact_evaluate(d, Strategy(plan, ((0, 2),), 1.0))


# ------------------------------------------------------------- strategies


def test_riskfree_strategy_on_correlated_pair():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    s = build_riskfree_strategy(d, 0.0, C300_J)
    assert s.bets == ((0, 0),)
    result = exact_evaluate(d, s)
    assert result.success_prob == 1.0
    assert s.committed_work == pytest.approx(C300_J, rel=1e-12)


def test_riskfree_strategy_on_worked_example():
    pex = make_explicit(3, [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5)])
    s = build_riskfree_strategy(pex, 2e-5, C300_J)
    assert len(s.bets) == 2
    assert exact_evaluate(pex, s).success_prob >= 1 - 2e-5


def test_riskfree_strategy_on_point_mass():
    d = point_mass("RLR")
    for eps in (0.0, 0.1, 0.5):
        s = build_riskfree_strategy(d, eps, 1.0)
        assert len(s.bets) == 3
        assert exact_evaluate(d, s).success_prob == 1.0


def test_gambler_strategy_full_bet_is_modal(rng):
    for _ in range(10):
        d = random_explicit(rng, 4)
        s = build_gambler_strategy(d, 4, 1.0)
        assert exact_evaluate(d, s).success_prob == pytest.approx(d.p_max, abs=1e-12)


def test_gambler_strategy_half_deterministic_mixture():
    d = explicit_of(row3_mixture(10))
    s = build_gambler_strategy(d, 10, C300_J)
    result = exact_evaluate(d, s)
    assert result.success_prob == pytest.approx(0.5 + 2.0**-11, abs=1e-12)
    assert s.committed_work == pytest.approx(10 * C300_J, rel=1e-12)


def test_gambler_strategy_beats_random_bet_sets(rng):
    d = random_explicit(rng, 6)
    m = 3
    best = exact_evaluate(d, build_gambler_strategy(d, m, 1.0)).success_prob
    plan = canonical_permutation(d)
    for _ in range(1000):
        positions = sorted(int(x) for x in rng.choice(6, size=m, replace=False))
        bets = tuple((p, int(rng.integers(0, 2))) for p in positions)
        rival = exact_evaluate(d, Strategy(plan, bets, float(m))).success_prob
        assert best >= rival - 1e-12


def test_gambler_strategy_matches_exhaustive_search(rng):
    for trial in range(240):
        n = int(rng.integers(1, 9))
        d = random_explicit(rng, n, levels=(1.0, 2.0, 3.0) if trial % 2 else None)
        m = int(rng.integers(1, n + 1))
        bets, peak = exhaustive_gambler_search(d, m)
        s = build_gambler_strategy(d, m, 1.0)
        assert s.bets == bets
        top = math.fsum(np.sort(d.probs)[::-1][: 1 << (n - m)].tolist())
        assert exact_evaluate(d, s).success_prob == pytest.approx(top, abs=1e-12)
        assert peak == pytest.approx(top, abs=1e-12)


def test_gambler_strategy_bets_leading_boxes_beyond_sixteen():
    d = explicit_of(bernoulli_product(0.7, 18))
    s = build_gambler_strategy(d, 5, 1.0)
    assert s.bets == tuple((pos, 0) for pos in range(5))
    assert exact_evaluate(d, s).success_prob == pytest.approx(0.43022131113874296, abs=1e-12)


def test_gambler_strategy_bad_bet_size():
    d = explicit_of(uniform_product(2))
    with pytest.raises(BadBetSize):
        build_gambler_strategy(d, 0, 1.0)
    with pytest.raises(BadBetSize):
        build_gambler_strategy(d, 3, 1.0)


# ------------------------------------------------------------- monte carlo


def test_monte_carlo_point_mass_is_certain():
    d = point_mass("LL")
    s = build_riskfree_strategy(d, 0.0, C300_J)
    mc = monte_carlo(d, s, GameConfig(seed=11, n_samples=5000))
    assert mc.success_rate == 1.0
    assert mc.mean_work == pytest.approx(2 * C300_J, rel=1e-12)


def test_monte_carlo_replay_is_exact(rng):
    d = random_explicit(rng, 4)
    s = build_riskfree_strategy(d, 0.05, C300_J)
    cfg = GameConfig(seed=123, n_samples=20_000)
    a = monte_carlo(d, s, cfg)
    b = monte_carlo(d, s, cfg)
    assert a == b
    assert json.dumps(a.__dict__) == json.dumps(b.__dict__)


def test_monte_carlo_brackets_exact_success(rng):
    misses = 0
    for seed in range(40):
        d = random_explicit(rng, int(rng.integers(1, 5)))
        s = build_gambler_strategy(d, int(rng.integers(1, d.n + 1)), 1.0)
        exact = exact_evaluate(d, s).success_prob
        mc = monte_carlo(d, s, GameConfig(seed=seed, n_samples=10_000))
        band = 4 * mc.stderr
        if abs(mc.success_rate - exact) > band and band > 0:
            misses += 1
    assert misses <= 1


def _draw_by_draw(d, s, config):
    """Monte Carlo the way it was first written: one index per play, relabeled
    through the dense permutation and matched against the bets."""
    draws = sample_indices(d, make_rng(config.seed), config.n_samples)
    permuted = s.plan.permutation[draws]
    mask = want = 0
    for pos, val in s.bets:
        mask |= 1 << (d.n - 1 - pos)
        want |= val << (d.n - 1 - pos)
    rate = float(((permuted & mask) == want).mean())
    return MonteCarloEstimate(
        rate, rate * s.committed_work, math.sqrt(rate * (1.0 - rate) / config.n_samples),
        config.seed, config.n_samples,
    )


def test_monte_carlo_equals_the_draw_by_draw_reference(rng):
    for i in range(200):
        n = int(rng.integers(1, 9))
        kind = i % 5
        if kind == 0:
            d = random_explicit(rng, n)
        elif kind == 1:  # sparse: support far below the 2^n outcomes
            d = random_explicit(rng, n + 8, int(rng.integers(2, 300)))
        elif kind == 2:
            d = random_explicit(rng, n, levels=(1.0, 2.0, 3.0))
        elif kind == 3:
            d = random_explicit(rng, n, 1)
        else:
            d = explicit_of(bernoulli_product(float(rng.uniform(0.05, 0.95)), n + 4))
        config = GameConfig(
            seed=int(rng.integers(2**32)), n_samples=int(rng.choice([1, 9, 100, 5000]))
        )
        m = int(rng.integers(1, d.n + 1))
        strategies = [
            build_riskfree_strategy(d, float(rng.uniform(0.0, 0.3)), 1.0),
            build_gambler_strategy(d, m, 1.5),
        ]
        if d.n <= 10:  # a random dense relabeling, as in criteria 6 and 10
            positions = sorted(rng.choice(d.n, size=m, replace=False).tolist())
            bets = tuple((p, int(rng.integers(0, 2))) for p in positions)
            perm = rng.permutation(1 << d.n).astype(np.int64)
            strategies.append(Strategy(CompressionPlan(d.n, perm), bets, float(m)))
        for s in strategies:
            assert monte_carlo(d, s, config) == _draw_by_draw(d, s, config)
            permuted = s.plan.permutation[d.indices]
            hit = np.ones(d.support_size, dtype=bool)
            for pos, val in s.bets:
                hit &= ((permuted >> (d.n - 1 - pos)) & 1) == val
            assert exact_evaluate(d, s).success_prob == float(d.probs[hit].sum())


def test_game_on_an_explicit_table_builds_no_dense_permutation(monkeypatch):
    d = explicit_of(bernoulli_product(0.7, 12))
    dense = compress._dense_permutation

    def refuse(*args):
        raise AssertionError("the game must not build the dense permutation")

    sorts = []  # the size of the array each np.unique call sorts
    unique = np.unique

    def counting_unique(ar, *args, **kwargs):
        sorts.append(np.asarray(ar).size)
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(compress, "_dense_permutation", refuse)
    monkeypatch.setattr(np, "unique", counting_unique)
    s = build_riskfree_strategy(d, 1e-3, 1.0)
    exact = exact_evaluate(d, s)
    mc = monte_carlo(d, s, GameConfig(seed=5, n_samples=20_000))
    assert check_inequalities(d, s, exact, 1e-3, 1.0) == []
    work_bounds(d, 1e-3, 1.0)
    assert sorts == []  # the table took its levels from its type classes
    assert "permutation" not in vars(s.plan) and "ranks" not in vars(s.plan)
    # a gambler op on a fresh table: only its n + 1 class probabilities are
    # sorted, and no ranks are built either
    g_table = explicit_of(bernoulli_product(0.6, 11))
    g = build_gambler_strategy(g_table, 4, 1.0)
    g_exact = exact_evaluate(g_table, g)
    monte_carlo(g_table, g, GameConfig(seed=6, n_samples=20_000))
    assert check_inequalities(g_table, g, g_exact, 1e-3, 1.0) == []
    assert sorts and max(sorts) <= 11 + 1
    assert "permutation" not in vars(g.plan) and "ranks" not in vars(g.plan)
    monkeypatch.setattr(compress, "_dense_permutation", dense)
    # the lazily built relabeling is the one the ranks describe
    assert np.array_equal(s.plan.permutation[d.indices], s.plan.ranks)
    assert mc == _draw_by_draw(d, s, GameConfig(seed=5, n_samples=20_000))


def _pick_form(d, s, config):
    """Monte Carlo with one pick per play: the sorted picks looked up in the
    win mask, as the count was first taken on the sorted stream."""
    picks = _sorted_picks(d, make_rng(config.seed), config.n_samples)
    wins = game._wins(d, s)
    if wins is None:  # the winning cell holds the whole support
        wins = np.ones(d.support_size, dtype=bool)
    rate = float(wins[picks].mean())
    return MonteCarloEstimate(
        rate, rate * s.committed_work, math.sqrt(rate * (1.0 - rate) / config.n_samples),
        config.seed, config.n_samples,
    )


def _leading_bets(d):
    """Every canonical bet on the table: b = 0 (all win) to b = n, and the risk-free one."""
    plan = canonical_permutation(d)
    bets = [Strategy(plan, tuple((p, 0) for p in range(b)), float(b)) for b in range(d.n + 1)]
    return bets + [build_riskfree_strategy(d, 1e-3, 1.0)]


@pytest.mark.parametrize("size", [1, 7, 5000])
def test_monte_carlo_counts_alike_on_either_side_of_the_sample_count(rng, size):
    # a support of at most n_samples entries counts hits per entry; a larger
    # one looks up one pick per play
    for k in (size - 1, size, size + 1):
        if k < 1:
            continue
        n = max(1, (k - 1).bit_length())
        for d in (random_explicit(rng, n, k), random_explicit(rng, n + 1, k, levels=(1.0, 2.0))):
            config = GameConfig(seed=int(rng.integers(2**32)), n_samples=size)
            for s in _leading_bets(d) + [Strategy(canonical_permutation(d), ((0, 1),), 1.0)]:
                mc = monte_carlo(d, s, config)
                assert mc == _pick_form(d, s, config) == _draw_by_draw(d, s, config)


def test_draws_in_a_mask_are_the_picks_in_it(rng):
    plateau = [0.25, 5e-324, 0.25, 1e-323, 5e-324, 0.25, 5e-324, 0.25]
    tables = [
        point_mass("LR"),
        make_explicit(3, list(enumerate(plateau))),  # a cdf flat across the tiny entries
        make_explicit(3, list(enumerate(plateau[::-1]))),
        make_explicit(10, [(i, 5e-324 if i % 3 else 1 / 342) for i in range(1 << 10)]),
        random_explicit(rng, 20, 3),  # sparse: a support far below the 2^n outcomes
        random_explicit(rng, 20, 999),
        random_explicit(rng, 9, 1 << 9),
    ]
    for d in tables:
        k = d.support_size
        masks = [np.ones(k, dtype=bool), np.zeros(k, dtype=bool)]
        masks += [rng.random(k) < f for f in (0.1, 0.5, 0.9)]
        for size in sorted({1, 7, max(1, k - 1), k, k + 1, 5000}):
            for mask in masks:
                seed = int(rng.integers(2**32))
                gen_a, gen_b = make_rng(seed), make_rng(seed)
                wins = probdist._draws_in(d, mask, gen_a, size)
                assert type(wins) is int
                assert wins == int(mask[_sorted_picks(d, gen_b, size)].sum())
                assert gen_a.random() == gen_b.random()
            assert probdist._draws_in(d, masks[0], make_rng(1), size) == size
            assert probdist._draws_in(d, masks[1], make_rng(1), size) == 0


class _FixedUniforms:
    """A generator stand-in that draws the given uniforms."""

    def __init__(self, u):
        self.u = np.array(u)

    def random(self, size):
        return self.u[:size].copy()


def test_draws_on_a_cdf_entry_pick_the_next_entry():
    # cdf = [0.25, 0.5, 1.0]; a draw equal to cdf[i] picks entry i + 1
    d = make_explicit(2, [("LL", 0.25), ("LR", 0.25), ("RL", 0.5)])
    u = [0.5, 0.25, 0.0, 0.75, 0.25, 0.49999999999999994]
    for size in (len(u), 2):  # k = 3 entries: hits per entry, then one pick per play
        assert _sorted_picks(d, _FixedUniforms(u), size).tolist() == sorted(
            [2, 1, 0, 2, 1, 1][:size]
        )
        for bits in range(8):
            mask = np.array([bits >> i & 1 for i in range(3)], dtype=bool)
            picks = _sorted_picks(d, _FixedUniforms(u), size)
            assert probdist._draws_in(d, mask, _FixedUniforms(u), size) == mask[picks].sum()


def test_monte_carlo_on_plateaus_and_sparse_tables(rng):
    tiny = make_explicit(10, [(i, 5e-324 if i % 3 else 1 / 342) for i in range(1 << 10)])
    sparse = [random_explicit(rng, 20, k) for k in (2, 50, 999)]
    for d in [tiny] + sparse:
        for size in (1, 7, 1000, 5000):
            config = GameConfig(seed=int(rng.integers(2**32)), n_samples=size)
            for s in _leading_bets(d):
                assert monte_carlo(d, s, config) == _pick_form(d, s, config)
    s = _leading_bets(tiny)[0]  # b = 0: every play wins
    assert monte_carlo(tiny, s, GameConfig(n_samples=777)).success_rate == 1.0
    s = build_gambler_strategy(tiny, 10, 1.0)  # only the top outcome wins
    config = GameConfig(seed=3, n_samples=3000)
    assert monte_carlo(tiny, s, config) == _draw_by_draw(tiny, s, config)


def _rank_path(d, s, config):
    """Exact success and Monte Carlo matched through the plan's ranks."""
    ranks = s.plan.ranks
    success = float(d.probs[game._match_mask(ranks, d.n, s.bets)].sum())
    picks = _sorted_picks(d, make_rng(config.seed), config.n_samples)
    rate = float(game._match_mask(ranks[picks], d.n, s.bets).mean())
    mc = MonteCarloEstimate(
        rate, rate * s.committed_work, math.sqrt(rate * (1.0 - rate) / config.n_samples),
        config.seed, config.n_samples,
    )
    return ExactResult(success, success * s.committed_work), mc


@pytest.mark.parametrize("kind", ["distinct", "tied", "flat", "sparse"])
def test_canonical_bets_win_as_the_rank_path(rng, kind):
    for _ in range(12):
        n = int(rng.integers(1, 13))
        if kind == "distinct":
            d = random_explicit(rng, n)
        elif kind == "tied":
            d = random_explicit(rng, n, levels=(1.0, 2.0, 3.0))
        elif kind == "flat":
            d = random_explicit(rng, n, levels=(1.0,))
        else:
            d = random_explicit(rng, n, int(rng.integers(1, min(40, 1 << n) + 1)))
        config = GameConfig(seed=int(rng.integers(2**32)), n_samples=int(rng.choice([1, 50, 3000])))
        plan = canonical_permutation(d)
        strategies = [Strategy(plan, tuple((p, 0) for p in range(b)), float(b)) for b in range(n + 1)]
        strategies.append(build_riskfree_strategy(d, float(rng.uniform(0.0, 0.3)), 1.0))
        # bets off the leading L run go through the ranks
        strategies.append(Strategy(plan, ((0, 1),), 1.0))
        if n > 1:
            strategies.append(Strategy(plan, ((1, 0),), 1.0))
            strategies.append(Strategy(plan, ((0, 0), (1, 1)), 2.0))
        for s in strategies:
            fresh = Strategy(canonical_permutation(d), s.bets, s.committed_work)
            exact, mc = exact_evaluate(d, fresh), monte_carlo(d, fresh, config)
            assert (exact, mc) == _rank_path(d, s, config)


def _mask_path(d, s, config):
    """Exact success and Monte Carlo through an all-true win mask: the
    masked copy summed, and the draws counted in it."""
    mask = np.ones(d.support_size, dtype=bool)
    success = float(d.probs[mask].sum())
    rate = probdist._draws_in(d, mask, make_rng(config.seed), config.n_samples) / config.n_samples
    mc = MonteCarloEstimate(
        rate, rate * s.committed_work, math.sqrt(rate * (1.0 - rate) / config.n_samples),
        config.seed, config.n_samples,
    )
    return ExactResult(success, success * s.committed_work), mc


@pytest.mark.parametrize("kind", ["dense", "sparse", "flat", "witness"])
def test_bets_whose_cell_holds_the_support_score_as_the_mask_path(rng, kind):
    for _ in range(12):
        n = int(rng.integers(1, 13))
        if kind == "dense":
            d = explicit_of(bernoulli_product(float(rng.uniform(0.05, 0.95)), n))
        elif kind == "sparse":
            d = random_explicit(rng, n + 6, int(rng.integers(1, 100)))
        elif kind == "flat":
            d = random_explicit(rng, n, levels=(1.0,))
        else:  # subnormalized: a smoothing witness sums to at least 1 - eps
            source = random_explicit(rng, n)
            eps = float(rng.uniform(0.01, 0.3))
            detail = h_min_smooth_detail if rng.random() < 0.5 else h_max_smooth_detail
            d = detail(source, eps).witness
        config = GameConfig(seed=int(rng.integers(2**32)), n_samples=int(rng.choice([1, 50, 3000])))
        plan = canonical_permutation(d)
        covering = [b for b in range(d.n + 1) if 1 << (d.n - b) >= d.support_size]
        assert covering and covering[0] == 0
        for b in covering:
            s = Strategy(plan, tuple((p, 0) for p in range(b)), float(b))
            assert game._wins(d, s) is None
            assert (exact_evaluate(d, s), monte_carlo(d, s, config)) == _mask_path(d, s, config)
            assert exact_evaluate(d, s).success_prob == d.total()
        # the next bet splits the support; other bets and plans are matched
        identity = CompressionPlan(d.n, np.arange(1 << d.n))
        others = [Strategy(plan, ((0, 1),), 1.0), Strategy(identity, (), 0.0)]
        if covering[-1] < d.n:
            others.append(Strategy(plan, tuple((p, 0) for p in range(covering[-1] + 1)), 0.0))
        assert not any(game._wins(d, s) is None for s in others)


def test_the_riskfree_game_reads_no_index_range():
    d = explicit_of(bernoulli_product(0.7, 20))
    eps = 1e-3
    entropy.smooth_report(d, eps)
    s = build_riskfree_strategy(d, eps, 1.0)
    exact = exact_evaluate(d, s)
    mc = monte_carlo(d, s, GameConfig(epsilon=eps, seed=7))
    assert check_inequalities(d, s, exact, eps, 1.0) == []
    assert game._wins(d, s) is None and mc.success_rate == 1.0
    assert exact.success_prob == float(d.probs.sum())
    assert "indices" not in vars(d)
    assert np.array_equal(d.indices, np.arange(1 << 20)) and not d.indices.flags.writeable


# ---------------------------------------------------------------- theorems


def test_riskfree_rate_approaches_shannon_limit():
    # the risk-free rate converges to 1 - h(p): same limit as the
    # thermodynamic formula, approached from below as n grows
    from szilard.entropy import binary_entropy

    target = 1.0 - binary_entropy(0.7)
    gaps = []
    for n in (100, 200, 400, 800, 1600):
        rate = riskfree_work(bernoulli_product(0.7, n), 1e-3, 1.0).bits / n
        gaps.append(abs(rate - target))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.06


def test_bound_bracketing_on_random_instances(rng):
    # provable regime for mass-removal smoothing is eps < 1/3
    for eps in (1e-4, 1e-3, 0.01, 0.1, 0.3):
        for _ in range(40):
            d = random_explicit(rng, int(rng.integers(1, 6)))
            b = work_bounds(d, eps, 1.0)
            assert b.min_work.bits <= b.max_work.bits + 1e-9


def test_bet_count_capped_by_min_entropy_margin(rng):
    # any strategy succeeding with probability above eps uses fewer than
    # n - H_min + log2(1/eps) boxes; 1e4 random triples here
    for _ in range(10_000):
        n = int(rng.integers(1, 8))
        d = random_explicit(rng, n)
        eps = float(rng.uniform(1e-3, 0.3))
        perm = rng.permutation(1 << n).astype(np.int64)
        k = int(rng.integers(1, n + 1))
        positions = rng.choice(n, size=k, replace=False)
        bets = tuple((int(p), int(rng.integers(0, 2))) for p in sorted(positions))
        s = Strategy(CompressionPlan(n, perm), bets, float(k))
        success = exact_evaluate(d, s).success_prob
        if success > eps:
            assert k < n - h_min(d) + math.log2(1.0 / eps)


def _smoothed_cap(d, eps, success):
    """n - H_min^eps + log2(1/(P - eps)): the most boxes a bet winning with
    probability P > eps can stake."""
    return d.n - h_min_smooth(d, eps) + math.log2(1.0 / (success - eps))


def test_success_just_above_eps_beats_the_printed_cap():
    # the counterexample: 7 bets on bernoulli(0.7)^10 win with P = 0.11299 > eps = 0.1,
    # past the printed 5.69 bits, and inside the P-dependent 8.64 bits
    d = explicit_of(bernoulli_product(0.7, 10))
    eps = 0.1
    s = build_gambler_strategy(d, 7, 1.0)
    exact = exact_evaluate(d, s)
    assert exact.success_prob == pytest.approx(0.11299, abs=1e-5)
    assert exact.success_prob > eps
    printed = gambler_work_bound(d, eps, 1.0).bits
    assert printed == pytest.approx(5.69, abs=5e-3) and len(s.bets) > printed
    cap = _smoothed_cap(d, eps, exact.success_prob)
    assert cap == pytest.approx(8.64, abs=5e-3) and len(s.bets) <= cap
    assert check_inequalities(d, s, exact, eps, 1.0) == []
    # a success the cell cannot hold is reported
    claimed = ExactResult(0.6, 0.6 * s.committed_work)
    violations = check_inequalities(d, s, claimed, eps, 1.0)
    assert len(violations) == 1 and "smoothed cap" in violations[0]


def test_smoothed_gambling_cap_holds_for_the_best_bet_of_every_size(rng):
    tables = [explicit_of(bernoulli_product(0.7, 10))]
    tables += [random_explicit(rng, int(rng.integers(1, 11))) for _ in range(6)]
    tables += [random_explicit(rng, int(rng.integers(2, 11)), levels=(1.0, 2.0)) for _ in range(3)]
    beaten = 0  # bets past the printed figure with success above eps
    for d in tables:
        plan = canonical_permutation(d)
        for m in range(1, d.n + 1):
            bets, mass = exhaustive_gambler_search(d, m)
            s = Strategy(plan, bets, float(m))
            exact = exact_evaluate(d, s)
            assert exact.success_prob == pytest.approx(mass, rel=1e-12, abs=1e-15)
            for eps in (1e-3, 0.01, 0.05, 0.1, 0.3):
                if mass <= eps:
                    continue
                assert m <= _smoothed_cap(d, eps, mass) + 1e-9
                assert check_inequalities(d, s, exact, eps, 1.0) == []
                beaten += m > gambler_work_bound(d, eps, 1.0).bits
    assert beaten


def test_smoothed_gambling_cap_holds_for_the_closed_form_bet():
    for n in range(10, 19, 2):
        for q in (0.6, 0.7, 0.8, 0.9):
            d = explicit_of(bernoulli_product(q, n))
            for m in range(1, n + 1):
                s = build_gambler_strategy(d, m, 1.0)
                exact = exact_evaluate(d, s)
                for eps in (1e-4, 1e-3, 0.01, 0.1):
                    if exact.success_prob > eps:
                        assert m <= _smoothed_cap(d, eps, exact.success_prob) + 1e-9
                        assert check_inequalities(d, s, exact, eps, 1.0) == []


def test_check_inequalities_clean_run(rng):
    d = random_explicit(rng, 4)
    s = build_riskfree_strategy(d, 0.01, 1.0)
    exact = exact_evaluate(d, s)
    assert check_inequalities(d, s, exact, 0.01, 1.0) == []


def test_game_config_validation():
    with pytest.raises(NonpositiveTemperature):
        GameConfig(temperature=0.0)
    with pytest.raises(BadEpsilon):
        GameConfig(epsilon=1.5)
    with pytest.raises(BadSampleCount):
        GameConfig(n_samples=0)
    with pytest.raises(TooLarge):
        GameConfig(n_samples=10**12)
    with pytest.raises(BadSeed):
        GameConfig(seed=-1)
    with pytest.raises(BadSeed):
        make_rng(-1)
    assert GameConfig(n_samples=10**7).n_samples == 10**7


def test_plan_and_table_must_have_the_same_box_count():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    wide = CompressionPlan(3, np.arange(8)[::-1])
    for plan in (wide, canonical_permutation(make_explicit(3, [("LLL", 1.0)]))):
        for bets in ((), ((0, 0),), ((0, 0), (1, 0))):
            s = Strategy(plan, bets, float(len(bets)))
            with pytest.raises(ArityMismatch):
                exact_evaluate(d, s)
            with pytest.raises(ArityMismatch):
                monte_carlo(d, s, GameConfig(n_samples=10))
