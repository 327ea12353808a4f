import json
import math
import tracemalloc

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
from szilard import cli, compress, entropy, game, probdist
from szilard.errors import (
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
    check_inequalities,
    riskfree_bet_count,
)
from szilard.rng import make_rng
from szilard.oracle import _match_mask, exhaustive_gambler_search, relabeled_game_eval

from util import (
    draw_by_draw, estimate, level_sum, random_explicit, same_table, sorted_draws, sorted_picks,
)

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
    s = Strategy(d, 1, C300_J)
    result = exact_evaluate(d, s)
    assert result.success_prob == 0.5
    assert result.expected_work == pytest.approx(C300_J / 2, rel=1e-12)


def test_a_strategy_is_played_only_on_its_own_table():
    # an equal copy is refused too (for other box counts see
    # test_plan_and_table_must_have_the_same_box_count)
    d = explicit_of(bernoulli_product(0.7, 6))
    copy = explicit_of(bernoulli_product(0.7, 6))
    assert same_table(copy, d)
    for b in (0, 3, 6):
        s = Strategy(d, b, float(b))
        with pytest.raises(InvalidBets):
            exact_evaluate(copy, s)
        with pytest.raises(InvalidBets):
            monte_carlo(copy, s, GameConfig(n_samples=10))


def test_a_strategy_bets_zero_to_n_boxes():
    d = explicit_of(uniform_product(3))
    for b in (-1, 4):
        with pytest.raises(BadBetSize):
            Strategy(d, b, 1.0)
    assert [Strategy(d, b, 0.0).bets for b in (0, 2)] == [(), ((0, 0), (1, 0))]


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
        assert exact_evaluate(d, s).success_prob == pytest.approx(float(d.probs.max()), abs=1e-12)


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
    perm = canonical_permutation(d).permutation
    for _ in range(1000):
        positions = sorted(int(x) for x in rng.choice(6, size=m, replace=False))
        bets = tuple((p, int(rng.integers(0, 2))) for p in positions)
        rival = relabeled_game_eval(d, perm, bets, float(m)).success_prob
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
    return draw_by_draw(d, s.plan.permutation, s.bets, s.committed_work, config)


def _relabeled_mc(d, wins, committed_work, config):
    """Monte Carlo of a relabeled play through the library's draw count: the
    draws ``monte_carlo`` would make, counted in the play's win mask."""
    hits = probdist._draws_in(d, wins, make_rng(config.seed), config.n_samples)
    return estimate(hits / config.n_samples, committed_work, config)


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
        plays = [(s.plan.permutation, s.bets, s.committed_work, s) for s in strategies]
        if d.n <= 10:  # a random dense relabeling, as in criteria 6 and 10
            positions = sorted(rng.choice(d.n, size=m, replace=False).tolist())
            bets = tuple((p, int(rng.integers(0, 2))) for p in positions)
            perm = rng.permutation(1 << d.n).astype(np.int64)
            plays.append((perm, bets, float(m), None))
        for perm, bets, work, s in plays:
            permuted = perm[d.indices]
            hit = np.ones(d.support_size, dtype=bool)
            for pos, val in bets:
                hit &= ((permuted >> (d.n - 1 - pos)) & 1) == val
            if s is None:  # the oracle plays it, and the draws are counted in its mask
                exact = relabeled_game_eval(d, perm, bets, work)
                mc = _relabeled_mc(d, hit, work, config)
                success = float(d.probs[hit].sum())  # the oracle adds in index order
            else:
                exact, mc = exact_evaluate(d, s), monte_carlo(d, s, config)
                success = level_sum(d.probs[hit])
            assert mc == draw_by_draw(d, perm, bets, work, config)
            assert exact.success_prob == success


def test_game_on_an_explicit_table_builds_no_dense_permutation(monkeypatch):
    d = explicit_of(bernoulli_product(0.7, 12))
    dense, ranks = compress._dense_permutation, compress._canonical_ranks

    def refuse(*args):
        raise AssertionError("the game must not build the dense permutation or the ranks")

    sorts = []  # the size of the array each np.unique call sorts
    unique = np.unique

    def counting_unique(ar, *args, **kwargs):
        sorts.append(np.asarray(ar).size)
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(compress, "_dense_permutation", refuse)
    monkeypatch.setattr(compress, "_canonical_ranks", refuse)
    monkeypatch.setattr(np, "unique", counting_unique)
    s = build_riskfree_strategy(d, 1e-3, 1.0)
    exact = exact_evaluate(d, s)
    mc = monte_carlo(d, s, GameConfig(seed=5, n_samples=20_000))
    assert check_inequalities(d, s, exact, 1e-3, 1.0) == []
    work_bounds(d, 1e-3, 1.0)
    assert sorts == []  # the table took its levels from its type classes
    # a gambler op on a fresh table: its levels take one sort of the n + 1
    # class probabilities, whether they are monotone in k or turn (a
    # U-shaped mixture); the table itself is never sorted and no ranks are
    # built
    turning = mixture([0.5, 0.5], [bernoulli_product(0.3, 11), bernoulli_product(0.8, 11)])
    for source in (bernoulli_product(0.6, 11), turning):
        sorts.clear()
        g_table = explicit_of(source)
        g = build_gambler_strategy(g_table, 4, 1.0)
        g_exact = exact_evaluate(g_table, g)
        monte_carlo(g_table, g, GameConfig(seed=6, n_samples=20_000))
        assert check_inequalities(g_table, g, g_exact, 1e-3, 1.0) == []
        assert sorts == [11 + 1]
    monkeypatch.setattr(compress, "_dense_permutation", dense)
    monkeypatch.setattr(compress, "_canonical_ranks", ranks)
    # the lazily built relabeling is the one the ranks describe
    assert np.array_equal(s.plan.permutation[d.indices], s.plan.ranks)
    assert mc == _draw_by_draw(d, s, GameConfig(seed=5, n_samples=20_000))


def _pick_form(d, wins, committed_work, config):
    """Monte Carlo with one pick per play: the sorted picks looked up in the
    win mask, as the count was first taken on the sorted stream."""
    picks = sorted_picks(d, make_rng(config.seed), config.n_samples)
    if wins is None:  # the winning cell holds the whole support
        wins = np.ones(d.support_size, dtype=bool)
    return estimate(float(wins[picks].mean()), committed_work, config)


def _leading_bets(d):
    """Every canonical bet on the table: b = 0 (all win) to b = n, and the risk-free one."""
    bets = [Strategy(d, b, float(b)) for b in range(d.n + 1)]
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
            for s in _leading_bets(d):
                mc = monte_carlo(d, s, config)
                pick = _pick_form(d, game._wins(d, s), s.committed_work, config)
                assert mc == pick == _draw_by_draw(d, s, config)
            # R on box 0 of the compressed table, played by the oracle's mask
            perm = canonical_permutation(d).permutation
            wins = _match_mask(perm[d.indices], d.n, ((0, 1),))
            mc = _relabeled_mc(d, wins, 1.0, config)
            assert mc == _pick_form(d, wins, 1.0, config)
            assert mc == draw_by_draw(d, perm, ((0, 1),), 1.0, config)


def test_draws_in_a_mask_are_the_picks_in_it(rng):
    _check_draws_in_masks(rng)


def _check_draws_in_masks(rng):
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
                assert wins == int(mask[sorted_picks(d, gen_b, size)].sum())
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
    _check_draws_on_cdf_entries()


def _check_draws_on_cdf_entries():
    # cdf = [0.25, 0.5, 1.0]; a draw equal to cdf[i] picks entry i + 1
    d = make_explicit(2, [("LL", 0.25), ("LR", 0.25), ("RL", 0.5)])
    u = [0.5, 0.25, 0.0, 0.75, 0.25, 0.49999999999999994]
    for size in (len(u), 2, 1):  # at most 2 edges: runs, then a search per play
        assert sorted_picks(d, _FixedUniforms(u), size).tolist() == sorted(
            [2, 1, 0, 2, 1, 1][:size]
        )
        for bits in range(8):
            mask = np.array([bits >> i & 1 for i in range(3)], dtype=bool)
            picks = sorted_picks(d, _FixedUniforms(u), size)
            assert probdist._draws_in(d, mask, _FixedUniforms(u), size) == mask[picks].sum()
    # ten entries of 0.1 run to 0.9999999999999999, so the normalized cdf
    # and the running sum differ in the last place: a draw between the two
    # counts as the normalized cdf picks it
    d = make_explicit(4, [(i, 0.1) for i in range(10)])
    cdf, _ = sorted_draws(d, _FixedUniforms([]), 0)
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
    u = np.random.default_rng(0).permutation(u[u < 1.0])
    for size in (u.size, 4):  # at most as many edges as plays, then more
        picks = sorted_picks(d, _FixedUniforms(u), size)
        for bits in range(1 << 10):
            mask = np.array([bits >> i & 1 for i in range(10)], dtype=bool)
            assert probdist._draws_in(d, mask, _FixedUniforms(u), size) == mask[picks].sum()


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_draws_in_count_alike_across_chunk_boundaries(monkeypatch, rng, chunk):
    # chunk boundaries fall on mask flips and inside the 5e-324 plateaus
    monkeypatch.setattr(probdist, "_CHUNK", chunk)
    _check_draws_in_masks(rng)
    _check_draws_on_cdf_entries()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_holds_no_support_sized_cdf():
    d = explicit_of(bernoulli_product(0.7, 20))
    s = build_gambler_strategy(d, 10, 1.0)  # wins on part of the support
    assert game._wins(d, s) is not None
    assert _peak_bytes(lambda: monte_carlo(d, s, GameConfig(seed=1))) < d.probs.nbytes / 2
    # a mask that flips at every entry has an edge at each: held once, not twice
    d = explicit_of(uniform_product(20))
    mask = np.arange(d.support_size) % 2 == 0
    d.probs  # the table's own entries are built on first read, outside the region
    peak = _peak_bytes(lambda: probdist._draws_in(d, mask, make_rng(1), 100_000))
    assert peak < 1.5 * d.probs.nbytes


def test_exact_evaluate_holds_nothing_support_sized(monkeypatch):
    # the risk-free bet at eps 0.05 wins on 2^21 of 2^22 outcomes, and the
    # 8-box bet on the top 2^16 of 2^24, part of a level; exact success is
    # read off the levels, and the table's mask is never asked for
    small = explicit_of(bernoulli_product(0.7, 22))
    large = explicit_of(bernoulli_product(0.7, 24))
    games = [(small, build_riskfree_strategy(small, 0.05, 1.0)),
             (large, build_gambler_strategy(large, 8, 1.0))]

    def refuse(*args):
        raise AssertionError("exact_evaluate built the win mask")

    monkeypatch.setattr(probdist.ExplicitDistribution, "top", refuse)
    for d, s in games:
        assert _peak_bytes(lambda: exact_evaluate(d, s)) < 1e6


def test_a_game_that_bets_no_box_builds_no_entries(monkeypatch):
    # at eps 1e-3 the risk-free bet on bernoulli(0.7)^22 (and ^24) is 0
    # boxes: it wins on the whole support, so every stage reads only the
    # levels and the support size, and the 2^n entries (32 MB at n = 22)
    # are never gathered
    eps, tables = 1e-3, []

    def play():
        d = explicit_of(bernoulli_product(0.7, 22))
        tables.append(d)
        entropy.smooth_report(d, eps)
        s = build_riskfree_strategy(d, eps, 1.0)
        assert s.bet_count == 0
        exact = exact_evaluate(d, s)
        assert monte_carlo(d, s, GameConfig(epsilon=eps)).success_rate == 1.0
        assert check_inequalities(d, s, exact, eps, 1.0) == []

    assert _peak_bytes(play) < 1e6
    assert "probs" not in vars(tables[0])

    build = probdist.explicit_of

    def kept(dist):
        tables.append(build(dist))
        return tables[-1]

    monkeypatch.setattr(probdist, "explicit_of", kept)
    peak = _peak_bytes(lambda: cli.cmd_game("bernoulli(0.7)^24", "riskfree", None, GameConfig()))
    assert peak < 1e6
    assert tables[-1].n == 24 and "probs" not in vars(tables[-1])


def test_a_second_top_reads_the_kept_cumulative_counts(rng):
    # every probability distinct, so the spectrum has one level per entry
    # and its cumulative counts are support-sized (8.4 MB at 2^20); they
    # are built by the first top, and every later one reads them
    raw = rng.exponential(size=1 << 20)
    d = probdist._sorted_table(20, np.arange(1 << 20, dtype=np.int64), raw / raw.sum())
    first = d.levels.top(1000)
    assert _peak_bytes(lambda: d.levels.top(1000)) < 1e6
    assert d.levels.top(1000) == first
    assert _peak_bytes(lambda: d.top(1000)) < 1e6 + d.probs.size


def test_monte_carlo_on_plateaus_and_sparse_tables(rng):
    tiny = make_explicit(10, [(i, 5e-324 if i % 3 else 1 / 342) for i in range(1 << 10)])
    sparse = [random_explicit(rng, 20, k) for k in (2, 50, 999)]
    for d in [tiny] + sparse:
        for size in (1, 7, 1000, 5000):
            config = GameConfig(seed=int(rng.integers(2**32)), n_samples=size)
            for s in _leading_bets(d):
                pick = _pick_form(d, game._wins(d, s), s.committed_work, config)
                assert monte_carlo(d, s, config) == pick
    s = _leading_bets(tiny)[0]  # b = 0: every play wins
    assert monte_carlo(tiny, s, GameConfig(n_samples=777)).success_rate == 1.0
    s = build_gambler_strategy(tiny, 10, 1.0)  # only the top outcome wins
    config = GameConfig(seed=3, n_samples=3000)
    assert monte_carlo(tiny, s, config) == _draw_by_draw(tiny, s, config)


def _index_sum(probs):
    return float(probs.sum())


def _rank_path(d, bets, committed_work, config, add=level_sum):
    """Exact success and Monte Carlo matched through the plan's ranks; the
    winning probabilities are added level by level, as ``exact_evaluate``
    adds them, or by ``add``."""
    ranks = canonical_permutation(d).ranks
    success = add(d.probs[_match_mask(ranks, d.n, bets)])
    picks = sorted_picks(d, make_rng(config.seed), config.n_samples)
    mc = estimate(float(_match_mask(ranks[picks], d.n, bets).mean()), committed_work, config)
    return ExactResult(success, success * committed_work), mc


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
        strategies = [Strategy(d, b, float(b)) for b in range(n + 1)]
        strategies.append(build_riskfree_strategy(d, float(rng.uniform(0.0, 0.3)), 1.0))
        for s in strategies:
            exact, mc = exact_evaluate(d, s), monte_carlo(d, s, config)
            assert (exact, mc) == _rank_path(d, s.bets, s.committed_work, config)
        # bets off the leading L run are played by the oracle, through the ranks
        off_run = [((0, 1),)] + ([((1, 0),), ((0, 0), (1, 1))] if n > 1 else [])
        perm = canonical_permutation(d).permutation
        for bets in off_run:
            exact = relabeled_game_eval(d, perm, bets, float(len(bets)))
            wins = _match_mask(perm[d.indices], d.n, bets)
            mc = _relabeled_mc(d, wins, float(len(bets)), config)
            assert (exact, mc) == _rank_path(d, bets, float(len(bets)), config, _index_sum)


def _mask_path(d, s, config):
    """Exact success and Monte Carlo through an all-true win mask: the
    masked copy added level by level, and the draws counted in it."""
    mask = np.ones(d.support_size, dtype=bool)
    success = level_sum(d.probs[mask])
    mc = _relabeled_mc(d, mask, s.committed_work, config)
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
        covering = [b for b in range(d.n + 1) if 1 << (d.n - b) >= d.support_size]
        assert covering and covering[0] == 0
        for b in covering:
            s = Strategy(d, b, float(b))
            assert game._wins(d, s) is None
            assert (exact_evaluate(d, s), monte_carlo(d, s, config)) == _mask_path(d, s, config)
            assert exact_evaluate(d, s).success_prob == level_sum(d.probs)
        # the next bet splits the support; other bets and plans are matched by the oracle
        if covering[-1] < d.n:
            assert game._wins(d, Strategy(d, covering[-1] + 1, 0.0)) is not None
        plan = canonical_permutation(d)
        r_first = relabeled_game_eval(d, plan.permutation, ((0, 1),), 1.0).success_prob
        assert r_first == float(d.probs[plan.ranks >= 1 << (d.n - 1)].sum())
        identity = relabeled_game_eval(d, np.arange(1 << d.n), (), 0.0)
        assert identity.success_prob == float(d.probs.sum())


def test_the_riskfree_game_reads_no_index_range():
    d = explicit_of(bernoulli_product(0.7, 20))
    eps = 1e-3
    entropy.smooth_report(d, eps)
    s = build_riskfree_strategy(d, eps, 1.0)
    exact = exact_evaluate(d, s)
    mc = monte_carlo(d, s, GameConfig(epsilon=eps, seed=7))
    assert check_inequalities(d, s, exact, eps, 1.0) == []
    assert game._wins(d, s) is None and mc.success_rate == 1.0
    assert exact.success_prob == level_sum(d.probs)
    assert "indices" not in vars(d)
    assert np.array_equal(d.indices, np.arange(1 << 20)) and not d.indices.flags.writeable


@pytest.mark.parametrize("kind", ["distinct", "tied", "flat", "sparse", "classes", "witness"])
def test_exact_success_is_the_top_mass_to_float_error(rng, kind):
    # the level-order sum against math.fsum of the top 2^(n-b) probabilities, every b
    for _ in range(12):
        n = int(rng.integers(1, 13))
        if kind == "distinct":
            d = random_explicit(rng, n)
        elif kind == "tied":
            d = random_explicit(rng, n, levels=(1.0, 2.0, 3.0))
        elif kind == "flat":
            d = random_explicit(rng, n, levels=(1.0,))
        elif kind == "sparse":
            d = random_explicit(rng, n + 6, int(rng.integers(1, 100)))
        elif kind == "classes":
            d = explicit_of(bernoulli_product(float(rng.uniform(0.05, 0.95)), n))
        else:  # subnormalized smoothing witnesses
            source = random_explicit(rng, n)
            detail = h_min_smooth_detail if rng.random() < 0.5 else h_max_smooth_detail
            d = detail(source, float(rng.uniform(0.01, 0.3))).witness
        ranked = np.sort(d.probs)[::-1]
        for b in range(d.n + 1):
            success = exact_evaluate(d, Strategy(d, b, 1.0)).success_prob
            top = math.fsum(ranked[: 1 << (d.n - b)])
            assert abs(success - top) <= 1e-14 * top


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
        success = relabeled_game_eval(d, perm, bets, float(k)).success_prob
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
        for m in range(1, d.n + 1):
            bets, mass = exhaustive_gambler_search(d, m)
            s = build_gambler_strategy(d, m, 1.0)
            assert s.bets == bets  # the searched best bet is the canonical one
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
    wider = make_explicit(3, [("LLL", 1.0)])
    for b in range(3):
        s = Strategy(wider, b, float(b))
        with pytest.raises(InvalidBets):
            exact_evaluate(d, s)
        with pytest.raises(InvalidBets):
            monte_carlo(d, s, GameConfig(n_samples=10))
