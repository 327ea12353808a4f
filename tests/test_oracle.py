import time

import numpy as np
import pytest

from szilard import (
    bernoulli_product,
    build_riskfree_strategy,
    canonical_permutation,
    exact_evaluate,
    explicit_of,
    h_max,
    h_max_smooth_detail,
    h_min,
    make_explicit,
    point_mass,
    riskfree_work,
    uniform_product,
)
from szilard.errors import (
    ArityMismatch,
    BiasedBitsPresent,
    InvalidBets,
    NotBijective,
    TooLarge,
)
from szilard.oracle import (
    BIASED,
    apply_permutation,
    bennett_work,
    bit_profile,
    brute_hmax_smooth,
    brute_hmin_smooth,
    exhaustive_gambler_search,
    exhaustive_game_eval,
    exhaustive_strategy_search,
    relabeled_game_eval,
    statistical_distance,
)
from szilard.probdist import _from_arrays
from szilard.rng import make_rng

from util import random_explicit


def test_brute_hmax_on_worked_example():
    pex = make_explicit(3, [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5)])
    assert brute_hmax_smooth(pex, 0.00002) == 1.0


def test_brute_hmax_at_zero_epsilon(rng):
    d = random_explicit(rng, 3)
    assert brute_hmax_smooth(d, 0.0) == h_max(d)


def test_brute_hmax_rejects_large_support():
    with pytest.raises(TooLarge):
        brute_hmax_smooth(explicit_of(uniform_product(5)), 0.1)


def test_brute_hmin_at_zero_epsilon(rng):
    d = random_explicit(rng, 3)
    assert brute_hmin_smooth(d, 0.0) == h_min(d)


def test_brute_hmin_two_point():
    d = make_explicit(1, [("L", 0.6), ("R", 0.4)])
    best = brute_hmin_smooth(d, 0.1, rng=make_rng(2))
    assert best == pytest.approx(1.0, abs=1e-3)
    assert best <= 1.0 + 1e-6


def test_exhaustive_eval_single_known_box():
    d = point_mass("L")
    s = build_riskfree_strategy(d, 0.0, 1.0)
    assert exhaustive_game_eval(d, s.plan.permutation, s.bets, 1.0).success_prob == 1.0


def test_exhaustive_eval_uniform_bit():
    d = explicit_of(uniform_product(1))
    perm = canonical_permutation(d).permutation
    assert exhaustive_game_eval(d, perm, ((0, 0),), 1.0).success_prob == 0.5


def test_exhaustive_eval_matches_fast_path(rng):
    for _ in range(10):
        d = random_explicit(rng, 4)
        s = build_riskfree_strategy(d, 0.1, 1.0)
        walked = exhaustive_game_eval(d, s.plan.permutation, s.bets, s.committed_work)
        assert walked.success_prob == pytest.approx(exact_evaluate(d, s).success_prob, abs=1e-12)


def test_relabeled_game_eval_matches_exhaustive_enumeration(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        d = random_explicit(rng, n)
        perm = rng.permutation(1 << n).astype(np.int64)
        k = int(rng.integers(1, n + 1))
        positions = rng.choice(n, size=k, replace=False)
        bets = tuple((int(p), int(rng.integers(0, 2))) for p in sorted(positions))
        mine = relabeled_game_eval(d, perm, bets, k * 1.0)
        ref = exhaustive_game_eval(d, perm, bets, k * 1.0)
        assert mine.success_prob == pytest.approx(ref.success_prob, abs=1e-12)
        assert mine.expected_work == pytest.approx(ref.expected_work, abs=1e-12)


def test_both_game_evaluators_return_plain_floats(rng):
    d = random_explicit(rng, 4)
    perm = rng.permutation(16).astype(np.int64)
    for play in (relabeled_game_eval, exhaustive_game_eval):
        result = play(d, perm, ((0, 1), (2, 0)), 2.0)
        assert type(result.success_prob) is float, play.__name__
        assert type(result.expected_work) is float, play.__name__


def test_relabeled_game_eval_rejects_bad_bets():
    d = explicit_of(uniform_product(2))
    perm = canonical_permutation(d).permutation
    for play in (relabeled_game_eval, exhaustive_game_eval):
        with pytest.raises(InvalidBets):
            play(d, perm, ((0, 0), (0, 1)), 2.0)
        with pytest.raises(InvalidBets):
            play(d, perm, ((5, 0),), 1.0)
        with pytest.raises(InvalidBets):
            play(d, perm, ((0, 2),), 1.0)


@pytest.mark.parametrize(
    "perm",
    [
        [0, 0, 0, 0],
        [3, 2, 1],
        list(range(8)),  # a relabeling of three boxes
        [0, 1, 2, 4],
        [-1, 0, 1, 2],
        [[0, 1], [2, 3]],
        [0.5, 1.9, 2.2, 3.0],  # truncates to the identity
    ],
)
def test_a_relabeling_must_be_a_bijection_on_the_outcomes(perm):
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    for play in (relabeled_game_eval, exhaustive_game_eval):
        with pytest.raises(NotBijective):
            play(d, np.array(perm), (), 0.0)


def test_search_on_correlated_pair():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    result = exhaustive_strategy_search(d, 0.0, 1.0)
    assert result.work == 1.0  # one box extractable, no more


def test_search_on_point_mass():
    result = exhaustive_strategy_search(point_mass("LL"), 0.0, 1.0)
    assert result.work == 2.0


def test_search_matches_greedy_formula(rng):
    start = time.perf_counter()
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = random_explicit(rng, n)
        for eps in (0.0, 0.05):
            result = exhaustive_strategy_search(d, eps, 1.0)
            k = h_max_smooth_detail(d, eps).retained_count
            assert result.work == n - (k - 1).bit_length()
    assert time.perf_counter() - start < 10.0


def test_search_rejects_large_n():
    with pytest.raises(TooLarge):
        exhaustive_strategy_search(explicit_of(uniform_product(4)), 0.0, 1.0)


def test_gambler_search_on_correlated_pair():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    assert exhaustive_gambler_search(d, 1) == (((0, 0),), 1.0)
    assert exhaustive_gambler_search(d, 2) == (((0, 0), (1, 0)), 0.5)


def test_gambler_search_rejects_large_n():
    with pytest.raises(TooLarge):
        exhaustive_gambler_search(point_mass("L" * 13), 1)


# -------------------------------------------------------------- distance


def test_distance_to_self_is_zero(rng):
    d = random_explicit(rng, 3)
    assert statistical_distance(d, d) == 0.0


def test_distance_of_worked_example_truncation():
    pex = make_explicit(3, [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5)])
    truncated = _from_arrays(3, pex.indices[:2], pex.probs[:2])
    assert statistical_distance(pex, truncated) == pytest.approx(2e-5, rel=1e-9)


def test_distance_monotone_under_more_removal(rng):
    for _ in range(20):
        d = random_explicit(rng, 3)
        r1 = d.probs * rng.uniform(0.0, 1.0, size=d.support_size)
        r2 = r1 * rng.uniform(0.0, 1.0, size=d.support_size)
        q1 = _from_arrays(3, d.indices, d.probs - r1)
        q2 = _from_arrays(3, d.indices, d.probs - r2)  # removes less
        assert statistical_distance(d, q1) >= statistical_distance(d, q2) - 1e-15


def test_distance_arity_mismatch():
    with pytest.raises(ArityMismatch):
        statistical_distance(
            make_explicit(1, [("L", 1.0)]), make_explicit(2, [("LL", 1.0)])
        )


# ----------------------------------------------------------------- bennett


def test_bennett_work_on_known_uniform_profile():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    profile = bit_profile(apply_permutation(d, canonical_permutation(d).permutation))
    assert bennett_work(profile, 1.0) == 1.0


def test_bennett_all_known():
    d = make_explicit(3, [("LLL", 1.0)])
    assert bennett_work(bit_profile(d), 2.5) == 3 * 2.5


def test_bennett_rejects_biased_bits():
    d = explicit_of(bernoulli_product(0.7, 2))
    with pytest.raises(BiasedBitsPresent):
        bennett_work(bit_profile(d), 1.0)


def test_bennett_matches_riskfree_work_at_zero_epsilon():
    # compressed distributions whose boxes are all known or uniform
    cases = [
        make_explicit(2, [("LL", 0.5), ("RR", 0.5)]),
        make_explicit(3, [("LLL", 1.0)]),
        explicit_of(bernoulli_product(0.5, 3)),
        make_explicit(3, [(i, 0.25) for i in range(4)]),
        make_explicit(3, [(0, 0.4), (1, 0.1), (2, 0.1), (3, 0.4)]),
    ]
    for d in cases:
        plan = canonical_permutation(d)
        compressed = apply_permutation(d, plan.permutation)
        profile = bit_profile(compressed)
        if any(b.kind == BIASED for b in profile):
            continue
        assert bennett_work(profile, 1.0) == riskfree_work(d, 0.0, 1.0).bits
        assert bennett_work(profile, 1.0) == d.n - h_max(d)
