import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard import (
    bernoulli_product,
    binary_entropy,
    explicit_of,
    h_max,
    h_max_smooth,
    h_max_smooth_detail,
    h_min,
    h_min_smooth,
    h_min_smooth_detail,
    make_explicit,
    mixture,
    shannon,
    smooth_report,
    spectrum,
    statistical_distance,
    uniform_product,
)
from szilard.errors import BadEpsilon
from szilard.oracle import brute_hmax_smooth, brute_hmin_smooth
from szilard.rng import make_rng

from util import random_explicit, random_mixture_params

# worked example: four-point distribution with a vanishing fifth entry
PEX = [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5), (4, 0.0)]
H_OF_07 = 0.8812908992306926  # 50-digit evaluation of -0.7 log2 0.7 - 0.3 log2 0.3


def pex():
    return make_explicit(3, PEX)


# ------------------------------------------------------------ plain values


def test_shannon_uniform_bit():
    assert shannon(make_explicit(1, [("L", 0.5), ("R", 0.5)])) == 1.0


def test_shannon_bernoulli_07():
    d = explicit_of(bernoulli_product(0.7, 1))
    assert shannon(d) == pytest.approx(H_OF_07, abs=1e-12)


def test_shannon_point_mass():
    assert shannon(make_explicit(1, [("L", 1.0)])) == 0.0


def test_h_min_of_worked_example():
    assert h_min(pex()) == 1.0


def test_h_min_uniform():
    assert h_min(explicit_of(uniform_product(5))) == pytest.approx(5.0, abs=1e-12)


def test_h_min_two_spike_mixture():
    m = mixture([0.5, 0.5], [bernoulli_product(1.0, 20), bernoulli_product(0.0, 20)])
    assert h_min(m) == pytest.approx(1.0, abs=1e-12)


def test_h_max_of_worked_example():
    assert h_max(pex()) == 2.0


def test_h_max_point_mass():
    assert h_max(make_explicit(2, [("LR", 1.0)])) == 0.0


def test_h_max_full_support_product():
    assert h_max(bernoulli_product(0.7, 1000)) == pytest.approx(1000.0, abs=1e-9)
    assert h_max(explicit_of(bernoulli_product(0.7, 8))) == 8.0


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.7) == pytest.approx(H_OF_07, abs=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


# --------------------------------------------------------- smooth max


def test_h_max_smooth_worked_example_exact():
    assert h_max_smooth(pex(), 0.00002) == 1.0


def test_h_max_smooth_at_zero_epsilon(rng):
    for _ in range(10):
        d = random_explicit(rng, 4)
        assert h_max_smooth(d, 0.0) == h_max(d)


def test_h_max_smooth_matches_bruteforce(rng):
    for _ in range(30):
        d = random_explicit(rng, int(rng.integers(1, 5)))
        for eps in (0.0, 1e-3, 1e-2, 0.1):
            assert h_max_smooth(d, eps) == brute_hmax_smooth(d, eps)


def test_h_max_smooth_huge_epsilon_keeps_one_outcome():
    d = make_explicit(2, [("LL", 0.9), ("RR", 0.1)])
    assert h_max_smooth(d, 0.5) == 0.0


def test_h_max_smooth_bad_epsilon():
    with pytest.raises(BadEpsilon):
        h_max_smooth(pex(), 1.0)
    with pytest.raises(BadEpsilon):
        h_max_smooth(pex(), -0.1)


def test_h_min_smooth_rejects_epsilon_covering_the_whole_mass():
    # the table sums to 1 - 1e-10, which make_explicit accepts
    d = make_explicit(1, [("L", 0.5), ("R", 0.4999999999)])
    with pytest.raises(BadEpsilon):
        h_min_smooth(d, 0.99999999999)
    with pytest.raises(BadEpsilon):
        h_min_smooth_detail(d, d.total())


def test_h_max_smooth_witness_is_in_ball_and_achieves_value(rng):
    for _ in range(20):
        d = random_explicit(rng, 4)
        eps = float(rng.uniform(0.0, 0.3))
        detail = h_max_smooth_detail(d, eps)
        assert statistical_distance(d, detail.witness) <= eps + 1e-15
        assert math.log2(detail.witness.support_size) == detail.bits
        assert detail.retained_count == detail.witness.support_size


# --------------------------------------------------------- smooth min


def test_h_min_smooth_at_zero_epsilon(rng):
    for _ in range(10):
        d = random_explicit(rng, 4)
        assert h_min_smooth(d, 0.0) == h_min(d)


def test_h_min_smooth_two_point_shave():
    d = make_explicit(1, [("L", 0.6), ("R", 0.4)])
    assert h_min_smooth(d, 0.1) == 1.0  # peak 0.6 shaved down to 0.5
    oracle_best = brute_hmin_smooth(d, 0.1, rng=make_rng(5))
    assert oracle_best <= 1.0 + 1e-9


def test_h_min_smooth_never_beaten_by_ball_members(rng):
    for _ in range(20):
        d = random_explicit(rng, int(rng.integers(1, 5)))
        eps = float(rng.uniform(0.0, 0.3))
        greedy = h_min_smooth(d, eps)
        assert greedy + 1e-6 >= brute_hmin_smooth(d, eps, rng=rng)


def test_h_min_smooth_witness_is_in_ball_and_achieves_value(rng):
    for _ in range(20):
        d = random_explicit(rng, 4)
        eps = float(rng.uniform(0.0, 0.3))
        detail = h_min_smooth_detail(d, eps)
        assert statistical_distance(d, detail.witness) <= eps + 1e-12
        assert -math.log2(detail.witness.p_max) == detail.bits
        assert detail.cut.removed_mass <= eps + 1e-12


def test_cut_level_solves_the_removal_equation(rng):
    # the budget is always spent in full: mass above any positive level is
    # continuous in the level and exceeds eps as the level approaches zero
    for _ in range(20):
        d = random_explicit(rng, 4)
        eps = float(rng.uniform(1e-4, 0.3))
        cut = h_min_smooth_detail(d, eps).cut
        removed = np.maximum(d.probs - cut.level, 0.0).sum()
        assert removed == pytest.approx(eps, abs=1e-9)
        assert cut.level <= d.p_max + 1e-15


# ----------------------------------------------------------- smooth report


def test_smooth_report_worked_example():
    r = smooth_report(pex(), 0.00002)
    assert (r.h_min, r.h_max, r.h_max_smooth) == (1.0, 2.0, 1.0)
    assert r.h_min <= r.shannon <= r.h_max


def test_smooth_report_uniform_product():
    r = smooth_report(uniform_product(12), 0.01)
    assert r.h_min == pytest.approx(12.0, abs=1e-9)
    assert r.shannon == pytest.approx(12.0, abs=1e-9)
    assert r.h_max == pytest.approx(12.0, abs=1e-9)


@pytest.mark.parametrize(
    "dist",
    [
        pex(),
        uniform_product(12),
        bernoulli_product(0.7, 1000),
        bernoulli_product(0.7, 3000),
        mixture([0.5, 0.5], [bernoulli_product(1.0, 40), uniform_product(40)]),
    ],
)
def test_smooth_report_equals_individual_functions(dist):
    for eps in (0.0, 1e-3, 0.2):
        r = smooth_report(dist, eps)
        assert r.shannon == shannon(dist)
        assert r.h_min == h_min(dist)
        assert r.h_max == h_max(dist)
        assert r.h_min_smooth == h_min_smooth(dist, eps)
        assert r.h_max_smooth == h_max_smooth(dist, eps)


def test_smooth_report_bernoulli_1000_band():
    r = smooth_report(bernoulli_product(0.7, 1000), 2e-4)
    assert 920.0 <= r.h_max_smooth <= 960.0
    # frozen regression values, cross-checked against exact big-integer greedy
    assert r.h_max_smooth == pytest.approx(931.3771955160, abs=1e-6)
    assert r.h_min_smooth == pytest.approx(820.7880120251, abs=1e-6)


# ---------------------------------------------------- ordering + smoothing


@settings(max_examples=80)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=16))
def test_entropy_ordering(weights):
    n = max(1, (len(weights) - 1).bit_length())
    total = sum(weights)
    d = make_explicit(n, [(i, w / total) for i, w in enumerate(weights)])
    assert h_min(d) <= shannon(d) + 1e-12
    assert shannon(d) <= h_max(d) + 1e-12


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=16),
    st.floats(min_value=0.0, max_value=0.4),
    st.floats(min_value=0.0, max_value=0.4),
)
def test_smoothing_monotone_in_epsilon(weights, eps1, eps2):
    lo, hi = sorted([eps1, eps2])
    n = max(1, (len(weights) - 1).bit_length())
    total = sum(weights)
    d = make_explicit(n, [(i, w / total) for i, w in enumerate(weights)])
    assert h_max_smooth(d, hi) <= h_max_smooth(d, lo) + 1e-12
    assert h_min_smooth(d, hi) + 1e-12 >= h_min_smooth(d, lo)


def test_smooth_bounds_move_inward(rng):
    for _ in range(20):
        d = random_explicit(rng, 4)
        eps = float(rng.uniform(0.0, 0.3))
        assert h_min_smooth(d, eps) >= h_min(d) - 1e-12
        assert h_max_smooth(d, eps) <= h_max(d) + 1e-12


# ------------------------------------------------------------- type classes


def test_type_class_fidelity_small_n(rng):
    for _ in range(15):
        n = int(rng.integers(1, 17))
        weights, lefts = random_mixture_params(rng, n)
        m = mixture(weights, [bernoulli_product(q, n) for q in lefts])
        d = explicit_of(m)
        for eps in (0.0, 1e-3, 0.05):
            assert shannon(m) == pytest.approx(shannon(d), abs=1e-10)
            assert h_min(m) == pytest.approx(h_min(d), abs=1e-10)
            assert h_max(m) == pytest.approx(h_max(d), abs=1e-10)
            assert h_max_smooth(m, eps) == pytest.approx(h_max_smooth(d, eps), abs=1e-10)
            assert h_min_smooth(m, eps) == pytest.approx(h_min_smooth(d, eps), abs=1e-10)


def test_class_spectrum_matches_explicit_spectrum(rng):
    for _ in range(20):
        n = int(rng.integers(1, 17))
        weights, lefts = random_mixture_params(rng, n)
        m = mixture(weights, [bernoulli_product(q, n) for q in lefts])
        a, b = spectrum(m), spectrum(explicit_of(m))
        assert np.array_equal(a.count.astype(np.int64), b.count)
        assert np.allclose(a.log_p, b.log_p, rtol=0.0, atol=1e-12)


def test_class_spectrum_merges_equal_probabilities():
    s = spectrum(mixture([0.5, 0.5], [bernoulli_product(1.0, 30), uniform_product(30)]))
    assert s.count.tolist() == [1, 2**30 - 1]
    assert spectrum(uniform_product(3000)).log_p.tolist() == [-3000.0]


@pytest.mark.parametrize("n", [30, 200, 3000])
def test_class_h_min_smooth_is_the_exact_cut(n):
    # shaving the single top outcome 1/2 + 2^-(n+1) by 1/4 leaves the peak
    # 1/4 + 2^-(n+1), still above the 2^-(n+1) of every other outcome
    m = mixture([0.5, 0.5], [bernoulli_product(1.0, n), uniform_product(n)])
    expected = -math.log2(0.25 + 2.0 ** -(n + 1))
    assert abs(h_min_smooth(m, 0.25) - expected) <= 1e-15


def test_aep_convergence_to_shannon_rate():
    eps = 1e-3
    gap_max, gap_min = [], []
    for n in (100, 200, 400, 800, 1600):
        m = bernoulli_product(0.7, n)
        gap_max.append(abs(h_max_smooth(m, eps) / n - H_OF_07))
        gap_min.append(abs(h_min_smooth(m, eps) / n - H_OF_07))
    assert all(a > b for a, b in zip(gap_max, gap_max[1:]))
    assert all(a > b for a, b in zip(gap_min, gap_min[1:]))
    assert gap_max[-1] < 0.06
    assert gap_min[-1] < 0.06


# ------------------------------------------------------- level decomposition


def test_explicit_spectrum_is_the_unique_output(rng):
    tables = [random_explicit(rng, int(rng.integers(1, 11))) for _ in range(20)]
    tables += [random_explicit(rng, 8, levels=(1.0, 2.0, 3.0)) for _ in range(10)]
    tables += [explicit_of(bernoulli_product(0.7, 12)), make_explicit(2, [("LR", 1.0)])]
    for d in tables:
        p, count = np.unique(d.probs, return_counts=True)
        s = spectrum(d)
        assert np.array_equal(s.log_p, np.log2(p[::-1]))
        assert np.array_equal(s.mass, p[::-1] * count[::-1])
        assert np.array_equal(s.log_count, np.log2(count[::-1]))
        assert s.count.dtype == np.int64 and np.array_equal(s.count, count[::-1])
        assert np.array_equal(np.repeat(d.levels.p, d.levels.count), np.sort(d.probs)[::-1])
        assert spectrum(d).count is d.levels.count  # one decomposition per table
