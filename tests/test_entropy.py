import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard import (
    bernoulli_product,
    binary_entropy,
    build_riskfree_strategy,
    check_inequalities,
    entropy,
    exact_evaluate,
    explicit_of,
    gambler_work_bound,
    h_max,
    h_max_smooth,
    h_max_smooth_detail,
    h_min,
    h_min_smooth,
    h_min_smooth_detail,
    make_explicit,
    mixture,
    probdist,
    riskfree_work_executable,
    shannon,
    smooth_report,
    spectrum,
    statistical_distance,
    uniform_product,
    work_bounds,
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


def test_shannon_pairwise_sum_matches_fsum(rng):
    dists = [bernoulli_product(0.7, n) for n in (1000, 2049, 100_000)]
    dists += [mixture([0.5, 0.5], [bernoulli_product(1.0, 5000), bernoulli_product(0.7, 5000)])]
    dists += [random_explicit(rng, 12) for _ in range(5)]
    for d in dists:
        s = spectrum(d)
        exact = -math.fsum(s.mass * s.log_p)
        assert abs(shannon(d) - exact) <= 1e-9


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_h_max_smooth_spends_a_budget_of_whole_outcomes(n):
    # eps = j / 2^n buys exactly j outcomes of uniform^n, as a table and as classes
    for dist in (explicit_of(uniform_product(n)), uniform_product(n)):
        for j in range(1 << n):
            eps = j / (1 << n)
            detail = h_max_smooth_detail(dist, eps)
            assert detail.retained_count == (1 << n) - j
            assert detail.removed_mass <= eps


def test_h_max_smooth_matches_bruteforce_on_dyadic_tables(rng):
    # tied multiples of 1 / 2^m, so a budget on that grid buys whole outcomes
    for _ in range(40):
        n = int(rng.integers(1, 5))
        units = rng.choice([1, 1, 2, 4], size=int(rng.integers(1, 1 << n)))
        total = 1 << int(units.sum()).bit_length()
        probs = np.append(units, total - units.sum()) / total
        idx = rng.choice(1 << n, size=probs.size, replace=False)
        d = make_explicit(n, list(zip(idx.tolist(), probs.tolist())))
        for j in range(total):
            assert h_max_smooth(d, j / total) == brute_hmax_smooth(d, j / total)


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


def test_one_spectrum_per_distribution(monkeypatch):
    aggregate = probdist.to_type_classes
    calls = []

    def counting(m):
        calls.append(m)
        return aggregate(m)

    monkeypatch.setattr(probdist, "to_type_classes", counting)
    two_term = mixture(
        [0.4, 0.6], [bernoulli_product(0.9, 3000), bernoulli_product(0.2, 3000)]
    )
    for m in (bernoulli_product(0.7, 3000), two_term):
        calls.clear()
        smooth_report(m, 1e-3)
        work_bounds(m, 1e-3, 1.0)
        riskfree_work_executable(m, 1e-3, 1.0)
        gambler_work_bound(m, 1e-3, 1.0)
        assert calls == [m]
        assert spectrum(m) is spectrum(m)


def counting_solves(monkeypatch) -> list[tuple[str, float]]:
    """Record (solver, eps) for every spectrum-level smoothing solve."""
    calls = []
    for name in ("_solve_max", "_solve_min"):
        def counting(s, eps, solve=getattr(entropy, name), name=name):
            calls.append((name, eps))
            return solve(s, eps)

        monkeypatch.setattr(entropy, name, counting)
    return calls


def test_one_solve_per_spectrum_and_eps(monkeypatch):
    calls = counting_solves(monkeypatch)
    two_term = mixture(
        [0.4, 0.6], [bernoulli_product(0.9, 3000), bernoulli_product(0.2, 3000)]
    )
    one_each = [("_solve_max", 1e-3), ("_solve_min", 1e-3)]
    for m in (bernoulli_product(0.7, 3000), two_term):
        calls.clear()
        smooth_report(m, 1e-3)
        work_bounds(m, 1e-3, 1.0)
        riskfree_work_executable(m, 1e-3, 1.0)
        gambler_work_bound(m, 1e-3, 1.0)
        assert sorted(calls) == one_each
        smooth_report(m, 2e-4)  # a second eps gets its own solves
        smooth_report(m, 1e-3)
        assert sorted(calls) == sorted(one_each + [("_solve_max", 2e-4), ("_solve_min", 2e-4)])

    d = explicit_of(bernoulli_product(0.7, 10))
    calls.clear()
    report = smooth_report(d, 1e-3)
    strategy = build_riskfree_strategy(d, 1e-3, 1.0)
    assert check_inequalities(d, strategy, exact_evaluate(d, strategy), 1e-3, 1.0) == []
    assert sorted(calls) == one_each
    # witnesses are built per call, from the one solve
    first, again = h_min_smooth_detail(d, 1e-3), h_min_smooth_detail(d, 1e-3)
    assert first.witness is not again.witness and first.bits == report.h_min_smooth
    assert math.log2(h_max_smooth_detail(d, 1e-3).witness.support_size) == report.h_max_smooth
    assert sorted(calls) == one_each


def full_scan_cut(s, prefix_mass, eps) -> int:
    """The H_min^eps cut from one accumulate over every level."""
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = np.log2(prefix_mass - eps) - np.logaddexp2.accumulate(s.log_count)
    return int(np.argmax(levels >= np.append(s.log_p[1:], -np.inf))) + 1


def assert_prefix_cut_is_the_full_scan(monkeypatch, s, eps) -> int:
    prefix_mass = np.cumsum(s.mass)
    m = entropy._cut(s, prefix_mass, eps)
    assert m == full_scan_cut(s, prefix_mass, eps)
    got = entropy._solve_min(s, eps)
    with monkeypatch.context() as patch:
        patch.setattr(entropy, "_cut", full_scan_cut)
        want = entropy._solve_min(s, eps)
    assert got == want
    assert got[0].bits.hex() == want[0].bits.hex()
    return m


def test_prefix_cut_is_the_full_scan_cut_bit_for_bit(monkeypatch):
    cuts = []
    for n in (1000, 2048, 2049, 5000, 10**4, 31623, 10**5):
        mix = mixture([0.5, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.7, n)])
        assert assert_prefix_cut_is_the_full_scan(monkeypatch, spectrum(mix), 1e-3) == 1
        for q in (0.6, 0.7, 0.8):
            s = spectrum(bernoulli_product(q, n))
            for eps in (0.0, 1e-5, 1e-3, 1e-2):
                cuts.append(assert_prefix_cut_is_the_full_scan(monkeypatch, s, eps))
    # the i.i.d. cuts sit many chunks deep: 29,554 of 100,001 levels at q = 0.7, eps = 1e-3
    assert max(cuts) > 2**8 * entropy._CUT_CHUNK


def test_prefix_cut_on_chunk_edges_and_the_last_level(monkeypatch):
    # 2^16 distinct levels of one outcome each: shaving the top m levels
    # down to level m + 1 removes f(m) = S_m - m p[m], so an eps strictly
    # between f(m - 1) and f(m) cuts at m
    rng = np.random.default_rng(7)
    raw = rng.exponential(size=1 << 16)
    d = probdist._sorted_table(16, np.arange(1 << 16), raw / raw.sum())
    s = spectrum(d)
    assert s.p.size == 1 << 16 and "indices" not in vars(d)
    f = np.cumsum(s.p) - np.arange(1, s.p.size + 1) * np.append(s.p[1:], 0.0)
    chunk = entropy._CUT_CHUNK
    edges = [chunk * (2**k - 1) for k in range(1, 8)]
    targets = [1, 2] + [e + j for e in edges for j in (-1, 0, 1)] + [s.p.size]
    for m in targets:
        eps = float(f[m - 2] + f[m - 1]) / 2 if m > 1 else float(f[0]) / 2
        assert assert_prefix_cut_is_the_full_scan(monkeypatch, s, eps) == m
    assert assert_prefix_cut_is_the_full_scan(monkeypatch, s, 0.0) == 1
    two = spectrum(make_explicit(1, [("L", 0.6), ("R", 0.4)]))
    assert assert_prefix_cut_is_the_full_scan(monkeypatch, two, 0.3) == 2


def test_witnesses_of_a_full_table_build_no_index_range(rng):
    tables = [explicit_of(bernoulli_product(0.7, 12)), random_explicit(rng, 10, support_size=300)]
    for d in tables:
        full = "indices" not in vars(d)
        solved = []
        for eps in (0.0, 1e-3, 0.05):
            wmax, wmin = h_max_smooth_detail(d, eps).witness, h_min_smooth_detail(d, eps).witness
            assert ("indices" not in vars(d)) == full
            assert ("indices" not in vars(wmin)) == full
            solved.append((wmax, wmin, entropy._solve_min(spectrum(d), eps)[1]))
        # equal to the witnesses built through the table's index range
        indices = np.arange(1 << d.n) if full else d.indices
        for wmax, wmin, lam in solved:
            keep = d.top(wmax.support_size)
            want_max = d if keep is None else probdist._from_arrays(d.n, indices[keep], d.probs[keep])
            probs = d.probs if lam is None else np.minimum(d.probs, lam)
            want_min = probdist._from_arrays(d.n, indices, probs)
            for got, want in ((wmax, want_max), (wmin, want_min)):
                assert np.array_equal(got.probs, want.probs)
                assert np.array_equal(got.indices, want.indices)
