import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard import (
    LogProb,
    Outcome,
    apply_permutation,
    bernoulli_product,
    explicit_of,
    h_max,
    h_min,
    make_explicit,
    marginal,
    mixture,
    point_mass,
    sample,
    sample_indices,
    shannon,
    statistical_distance,
    tensor,
    to_type_classes,
    uniform_product,
)
from szilard.errors import (
    ArityMismatch,
    BadOutcomeLength,
    EmptySubset,
    IndexOutOfRange,
    MixedArity,
    NegativeProbability,
    NotBijective,
    NotNormalized,
    SupportOverflow,
    TooLarge,
    WeightSumError,
)
from szilard import probdist
from szilard.numerics import popcount
from szilard.rng import make_rng

from util import random_explicit, random_mixture_params


# ---------------------------------------------------------------- outcomes


def test_outcome_string_index_roundtrip():
    o = Outcome.from_string("LRLL")
    assert o.bits == (0, 1, 0, 0)
    assert o.index == 4
    assert Outcome.from_index(4, 4) == o
    assert str(o) == "LRLL"


def test_outcome_rejects_bad_bits():
    with pytest.raises(BadOutcomeLength):
        Outcome.from_string("LX")
    with pytest.raises(BadOutcomeLength):
        Outcome(())


# ------------------------------------------------------------ construction


def test_make_explicit_two_point():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    assert d.support_size == 2
    assert d.prob_of("LL") == 0.5
    assert d.prob_of("LR") == 0.0


def test_make_explicit_point_mass():
    d = make_explicit(1, [("L", 1.0)])
    assert d.support_size == 1
    assert d.p_max == 1.0


def test_make_explicit_not_normalized():
    with pytest.raises(NotNormalized):
        make_explicit(2, [("LL", 0.6), ("RR", 0.5)])


def test_make_explicit_rejects_bad_entries():
    with pytest.raises(NegativeProbability):
        make_explicit(1, [("L", -0.1), ("R", 1.1)])
    with pytest.raises(BadOutcomeLength):
        make_explicit(2, [("L", 1.0)])
    with pytest.raises(SupportOverflow):
        make_explicit(40, [(0, 1.0)])


def test_make_explicit_drops_zero_entries():
    d = make_explicit(2, [("LL", 0.5), ("LR", 0.0), ("RR", 0.5)])
    assert d.support_size == 2


# ----------------------------------------------------------------- tensor


def test_tensor_of_bernoullis():
    b = explicit_of(bernoulli_product(0.7, 1))
    d = tensor(b, b)
    expected = {"LL": 0.49, "LR": 0.21, "RL": 0.21, "RR": 0.09}
    assert d.as_dict() == pytest.approx(expected, abs=1e-12)


def test_tensor_with_point_mass_keeps_support():
    d = make_explicit(2, [("LL", 0.25), ("LR", 0.75)])
    t = tensor(d, point_mass("R"))
    assert t.support_size == d.support_size
    assert t.n == 3


def test_tensor_cap():
    d = explicit_of(uniform_product(13))
    with pytest.raises(SupportOverflow):
        tensor(d, d)


def test_entropies_additive_over_tensor(rng):
    for _ in range(20):
        p = random_explicit(rng, int(rng.integers(1, 4)))
        q = random_explicit(rng, int(rng.integers(1, 4)))
        t = tensor(p, q)
        assert h_min(t) == pytest.approx(h_min(p) + h_min(q), abs=1e-9)
        assert h_max(t) == pytest.approx(h_max(p) + h_max(q), abs=1e-9)
        assert shannon(t) == pytest.approx(shannon(p) + shannon(q), abs=1e-9)


# --------------------------------------------------------------- mixtures


def test_mixture_all_left_mass():
    m = mixture([0.5, 0.5], [bernoulli_product(1.0, 4), bernoulli_product(0.5, 4)])
    d = explicit_of(m)
    assert d.prob_of("LLLL") == pytest.approx(0.53125, abs=1e-12)


def test_single_component_is_iid():
    m = mixture([1.0], [bernoulli_product(0.7, 3)])
    d = explicit_of(m)
    assert d.prob_of("LLL") == pytest.approx(0.7**3, abs=1e-12)
    assert d.prob_of("RRR") == pytest.approx(0.3**3, abs=1e-12)


def test_mixture_of_two_deterministic_components():
    m = mixture([0.5, 0.5], [bernoulli_product(1.0, 3), bernoulli_product(0.0, 3)])
    d = explicit_of(m)
    assert d.as_dict() == pytest.approx({"LLL": 0.5, "RRR": 0.5})


def test_mixture_weight_errors():
    with pytest.raises(WeightSumError):
        mixture([0.5, 0.4], [bernoulli_product(0.5, 2), bernoulli_product(0.7, 2)])
    with pytest.raises(WeightSumError):
        mixture([1.5, -0.5], [bernoulli_product(0.5, 2), bernoulli_product(0.7, 2)])
    with pytest.raises(MixedArity):
        mixture([0.5, 0.5], [bernoulli_product(0.5, 2), bernoulli_product(0.7, 3)])


# ------------------------------------------------------------ type classes


def test_class_log_prob_matches_direct_formula():
    view = to_type_classes(bernoulli_product(0.7, 1000))
    expected = 700 * math.log2(0.7) + 300 * math.log2(0.3)
    assert view.class_log_prob[300] == pytest.approx(expected, rel=1e-12)


def test_class_masses_sum_to_one(rng):
    for _ in range(10):
        n = int(rng.integers(1, 2000))
        weights, lefts = random_mixture_params(rng, n)
        view = to_type_classes(
            mixture(weights, [bernoulli_product(q, n) for q in lefts])
        )
        total = np.exp2(view.class_log_mass()[view.support_classes()]).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


def test_degenerate_components_have_empty_classes():
    view = to_type_classes(
        mixture([0.5, 0.5], [bernoulli_product(1.0, 5), bernoulli_product(0.0, 5)])
    )
    assert np.isfinite(view.class_log_prob[0])
    assert np.isfinite(view.class_log_prob[5])
    assert not np.isfinite(view.class_log_prob[1:5]).any()


def test_explicit_of_matches_mixture_entrywise(rng):
    for _ in range(10):
        n = int(rng.integers(1, 17))
        weights, lefts = random_mixture_params(rng, n)
        m = mixture(weights, [bernoulli_product(q, n) for q in lefts])
        d = explicit_of(m)
        view = to_type_classes(m)
        for idx in rng.choice(1 << n, size=min(50, 1 << n), replace=False):
            o = Outcome.from_index(int(idx), n)
            k = sum(o.bits)
            assert d.prob_of(o) == pytest.approx(
                2.0 ** view.class_log_prob[k], abs=1e-12
            )


def test_to_type_classes_refuses_huge_n():
    with pytest.raises(TooLarge):
        to_type_classes(bernoulli_product(0.7, 10**12))
    with pytest.raises(TooLarge):
        explicit_of(uniform_product(10**12))


def test_explicit_of_cap():
    with pytest.raises(SupportOverflow):
        explicit_of(bernoulli_product(0.5, 30))


def test_explicit_of_checks_the_cap_before_building_classes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cap must be checked before any class is built")

    monkeypatch.setattr(probdist, "to_type_classes", refuse)
    with pytest.raises(SupportOverflow):
        explicit_of(bernoulli_product(0.7, 10**6))
    with pytest.raises(SupportOverflow):
        explicit_of(bernoulli_product(0.7, 25))


def test_explicit_of_drops_underflowed_strings():
    # 3 boxes at q = 1e-200: LLL (1e-600) and the one-R strings (1e-400)
    # underflow to zero; the two-R strings (1e-200) and RRR stay
    d = explicit_of(bernoulli_product(1e-200, 3))
    assert d.indices.tolist() == [3, 5, 6, 7]
    assert np.all(d.probs > 0.0)
    assert not d.indices.flags.writeable and not d.probs.flags.writeable
    full = explicit_of(bernoulli_product(0.7, 4))
    assert full.indices.tolist() == list(range(16))


def test_explicit_of_probabilities_are_the_class_probabilities(rng):
    # each class probability is exponentiated once and spread over the class;
    # the floats equal exponentiating every string's log-probability
    for n in range(1, 15):
        weights, lefts = random_mixture_params(rng, n)
        m = mixture(weights, [bernoulli_product(q, n) for q in lefts])
        view = to_type_classes(m)
        d = explicit_of(m)
        assert np.array_equal(d.probs, np.exp2(view.class_log_prob[popcount(d.indices)]))


def test_popcount_counts_set_bits(rng):
    values = np.concatenate([
        np.arange(1 << 12, dtype=np.int64),
        rng.integers(0, 2**62, size=2000, dtype=np.int64),
        np.array([2**62 - 1, 2**62, 2**63 - 1], dtype=np.int64),
    ])
    out = popcount(values)
    assert out.dtype == np.int64
    assert out.tolist() == [bin(v).count("1") for v in values.tolist()]


# ---------------------------------------------------------------- marginal


def test_marginal_of_correlated_pair():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    m = marginal(d, [0])
    assert m.as_dict() == pytest.approx({"L": 0.5, "R": 0.5})


def test_marginal_on_all_bits_is_identity(rng):
    d = random_explicit(rng, 4)
    m = marginal(d, range(4))
    assert m.same_table(d, tol=1e-15)


def test_marginal_peak_dominates_joint_peak(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = random_explicit(rng, n)
        k = int(rng.integers(1, n + 1))
        pos = rng.choice(n, size=k, replace=False)
        assert marginal(d, pos).p_max >= d.p_max - 1e-12


def test_marginal_errors():
    d = make_explicit(2, [("LL", 1.0)])
    with pytest.raises(EmptySubset):
        marginal(d, [])
    with pytest.raises(IndexOutOfRange):
        marginal(d, [2])


# ------------------------------------------------------------ permutations


def test_identity_permutation():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    assert apply_permutation(d, np.arange(4)).same_table(d)


def test_cnot_as_permutation():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    perm = np.array([0, 1, 3, 2])  # flip bit 1 where bit 0 is R
    assert apply_permutation(d, perm).as_dict() == pytest.approx({"LL": 0.5, "RL": 0.5})


def test_entropies_invariant_under_permutation(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        d = random_explicit(rng, n)
        shuffled = apply_permutation(d, rng.permutation(1 << n))
        assert shannon(shuffled) == shannon(d)
        assert h_min(shuffled) == h_min(d)
        assert h_max(shuffled) == h_max(d)


def test_not_bijective_rejected():
    d = make_explicit(1, [("L", 1.0)])
    with pytest.raises(NotBijective):
        apply_permutation(d, np.array([0, 0]))


# -------------------------------------------------------------- distance


def test_distance_to_self_is_zero(rng):
    d = random_explicit(rng, 3)
    assert statistical_distance(d, d) == 0.0


def test_distance_of_worked_example_truncation():
    pex = make_explicit(3, [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5)])
    truncated = make_explicit(3, [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5)])
    from szilard.probdist import _from_arrays

    truncated = _from_arrays(3, pex.indices[:2], pex.probs[:2])
    assert statistical_distance(pex, truncated) == pytest.approx(2e-5, rel=1e-9)


def test_distance_monotone_under_more_removal(rng):
    from szilard.probdist import _from_arrays

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


# --------------------------------------------------------------- sampling


def test_point_mass_always_sampled():
    d = point_mass("LRL")
    gen = make_rng(1)
    assert all(str(sample(d, gen)) == "LRL" for _ in range(20))


def test_sample_frequency_two_point():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    idx = sample_indices(d, make_rng(42), 100_000)
    freq = float((idx == 0).mean())
    assert abs(freq - 0.5) <= 0.01  # 4 sigma band at N = 1e5


def test_sample_deterministic_replay():
    d = make_explicit(2, [("LL", 0.3), ("LR", 0.2), ("RR", 0.5)])
    a = [str(sample(d, make_rng(7))) for _ in range(1)]
    seq1 = sample_indices(d, make_rng(7), 1000)
    seq2 = sample_indices(d, make_rng(7), 1000)
    assert np.array_equal(seq1, seq2)
    gen1, gen2 = make_rng(9), make_rng(9)
    assert [str(sample(d, gen1)) for _ in range(50)] == [
        str(sample(d, gen2)) for _ in range(50)
    ]


def test_view_sampling_matches_class_masses():
    m = mixture([0.5, 0.5], [bernoulli_product(1.0, 6), bernoulli_product(0.0, 6)])
    gen = make_rng(3)
    draws = [sample(m, gen) for _ in range(2000)]
    weights = {sum(o.bits) for o in draws}
    assert weights == {0, 6}
    frac0 = sum(1 for o in draws if sum(o.bits) == 0) / len(draws)
    assert abs(frac0 - 0.5) <= 0.05


def test_choice_is_a_search_of_uniforms_in_the_cdf():
    # monte_carlo relies on Generator.choice(k, size, p=p) being exactly
    # cdf.searchsorted(random(size), side="right") with cdf = cumsum(p) / its
    # last entry; a numpy release that changes choice fails here
    tables = [np.array([1.0])]
    gen = np.random.default_rng(5)
    for k in (2, 3, 17, 1000, 70_000):
        raw = gen.exponential(size=k)
        tables.append(raw / raw.sum())
    tiny = np.array([1.0, 1e-300, 5e-324, 1e-310, 1e-17, 3e-308])
    tables.append(tiny / tiny.sum())
    for p in tables:
        for seed in (0, 1, 99, 2**40 + 3):
            for size in (1, 5000):
                want = make_rng(seed).choice(p.size, size=size, p=p)
                cdf = np.cumsum(p)
                cdf /= cdf[-1]
                got = cdf.searchsorted(make_rng(seed).random(size), side="right")
                assert np.array_equal(want, got)


def test_sorted_picks_are_the_sampled_entries_in_order(rng):
    tables = [
        point_mass("LRL"),
        make_explicit(2, [("LL", 0.5), ("RR", 0.5)]),
        random_explicit(rng, 4, levels=(1.0, 2.0)),
        random_explicit(rng, 10, 1 << 10),
        random_explicit(rng, 16, 3000),
    ]
    for d in tables:
        for seed in (3, 4):
            for size in (1, 7, 2000, 20_000):
                gen_a, gen_b = make_rng(seed), make_rng(seed)
                picks = probdist._sorted_picks(d, gen_a, size)
                draws = sample_indices(d, gen_b, size)
                assert np.array_equal(d.indices[picks], np.sort(draws))
                # the generator is left where sample_indices leaves it
                assert gen_a.random() == gen_b.random()


def test_sampling_soundness_tv_band(rng):
    failures = 0
    runs = 120
    n_draws = 4000
    d = random_explicit(rng, 4, support_size=12)
    for seed in range(runs):
        idx = sample_indices(d, make_rng(seed), n_draws)
        counts = np.array([(idx == i).sum() for i in d.indices]) / n_draws
        tv = 0.5 * np.abs(counts - d.probs).sum() + 0.5 * (1 - counts.sum())
        if tv > 4.0 * math.sqrt(d.support_size / n_draws):
            failures += 1
    assert failures <= runs * 0.01


# ----------------------------------------------------------------- LogProb


@given(st.floats(min_value=1e-300, max_value=1.0))
def test_logprob_roundtrip(p):
    assert LogProb.from_value(p).value == pytest.approx(p, rel=1e-12)


def test_logprob_zero_and_algebra():
    zero = LogProb.from_value(0.0)
    half = LogProb.from_value(0.5)
    assert zero.value == 0.0
    assert (half * half).value == pytest.approx(0.25, rel=1e-12)
    assert (half + half).value == pytest.approx(1.0, rel=1e-12)
    assert zero < half


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=16),
    st.integers(0, 3),
)
def test_normalization_invariant(weights, n_extra):
    n = max(1, (len(weights) - 1).bit_length() + n_extra)
    if (1 << n) < len(weights):
        n = len(weights).bit_length()
    total = sum(weights)
    d = make_explicit(n, [(i, w / total) for i, w in enumerate(weights)])
    assert d.total() == pytest.approx(1.0, abs=1e-9)
