import math

import numpy as np
import pytest

from szilard import (
    apply_cnot,
    apply_plan,
    bennett_work,
    bernoulli_product,
    bit_profile,
    canonical_permutation,
    explicit_of,
    h_max,
    make_explicit,
    riskfree_work,
    shannon,
    smooth_report,
    uniform_product,
)
from szilard.compress import BIASED, KNOWN, UNIFORM, CompressionPlan
from szilard.errors import BiasedBitsPresent, IndexOutOfRange, SamePosition
from szilard.probdist import apply_permutation

from util import random_explicit


def correlated_pair():
    return make_explicit(2, [("LL", 0.5), ("RR", 0.5)])


# -------------------------------------------------------------------- cnot


def test_cnot_moves_randomness_to_target():
    d = apply_cnot(correlated_pair(), 0, 1)
    assert d.as_dict() == pytest.approx({"LL": 0.5, "RL": 0.5})


def test_cnot_is_an_involution(rng):
    d = random_explicit(rng, 3)
    again = apply_cnot(apply_cnot(d, 1, 2), 1, 2)
    assert again.same_table(d)


def test_cnot_preserves_shannon(rng):
    d = random_explicit(rng, 3)
    assert shannon(apply_cnot(d, 0, 2)) == shannon(d)


def test_cnot_argument_errors():
    d = correlated_pair()
    with pytest.raises(SamePosition):
        apply_cnot(d, 1, 1)
    with pytest.raises(IndexOutOfRange):
        apply_cnot(d, 0, 2)


# ------------------------------------------------------------- compression


def test_canonical_permutation_on_correlated_pair():
    plan = canonical_permutation(correlated_pair())
    compressed = apply_plan(correlated_pair(), plan)
    assert compressed.as_dict() == pytest.approx({"LL": 0.5, "LR": 0.5})
    assert plan.profile[0].kind == KNOWN and plan.profile[0].value == 0
    assert plan.profile[1].kind == UNIFORM


def test_sorted_distribution_compresses_to_identity():
    d = make_explicit(2, [("LL", 0.5), ("LR", 0.3), ("RL", 0.2)])
    plan = canonical_permutation(d)
    assert np.array_equal(plan.permutation, np.arange(4))


def test_worked_example_compacts_to_leading_indices():
    pex = make_explicit(3, [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5)])
    plan = canonical_permutation(pex)
    compressed = apply_plan(pex, plan)
    assert set(compressed.indices.tolist()) == {0, 1, 2, 3}
    assert plan.profile[0].kind == KNOWN and plan.profile[0].value == 0


def test_compaction_bound(rng):
    for _ in range(20):
        d = random_explicit(rng, int(rng.integers(1, 6)))
        plan = canonical_permutation(d)
        compressed = apply_plan(d, plan)
        k = compressed.support_size
        assert compressed.indices.max() == k - 1  # support fills 0..k-1
        leading_known = sum(
            1 for b in plan.profile if b.kind == KNOWN and b.value == 0
        )
        assert leading_known >= d.n - math.ceil(math.log2(k)) if k > 1 else True


def test_compression_is_idempotent(rng):
    for _ in range(10):
        d = random_explicit(rng, 4)
        compressed = apply_plan(d, canonical_permutation(d))
        again = canonical_permutation(compressed)
        assert np.array_equal(again.permutation, np.arange(1 << d.n))


def test_entropy_report_invariant_under_plan(rng):
    for _ in range(10):
        d = random_explicit(rng, 4)
        eps = float(rng.uniform(0.0, 0.3))
        compressed = apply_plan(d, canonical_permutation(d))
        assert smooth_report(compressed, eps) == smooth_report(d, eps)


def reference_plan(d):
    """Sort by (-prob, index), relabel densely, then profile the relabeled table."""
    size = 1 << d.n
    perm = np.empty(size, dtype=np.int64)
    perm[d.indices[np.lexsort((d.indices, -d.probs))]] = np.arange(d.support_size)
    perm[np.setdiff1d(np.arange(size), d.indices)] = np.arange(d.support_size, size)
    return perm, bit_profile(apply_permutation(d, perm))


def plan_cases(rng, case):
    for _ in range(30):
        n = int(rng.integers(1, 10))
        if case == "dense":
            yield random_explicit(rng, n, 1 << n)
        elif case == "sparse":
            yield random_explicit(rng, n + 6, int(rng.integers(2, 40)))
        elif case == "tied":
            yield random_explicit(rng, n, levels=(1.0, 2.0, 3.0))
        elif case == "odd_support":
            n += 1
            k = int(rng.integers(3, (1 << n) + 1))
            yield random_explicit(rng, n, k - 1 if k & (k - 1) == 0 else k)
        elif case == "single":
            yield random_explicit(rng, n, 1)
        else:
            yield explicit_of(uniform_product(n))


@pytest.mark.parametrize("case", ["dense", "sparse", "tied", "odd_support", "single", "uniform"])
def test_canonical_permutation_matches_reference_construction(rng, case):
    for d in plan_cases(rng, case):
        plan = canonical_permutation(d)
        perm, profile = reference_plan(d)
        assert np.array_equal(plan.permutation, perm)
        assert plan.profile == profile
        assert plan.profile == bit_profile(apply_plan(d, plan))
        if case == "uniform":
            assert all(b.kind == UNIFORM for b in plan.profile)


def test_canonical_plan_holds_ranks_and_builds_the_rest_on_request(rng):
    for d in (random_explicit(rng, 6), random_explicit(rng, 12, 40)):
        plan = canonical_permutation(d)
        assert not {"ranks", "permutation", "profile"} & set(vars(plan))
        assert plan.image(d) is plan.ranks
        assert sorted(plan.ranks.tolist()) == list(range(d.support_size))
        # another table on the same boxes is relabeled through the dense permutation
        other = random_explicit(rng, d.n)
        assert np.array_equal(plan.image(other), plan.permutation[other.indices])
        dense = CompressionPlan(d.n, plan.permutation)
        assert np.array_equal(dense.image(d), plan.ranks)
    with pytest.raises(TypeError):
        CompressionPlan(3)


def test_a_plan_built_from_a_permutation_has_no_profile():
    plan = CompressionPlan(2, np.arange(4))
    with pytest.raises(TypeError):
        plan.profile


@pytest.mark.parametrize("distinct", [1, 256, 257, 65536, 65537])
def test_canonical_ranks_match_a_lexsort_at_many_levels(rng, distinct):
    # two entries on each of 1 to 65537 levels, shuffled over the indices
    raw = np.arange(1, distinct + 1, dtype=float)
    raw = np.repeat(raw, 2)[rng.permutation(2 * distinct)]
    d = make_explicit(18, list(zip(range(raw.size), (raw / raw.sum()).tolist())))
    assert d.levels.p.size == distinct
    plan = canonical_permutation(d)
    want = np.empty(d.support_size, dtype=np.int64)
    want[np.lexsort((d.indices, -d.probs))] = np.arange(d.support_size)
    assert np.array_equal(plan.ranks, want)


@pytest.mark.parametrize("kind", ["distinct", "tied", "flat", "sparse"])
def test_top_is_the_entries_ranked_below_size(rng, kind):
    for _ in range(25):
        n = int(rng.integers(1, 13))
        if kind == "distinct":
            d = random_explicit(rng, n)
        elif kind == "tied":
            d = random_explicit(rng, n, levels=(1.0, 2.0, 3.0))
        elif kind == "flat":
            d = random_explicit(rng, n, levels=(1.0,))
        else:
            d = random_explicit(rng, n, int(rng.integers(1, min(40, 1 << n) + 1)))
        # the cells of the canonical bets, and one size in 0..k + 1 (0: the empty mask)
        sizes = [1 << (n - b) for b in range(n + 1)] + [int(rng.integers(0, d.support_size + 2))]
        masks = [d.top(size) for size in sizes]
        ranks = canonical_permutation(d).ranks
        for size, mask in zip(sizes, masks):
            want = ranks < size
            if mask is None:  # the whole support, and only it
                assert want.all()
            else:
                assert np.array_equal(mask, want) and not want.all()


# ---------------------------------------------------------------- profiles


def test_point_mass_profile_all_known():
    d = make_explicit(3, [("LRL", 1.0)])
    profile = bit_profile(d)
    assert [b.kind for b in profile] == [KNOWN] * 3
    assert [b.value for b in profile] == [0, 1, 0]


def test_biased_bit_appears_for_iid_bernoulli():
    d = explicit_of(bernoulli_product(0.7, 2))
    compressed = apply_plan(d, canonical_permutation(d))
    assert any(b.kind == BIASED for b in bit_profile(compressed))


# ----------------------------------------------------------------- bennett


def test_bennett_work_on_known_uniform_profile():
    plan = canonical_permutation(correlated_pair())
    assert bennett_work(plan.profile, 1.0) == 1.0


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
        correlated_pair(),
        make_explicit(3, [("LLL", 1.0)]),
        explicit_of(bernoulli_product(0.5, 3)),
        make_explicit(3, [(i, 0.25) for i in range(4)]),
        make_explicit(3, [(0, 0.4), (1, 0.1), (2, 0.1), (3, 0.4)]),
    ]
    for d in cases:
        plan = canonical_permutation(d)
        compressed = apply_plan(d, plan)
        profile = bit_profile(compressed)
        if any(b.kind == BIASED for b in profile):
            continue
        assert bennett_work(profile, 1.0) == riskfree_work(d, 0.0, 1.0).bits
        assert bennett_work(profile, 1.0) == d.n - h_max(d)
