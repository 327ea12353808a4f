import math

import numpy as np
import pytest

from szilard import (
    apply_plan,
    bernoulli_product,
    bit_profile,
    canonical_permutation,
    explicit_of,
    make_explicit,
    point_mass,
    shannon,
    smooth_report,
    uniform_product,
)
from szilard import compress, probdist
from szilard.compress import BIASED, KNOWN, UNIFORM, BitInfo
from szilard.errors import NotBijective, SupportOverflow
from szilard.probdist import apply_permutation

from util import cnot, random_explicit, same_table


def correlated_pair():
    return make_explicit(2, [("LL", 0.5), ("RR", 0.5)])


# -------------------------------------------------------------------- cnot


def test_cnot_moves_randomness_to_target():
    d = apply_permutation(correlated_pair(), cnot(2, 0, 1))
    assert d.as_dict() == pytest.approx({"LL": 0.5, "RL": 0.5})


def test_cnot_is_an_involution(rng):
    d = random_explicit(rng, 3)
    again = apply_permutation(apply_permutation(d, cnot(3, 1, 2)), cnot(3, 1, 2))
    assert same_table(again, d)


def test_cnot_preserves_shannon(rng):
    d = random_explicit(rng, 3)
    assert shannon(apply_permutation(d, cnot(3, 0, 2))) == shannon(d)


def test_cnot_argument_errors():
    with pytest.raises(NotBijective):  # a CNOT on 3 boxes relabels no 2-box table
        apply_permutation(correlated_pair(), cnot(3, 0, 1))


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
        assert sorted(plan.ranks.tolist()) == list(range(d.support_size))
        # the dense permutation takes each support entry to its rank
        assert np.array_equal(plan.permutation[d.indices], plan.ranks)


@pytest.mark.parametrize("n", [25, 40])
def test_a_dense_permutation_over_the_cap_is_refused_before_it_is_built(monkeypatch, n):
    def refuse(*args):
        raise AssertionError("no 2^n array may be built over the cap")

    monkeypatch.setattr(compress, "_dense_permutation", refuse)
    d = point_mass("L" * n)
    plan = canonical_permutation(d)
    for read in (
        lambda: plan.permutation,
        lambda: apply_plan(d, plan),
    ):
        with pytest.raises(SupportOverflow):
            read()
    assert not {"ranks", "permutation"} & set(vars(plan))
    # the plan's own table is still relabeled by its ranks
    assert plan.ranks.tolist() == [0]
    assert plan.profile == tuple(BitInfo(KNOWN, 0) for _ in range(n))


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
    _check_top(rng, kind)


@pytest.mark.parametrize("chunk", [1, 7])
def test_top_scans_the_boundary_level_across_chunks(monkeypatch, rng, chunk):
    monkeypatch.setattr(probdist, "_CHUNK", chunk)
    for kind in ("distinct", "tied", "flat", "sparse"):
        _check_top(rng, kind)


def _check_top(rng, kind):
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
