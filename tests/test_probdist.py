import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard import (
    bernoulli_product,
    explicit_of,
    h_max,
    h_min,
    make_explicit,
    mixture,
    point_mass,
    sample_indices,
    shannon,
    to_type_classes,
    uniform_product,
)
from szilard.errors import (
    BadOutcomeLength,
    IndexOutOfRange,
    MixedArity,
    NegativeProbability,
    NotBijective,
    NotNormalized,
    SupportOverflow,
    SzilardError,
    TooLarge,
    WeightSumError,
)
from szilard import compress, entropy, probdist
from szilard.numerics import binomials, log2_binomials
from szilard.oracle import apply_permutation, bit_profile, statistical_distance
from szilard.rng import make_rng

from util import (
    popcount,
    prob_of,
    random_explicit,
    random_mixture_params,
    same_table,
    sorted_picks,
    tensor,
)


# ---------------------------------------------------------------- outcomes


def test_l_r_strings_and_indices_name_each_other():
    # box 0 is the most significant bit: LRLL is index 4 on four boxes
    assert probdist._as_index("LRLL", 4) == 4
    assert probdist._lr_string(4, 4) == "LRLL"
    for n in (1, 3, 7):
        strings = [probdist._lr_string(i, n) for i in range(1 << n)]
        assert strings == sorted(strings) and len(set(strings)) == 1 << n
        assert [probdist._as_index(o, n) for o in strings] == list(range(1 << n))
    table = make_explicit(3, [(6, 0.5), ("LLR", 0.25), (0, 0.25)])
    assert list(table.items()) == [("LLL", 0.25), ("LLR", 0.25), ("RRL", 0.5)]


def test_point_mass_takes_an_l_r_string_only():
    assert point_mass("RLR").indices.tolist() == [5]
    for bad in ("LX", "", "lr", "L R"):
        with pytest.raises(BadOutcomeLength, match="must use only L/R"):
            point_mass(bad)


# ------------------------------------------------------------ construction


def test_make_explicit_two_point():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    assert d.support_size == 2
    assert prob_of(d, "LL") == 0.5
    assert prob_of(d, "LR") == 0.0


def test_make_explicit_point_mass():
    d = make_explicit(1, [("L", 1.0)])
    assert d.support_size == 1
    assert float(d.probs.max()) == 1.0


def test_make_explicit_not_normalized():
    with pytest.raises(NotNormalized):
        make_explicit(2, [("LL", 0.6), ("RR", 0.5)])
    for entries in ([("L", math.nan), ("R", math.nan)], [("L", 1.0), ("R", math.nan)]):
        with pytest.raises(NotNormalized, match="nan"):
            make_explicit(1, entries)


def test_make_explicit_rejects_bad_entries():
    with pytest.raises(NegativeProbability):
        make_explicit(1, [("L", -0.1), ("R", 1.1)])
    with pytest.raises(BadOutcomeLength):
        make_explicit(2, [("L", 1.0)])
    with pytest.raises(SupportOverflow):
        make_explicit(40, [(0, 1.0)])


def test_make_explicit_names_the_first_offending_entry():
    with pytest.raises(NegativeProbability, match=r"-0\.2 for outcome RL$"):
        make_explicit(2, [("LL", 0.9), ("LR", 0.4), ("RL", -0.2), ("RR", -0.1)])
    for bad in (4, -1, 2**70):
        with pytest.raises(IndexOutOfRange, match=f"^index {bad} outside"):
            make_explicit(2, [(0, 0.5), (1, 0.25), (bad, 0.25), (9, 0.0)])
    with pytest.raises(BadOutcomeLength, match="RLR has 3 bits"):
        make_explicit(2, [(0, 0.5), ("RLR", 0.25), ("R", 0.25)])
    # LR repeats index 1 before LL repeats index 0
    with pytest.raises(SzilardError, match="duplicate outcome LR$") as err:
        make_explicit(2, [(1, 0.25), (0, 0.25), ("LR", 0.25), ("LL", 0.25)])
    assert type(err.value) is SzilardError
    with pytest.raises(SzilardError, match="duplicate outcome LL$"):  # a zero entry counts too
        make_explicit(2, [(0, 1.0), ("LL", 0.0)])


def test_make_explicit_checks_form_then_sign_then_repeats_then_total():
    with pytest.raises(IndexOutOfRange):
        make_explicit(2, [("LL", -0.5), (7, 1.5)])
    with pytest.raises(NegativeProbability):
        make_explicit(2, [(0, 1.5), (0, -0.5)])
    with pytest.raises(SzilardError, match="duplicate") as err:
        make_explicit(2, [(0, 0.7), (0, 0.7)])
    assert type(err.value) is SzilardError


def test_make_explicit_takes_every_outcome_form_at_once():
    # raw ints pass straight through; the other forms go through _as_index
    entries = [(5, 0.125), (np.int64(6), 0.0), (True, 0.125), ("RRR", 0.25), ("LLL", 0.125),
               ("LRL", 0.125), (np.uint8(4), 0.125), ("LRR", 0.125)]
    d = make_explicit(3, entries)
    assert d.indices.tolist() == [0, 1, 2, 3, 4, 5, 7]
    assert d.probs.tolist() == [0.125] * 6 + [0.25]
    assert same_table(make_explicit(3, iter(entries)), d)
    # a bit tuple or list among them is refused, not read as an index
    for bad in ((1, 0, 0), [0, 1, 1]):
        with pytest.raises(BadOutcomeLength):
            make_explicit(3, entries + [(bad, 0.0)])


def test_outcome_forms_name_the_same_index():
    # RLR is index 5 on three boxes, in every form make_explicit accepts
    for form in (5, np.int64(5), np.uint8(5), "RLR"):
        idx = probdist._as_index(form, 3)
        assert idx == 5 and type(idx) is int
    assert probdist._as_index(True, 3) == 1 and probdist._as_index(False, 3) == 0
    for bad in (8, -1, np.int64(8), 2**70):
        with pytest.raises(IndexOutOfRange):
            probdist._as_index(bad, 3)
    # an index or an L/R string of length n, and nothing else: bit sequences,
    # bytes, floats and None are refused
    for bad in ("RL", "RXL", "", (1, 0, 1), [1, 0, 1], (1, 0), (1, 2, 0), np.array([1, 0, 1]),
                b"RLR", 5.0, None):
        with pytest.raises(BadOutcomeLength):
            probdist._as_index(bad, 3)
    d = make_explicit(3, [(5, 0.25), ("LLL", 0.25), ("LRL", 0.25), (np.int64(3), 0.25)])
    assert d.indices.tolist() == [0, 2, 3, 5]


def test_make_explicit_drops_zero_entries():
    d = make_explicit(2, [("LL", 0.5), ("LR", 0.0), ("RR", 0.5)])
    assert d.support_size == 2


# --------------------------------------------------------------- products


def test_tensor_of_bernoullis():
    b = explicit_of(bernoulli_product(0.7, 1))
    d = tensor(b, b)
    expected = {"LL": 0.49, "LR": 0.21, "RL": 0.21, "RR": 0.09}
    assert d.as_dict() == pytest.approx(expected, abs=1e-12)
    assert same_table(d, explicit_of(bernoulli_product(0.7, 2)), tol=1e-15)


def test_tensor_with_point_mass_keeps_support():
    d = make_explicit(2, [("LL", 0.25), ("LR", 0.75)])
    t = tensor(d, point_mass("R"))
    assert t.support_size == d.support_size
    assert t.n == 3


def test_tensor_cap():
    d = explicit_of(uniform_product(13))
    with pytest.raises(SupportOverflow):  # make_explicit checks 2^26 before reading entries
        tensor(d, d)


def test_tensor_drops_underflowed_products():
    a = make_explicit(1, [("L", 1 - 1e-200), ("R", 1e-200)])
    t = tensor(a, a)  # RR underflows to 0.0
    assert t.as_dict() == {"LL": (1 - 1e-200) ** 2, "LR": 1e-200, "RL": 1e-200}
    with np.errstate(divide="raise", invalid="raise"):  # no log2(0) in the levels
        assert t.support_size == 3 and h_max(t) == math.log2(3)
        assert np.all(t.levels.p > 0.0)


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
    assert prob_of(d, "LLLL") == pytest.approx(0.53125, abs=1e-12)


def test_single_component_is_iid():
    m = mixture([1.0], [bernoulli_product(0.7, 3)])
    d = explicit_of(m)
    assert prob_of(d, "LLL") == pytest.approx(0.7**3, abs=1e-12)
    assert prob_of(d, "RRR") == pytest.approx(0.3**3, abs=1e-12)


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
    # a NaN weight is neither <= 0 nor off 1 by more than the tolerance
    for weights in ([math.nan, 1.0], [1.0, math.nan], [math.nan, math.nan]):
        with pytest.raises(WeightSumError):
            mixture(weights, [bernoulli_product(0.5, 4), bernoulli_product(0.7, 4)])
    # tables, and tables beside product families, meet the same checks
    table = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    for components in ([table, point_mass("LR")], [table, bernoulli_product(0.7, 2)]):
        for weights in ([0.5, 0.4], [1.5, -0.5], [2.0, -1.0], [1.0, 0.0], [math.inf, -math.inf],
                        [math.nan, 1.0], [1.0, math.nan], [1.0]):
            with pytest.raises(WeightSumError):
                mixture(weights, components)
    with pytest.raises(MixedArity):
        mixture([0.5, 0.5], [table, point_mass("LRL")])
    with pytest.raises(MixedArity):
        mixture([0.5, 0.5], [table, bernoulli_product(0.7, 3)])


def test_mixture_with_a_table_is_a_table():
    d = mixture([0.25, 0.75], [point_mass("LR"), uniform_product(2)])
    assert d.as_dict() == {"LL": 0.1875, "LR": 0.4375, "RL": 0.1875, "RR": 0.1875}
    # product families alone stay a product family, flattened
    m = mixture([0.25, 0.75], [uniform_product(2), mixture([0.5, 0.5], [uniform_product(2)] * 2)])
    assert m.components == ((0.25, 0.5), (0.375, 0.5), (0.375, 0.5))
    assert explicit_of(d) is d
    # all-L and all-R product families add one entry each, far above the 2^24 cap
    for n in (3, 40, 63):
        alt = point_mass(("LR" * n)[:n])
        d = mixture([0.25, 0.25, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.0, n), alt])
        assert d.indices.tolist() == [0, alt.indices[0], (1 << n) - 1]
        assert d.probs.tolist() == [0.25, 0.5, 0.25]
    family = mixture([0.5, 0.5], [bernoulli_product(1.0, 30), bernoulli_product(1.0, 30)])
    d = mixture([0.5, 0.5], [family, point_mass("R" * 30)])
    assert d.indices.tolist() == [0, (1 << 30) - 1]
    assert d.probs.tolist() == [0.5, 0.5]


def test_point_mass_index_must_fit_int64():
    top = point_mass("L" + "R" * 63)  # 2^63 - 1, the largest int64
    assert top.indices.tolist() == [2**63 - 1] and top.probs.tolist() == [1.0]
    for text in ("R" + "L" * 63, "R" * 64, "R" + "L" * 69):
        with pytest.raises(SupportOverflow):
            point_mass(text)


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
        log_mass = view.class_log_prob + view.class_log_count
        total = np.exp2(log_mass[view.support_classes()]).sum()
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
            o = format(int(idx), f"0{n}b").replace("0", "L").replace("1", "R")
            k = o.count("R")
            assert prob_of(d, o) == pytest.approx(
                2.0 ** view.class_log_prob[k], abs=1e-12
            )


@pytest.mark.parametrize("n", [2049, 5000, 30000, 100000])
def test_log2_binomials_above_the_exact_range_match_math_comb(n):
    logs = log2_binomials(n)
    assert logs.shape == (n + 1,)
    ks = np.unique(np.r_[0, 1, 15, 16, 17, np.linspace(0, n, 35).astype(int), n - 1, n])
    exact = np.array([math.log2(math.comb(n, int(k))) for k in ks])
    assert np.max(np.abs(logs[ks] - exact)) <= 1e-9


def test_exact_binomial_row_is_math_comb():
    # the row is built for k <= n/2 and mirrored
    for n in list(range(65)) + [1000, 2047, 2048]:
        logs, exact = binomials(n)
        assert exact.tolist() == [math.comb(n, k) for k in range(n + 1)]
        assert logs.tolist() == [math.log2(math.comb(n, k)) for k in range(n + 1)]


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


def test_the_row_gather_is_the_flat_class_gather():
    # n = 1 has no low bits; q in {0, 1} empties every class but one
    for n in range(1, 23):
        for m in (
            bernoulli_product(0.7, n),
            bernoulli_product(0.0, n),
            mixture([0.4, 0.6], [bernoulli_product(0.0, n), bernoulli_product(1.0, n)]),
            mixture([0.5, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.3, n)]),
        ):
            flat = np.exp2(to_type_classes(m).class_log_prob)[np.bitwise_count(np.arange(1 << n))]
            keep = flat > 0.0
            d = explicit_of(m)
            assert ("indices" in vars(d)) == (not keep.all())
            assert np.array_equal(d.probs, flat[keep])
            assert np.array_equal(d.indices, np.flatnonzero(keep))
            assert not d.indices.flags.writeable and not d.probs.flags.writeable


def test_tables_of_every_outcome_carry_no_index_array(rng):
    for n in (1, 2, 5, 9):
        tables = [
            explicit_of(bernoulli_product(0.7, n)),
            random_explicit(rng, n, 1 << n),
            random_explicit(rng, n, 1 << n, levels=(1.0, 2.0)),
            probdist._from_arrays(n, np.arange(1 << n)[::-1], np.full(1 << n, 0.5**n)),
        ]
        for d in tables:
            assert "indices" not in vars(d) and d.support_size == 1 << n
            assert np.array_equal(d.indices, np.arange(1 << n))
            assert d.indices.dtype == np.int64 and not d.indices.flags.writeable
    a, b = explicit_of(bernoulli_product(0.7, 3)), random_explicit(rng, 2, 4)
    indexed = tensor(*(probdist.ExplicitDistribution(t.n, t.indices, t.probs) for t in (a, b)))
    for t in (tensor(a, b), indexed):
        assert "indices" not in vars(t) and not t.probs.flags.writeable
    assert same_table(tensor(a, b), indexed)
    assert not same_table(tensor(a, random_explicit(rng, 2, 3)), indexed)


def test_tables_without_an_index_array_answer_as_indexed_ones():
    """Every reader of ``indices`` sees the range an index array would hold."""
    for n in (1, 4, 7):
        for implicit_of in (
            lambda: explicit_of(bernoulli_product(0.7, n)),
            lambda: explicit_of(mixture([0.5, 0.5], [uniform_product(n), bernoulli_product(0.2, n)])),
        ):
            d = implicit_of()
            indexed = probdist.ExplicitDistribution(n, np.arange(1 << n), d.probs)
            assert "indices" in vars(indexed)
            sparse = probdist._from_arrays(n, np.arange(1, 1 << n), d.probs[1:])
            assert same_table(implicit_of(), indexed) and same_table(indexed, implicit_of())
            assert not same_table(implicit_of(), sparse) and not same_table(sparse, implicit_of())
            moved = probdist._from_arrays(n, np.arange((1 << n) - 1), d.probs[1:])
            assert same_table(sparse, sparse) and not same_table(sparse, moved)
            assert list(implicit_of().items()) == list(indexed.items())
            assert implicit_of().as_dict() == indexed.as_dict()
            assert statistical_distance(implicit_of(), sparse) == statistical_distance(indexed, sparse)
            for eps in (0.0, 0.05, 0.3):
                for detail in (entropy.h_max_smooth_detail, entropy.h_min_smooth_detail):
                    got, want = detail(implicit_of(), eps).witness, detail(indexed, eps).witness
                    assert same_table(got, want)
                    assert np.array_equal(got.indices, want.indices)
            got, want = (compress.canonical_permutation(t) for t in (implicit_of(), indexed))
            assert np.array_equal(got.permutation, want.permutation)
            assert not got.permutation.flags.writeable
            assert bit_profile(apply_permutation(implicit_of(), got.permutation)) == bit_profile(
                apply_permutation(indexed, want.permutation)
            )
            assert bit_profile(implicit_of()) == bit_profile(indexed)
            assert np.array_equal(
                sample_indices(implicit_of(), make_rng(3), 50), sample_indices(indexed, make_rng(3), 50)
            )


def _tying_mixtures(rng, count):
    """Random mixtures whose classes tie and underflow: q in {0, 1/2, 1},
    symmetric q / 1 - q pairs of equal weight, and q near the float floor."""
    for _ in range(count):
        n = int(rng.integers(1, 15))
        terms = []  # (raw weight, left probability)
        for _ in range(int(rng.integers(1, 4))):
            w, q = float(rng.random() + 0.05), float(rng.uniform(0.05, 0.95))
            kind = int(rng.integers(4))
            if kind == 0:
                terms.append((w, float(rng.choice([0.0, 0.5, 1.0]))))
            elif kind == 1:
                terms += [(w, q), (w, 1.0 - q)]
            elif kind == 2:
                terms.append((w, float(rng.choice([1e-200, 1e-30, 1.0 - 1e-16]))))
            else:
                terms.append((w, q))
        total = math.fsum(w for w, _ in terms)
        yield mixture([w / total for w, _ in terms], [bernoulli_product(q, n) for _, q in terms])


def test_explicit_of_takes_its_levels_from_the_classes(rng):
    for m in _tying_mixtures(rng, 400):
        d = explicit_of(m)
        assert "levels" in vars(d)  # set from the classes, not sorted from the table
        want = probdist.ExplicitDistribution(d.n, d.indices, d.probs).levels
        assert d.levels.n == want.n
        for field in dataclasses.fields(want)[1:]:
            got, ref = getattr(d.levels, field.name), getattr(want, field.name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), field.name
    # a hand-built view without exact counts leaves the table's levels lazy
    view = to_type_classes(bernoulli_product(0.7, 6))
    d = explicit_of(probdist.TypeClassView(view.n, view.class_log_prob, view.class_log_count))
    assert "levels" not in vars(d)
    assert np.array_equal(d.levels.count, explicit_of(view).levels.count)


@pytest.mark.parametrize("n", [2049, 3000])
def test_a_level_of_every_class_counts_all_strings_above_exact_binomials(n):
    for m in (uniform_product(n), mixture([0.3, 0.7], [uniform_product(n)] * 2)):
        count = m.levels.count
        assert count.tolist() == [2**n] and type(count[0]) is int
        assert h_max(m) == n
    # a level of only some classes has no exact count there
    two = mixture([0.5, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.0, n)])
    assert two.levels.log_p.size == 1 and two.levels.count is None


def test_popcount_counts_set_bits(rng):
    values = np.concatenate([
        np.arange(1 << 12, dtype=np.int64),
        rng.integers(0, 2**62, size=2000, dtype=np.int64),
        np.array([2**62 - 1, 2**62, 2**63 - 1], dtype=np.int64),
    ])
    out = popcount(values)
    assert out.dtype == np.int64
    assert out.tolist() == [bin(v).count("1") for v in values.tolist()]


# ------------------------------------------------------------ permutations


def test_identity_permutation():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    assert same_table(apply_permutation(d, np.arange(4)), d)


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


# --------------------------------------------------------------- sampling


def test_point_mass_always_sampled():
    d = point_mass("LRL")
    assert sample_indices(d, make_rng(1), 20).tolist() == [2] * 20  # LRL is index 2


def test_sample_frequency_two_point():
    d = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    idx = sample_indices(d, make_rng(42), 100_000)
    freq = float((idx == 0).mean())
    assert abs(freq - 0.5) <= 0.01  # 4 sigma band at N = 1e5


def test_sample_deterministic_replay():
    d = make_explicit(2, [("LL", 0.3), ("LR", 0.2), ("RR", 0.5)])
    seq1 = sample_indices(d, make_rng(7), 1000)
    seq2 = sample_indices(d, make_rng(7), 1000)
    assert np.array_equal(seq1, seq2)


def test_view_sampling_matches_class_masses():
    m = mixture([0.5, 0.5], [bernoulli_product(1.0, 6), bernoulli_product(0.0, 6)])
    draws = sample_indices(explicit_of(m), make_rng(3), 2000)
    weights = popcount(draws)
    assert set(weights.tolist()) == {0, 6}
    frac0 = float((weights == 0).mean())
    assert abs(frac0 - 0.5) <= 0.05


def test_sampling_a_full_table_reads_no_index_range():
    d = explicit_of(bernoulli_product(0.7, 22))
    drawn = sample_indices(d, make_rng(5), 200)
    assert "indices" not in vars(d)
    indexed = probdist.ExplicitDistribution(d.n, np.arange(1 << d.n), d.probs)
    assert np.array_equal(drawn, sample_indices(indexed, make_rng(5), 200))
    # on a table of every outcome the drawn positions are the indices
    probs = d.probs / d.probs.sum()
    assert np.array_equal(drawn, make_rng(5).choice(d.support_size, size=200, p=probs))


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
                picks = sorted_picks(d, gen_a, size)
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
    assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-9)
