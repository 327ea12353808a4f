"""The type-class path against its reference builds, float for float.

``to_type_classes`` takes a point mass as one term, ``TypeClassView.levels``
reads monotone classes in order, and ``entropy._cut`` starts its scan
where the prefix mass first exceeds eps, seeded by a log-sum with the
exact fold as its fallback. ``util`` keeps the builds that do none of
this; every array and figure, and every cut, must match them in
``float.hex``.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from szilard import (
    MixtureOfProducts,
    bernoulli_product,
    cli,
    entropy,
    explicit_of,
    make_explicit,
    mixture,
    riskfree_work_executable,
    smooth_report,
    to_type_classes,
    work_bounds,
    work_unit,
)
from szilard.probdist import _monotone_run

from util import (
    random_explicit,
    reference_cut,
    reference_fold,
    reference_levels,
    reference_table_levels,
    reference_type_classes,
)

C = work_unit(300.0).joules
EPSILONS = (0.0, 1e-5, 2e-4, 1e-2, 0.3)
HALF_UP = 0.5 + 1e-7


def hexes(a) -> list[str] | None:
    """float.hex of every entry; exact ints (object arrays) as they are."""
    if a is None:
        return None
    if a.dtype == object:
        return [int(x) for x in a]
    return [float(x).hex() for x in a]


def spectra_match(got, want):
    for field in ("p", "log_p", "mass", "log_count", "count"):
        assert hexes(getattr(got, field)) == hexes(getattr(want, field)), field


def figures(dist, eps: float) -> dict[str, str]:
    """Every float the iid_classes op computes, as float.hex; a figure that
    is undefined at this eps records its error instead."""
    out = {}
    report = smooth_report(dist, eps)
    for name in ("shannon", "h_min", "h_max", "h_min_smooth", "h_max_smooth"):
        out[name] = float(getattr(report, name)).hex()
    try:
        bounds = work_bounds(dist, eps, C)
        sides = {"min_work": bounds.min_work, "max_work": bounds.max_work}
    except Exception as err:  # the gambling bound needs eps > 0
        sides = {}
        out["work_bounds"] = type(err).__name__
    sides["executable"] = riskfree_work_executable(dist, eps, C)
    for side, work in sides.items():
        for unit in ("bits", "joules", "ev"):
            out[f"{side}.{unit}"] = float(getattr(work, unit)).hex()
    return out


def reference_figures(m: MixtureOfProducts, eps: float, monkeypatch) -> dict[str, str]:
    with monkeypatch.context() as patch:
        patch.setattr(entropy, "_cut", reference_cut)
        return figures(reference_levels(reference_type_classes(m)), eps)


def structured_cases(n: int) -> list[MixtureOfProducts]:
    """One component below, at and just above 1/2; point masses at both
    ends, alone and around a spread component; two and three spread ones."""
    def mix(*pairs):
        return MixtureOfProducts(n, tuple(pairs))

    return [
        mix((1.0, 0.3)),
        mix((1.0, 0.5)),
        mix((1.0, HALF_UP)),
        mix((1.0, 0.7)),
        mix((0.5, 1.0), (0.5, 0.7)),
        mix((0.5, 0.0), (0.5, 0.3)),
        mix((0.5, 1.0), (0.5, 0.0)),
        mix((0.25, 1.0), (0.5, 0.3), (0.25, 0.0)),
        mix((0.5, 0.3), (0.5, 0.8)),
        mix((0.2, 0.9), (0.3, 0.5), (0.5, 0.1)),
        mix((0.4, 0.5), (0.1, 1.0), (0.5, HALF_UP)),
    ]


def random_cases(rng: np.random.Generator, count: int) -> list[MixtureOfProducts]:
    cases = []
    for _ in range(count):
        n = int(rng.choice([1, 2, 5, 40, 1000, 2047, 2048, 2049, 2600]))
        j = int(rng.integers(1, 4))
        qs = [
            float(rng.choice([0.0, 1.0, 0.5, HALF_UP, 0.3, rng.uniform(0.02, 0.98)]))
            for _ in range(j)
        ]
        raw = rng.random(j) + 0.05
        cases.append(MixtureOfProducts(n, tuple(zip((raw / raw.sum()).tolist(), qs))))
    return cases


CASES = [m for n in (1, 3, 100, 2000, 2100) for m in structured_cases(n)]


def check_against_reference(m: MixtureOfProducts, monkeypatch):
    view, want_view = to_type_classes(m), reference_type_classes(m)
    assert hexes(view.class_log_prob) == hexes(want_view.class_log_prob)
    spectra_match(view.levels, reference_levels(want_view))
    for eps in EPSILONS:
        fresh = MixtureOfProducts(m.n, m.components)
        assert figures(fresh, eps) == reference_figures(m, eps, monkeypatch), eps


@pytest.mark.parametrize("m", CASES, ids=lambda m: f"n{m.n}-{m.components}")
def test_structured_specs_match_the_reference_builds(m, monkeypatch):
    check_against_reference(m, monkeypatch)


def test_random_specs_match_the_reference_builds(monkeypatch):
    for m in random_cases(np.random.default_rng(20261019), 60):
        check_against_reference(m, monkeypatch)


@pytest.mark.parametrize("n", [1000, 2049, 10**4])
@pytest.mark.parametrize("kind", [0, 1])
def test_iid_classes_specs_match_the_reference_builds(n, kind, monkeypatch):
    spec = (f"bernoulli(0.7)^{n}", f"mix(0.5: bernoulli(1.0)^{n}, 0.5: bernoulli(0.6437)^{n})")
    m = cli.to_distribution(cli.parse_spec(spec[kind]))
    check_against_reference(m, monkeypatch)


def test_the_cut_starts_past_levels_whose_prefix_mass_is_within_eps():
    # at eps = 1e-2 most of the 10^4 levels lie before the cut, and the
    # scan starts past every one whose prefix mass is at most eps
    s = bernoulli_product(0.7, 10**4).levels
    prefix_mass = np.cumsum(s.mass)
    start = int(np.searchsorted(prefix_mass, 1e-2, side="right"))
    m = entropy._cut(s, prefix_mass, 1e-2)
    assert start > 1000 and start < m == reference_cut(s, prefix_mass, 1e-2)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("kind", ["bernoulli", "mix"])
def test_explicit_of_levels_match_the_unique_path(q, kind):
    for n in range(1, 23):
        source = bernoulli_product(q, n)
        if kind == "mix":
            source = mixture([0.5, 0.5], [bernoulli_product(1.0, n), source])
        spectra_match(explicit_of(source).levels, reference_table_levels(to_type_classes(source)))


def test_monotone_run_finds_strictly_monotone_classes():
    # the run TypeClassView.levels reads as it is: q != 1/2 alone is
    # monotone either way round; ties and turns are not
    for q, monotone in ((0.3, True), (0.7, True), (0.5, False)):
        class_p = np.exp2(to_type_classes(bernoulli_product(q, 12)).class_log_prob)
        assert (_monotone_run(class_p, class_p > 0.0) is not None) == monotone
    turn = mixture([0.5, 0.5], [bernoulli_product(1.0, 12), bernoulli_product(0.3, 12)])
    class_p = np.exp2(to_type_classes(turn).class_log_prob)
    assert _monotone_run(class_p, class_p > 0.0) is None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-1e4, max_value=1e3, allow_nan=False),
            st.just(-math.inf),
        ),
        min_size=1,
        max_size=300,
    )
)
@example([-0.0])
@example([-0.0, -math.inf])
def test_logaddexp2_reduce_is_the_last_accumulate(values):
    x = np.array(values)
    assert float(reference_fold(x)).hex() == float(np.logaddexp2.accumulate(x)[-1]).hex()


def test_logaddexp2_reduce_is_the_last_accumulate_on_long_arrays(rng):
    for size in (1, 63, 64, 65, 1000, 100_001):
        x = rng.uniform(-3000.0, 10.0, size)
        for part in (x, x[: size // 2 + 1], x[::-1]):
            want = np.logaddexp2.accumulate(part)[-1]
            assert float(reference_fold(part)).hex() == float(want).hex()


def random_spectra(rng: np.random.Generator, count: int):
    """``count`` (spectrum, prefix mass, eps) cases for the cut: class
    spectra of both ``iid_classes`` spec kinds with n log-uniform up to
    1e5, and tables with and without ties; eps log-uniform, and drawn
    above the first level's mass two times in three, so that most scans
    are seeded."""
    cases = []
    while len(cases) < count:
        kind = len(cases) % 4
        if kind < 2:
            n = int(math.exp(rng.uniform(math.log(10.0), math.log(1e5))))
            q = float(rng.uniform(0.55, 0.95))
            spec = (f"bernoulli({q})^{n}", f"mix(0.5: bernoulli(1.0)^{n}, 0.5: bernoulli({q})^{n})")
            s = cli.to_distribution(cli.parse_spec(spec[kind])).levels
        else:
            ties = (1.0, 2.0, 3.0, 0.5) if kind == 3 else None
            s = random_explicit(rng, int(rng.integers(3, 13)), levels=ties).levels
        prefix_mass = np.cumsum(s.mass)
        lo = max(float(s.mass[0]) if rng.random() < 2 / 3 else 0.0, 1e-7)
        hi = 0.9 * float(prefix_mass[-1])
        if lo < hi:
            cases.append((s, prefix_mass, math.exp(rng.uniform(math.log(lo), math.log(hi)))))
    return cases


@pytest.fixture(scope="module")
def spectra():
    return random_spectra(np.random.default_rng(20261020), 300)


def scans(monkeypatch) -> list:
    """Record the seed of every ``entropy._scan``."""
    seeds = []
    scan = entropy._scan

    def spy(s, prefix_mass, eps, start, seed):
        seeds.append(seed)
        return scan(s, prefix_mass, eps, start, seed)

    monkeypatch.setattr(entropy, "_scan", spy)
    return seeds


@pytest.mark.parametrize("ulps", [entropy._SEED_ULPS, 0.0, math.inf])
def test_the_guarded_cut_is_the_exact_fold_cut(ulps, spectra, monkeypatch):
    # every seeded scan starts from the log-sum; a bound of 0 never falls
    # back (but on an exact tie of margins), inf always does, and the
    # default only where the two seeds could part
    monkeypatch.setattr(entropy, "_FOLD_MAX_START", 1)
    monkeypatch.setattr(entropy, "_SEED_ULPS", ulps)
    seeds = scans(monkeypatch)
    seeded = 0
    for s, prefix_mass, eps in spectra:
        start = int(np.searchsorted(prefix_mass, eps, side="right"))
        seeded += start > 0
        assert entropy._cut(s, prefix_mass, eps) == reference_cut(s, prefix_mass, eps)
    assert seeded > 150
    if ulps == math.inf:
        assert len(seeds) == len(spectra) + seeded
    else:
        assert len(seeds) <= len(spectra) + 3


def test_a_cut_level_on_a_lower_level_falls_back_to_the_fold(monkeypatch):
    # levels 2^-2, 2^-3, 2^-4 and 2^-5 of 1, 2, 4 and 8 outcomes at
    # eps = 17/32: the scan starts at the third level, whose shave to
    # (3/4 - 17/32) / 7 = 2^-5 lands on the level below, so the margin is
    # within rounding of zero and the fold seeds a second scan
    probs = [2.0**-2] + [2.0**-3] * 2 + [2.0**-4] * 4 + [2.0**-5] * 8
    table = make_explicit(4, list(enumerate(probs)))
    s, eps = table.levels, 17 / 32
    prefix_mass = np.cumsum(s.mass)
    monkeypatch.setattr(entropy, "_FOLD_MAX_START", 1)
    seeds = scans(monkeypatch)
    assert entropy._cut(s, prefix_mass, eps) == reference_cut(s, prefix_mass, eps) == 3
    assert [float(x).hex() for x in seeds] == [
        float(entropy.logsumexp2(s.log_count[:2])).hex(),
        float(reference_fold(s.log_count[:2])).hex(),
    ]
    assert entropy.h_min_smooth(table, eps) == 5.0


def test_few_leading_levels_seed_the_scan_with_the_fold(monkeypatch):
    # bernoulli(0.7)^1000 at eps 2e-4 (the README's entropy command) cuts
    # past 250 levels, fewer than the log-sum pays off for
    s = bernoulli_product(0.7, 1000).levels
    prefix_mass = np.cumsum(s.mass)
    seeds = scans(monkeypatch)
    assert entropy._cut(s, prefix_mass, 2e-4) == reference_cut(s, prefix_mass, 2e-4)
    assert [float(x).hex() for x in seeds] == [float(reference_fold(s.log_count[:250])).hex()]
