"""The type-class path against its reference builds, float for float.

``to_type_classes`` takes a point mass as one term, ``TypeClassView.levels``
reads monotone classes in order, and ``entropy._cut`` starts its scan
where the prefix mass first exceeds eps, seeded by one log-sum. ``util``
keeps the builds that do none of this; every array and figure, and every
cut, must match them in ``float.hex``. The cut equalities pin today's
floats on these fixed inputs, not a property of the design: a cut may
differ where rounding turns a comparison, and what the design guarantees
is that a neighbouring cut moves H_min^eps by no more than the margin of
the comparison between them, which the last test checks.
"""
import math

import numpy as np
import pytest

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


def test_the_cut_is_the_reference_cut_on_random_spectra(spectra):
    seeded = 0
    for s, prefix_mass, eps in spectra:
        seeded += int(np.searchsorted(prefix_mass, eps, side="right")) > 0
        assert entropy._cut(s, prefix_mass, eps) == reference_cut(s, prefix_mass, eps)
    assert seeded > 150


def test_a_cut_level_on_a_lower_level():
    # levels 2^-2, 2^-3, 2^-4 and 2^-5 of 1, 2, 4 and 8 outcomes at
    # eps = 17/32: the scan starts at the third level, whose shave to
    # (3/4 - 17/32) / 7 = 2^-5 lands exactly on the level below
    probs = [2.0**-2] + [2.0**-3] * 2 + [2.0**-4] * 4 + [2.0**-5] * 8
    table = make_explicit(4, list(enumerate(probs)))
    s, eps = table.levels, 17 / 32
    prefix_mass = np.cumsum(s.mass)
    assert entropy._cut(s, prefix_mass, eps) == reference_cut(s, prefix_mass, eps) == 3
    assert entropy.h_min_smooth(table, eps) == 5.0


def test_the_readme_entropy_cut_is_the_reference_cut():
    # bernoulli(0.7)^1000 at eps 2e-4 (the README's entropy command) cuts
    # past 250 leading levels
    s = bernoulli_product(0.7, 1000).levels
    prefix_mass = np.cumsum(s.mass)
    assert np.searchsorted(prefix_mass, 2e-4, side="right") == 250
    assert entropy._cut(s, prefix_mass, 2e-4) == reference_cut(s, prefix_mass, 2e-4)


def neighbour_cases() -> list:
    """(spectrum, prefix mass, eps) cuts of the benchmark's i.i.d. and
    mixture families and of a 2^12 table, at several eps each."""
    dists = [bernoulli_product(0.7, n) for n in (20, 1000, 2048, 2049, 10**4, 10**5)]
    dists.append(mixture([0.5, 0.5], [bernoulli_product(1.0, 3000), bernoulli_product(0.7, 3000)]))
    dists.append(random_explicit(np.random.default_rng(12), 12, support_size=1 << 12))
    cases = []
    for d in dists:
        s = d.levels
        prefix_mass = np.cumsum(s.mass)
        cases += [(s, prefix_mass, eps) for eps in (1e-5, 2e-4, 1e-3, 1e-2, 0.1)]
    return cases


def test_a_neighbouring_cut_moves_h_by_at_most_its_margin(spectra, monkeypatch):
    # lam(m + 1) = (N_m lam(m) + c p_{m+1}) / (N_m + c) is a weighted mean
    # of lam(m) and p_{m+1}, so solving at m - 1 or m + 1 moves H by at most
    # the margin |lhs - level| of the comparison between the two cuts: the
    # reason a float cut is all the solve needs
    moved = 0
    for s, prefix_mass, eps in spectra + neighbour_cases():
        m = entropy._cut(s, prefix_mass, eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs = np.log2(prefix_mass - eps) - np.logaddexp2.accumulate(s.log_count)
        margin = np.abs(lhs - np.append(s.log_p[1:], -np.inf))
        h = entropy._solve_min(s, eps)[0].bits
        # the last miss decides m - 1 against m; the hit decides m + 1
        for other, compared in ((m - 1, m - 2), (m + 1, m - 1)):
            if other < 1 or other > s.log_p.size or not prefix_mass[other - 1] > eps:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(entropy, "_cut", lambda *_: other)
                h_other = entropy._solve_min(s, eps)[0].bits
            assert abs(h_other - h) <= margin[compared] + 4 * np.spacing(max(h, 1.0))
            moved += 1
    assert moved > 400
