"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest -s tests/test_acceptance.py  to see the per-criterion lines
(including timings) on passing runs too.
"""
import json
import math
import time

import numpy as np

from szilard import (
    GameConfig,
    Strategy,
    bernoulli_product,
    build_riskfree_strategy,
    exact_evaluate,
    explicit_of,
    gambler_work_bound,
    h_max,
    h_max_smooth,
    h_max_smooth_detail,
    h_min,
    h_min_smooth,
    make_explicit,
    mixture,
    monte_carlo,
    riskfree_work,
    shannon,
    work_unit,
)
from szilard.compress import CompressionPlan
from szilard.entropy import binary_entropy
from szilard.oracle import (
    brute_hmax_smooth,
    brute_hmin_smooth,
    exhaustive_strategy_search,
)
from szilard.probdist import _from_arrays
from szilard.rng import make_rng

C300 = work_unit(300.0)
H07 = binary_entropy(0.7)


def _report(number: int, passed: bool, elapsed: float, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.3f}s) {detail}")


def _fast_random_dist(rng, n, max_support=None):
    space = 1 << n
    top = space if max_support is None else min(space, max_support)
    size = int(rng.integers(1, top + 1))
    idx = rng.choice(space, size=size, replace=False)
    raw = rng.exponential(size=size) + 1e-9
    return _from_arrays(n, idx, raw / raw.sum())


def test_criterion_1_worked_example_exactness():
    pex = make_explicit(3, [(0, 0.5), (1, 0.49998), (2, 1e-5), (3, 1e-5), (4, 0.0)])
    h_max(pex), h_min(pex), h_max_smooth(pex, 2e-5)  # warm up allocators
    start = time.perf_counter()
    values = (h_max(pex), h_min(pex), h_max_smooth(pex, 2e-5))
    elapsed = time.perf_counter() - start
    passed = values == (2.0, 1.0, 1.0) and elapsed < 1e-3
    _report(1, passed, elapsed, f"(h_max, h_min, h_max_smooth^2e-5) = {values}")
    assert values == (2.0, 1.0, 1.0)
    assert elapsed < 1e-3


def test_criterion_2_benchmark_row2_scan():
    dist = bernoulli_product(0.7, 1000)
    grid = np.geomspace(5e-5, 1e-3, 10)
    start = time.perf_counter()
    scan = []
    for eps in grid:
        lo = riskfree_work(dist, float(eps), C300.joules).ev
        hi = gambler_work_bound(dist, float(eps), C300.joules).ev
        scan.append((float(eps), lo, hi))
    elapsed = time.perf_counter() - start
    matches = [
        (eps, lo, hi)
        for eps, lo, hi in scan
        if abs(lo - 1.0) <= 0.1 and abs(hi - 3.5) <= 0.35
    ]
    passed = bool(matches) and elapsed < 1.0
    _report(
        2,
        passed,
        elapsed,
        "no scan point hits 1.0 eV +/- 0.1 and 3.5 eV +/- 0.35 jointly"
        if not matches
        else f"matched at eps={matches[0][0]:.3g}",
    )
    for eps, lo, hi in scan:
        print(f"    eps={eps:.4e}  riskfree={lo:.4f} eV  gambling={hi:.4f} eV")
    recovered = riskfree_work(dist, 1e-5, C300.joules).ev
    print(
        "    note: the pair is reachable only below this grid, e.g. "
        f"eps=1e-5 gives riskfree={recovered:.4f} eV, "
        f"gambling={gambler_work_bound(dist, 1e-5, C300.joules).ev:.4f} eV; "
        "see notes/decisions.md for the analysis"
    )
    assert elapsed < 1.0
    assert matches, "no epsilon in [5e-5, 1e-3] reproduces the 1.0/3.5 eV pair"


def test_criterion_3_benchmark_rows_3_and_4():
    n, eps = 1000, 1e-3
    start = time.perf_counter()
    row3 = mixture([0.5, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.5, n)])
    row4 = mixture([0.5, 0.5], [bernoulli_product(1.0, n), bernoulli_product(0.0, n)])
    r3_min = riskfree_work(row3, eps, 1.0).bits
    r3_max = gambler_work_bound(row3, eps, 1.0).bits
    r4_min = riskfree_work(row4, eps, 1.0).bits
    r4_max = gambler_work_bound(row4, eps, 1.0).bits
    elapsed = time.perf_counter() - start
    ok = (
        r3_min <= 2.0
        and r3_max >= 0.98 * n
        and r4_min == float(n - 1)
        and r4_max >= 0.98 * n
        and elapsed < 1.0
    )
    _report(
        3, ok, elapsed,
        f"row3 (min, max) = ({r3_min:.4g}, {r3_max:.6g}) bits;"
        f" row4 = ({r4_min:.6g}, {r4_max:.6g}) bits",
    )
    assert r3_min <= 2.0
    assert r3_max >= 0.98 * n
    assert r4_min == float(n - 1)
    assert r4_max >= 0.98 * n
    assert elapsed < 1.0


def test_criterion_4_entropy_rate_convergence():
    eps = 1e-3
    start = time.perf_counter()
    gaps = []
    for n in (100, 200, 400, 800, 1600):
        m = bernoulli_product(0.7, n)
        gaps.append(
            (abs(h_min_smooth(m, eps) / n - H07), abs(h_max_smooth(m, eps) / n - H07))
        )
    elapsed = time.perf_counter() - start
    mins, maxs = zip(*gaps)
    ok = (
        all(a > b for a, b in zip(mins, mins[1:]))
        and all(a > b for a, b in zip(maxs, maxs[1:]))
        and mins[-1] <= 0.06
        and maxs[-1] <= 0.06
        and elapsed < 2.0
    )
    _report(
        4, ok, elapsed,
        f"|h_min/n - h(0.7)| {[round(g, 4) for g in mins]}, "
        f"|h_max/n - h(0.7)| {[round(g, 4) for g in maxs]}",
    )
    assert all(a > b for a, b in zip(mins, mins[1:]))
    assert all(a > b for a, b in zip(maxs, maxs[1:]))
    assert mins[-1] <= 0.06 and maxs[-1] <= 0.06
    assert elapsed < 2.0


def test_criterion_5_riskfree_strategy_guarantees():
    rng = make_rng(501)
    start = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        dist = _fast_random_dist(rng, n)
        for eps in (0.0, 0.01, 0.1):
            strategy = build_riskfree_strategy(dist, eps, C300.joules)
            success = exact_evaluate(dist, strategy).success_prob
            expected_bets = n - (h_max_smooth_detail(dist, eps).retained_count - 1).bit_length()
            if success < 1.0 - eps - 1e-12:
                violations += 1
            if len(strategy.bets) != expected_bets:
                violations += 1
            if strategy.committed_work != expected_bets * C300.joules:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _report(5, ok, elapsed, f"{violations} violations over 1e4 distributions x 3 eps")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_6_bet_count_bound():
    rng = make_rng(601)
    start = time.perf_counter()
    counterexamples = 0
    checked = 0
    for _ in range(100_000):
        n = int(rng.integers(1, 11))
        dist = _fast_random_dist(rng, n, max_support=256)
        eps = float(rng.uniform(1e-3, 0.3))
        perm = rng.permutation(1 << n).astype(np.int64)
        k = int(rng.integers(1, n + 1))
        positions = rng.choice(n, size=k, replace=False)
        bets = tuple((int(p), int(rng.integers(0, 2))) for p in sorted(positions))
        strategy = Strategy(CompressionPlan(n, perm), bets, float(k))
        success = exact_evaluate(dist, strategy).success_prob
        if success > eps:
            checked += 1
            if not k < n - h_min(dist) + math.log2(1.0 / eps):
                counterexamples += 1
    elapsed = time.perf_counter() - start
    ok = counterexamples == 0 and elapsed < 60.0
    _report(
        6, ok, elapsed,
        f"{counterexamples} counterexamples; {checked} of 1e5 triples had success > eps",
    )
    assert counterexamples == 0
    assert elapsed < 60.0


def test_criterion_7_oracle_equivalence():
    rng = make_rng(701)
    start = time.perf_counter()
    hmax_mismatch = 0
    hmin_beaten = 0
    for _ in range(1_000):
        n = int(rng.integers(1, 5))
        dist = _fast_random_dist(rng, n)
        for eps in (0.0, 1e-3, 1e-2, 0.1):
            if h_max_smooth(dist, eps) != brute_hmax_smooth(dist, eps):
                hmax_mismatch += 1
            greedy = h_min_smooth(dist, eps)
            if greedy + 1e-6 < brute_hmin_smooth(dist, eps, rng=rng):
                hmin_beaten += 1
    elapsed = time.perf_counter() - start
    ok = hmax_mismatch == 0 and hmin_beaten == 0 and elapsed < 120.0
    _report(
        7, ok, elapsed,
        f"{hmax_mismatch} support mismatches, {hmin_beaten} cut-level defeats "
        "over 1e3 distributions x 4 eps",
    )
    assert hmax_mismatch == 0
    assert hmin_beaten == 0
    assert elapsed < 120.0


def test_criterion_8_toy_scale_optimality():
    rng = make_rng(801)
    start = time.perf_counter()
    excesses = 0
    agreements = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        dist = _fast_random_dist(rng, n)
        for eps in (0.0, 0.05):
            found = exhaustive_strategy_search(dist, eps, 1.0)
            formula = n - (h_max_smooth_detail(dist, eps).retained_count - 1).bit_length()
            if found.work > formula + 1e-12:
                excesses += 1
            if found.work == formula:
                agreements += 1
    elapsed = time.perf_counter() - start
    ok = excesses == 0 and elapsed < 1200.0
    _report(
        8, ok, elapsed,
        f"{excesses} strategies beat the compress-and-bet work; "
        f"search agreed exactly in {agreements}/200 runs",
    )
    assert excesses == 0
    assert elapsed < 1200.0


def test_criterion_9_type_class_fidelity():
    rng = make_rng(901)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 17))
        j = int(rng.integers(1, 4))
        raw = rng.random(j) + 0.05
        weights = (raw / raw.sum()).tolist()
        lefts = rng.uniform(0.0, 1.0, size=j).tolist()
        m = mixture(weights, [bernoulli_product(q, n) for q in lefts])
        d = explicit_of(m)
        for eps in (0.0, 1e-3, 0.05):
            pairs = [
                (shannon(m), shannon(d)),
                (h_min(m), h_min(d)),
                (h_max(m), h_max(d)),
                (h_max_smooth(m, eps), h_max_smooth(d, eps)),
                (h_min_smooth(m, eps), h_min_smooth(d, eps)),
                (riskfree_work(m, eps, 1.0).bits, riskfree_work(d, eps, 1.0).bits),
            ]
            if eps > 0:
                pairs.append(
                    (gambler_work_bound(m, eps, 1.0).bits, gambler_work_bound(d, eps, 1.0).bits)
                )
            worst = max(worst, max(abs(a - b) for a, b in pairs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(9, ok, elapsed, f"largest structured-vs-explicit gap = {worst:.3g} bits")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_10_monte_carlo_calibration():
    rng = make_rng(1001)
    start = time.perf_counter()
    outside = 0
    runs = 200
    for seed in range(runs):
        while True:
            n = int(rng.integers(1, 11))
            dist = _fast_random_dist(rng, n, max_support=128)
            k = int(rng.integers(1, n + 1))
            positions = rng.choice(n, size=k, replace=False)
            bets = tuple((int(p), int(rng.integers(0, 2))) for p in sorted(positions))
            strategy = Strategy(
                CompressionPlan(n, rng.permutation(1 << n).astype(np.int64)),
                bets,
                k * C300.joules,
            )
            exact = exact_evaluate(dist, strategy).success_prob
            if 0.05 <= exact <= 0.95:
                break
        config = GameConfig(seed=seed, n_samples=10_000)
        mc = monte_carlo(dist, strategy, config)
        replay = monte_carlo(dist, strategy, config)
        assert mc == replay
        assert json.dumps(mc.__dict__) == json.dumps(replay.__dict__)
        if abs(mc.success_rate - exact) > 4.0 * mc.stderr:
            outside += 1
    elapsed = time.perf_counter() - start
    ok = outside <= runs * 0.01 and elapsed < 60.0
    _report(
        10, ok, elapsed,
        f"{outside}/{runs} runs outside the 4-stderr band; replay byte-identical",
    )
    assert outside <= runs * 0.01
    assert elapsed < 60.0
