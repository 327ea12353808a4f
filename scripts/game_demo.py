#!/usr/bin/env python3
"""End-to-end demo of the extraction game on a pair of correlated boxes.

Both boxes look uniformly random on their own, yet the correlation is worth
one full unit of work: compression makes the first box certain, the agent
bets on it, and Monte Carlo play confirms the certain payout.

Run: python scripts/game_demo.py [--seed N] [--samples N]
"""
import argparse

from szilard import (
    GameConfig,
    build_riskfree_strategy,
    canonical_permutation,
    exact_evaluate,
    make_explicit,
    monte_carlo,
    smooth_report,
    work_unit,
)
from szilard.oracle import apply_permutation, bit_profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--temperature-kelvin", type=float, default=300.0)
    args = ap.parse_args()

    dist = make_explicit(2, [("LL", 0.5), ("RR", 0.5)])
    c = work_unit(args.temperature_kelvin)
    print(f"distribution: {dist.as_dict()}   (c = {c.ev:.6g} eV per box)")
    print(f"entropies: {smooth_report(dist, 0.0)}")

    compressed = apply_permutation(dist, canonical_permutation(dist).permutation)
    print(f"compressed:   {compressed.as_dict()}")
    print(f"box profile:  {[b.kind for b in bit_profile(compressed)]}")

    strategy = build_riskfree_strategy(dist, 0.0, c.joules)
    exact = exact_evaluate(dist, strategy)
    print(
        f"strategy: bet {['LR'[v] for _, v in strategy.bets]} on boxes "
        f"{[p for p, _ in strategy.bets]}, committing "
        f"{strategy.committed_work / c.joules:.0f}c"
    )
    print(f"exact success = {exact.success_prob}, expected work = "
          f"{exact.expected_work / c.joules:.6g}c")

    mc = monte_carlo(
        dist, strategy,
        GameConfig(temperature=args.temperature_kelvin, seed=args.seed,
                   n_samples=args.samples),
    )
    print(
        f"monte carlo ({mc.n_samples} plays, seed {mc.seed}): "
        f"success rate = {mc.success_rate}, mean work = {mc.mean_work / c.joules:.6g}c"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
