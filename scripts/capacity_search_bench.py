#!/usr/bin/env python3
"""Benchmark exhaustive versus greedy capacity-entropy search.

Draws random monotone capacities per ground size, times both search
strategies, and reports how often and by how much the greedy single-chain
walk misses the true minimum. The draw is seeded, so reruns reproduce the
same table. Drawing a capacity is a Python loop over its 2^n subsets, so
at n = 20 each draw takes several seconds; lower --trials there.
"""

import argparse
import time

import numpy as np

from graddiv import Capacity, capacity_entropy


def random_monotone_capacity(rng: np.random.Generator, n: int) -> Capacity:
    size = 1 << n
    vals = [0.0] * size
    deltas = rng.uniform(0.0, 1.0, size - 1)
    for mask in range(1, size):
        covered = max(vals[mask & ~(1 << e)] for e in range(n) if mask >> e & 1)
        vals[mask] = covered + deltas[mask - 1]
    return Capacity(n, tuple(vals))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260819)
    parser.add_argument("--max-n", type=int, default=8, choices=range(2, 21))
    parser.add_argument("--trials", type=int, default=20, help="capacities per size")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(
        f"{'n':>2} {'chains':>19} {'exh ms':>9} {'greedy ms':>10} "
        f"{'greedy misses':>14} {'worst gap':>12}"
    )
    for n in range(2, args.max_n + 1):
        exh_time = greedy_time = 0.0
        misses = 0
        worst_gap = 0.0
        chains = 0
        for _ in range(args.trials):
            mu = random_monotone_capacity(rng, n)

            t0 = time.perf_counter()
            exh = capacity_entropy(mu, method="exhaustive")
            exh_time += time.perf_counter() - t0

            t0 = time.perf_counter()
            greedy = capacity_entropy(mu, method="greedy")
            greedy_time += time.perf_counter() - t0

            chains = exh.chains_examined
            gap = greedy.entropy - exh.entropy
            if gap > 0.0:
                misses += 1
                worst_gap = max(worst_gap, gap)
        print(
            f"{n:>2} {chains:>19} {exh_time * 1e3 / args.trials:>9.2f} "
            f"{greedy_time * 1e3 / args.trials:>10.2f} "
            f"{misses:>7}/{args.trials:<6} {worst_gap:>12.3e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
