#!/usr/bin/env python3
"""Paired policy comparison: the statistically honest way.

Comparing two schedulers by their independent average slowdowns is
treacherous at small scale — between-seed variance dwarfs the policy
effect.  The right procedure pairs the runs: identical workload and
failure trace, per-job response deltas within a seed, and across seeds a
count of the seeds in which each metric came out lower (a mean of deltas
can hide the sign).  This example compares the fault-oblivious baseline
against both fault-aware schedulers that way.

Run:  python examples/policy_comparison.py [site] [n_jobs] [n_failures]
"""

from __future__ import annotations

import sys

from repro.analysis import compare_reports, seed_sign_counts
from repro.api import SimulationSetup


def main() -> None:
    site = sys.argv[1] if len(sys.argv) > 1 else "sdsc"
    n_jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 250
    n_failures = int(sys.argv[3]) if len(sys.argv) > 3 else 25
    seeds = range(6)

    for candidate, parameter in (("balancing", 0.1), ("tiebreak", 0.9)):
        comparisons = []
        for seed in seeds:
            common = dict(site=site, n_jobs=n_jobs, n_failures=n_failures, seed=seed)
            base = SimulationSetup(policy="krevat", parameter=0.0, **common).run()
            cand = SimulationSetup(
                policy=candidate, parameter=parameter, **common
            ).run()
            comparisons.append(compare_reports(base, cand))
        print(f"\n=== {candidate} (a={parameter}) vs krevat, {site} ===")
        for seed, pair in zip(seeds, comparisons):
            print(f"  seed {seed}: {pair.summary()}")
        for field, signs in seed_sign_counts(comparisons).items():
            print(f"  {field:<20} {signs}: {signs.verdict}")

    print(
        "\nReading guide: negative response deltas and negative kill deltas\n"
        "favour the fault-aware candidate — the per-job win/loss counts\n"
        "show whether gains are broad or concentrated on a few rescued jobs,\n"
        "and 'holds' means lower in enough seeds for a one-sided sign test\n"
        "at p <= 0.05 (6/6, or 5/5 and one tie)."
    )


if __name__ == "__main__":
    main()
