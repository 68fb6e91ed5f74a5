#!/usr/bin/env python3
"""Seed sweep for the random backend: how reliably does plain boundary-biased
random testing find each seeded bug, and how many runs does it need?"""

import argparse
import sys
from collections import defaultdict

from casverify.corpus import run_matrix
from casverify.engine import RANDOM, ExploreConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--random-budget", type=int, default=10_000)
    ap.add_argument("--max-bound", type=int, default=3)
    args = ap.parse_args()
    if args.seeds <= 0:
        ap.error("--seeds must be positive")
    try:
        cfgs = [ExploreConfig(backend=RANDOM, size_bound=args.max_bound,
                              random_budget=args.random_budget, seed=seed)
                for seed in range(args.seeds)]
    except ValueError as e:
        ap.error(f"bad configuration: {e}")

    detected = defaultdict(int)
    runs_needed = defaultdict(list)
    for cfg in cfgs:
        results = run_matrix(cfg)
        for result in results:
            report = result.report
            if report.verdict.is_fail:
                bug = result.entry.bug_id
                detected[bug] += 1
                runs_needed[bug].append(
                    report.paths_explored + report.paths_pruned_by_assume
                    + report.paths_truncated + 1)

    print(f"{'bug':8s} {'detected':>9s} {'avg runs to find':>17s}")
    for bug in sorted(set(detected) | set(r.entry.bug_id for r in results)):
        hits = detected.get(bug, 0)
        avg = (sum(runs_needed[bug]) / len(runs_needed[bug])
               if runs_needed[bug] else float("nan"))
        print(f"{bug:8s} {hits:>6d}/{args.seeds:<3d} {avg:>15.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
