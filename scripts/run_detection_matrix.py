#!/usr/bin/env python3
"""Run the seeded-bug detection matrix under both backends and print the
markdown tables side by side with per-proof statistics."""

import argparse
import sys

from casverify.corpus import run_matrix
from casverify.engine import EXHAUSTIVE, RANDOM, ExploreConfig
from casverify.report import build_document, matrix_markdown_lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-bound", type=int, default=3)
    ap.add_argument("--random-budget", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        cfgs = [ExploreConfig(backend=backend, size_bound=args.max_bound,
                              random_budget=args.random_budget, seed=args.seed)
                for backend in (EXHAUSTIVE, RANDOM)]
    except ValueError as e:
        ap.error(f"bad configuration: {e}")

    ok = True
    for cfg in cfgs:
        matrix = run_matrix(cfg)
        doc = build_document("matrix", cfg, matrix.results, matrix=matrix)
        print(f"\n### backend: {cfg.backend}\n")
        print("\n".join(matrix_markdown_lines(doc["matrix"])))
        print("\nper-proof statistics:")
        for result in matrix.results:
            r = result.report
            print(f"  {result.entry.name:32s} paths={r.paths_explored:<6d} "
                  f"pruned={r.paths_pruned_by_assume:<6d} "
                  f"truncated={r.paths_truncated:<6d} time={r.wall_time:.3f}s")
        if cfg.backend == EXHAUSTIVE and not matrix.all_match:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
