#!/usr/bin/env python3
"""Run the full verification battery across the named corpus.

Prints one line per graph, with its time, its slowest check and the names
of the checks that failed or skipped, and exits nonzero if any check fails.  With --out DIR, the per-graph JSON
reports are also written to disk.

    python3 scripts/run_corpus_verification.py
    python3 scripts/run_corpus_verification.py --sizes 8 9 --seeds 0 1 --out reports/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from nscycles import gen_corpus, verify_graph

NAMED = ["k4", "k5", "k6", "k33", "wheel-4", "wheel-5", "wheel-6", "wheel-7",
         "prism", "petersen"]
SIZES = [8, 9, 10, 11, 12]
SEEDS = [0, 1, 2, 3, 4]


def corpus(sizes=SIZES, seeds=SEEDS) -> list:
    """(name, graph) for the named graphs, then random3c-N for each size
    and seed."""
    jobs = [(name, gen_corpus(name)) for name in NAMED]
    for n in sizes:
        for seed in seeds:
            jobs.append((f"random3c-{n}-s{seed}", gen_corpus(f"random3c-{n}", seed)))
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*", default=SIZES,
                        help="random3c sizes to include")
    parser.add_argument("--seeds", type=int, nargs="*", default=SEEDS,
                        help="seeds per random3c size")
    parser.add_argument("--out", metavar="DIR", help="write per-graph JSON reports here")
    args = parser.parse_args(argv)

    jobs = corpus(args.sizes, args.seeds)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    any_failed = False
    for name, g in jobs:
        report = verify_graph(g, name)
        failed = [c.name for c in report.checks if c.passed is False]
        skipped = [c.name for c in report.checks if c.passed is None]
        status = f"FAIL ({', '.join(failed)})" if failed else "ok"
        if skipped:
            status += f" (skipped: {', '.join(skipped)})"
        slowest = max(report.checks, key=lambda c: c.elapsed_ms)
        print(f"{name:18s} |V|={len(g.vertices):2d} |E|={len(g.edges):2d} "
              f"{report.elapsed_ms:6d} ms  slowest {slowest.name} {slowest.elapsed_ms} ms  "
              f"{status}")
        any_failed = any_failed or bool(failed)
        if out_dir:
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps(report.to_dict(include_timing=True),
                                       indent=2, sort_keys=True) + "\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
