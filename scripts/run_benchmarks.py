#!/usr/bin/env python3
"""Timing sweep over the bridge-chain scaling family.

Produces one CSV row per (k, backend) on stdout. The oracle drops out
once the arc count passes its enumeration cap; the staged backend keeps
going. Typical use:

    python scripts/run_benchmarks.py --k-max 8 > bench.csv
    python scripts/run_benchmarks.py --family grid --p 0.8 --budget 10
"""

import argparse
import csv
import sys

from relengine.bench import BACKENDS, DEFAULT_BUDGET_S, bench_sweep
from relengine.generators import FAMILIES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=FAMILIES, default="bridge-chain")
    parser.add_argument("--k-min", type=int, default=1)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--p", type=float, default=0.9)
    parser.add_argument(
        "--backends",
        default=",".join(BACKENDS),
        help="comma separated subset of " + ",".join(BACKENDS),
    )
    parser.add_argument("--budget", type=float, default=DEFAULT_BUDGET_S)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    unknown = [b for b in backends if b not in BACKENDS]
    if unknown:
        parser.error(f"unknown backends: {', '.join(unknown)}")

    rows = bench_sweep(
        args.family,
        args.k_min,
        args.k_max,
        args.p,
        backends,
        budget_s=args.budget,
        seed=args.seed,
    )
    fields = [
        "family", "k", "nodes", "arcs", "backend", "status",
        "reliability", "wall_time_s", "detail",
    ]
    writer = csv.DictWriter(sys.stdout, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_dict())
    return 0


if __name__ == "__main__":
    sys.exit(main())
