#!/usr/bin/env python3
"""Fuzz the backends against the brute-force oracle on random networks.

Draws seeded random connected networks small enough for full
enumeration, runs every backend on each, and reports the worst
pairwise disagreement seen. Exits nonzero on the first network whose
spread exceeds the tolerance, printing the offending network so the case
can be replayed:

    python scripts/crosscheck_random.py --count 1000 --seed 7
"""

import argparse
import random
import sys
import time
from pathlib import Path

# run from a plain checkout: import relengine from this repository's sources
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relengine.bench import DEFAULT_TOLERANCE, crosscheck
from relengine.cli import _tolerance
from relengine.generators import random_network
from relengine.network import NetworkError, format_network


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    parser.add_argument("--min-nodes", type=int, default=4)
    parser.add_argument("--max-nodes", type=int, default=8)
    parser.add_argument("--min-arcs", type=int, default=5)
    parser.add_argument("--max-arcs", type=int, default=14)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    worst = 0.0
    start = time.perf_counter()
    for index in range(args.count):
        try:
            net = random_network(
                rng,
                node_range=(args.min_nodes, args.max_nodes),
                arc_range=(args.min_arcs, args.max_arcs),
            )
        except (ValueError, NetworkError) as exc:
            parser.error(str(exc))
        report = crosscheck(net, tolerance=args.tolerance)
        worst = max(worst, report.max_delta)
        if not report.passed:
            print(f"disagreement on network {index}: delta {report.max_delta:.3e}")
            for result in report.results:
                print(f"  {result.backend:<7} {result.reliability!r}")
            sys.stdout.write(format_network(net, comment=f"crosscheck case {index}"))
            return 1
    elapsed = time.perf_counter() - start
    print(
        f"{args.count} networks agree: worst spread {worst:.3e} "
        f"(tolerance {args.tolerance:.1e}), {elapsed:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
