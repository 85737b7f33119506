#!/usr/bin/env python3
"""Time two checkouts of relengine against each other in one process.

PARENT and CHANGE are repository roots. Each one's ``src/relengine`` is
copied to a temporary directory under its own package name
(``relengine_parent`` and ``relengine_change``), so both load side by
side and share one interpreter, one heap and one machine state. The
workload's network texts come from this repository's
``perfbench.workloads``, and each side parses them with its own parser.

Both sides first solve every instance of the workload that lists the
backend, once, through ``run_backend``. With ``--backend qb2`` each side
also decomposes every instance first (``decompose``), and the two
decompositions are compared as plain tuples: the shortest path, each cut
with its ``joined`` order and ``side_size``, the regions, ``stage_arcs``
and the stages. If any decomposition part, status, answer (compared by
``float.hex``) or ``counters.as_dict()`` differs, the first difference is
printed and the script exits 1. A decomposition or status difference
ends the run there. When only answer bits or counters differ, the count
of differing instances and the largest answer difference are printed
too, and both sides are still timed before the exit. The timing is
``--rounds`` passes of the workload per side, alternating which side runs
first, and prints each side's median and quartiles in seconds per pass,
the change/parent ratio of the medians and how many rounds the change won.
Each solve is timed on its own too, and each side's ``solves_per_s``
(the instance count over the sum of each instance's median solve time)
and ``solve_s.p50`` (the median of those medians) are printed as
perfbench/run.py defines them, without its speed-probe scaling: a pass
time is dominated by the slowest instances, and can hide a move of the
median one.

    python3 scripts/ab_inprocess.py ../parent . --workload grid --backend qb2
"""

from __future__ import annotations

import argparse
import importlib
import reprlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench is read from this checkout, never written
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.measure import BACKENDS  # noqa: E402

SIDES = ("parent", "change")


def load(root: Path, name: str, into: Path):
    """Import ``root/src/relengine`` as the package ``name``."""
    shutil.copytree(
        root / "src" / "relengine", into / name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return importlib.import_module(name)


def outcome(program, network, backend: str) -> tuple:
    result = program.run_backend(network, backend)
    value = result.reliability
    counters = result.counters
    return (
        result.status,
        None if value is None else value.hex(),
        None if counters is None else counters.as_dict(),
    )


def decomposition(program, network) -> tuple:
    """``decompose(network)`` as (part name, plain tuple) pairs, in pipeline order."""
    d = program.decompose(network)
    cuts = tuple(
        (c.index, c.path_arc, tuple(sorted(c.arc_ids)), c.separated_sources,
         c.joined, c.side_size)
        for c in d.cuts
    )
    stages = tuple(tuple(stage) for stage in d.stages or ())
    return (
        ("path", d.path_arcs), ("cuts", cuts), ("regions", d.regions),
        ("stage_arcs", d.stage_arcs), ("stages", stages),
    )


def first_difference(parent: tuple, change: tuple) -> tuple | None:
    """(part, index, parent item, change item) where two decompositions first differ."""
    for (name, mine), (_, theirs) in zip(parent, change):
        if mine != theirs:
            at = next(
                (i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b),
                min(len(mine), len(theirs)),
            )
            return name, at, *(
                items[at] if at < len(items) else "(none)" for items in (mine, theirs)
            )
    return None


def timed_pass(program, networks, backend: str) -> list[float]:
    """The seconds each network's solve took, in order."""
    times = []
    for network in networks:
        start = time.perf_counter()
        program.run_backend(network, backend)
        times.append(time.perf_counter() - start)
    return times


def solve_rates(passes: list[list[float]]) -> tuple[float, float]:
    """(solves_per_s, solve_s.p50) of per-instance solve times, one list per pass.

    Each instance's time is its median over the passes, as in
    perfbench/run.py: solves_per_s is the instance count over the sum of
    those medians, and solve_s.p50 their median.
    """
    medians = [statistics.median(times) for times in zip(*passes)]
    return len(medians) / sum(medians), statistics.median(medians)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--backend", choices=BACKENDS, required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    roots = {"parent": args.parent, "change": args.change}
    for side, root in roots.items():
        if not (root / "src" / "relengine" / "__init__.py").is_file():
            parser.error(f"{side} {root} has no src/relengine package")

    instances = [
        inst for inst in workloads.build(args.workload, args.seed)
        if args.backend in inst.backends
    ]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            programs = {
                side: load(root, f"relengine_{side}", Path(tmp))
                for side, root in roots.items()
            }
            return compare(programs, instances, args)
        finally:
            # forget both copies, so a later call in this process loads its own
            sys.path.remove(tmp)
            for name in list(sys.modules):
                if name.startswith(tuple(f"relengine_{side}" for side in SIDES)):
                    del sys.modules[name]


def compare(programs: dict, instances: list, args) -> int:
    networks = {
        side: [program.parse_network(inst.text) for inst in instances]
        for side, program in programs.items()
    }
    differing = 0
    largest = 0.0
    for i, inst in enumerate(instances):
        if args.backend == "qb2":
            found = first_difference(
                *(decomposition(programs[side], networks[side][i]) for side in SIDES)
            )
            if found:
                name, at, *items = found
                print(f"{inst.label} (qb2) decomposition differs at {name}[{at}]:")
                for side, item in zip(SIDES, items):
                    print(f"  {side:<6} {reprlib.repr(item)}")
                return 1
        seen = {
            side: outcome(programs[side], networks[side][i], args.backend)
            for side in SIDES
        }
        if seen["parent"] != seen["change"]:
            other_status = seen["parent"][0] != seen["change"][0]
            if other_status or not differing:
                print(f"{inst.label} ({args.backend}) differs:")
                for side in SIDES:
                    print(f"  {side:<6} {seen[side]}")
            if other_status:
                return 1
            differing += 1
            answers = [seen[side][1] for side in SIDES]
            if None not in answers:
                gap = abs(float.fromhex(answers[0]) - float.fromhex(answers[1]))
                largest = max(largest, gap)
    checked = "answers and counters"
    if args.backend == "qb2":
        checked = "answers, counters and decompositions"
    if differing:
        print(
            f"{args.workload} seed {args.seed}, {args.backend}: {differing} of "
            f"{len(instances)} instances differ in answer bits or counters, "
            f"largest answer difference {largest:.3g}; timing both sides anyway"
        )
    else:
        print(
            f"{args.workload} seed {args.seed}, {args.backend}: {len(instances)} "
            f"instances agree ({checked})"
        )

    passes: dict[str, list[list[float]]] = {side: [] for side in SIDES}
    for r in range(args.rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            passes[side].append(timed_pass(programs[side], networks[side], args.backend))
    times = {side: [sum(solves) for solves in passes[side]] for side in SIDES}
    stats = {side: statistics.quantiles(times[side], n=4) for side in SIDES}
    rates = {side: solve_rates(passes[side]) for side in SIDES}
    for side in SIDES:
        q1, median, q3 = stats[side]
        print(f"{side:<6} median {median:.6f} s  q1 {q1:.6f}  q3 {q3:.6f}")
    for side in SIDES:
        per_s, p50 = rates[side]
        print(f"{side:<6} {args.backend}.solves_per_s {per_s:.1f}  "
              f"{args.backend}.solve_s.p50 {p50:.6f} s")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratio = stats["change"][1] / stats["parent"][1]
    print(f"change/parent {ratio:.3f}, change won {wins}/{args.rounds} rounds")
    per_s, p50 = (rates["change"][i] / rates["parent"][i] for i in (0, 1))
    print(f"change/parent solves_per_s {per_s:.3f}, solve_s.p50 {p50:.3f}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
