#!/usr/bin/env python3
"""Compare the parent and change runs of a BENCH file, metric by metric.

A BENCH file (``BENCH_6.json`` at the repository root is one) holds a
``runs`` list; each run names its ``side`` ("parent" or "change"),
``workload``, ``seed`` and ``trace`` flag, and keeps the last JSON line of
``perfbench/run.py`` under ``result``. A parent run and a change run with
the same workload, trace flag and seed form a pair. For every workload and
metric this prints the parent median, the interquartile range of the
parent runs (``p.iqr``, "-" with fewer than two), the change median, their
ratio, and how many pairs the change won, where "won" follows the metric's
``better`` direction in ``BENCHMARK.json`` (a metric it does not list shows
"-"). A gain counts only where the medians differ by more than ``p.iqr``:

    python3 scripts/bench_diff.py BENCH_11.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    return {
        metric["name"]: metric["better"]
        for kind in ("end_to_end", "per_layer")
        for metric in benchmark.get(kind, ())
    }


def summarise(runs: list[dict], better: dict[str, str]) -> list[tuple]:
    """Rows (workload, trace, metric, parent median, parent IQR, change median,
    ratio, won, pairs).

    Workloads and metrics keep the order of their first appearance in
    `runs`. The parent IQR is the distance between the quartiles of the
    parent runs (``statistics.quantiles``' default method), None with
    fewer than two runs; ratio is change over parent (None when the parent
    median is 0) and won is None for a metric with no direction.
    """
    values: dict[tuple, dict[str, dict[int, float]]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            key = (run["workload"], run["trace"], name)
            sides = values.setdefault(key, {"parent": {}, "change": {}})
            sides[run["side"]][run["seed"]] = metric["value"]
    rows = []
    for (workload, trace, name), sides in values.items():
        parent, change = sides["parent"], sides["change"]
        if not parent or not change:
            continue
        old = statistics.median(parent.values())
        spread = None
        if len(parent) > 1:
            low, _, high = statistics.quantiles(parent.values(), n=4)
            spread = high - low
        new = statistics.median(change.values())
        seeds = sorted(parent.keys() & change.keys())
        won = None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            won = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
        rows.append(
            (workload, trace, name, old, spread, new, new / old if old else None, won, len(seeds))
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", type=Path, help="a BENCH_*.json file")
    args = parser.parse_args(argv)

    runs = json.loads(args.bench.read_text())["runs"]
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    print(
        f"{'workload':<8} {'trace':>5} {'metric':<30} {'parent':>12} {'p.iqr':>10} "
        f"{'change':>12} {'ratio':>7} {'won':>7}"
    )
    for workload, trace, name, old, spread, new, ratio, won, pairs in summarise(runs, better):
        spread_text = "-" if spread is None else f"{spread:.4g}"
        ratio_text = "-" if ratio is None else f"{ratio:.3f}"
        won_text = "-" if won is None else f"{won}/{pairs}"
        print(
            f"{workload:<8} {trace:>5} {name:<30} {old:>12.6g} {spread_text:>10} "
            f"{new:>12.6g} {ratio_text:>7} {won_text:>7}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
