#!/usr/bin/env python3
"""Sets of benchmark runs over many seeds, and their medians and spreads.

    python3 perfbench/sets.py run A --seeds 1-10              # every workload
    python3 perfbench/sets.py run B --seeds 11-20 --workloads corpus
    python3 perfbench/sets.py summary A [B]

``run`` starts ``perfbench/run.py`` once per (workload, seed), one run at a
time, with the run length of BENCHMARK.json, and appends each result line
to ``perfbench/out/<label>/<workload>.jsonl``. ``summary`` prints, for every
metric, the median and quartiles of a set and the spread (third minus
first quartile, as a share of the median); given a second set it adds that
set's median and its change against the first, and marks a change worse
than the metric's bound in BENCHMARK.json with ``!``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(label: str, workloads: list[str], seeds: list[int], trace: int) -> None:
    config = _config()
    folder = OUT / label
    folder.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            cmd = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            with open(folder / f"{workload}.jsonl", "a") as out:
                out.write(json.dumps({"seed": seed, **result}) + "\n")
            print(workload, seed, result["attempted"], result["failed"], result["correct"], flush=True)


def _load(label: str) -> dict[str, list[dict]]:
    return {
        path.stem: [json.loads(line) for line in path.read_text().splitlines()]
        for path in sorted((OUT / label).glob("*.jsonl"))
    }


def summary(first: str, second: str | None) -> None:
    config = _config()
    bounds = {m["name"]: m for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"] + config["per_layer"]}
    sets = [_load(first)] + ([_load(second)] if second else [])
    for workload, results in sets[0].items():
        failed = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, failed share {failed}, "
              f"correct {all(r['correct'] for r in results)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, {}).get("bound")
            line = (f"  {name:32s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                    f"spread {spread:.3f}" + (f" (bound {bound})" if bound else ""))
            if second and workload in sets[1]:
                other = statistics.median(r["metrics"][name]["value"] for r in sets[1][workload])
                change = other / median - 1 if median else float("inf")
                worse = -change if better.get(name) == "higher" else change
                flag = "!" if bound is not None and worse > bound else ""
                line += f"  | second median {other:.6g} change {change:+.3f}{flag}"
            print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("label")
    p_run.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p_run.add_argument("--workloads", default=None, help="comma separated; default all")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("first")
    p_sum.add_argument("second", nargs="?")
    args = parser.parse_args()
    if args.command == "run":
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in _config()["workloads"]]
        run(args.label, names, args.seeds, args.trace)
    else:
        summary(args.first, args.second)
    return 0


if __name__ == "__main__":
    sys.exit(main())
