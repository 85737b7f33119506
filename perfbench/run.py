#!/usr/bin/env python3
"""Benchmark entry point: solve one seeded workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src``. The
run solves every network of the workload with each of its backends,
through ``relengine.bench.run_backend``, in whole rounds until
``--seconds`` have passed, and checks every answer against the exact
reference in ``perfbench/reference.py``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 1`` makes the separate traced run of
``perfbench/tracing.py`` instead, which reports the per-layer metrics.
Without the sources under ``src`` it exits with an error and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_program():
    """Import relengine from this checkout's sources, or exit with an error."""
    src = ROOT / "src"
    if not (src / "relengine" / "__init__.py").is_file():
        sys.exit(f"perfbench: no relengine sources under {src}")
    sys.path.insert(0, str(src))
    import relengine

    if Path(relengine.__file__).resolve().parent != src / "relengine":
        sys.exit(f"perfbench: imported relengine from {relengine.__file__}, not {src}")
    return relengine


def timed_run(relengine, instances, seconds: float) -> dict:
    """Solve every (network, backend) pair once per round until `seconds` pass.

    Every timing is scaled to the reference speed by the speed probe (see
    perfbench/measure.py). A pair's time is the median over the rounds and
    set-up time the median over the parse passes.
    """
    from perfbench.measure import BACKENDS, SpeedProbe, Tally, parse_all, peak_rss_mb

    run_backend = relengine.bench.run_backend
    tally = Tally()
    speed = SpeedProbe()
    setup_spans: list[tuple[float, float]] = []
    solve_spans: dict[tuple[int, str], list[tuple[float, float]]] = {}
    start = time.perf_counter()
    while True:
        networks = parse_all(relengine.parse_network, instances, speed, setup_spans)
        for index, (inst, network) in enumerate(zip(instances, networks)):
            for backend in inst.backends:
                speed.probe_if_due()
                began = time.perf_counter()
                try:
                    result = run_backend(network, backend)
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    tally.fail(inst, backend, f"{type(exc).__name__}: {exc}")
                    continue
                ended = time.perf_counter()
                if result.status != "ok":
                    tally.fail(inst, backend, f"status {result.status}: {result.detail}")
                elif tally.check(inst, backend, result.reliability):
                    solve_spans.setdefault((index, backend), []).append((began, ended))
        if time.perf_counter() - start >= seconds:
            break
    speed.probe()

    setup_s = statistics.median(speed.scaled(*span) for span in setup_spans)
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb(), "MiB")}
    for backend in BACKENDS:
        times = [
            statistics.median(speed.scaled(*span) for span in spans)
            for (_, b), spans in solve_spans.items()
            if b == backend
        ]
        metrics[f"{backend}.solves_per_s"] = (len(times) / sum(times) if times else 0.0, "1/s")
        metrics[f"{backend}.solve_s.p50"] = (statistics.median(times) if times else 0.0, "s")
    return tally.result(metrics)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    relengine = load_program()
    instances = workloads.build(args.workload, args.seed)
    if args.trace:
        from perfbench.tracing import traced_run

        result = traced_run(relengine, instances, args.seconds)
    else:
        result = timed_run(relengine, instances, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
