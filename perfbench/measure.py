"""Answer checking, the speed probe and set-up timing, shared by both runs."""

from __future__ import annotations

import bisect
import resource
import statistics
import sys
import time

BACKENDS = ("oracle", "qbat", "qb2")
TOLERANCE = 1e-10

# The speed of a shared host changes by up to 2x for stretches of seconds
# to minutes, and it changes every pure-Python timing alike. A fixed probe,
# timed between solves, follows it: a span's wall time multiplied by
# PROBE_REFERENCE_S over the median probe time around the span is the
# span's time at the speed where the probe takes PROBE_REFERENCE_S, which
# is about the probe's fastest time on the machine the figures in
# README.md come from.
PROBE_REFERENCE_S = 0.0006
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5
PROBE_NEIGHBOURS = 3
# The probe: union-find over every state of a fixed 9-arc graph, pooling
# the resulting forests in a dict, the two kinds of work the backends do.
_PROBE_ARCS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6))

# Time spent at the start of each round parsing the workload's texts again
# and again, so that a workload of a few tiny networks still gets a
# set-up time of many passes.
SETUP_SAMPLE_S = 0.05


def _probe_kernel() -> int:
    pooled: dict[tuple[int, ...], float] = {}
    for bits in range(1 << len(_PROBE_ARCS)):
        parent = list(range(7))
        for k, (u, v) in enumerate(_PROBE_ARCS):
            if bits >> k & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
        key = tuple(parent)
        pooled[key] = pooled.get(key, 0.0) + 1.0
    return len(pooled)


class SpeedProbe:
    """Probe times taken during a run, and spans scaled by them."""

    def __init__(self) -> None:
        self.midpoints: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        _probe_kernel()
        end = time.perf_counter()
        self.midpoints.append((start + end) / 2)
        self.durations.append(end - start)

    def probe_if_due(self) -> None:
        if not self.midpoints or time.perf_counter() - self.midpoints[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end] at the reference speed, from the probes
        within PROBE_WINDOW_S of the span and at least PROBE_NEIGHBOURS on
        each side of it, where a long solve nearby left the probes sparse."""
        at = bisect.bisect_left(self.midpoints, start)
        lo = min(bisect.bisect_left(self.midpoints, start - PROBE_WINDOW_S), at - PROBE_NEIGHBOURS)
        hi = max(bisect.bisect_right(self.midpoints, end + PROBE_WINDOW_S), at + PROBE_NEIGHBOURS)
        near = self.durations[max(lo, 0) : hi]
        return (end - start) * PROBE_REFERENCE_S / statistics.median(near)


class Tally:
    """Counts operations and checks each answer.

    A wrong value, a status other than ``ok`` or an exception is a failed
    operation. A qb2 answer must also repeat bit for bit on every solve
    of the same network.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._first_qb2: dict[str, float] = {}

    def check(self, instance, backend: str, value: float | None) -> bool:
        self.attempted += 1
        ok = value is not None and abs(value - instance.reference) <= TOLERANCE
        if ok and backend == "qb2":
            ok = self._first_qb2.setdefault(instance.label, value) == value
        if not ok:
            self.failed += 1
            if value is not None:
                self.wrong += 1
                print(f"perfbench: {backend} on {instance.label} gave {value!r}, "
                      f"expected {instance.reference!r}", file=sys.stderr)
        return ok

    def fail(self, instance, backend: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {backend} on {instance.label} failed: {reason}", file=sys.stderr)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        """The benchmark's result object from name -> (value, unit)."""
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }


def parse_all(parse_network, instances, speed: SpeedProbe, spans: list) -> list:
    """Parse every network text in passes for SETUP_SAMPLE_S, at least three
    passes, each after a probe; appends each pass's (start, end) to `spans`
    and returns the last pass's networks."""
    began = time.perf_counter()
    passes = 0
    while True:
        speed.probe()
        start = time.perf_counter()
        networks = [parse_network(inst.text) for inst in instances]
        end = time.perf_counter()
        spans.append((start, end))
        passes += 1
        if passes >= 3 and end - began >= SETUP_SAMPLE_S:
            return networks


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
