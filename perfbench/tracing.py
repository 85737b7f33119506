"""Traced run: where each backend's time goes, layer by layer.

Each round solves the workload twice with the backends' public functions:
once plain, and once with spans recorded around the calls into every
layer. qb2 is rebuilt from its public steps (find_shortest_mcs,
self_adjust, stage_sources_targets, tabulate_stage, convolve_sets) and its
answer must equal the plain ``reliability_qb2`` bit for bit. The graph
layer and the landmark and tail steps of qbat are wrapped at module level
for the traced pass only, so the program itself carries no tracing code.
Counts come from the program's own counters and the decomposition it
returns; they must repeat exactly from round to round.

A layer's self time is its spans' duration minus the part its child
spans cover: ``decompose.cut_chain_s`` is find_shortest_mcs without the
shortest-path and min-cut calls it makes, and ``quickbat.walk_s`` is
reliability_quick_bat without its landmarks and tail.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from collections import Counter

from perfbench.measure import SpeedProbe, Tally, parse_all


class Tracer:
    """Spans kept in memory as [name, start, end, index of the parent span]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def wrapping(self, module, *attrs: str):
        """Replace module.attr by a spanned call for the duration of the block."""
        saved = {attr: getattr(module, attr) for attr in attrs}
        prefix = module.__name__.rsplit(".", 1)[-1]
        for attr, func in saved.items():
            setattr(module, attr, self._spanned(f"{prefix}.{attr}", func))
        try:
            yield
        finally:
            for attr, func in saved.items():
                setattr(module, attr, func)

    def _spanned(self, name, func):
        def call(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return call

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def total(self, *names: str) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name in names)

    def self_time(self, name: str) -> float:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return sum(
            end - start - covered[i]
            for i, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name
        )


class Layers:
    """The program's modules, looked up by name: ``relengine.decompose`` the
    attribute is the function, not the submodule."""

    def __init__(self) -> None:
        for name in ("bat", "decompose", "graphops", "quickbat", "stm"):
            setattr(self, name, importlib.import_module(f"relengine.{name}"))


def _plain(layers: Layers, network, backend: str) -> float:
    if backend == "qb2":
        return layers.stm.reliability_qb2(network)[0]
    if backend == "qbat":
        return layers.quickbat.reliability_quick_bat(network)
    return layers.bat.reliability_oracle(network)


def _traced_qb2(layers: Layers, tracer: Tracer, network, counts: Counter) -> float:
    dec, stm = layers.decompose, layers.stm
    with tracer.span("decompose.find_shortest_mcs"):
        d = dec.find_shortest_mcs(network)
    with tracer.span("decompose.self_adjust"):
        d = dec.self_adjust(network, d)
    with tracer.span("decompose.stage_sources_targets"):
        d = dec.stage_sources_targets(network, d)
    counts["decompose.stages"] += len(d.stages)
    counts["decompose.cut_side_nodes"] += sum(len(cut.source_side) for cut in d.cuts)
    widest = max(len(stage.arc_ids) for stage in d.stages)
    counts["decompose.widest_stage_arcs"] = max(counts["decompose.widest_stage_arcs"], widest)
    pooled = []
    for stage in d.stages:
        with tracer.span("stm.tabulate_stage"):
            pooled.append(stm.tabulate_stage(network, stage))
        counts["stm.stage_vectors"] += 1 << len(stage.arc_ids)
        counts["stm.pooled_stms"] += len(pooled[-1])
    acc = pooled[0]
    for stage_set in pooled[1:]:
        fold = stm.Counters()
        with tracer.span("stm.convolve_sets"):
            acc = stm.convolve_sets(acc, stage_set, fold)
        counts["stm.convolution_products"] += fold.convolution_products
        counts["stm.nonzero_products"] += fold.multiplications  # one per nonzero product
        counts["stm.pooled_stms"] += len(acc)
    total = 0.0
    for _, mass in acc.items():  # the summation order of reliability_qb2
        total += mass
    return total


def _traced(layers: Layers, tracer: Tracer, network, backend: str, counts: Counter) -> float:
    if backend == "qb2":
        return _traced_qb2(layers, tracer, network, counts)
    if backend == "qbat":
        stats = layers.quickbat.QuickBatStats()
        with tracer.span("quickbat.reliability_quick_bat"):
            value = layers.quickbat.reliability_quick_bat(network, stats=stats)
        counts["quickbat.connectivity_checks"] += stats.connectivity_checks
        counts["quickbat.super_vectors"] += stats.super_vectors
        return value
    with tracer.span("bat.reliability_oracle"):
        value = layers.bat.reliability_oracle(network)
    counts["bat.oracle_vectors"] += 1 << network.arc_count
    return value


def _solve_all(instances, networks, tally: Tally, speed: SpeedProbe, solve) -> tuple[float, float]:
    """Solve every (network, backend) pair once; returns the pass's start and end."""
    start = time.perf_counter()
    for inst, network in zip(instances, networks):
        for backend in inst.backends:
            speed.probe_if_due()
            try:
                value = solve(network, backend)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                tally.fail(inst, backend, f"{type(exc).__name__}: {exc}")
                continue
            tally.check(inst, backend, value)
    return start, time.perf_counter()


def _layer_times(tracer: Tracer) -> dict[str, float]:
    return {
        "graphops.min_cut_s": tracer.total("graphops.min_cut_partition"),
        "graphops.shortest_path_s": tracer.total("graphops.shortest_path"),
        "decompose.cut_chain_s": tracer.self_time("decompose.find_shortest_mcs"),
        "decompose.self_adjust_s": tracer.total("decompose.self_adjust"),
        "decompose.finalise_s": tracer.total("decompose.stage_sources_targets"),
        "stm.tabulate_s": tracer.total("stm.tabulate_stage"),
        "stm.fold_s": tracer.total("stm.convolve_sets"),
        "quickbat.walk_s": tracer.self_time("quickbat.reliability_quick_bat"),
        "quickbat.landmarks_s": tracer.total("quickbat.first_connected", "quickbat.last_disconnected"),
        "quickbat.tail_s": tracer.total("quickbat.tail_mass_above"),
        "bat.oracle_s": tracer.total("bat.reliability_oracle"),
    }


def traced_run(relengine, instances, seconds: float) -> dict:
    """Plain and traced passes in whole rounds until `seconds` have passed.

    Each time is a total over one pass of the workload, scaled to the
    reference speed by the probes taken during that pass (see
    perfbench/measure.py), and the median over the rounds; counts are those
    of one pass.
    """
    layers = Layers()
    tally = Tally()
    speed = SpeedProbe()
    parse_spans: list[tuple[float, float]] = []
    rounds: list[tuple] = []
    counts: Counter | None = None
    start = time.perf_counter()
    while True:
        networks = parse_all(relengine.parse_network, instances, speed, parse_spans)
        plain = _solve_all(
            instances, networks, tally, speed, lambda net, backend: _plain(layers, net, backend)
        )
        tracer = Tracer()
        round_counts: Counter = Counter()
        with contextlib.ExitStack() as stack:
            stack.enter_context(tracer.wrapping(layers.graphops, "shortest_path", "min_cut_partition"))
            stack.enter_context(
                tracer.wrapping(layers.quickbat, "first_connected", "last_disconnected", "tail_mass_above")
            )
            traced = _solve_all(
                instances, networks, tally, speed,
                lambda net, backend: _traced(layers, tracer, net, backend, round_counts),
            )
        round_counts["graphops.min_cut_calls"] = tracer.count("graphops.min_cut_partition")
        if counts is None:
            counts = round_counts
        elif round_counts != counts:
            tally.wrong += 1
            print("perfbench: work counts differ between rounds", file=sys.stderr)
        rounds.append((plain, traced, _layer_times(tracer)))
        if time.perf_counter() - start >= seconds:
            break
    speed.probe()

    def median_over_rounds(value_of) -> float:
        return statistics.median(value_of(*r) for r in rounds)

    def factor(span) -> float:
        return speed.scaled(*span) / (span[1] - span[0])

    metrics = {"network.parse_s": (statistics.median(speed.scaled(*s) for s in parse_spans), "s")}
    for name in rounds[0][2]:
        metrics[name] = (median_over_rounds(lambda p, t, layer: layer[name] * factor(t)), "s")
    metrics["trace.overhead_s"] = (
        median_over_rounds(lambda p, t, layer: speed.scaled(*t) - speed.scaled(*p)), "s"
    )
    products = counts["stm.convolution_products"]
    for name in (
        "graphops.min_cut_calls", "decompose.stages", "decompose.widest_stage_arcs",
        "decompose.cut_side_nodes", "stm.stage_vectors", "stm.convolution_products",
        "stm.pooled_stms", "quickbat.connectivity_checks", "quickbat.super_vectors",
        "bat.oracle_vectors",
    ):
        metrics[name] = (counts[name], "count")
    metrics["stm.fold_useful_ratio"] = (
        counts["stm.nonzero_products"] / products if products else 0.0, "ratio"
    )
    return tally.result(metrics)
