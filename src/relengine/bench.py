"""Backend dispatch, agreement checking and benchmark sweeps."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bat, quickbat, stm
from .budget import Budget, BudgetExceeded
from .generators import GeneratorSpec, build
from .network import Network

BACKENDS = ("oracle", "qbat", "qb2")

DEFAULT_BUDGET_S = 60.0
DEFAULT_TOLERANCE = 1e-10


@dataclass
class RunResult:
    backend: str
    status: str  # ok | timeout | skipped
    reliability: float | None
    wall_time_s: float
    counters: stm.Counters | quickbat.QuickBatStats | None = None
    detail: str = ""


def run_backend(
    network: Network, backend: str, budget_s: float | None = None
) -> RunResult:
    """Run one backend under an optional wall-clock budget.

    A blown budget is reported as status ``timeout`` and a cap refusal
    (more arcs than ``bat.DEFAULT_ENUMERATION_CAP`` in the oracle's
    network or in one qb2 stage, or more nodes than ``sys.maxunicode``
    for qbat) as ``skipped``; neither raises.
    On status ``ok``, ``counters`` is the object the backend filled while
    it ran: qb2's ``stm.Counters``, qbat's ``quickbat.QuickBatStats``, or
    None for the oracle, which keeps none. Both have ``as_dict()``.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    budget = Budget(budget_s) if budget_s is not None else None
    counters = None
    start = time.perf_counter()
    try:
        if backend == "oracle":
            value = bat.reliability_oracle(network, budget=budget)
        elif backend == "qbat":
            counters = quickbat.QuickBatStats()
            value = quickbat.reliability_quick_bat(network, budget=budget, stats=counters)
        else:
            value, counters = stm.reliability_qb2(network, budget=budget)
    except bat.EnumerationCapExceeded as exc:
        return RunResult(
            backend, "skipped", None, time.perf_counter() - start, detail=str(exc)
        )
    except BudgetExceeded as exc:
        return RunResult(
            backend, "timeout", None, time.perf_counter() - start, detail=str(exc)
        )
    return RunResult(backend, "ok", value, time.perf_counter() - start, counters)


@dataclass
class CrosscheckReport:
    results: list[RunResult]
    max_delta: float
    tolerance: float
    passed: bool


def crosscheck(
    network: Network, tolerance: float = DEFAULT_TOLERANCE
) -> CrosscheckReport:
    """Run every backend and compare the answers pairwise.

    The network must be small enough for full enumeration; a cap refusal
    propagates to the caller rather than producing a vacuous pass.
    """
    if network.arc_count > bat.DEFAULT_ENUMERATION_CAP:
        raise bat.EnumerationCapExceeded(network.arc_count)
    results = [run_backend(network, backend) for backend in BACKENDS]
    values = [r.reliability for r in results if r.reliability is not None]
    max_delta = max(values) - min(values) if values else float("inf")
    passed = len(values) == len(BACKENDS) and max_delta <= tolerance
    return CrosscheckReport(results, max_delta, tolerance, passed)


def bench_sweep(
    family: str,
    k_min: int,
    k_max: int,
    p: float,
    backends: tuple[str, ...],
    budget_s: float = DEFAULT_BUDGET_S,
    seed: int | None = None,
) -> list[dict]:
    """One row per (instance, backend), in sweep order.

    Each row is a dict with keys ``family``, ``k``, ``nodes``, ``arcs``,
    ``backend``, ``status``, ``reliability``, ``wall_time_s`` and
    ``detail``, in that order; the CLI prints its columns in it.

    Each backend run gets its own fresh budget so a timeout on one
    instance cannot starve the rest of the sweep.
    """
    rows = []
    for k in range(k_min, k_max + 1):
        network = build(GeneratorSpec(family, k, p, seed))
        for backend in backends:
            result = run_backend(network, backend, budget_s=budget_s)
            rows.append({
                "family": family,
                "k": k,
                "nodes": network.node_count,
                "arcs": network.arc_count,
                "backend": result.backend,
                "status": result.status,
                "reliability": result.reliability,
                "wall_time_s": result.wall_time_s,
                "detail": result.detail,
            })
    return rows
