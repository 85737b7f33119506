"""Pruned enumeration bounded by two landmark vectors.

The enumeration order is integer order, so the first connected vector
and the last disconnected vector split the 2^m state space into three
zones: everything below the first connected vector is disconnected and
carries no mass, everything above the last disconnected vector is
connected and its mass has a closed form, and only the middle zone needs
searching. The first landmark comes from a shortest path and the last
from a greedy union-find pass, so neither needs a flow. The middle
search walks prefixes depth first and prunes a whole subtree the moment
its prefix is connected, because a connected prefix certifies every
completion connected.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphops
from .budget import Budget
from .network import Network
from .unionfind import find


@dataclass
class QuickBatStats:
    """Work counters for one run.

    super_vectors counts accepted connected prefixes (each stands for all
    of its completions), connectivity_checks counts incremental union-find
    queries, multiplications and summations count floating operations on
    probabilities.
    """

    super_vectors: int = 0
    connectivity_checks: int = 0
    multiplications: int = 0
    summations: int = 0


def first_connected(network: Network) -> int:
    """The earliest connected vector in enumeration order.

    A minimal connected arc set is a simple source-sink path, and clearing
    any spare coordinate of a connected vector lowers its value, so the
    earliest connected vector is the indicator of the path minimising the
    sum of its coordinate place values 2^(i-1). That path is exactly the
    shortest path under the increasing power-of-two weighting.
    """
    path = graphops.shortest_path(network, graphops.ld_weights(network))
    bits = 0
    for arc_id in path:
        bits |= 1 << (arc_id - 1)
    return bits


def last_disconnected(network: Network) -> int:
    """The latest disconnected vector in enumeration order.

    Clearing coordinates keeps a disconnected vector disconnected, so the
    latest one is built greedily from the most significant coordinate
    down: set arc i unless, together with the arcs already set, it would
    join the source's component to the sink's. Every vector above the
    result is connected.
    """
    parent = list(range(network.node_count + 1))
    bits = 0
    for a in reversed(network.arcs):
        ru, rv = find(parent, a.u), find(parent, a.v)
        ends = {find(parent, network.source), find(parent, network.sink)}
        if {ru, rv} != ends:
            parent[ru] = rv
            bits |= 1 << (a.id - 1)
    return bits


def tail_mass_above(probs, bits: int, stats: QuickBatStats | None = None) -> float:
    """Probability that a random vector's value strictly exceeds `bits`.

    Walks the reference value from its most significant coordinate down:
    at a zero coordinate the vector can beat the reference by setting that
    coordinate after matching everything above it.
    """
    tail = 0.0
    suffix = 1.0
    mults = 0
    sums = 0
    for i in range(len(probs) - 1, -1, -1):
        if (bits >> i) & 1:
            suffix *= probs[i]
            mults += 1
        else:
            tail += suffix * probs[i]
            suffix *= 1.0 - probs[i]
            mults += 2
            sums += 1
    if stats is not None:
        stats.multiplications += mults
        stats.summations += sums
    return tail


def reliability_quick_bat(
    network: Network,
    budget: Budget | None = None,
    stats: QuickBatStats | None = None,
) -> float:
    """Exact reliability from pruned enumeration plus the closed-form tail.

    The accepted prefixes form an antichain covering every connected
    vector up to the last disconnected vector exactly once; the tail term
    covers everything above it. Equality with the full-enumeration
    backends is the correctness anchor and is enforced by the test suite.
    """
    if stats is None:
        stats = QuickBatStats()
    n = network.node_count
    m = network.arc_count
    if n == 1:
        return 1.0

    lo = first_connected(network)
    hi = last_disconnected(network)
    probs = network.probabilities()
    arc_u = [a.u for a in network.arcs]
    arc_v = [a.v for a in network.arcs]

    tail = tail_mass_above(probs, hi, stats)

    # Union-find with union by size and an undo trail, no path compression,
    # so backtracking out of a prefix is O(1) per union made inside it.
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    trail: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            trail.append(0)
            return
        if size[ra] > size[rb]:
            ra, rb = rb, ra
        parent[ra] = rb
        size[rb] += size[ra]
        trail.append(ra)

    def undo() -> None:
        ra = trail.pop()
        if ra:
            size[parent[ra]] -= size[ra]
            parent[ra] = ra

    full_span = 1 << m
    total = 0.0
    visited = 0

    def walk(k: int, value: int, prob: float, connected: bool) -> None:
        nonlocal total, visited
        visited += 1
        if budget is not None and visited & 2047 == 0:
            budget.check()
        if value > hi:
            return  # every completion lies in the tail zone
        top = value + full_span - (1 << k)
        if top < lo:
            return  # every completion precedes the first connected vector
        if connected:
            if top <= hi:
                total += prob
                stats.super_vectors += 1
                stats.summations += 1
                return
            # the subtree straddles the tail boundary: split it, children
            # of a connected prefix stay connected without rechecking
            stats.multiplications += 2
            walk(k + 1, value, prob * (1.0 - probs[k]), True)
            walk(k + 1, value + (1 << k), prob * probs[k], True)
            return
        if k == m:
            return
        stats.multiplications += 2
        walk(k + 1, value, prob * (1.0 - probs[k]), False)
        union(arc_u[k], arc_v[k])
        stats.connectivity_checks += 1
        walk(k + 1, value + (1 << k), prob * probs[k], find(1) == find(n))
        undo()

    walk(0, 0, 1.0, False)
    return total + tail
