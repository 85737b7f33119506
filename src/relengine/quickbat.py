"""Pruned enumeration bounded by two landmark vectors.

The enumeration order is integer order, so the first connected vector
and the last disconnected vector split the 2^m state space into three
zones: everything below the first connected vector is disconnected and
carries no mass, everything above the last disconnected vector is
connected and its mass has a closed form, and only the middle zone needs
searching. The first landmark is the source-sink path of the spanning
tree grown by joining arcs in id order, and the last comes from a greedy
union-find pass from the highest arc down, so neither needs a flow. The
middle search walks prefixes depth first and prunes a whole subtree the
moment its prefix is connected, because a connected prefix certifies
every completion connected.

The walk is one loop over an explicit stack of prefix frames, so the
recursion limit does not bound the arc count. Only 1-branches are
pushed: clearing an arc changes neither the prefix's value nor its
blocks, so each popped frame's chain of 0-branches is walked in place.
Each frame carries its prefix's block labels, one character per node
(so at most ``sys.maxunicode`` nodes), and a 1-branch merges its arc's
blocks with one ``str.replace`` (Carlier & Lucet), so popping undoes nothing.

This backend is kept as the quick-BAT baseline that the paper compares
QB-II against, whether or not it wins a benchmark row.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import graphops
from .bat import EnumerationCapExceeded
from .budget import STRIDE, Budget
from .network import Network
from .unionfind import find, union


@dataclass
class QuickBatStats:
    """Work counters for one run.

    super_vectors counts accepted connected prefixes (each stands for all
    of its completions), connectivity_checks counts block merges tried,
    multiplications and summations count floating operations on
    probabilities. The walk counts the first two and the frames it visits,
    ``visited``; with m arcs and ``zeros`` clear coordinates in the last
    disconnected vector, multiplications = (visited - 1) + m + zeros (a
    split multiplies once into each of its two frames, the tail once per
    set coordinate and twice per clear one) and summations = super_vectors
    + zeros (the tail adds once per clear coordinate).
    """

    super_vectors: int = 0
    connectivity_checks: int = 0
    multiplications: int = 0
    summations: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


def first_connected(network: Network) -> int:
    """The earliest connected vector in enumeration order.

    A minimal connected arc set is a simple source-sink path, so the
    earliest connected vector is the indicator of the path whose highest
    arc is lowest, then whose next highest is, and so on. That is the
    source-sink path of the spanning tree grown by joining arcs in id
    order (Kruskal's rule): the highest arc where another path differs
    from it is the other path's, because every other arc across the cut
    that removing a tree arc leaves is higher than that tree arc.
    """
    parent = list(range(network.node_count + 1))
    tree: list[list[tuple[int, int]]] = [[] for _ in parent]
    for a in network.arcs:
        if union(parent, a.u, a.v):
            tree[a.u].append((a.id, a.v))
            tree[a.v].append((a.id, a.u))
    bits = 0
    for arc_id in graphops.shortest_path(tree):
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


def tail_mass_above(probs, bits: int) -> float:
    """Probability that a random vector's value strictly exceeds `bits`.

    Walks the reference value from its most significant coordinate down:
    at a zero coordinate the vector can beat the reference by setting that
    coordinate after matching everything above it.
    """
    tail = 0.0
    suffix = 1.0
    for i in range(len(probs) - 1, -1, -1):
        if (bits >> i) & 1:
            suffix *= probs[i]
        else:
            tail += suffix * probs[i]
            suffix *= 1.0 - probs[i]
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
    if network.node_count > sys.maxunicode:  # one label character per node
        raise EnumerationCapExceeded(
            network.arc_count, f"qbat takes at most {sys.maxunicode} nodes, one label each"
        )
    n = network.node_count
    m = network.arc_count
    if n == 1:
        return 1.0
    lo = first_connected(network)
    hi = last_disconnected(network)
    probs = network.probabilities()
    arc_u = [a.u for a in network.arcs]
    arc_v = [a.v for a in network.arcs]
    fail = [1.0 - p for p in probs]

    total = 0.0
    visited = accepted = checks = 0
    # Frames (k, value, top, prob, connected, labels) are 1-branches only:
    # a frame's 0-branch is walked in place right after it, so frames pop
    # in depth-first, 0-branch-first order. top = value + 2^m - 2^k is the
    # largest completion; a 1-branch keeps its parent's, a 0-branch lowers
    # it by 2^k, so no list of m-bit constants is built. connected is None
    # on a disconnected prefix's 1-branch: arc k-1 merges when it pops.
    stack = [(0, 0, (1 << m) - 1, 1.0, False, "".join(map(chr, range(n + 1))))]
    push = stack.append
    while stack:
        k, value, top, prob, connected, labels = stack.pop()
        if connected is None:
            checks += 1
            a, b = labels[arc_u[k - 1]], labels[arc_v[k - 1]]
            if a != b:  # an arc inside one block leaves the prefix disconnected
                labels = labels.replace(b, a)
            connected = labels[1] == labels[n]
        joined = True if connected else None
        bit = 1 << k
        # the frame, then its chain of 0-branches: clearing arc k keeps the
        # value and the labels, so only k, bit, top and the probability move
        while True:
            visited += 1
            if budget is not None and visited % STRIDE == 0:
                budget.check()
            if value > hi:
                break  # every completion lies in the tail zone
            if top < lo:
                break  # every completion precedes the first connected vector
            if connected and top <= hi:
                total += prob
                accepted += 1
                break
            if k == m:
                break
            # split the prefix; a connected one straddles the tail boundary,
            # and its children stay connected without rechecking
            push((k + 1, value + bit, top, prob * probs[k], joined, labels))
            prob *= fail[k]
            top -= bit
            bit <<= 1
            k += 1
    if stats is not None:
        zeros = m - hi.bit_count()
        stats.super_vectors += accepted
        stats.connectivity_checks += checks
        stats.multiplications += visited - 1 + m + zeros
        stats.summations += accepted + zeros
    return total + tail_mass_above(probs, hi)
