"""Weighted shortest paths and minimum cuts on validated networks.

Weights are exact Python integers so that the power-of-two weighting
stays collision free at any arc count; with distinct powers of two the
shortest path is unique and Dijkstra's tie breaking is never exercised.
Minimum cuts take any non-negative integer capacities, and their ties
are settled by a fixed rule: the cut with the smallest source side.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from .network import Network

ArcWeighting = tuple[int, ...]


def adjacency(network: Network) -> list[list[tuple[int, int]]]:
    """Per node list of (arc_id, neighbour), indexed 0..n with 0 unused."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(network.node_count + 1)]
    for a in network.arcs:
        adj[a.u].append((a.id, a.v))
        adj[a.v].append((a.id, a.u))
    return adj


def unit_weights(network: Network) -> ArcWeighting:
    return (1,) * network.arc_count


def ld_weights(network: Network) -> ArcWeighting:
    """Weight 2^i for arc i: early arcs light, late arcs heavy."""
    return tuple(1 << i for i in range(1, network.arc_count + 1))


def shortest_path(network: Network, weighting: Sequence[int]) -> tuple[int, ...]:
    """Arc ids of a minimum total weight path from node 1 to node n.

    Plain Dijkstra over exact integer distances. Relaxation requires a
    strict improvement and scans arcs in id order, so the returned path
    is deterministic even when the weighting has ties.
    """
    if len(weighting) != network.arc_count:
        raise ValueError("weighting length does not match arc count")
    n = network.node_count
    if n == 1:
        return ()
    adj = adjacency(network)
    dist: list[int | None] = [None] * (n + 1)
    pred_arc = [0] * (n + 1)
    pred_node = [0] * (n + 1)
    dist[1] = 0
    heap: list[tuple[int, int]] = [(0, 1)]
    while heap:
        d, node = heapq.heappop(heap)
        if dist[node] != d:
            continue
        if node == n:
            break
        for arc_id, other in adj[node]:
            nd = d + weighting[arc_id - 1]
            if dist[other] is None or nd < dist[other]:
                dist[other] = nd
                pred_arc[other] = arc_id
                pred_node[other] = node
                heapq.heappush(heap, (nd, other))
    if dist[n] is None:
        raise ValueError("no path from the source to the sink")
    path = []
    node = n
    while node != 1:
        path.append(pred_arc[node])
        node = pred_node[node]
    path.reverse()
    return tuple(path)


def min_cut_partition(
    network: Network,
    capacities: Sequence[int],
    sources: Iterable[int],
    sinks: Iterable[int],
) -> tuple[frozenset[int], frozenset[int]]:
    """Minimum capacity cut separating `sources` from `sinks`.

    Returns (source_side, cut_arc_ids). Shortest augmenting paths
    (Edmonds-Karp) saturate a maximum flow; the source side is the set of
    real nodes the last, failing search still reaches in the residual
    graph, and the cut is every arc with exactly one endpoint on that
    side. That set is the same after any maximum flow, so when several
    cuts tie this picks the one with the smallest source side.
    """
    sources = sorted(set(sources))
    sinks = sorted(set(sinks))
    if not sources or not sinks:
        raise ValueError("sources and sinks must both be nonempty")
    overlap = set(sources) & set(sinks)
    if overlap:
        raise ValueError(f"sources and sinks overlap on {sorted(overlap)}")
    if len(capacities) != network.arc_count:
        raise ValueError("capacity list length does not match arc count")

    n = network.node_count
    # Residual edges in pairs: edge e runs u -> v, edge e ^ 1 runs v -> u,
    # and both start at the arc's capacity because arcs are undirected.
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for a in network.arcs:
        c = capacities[a.id - 1]
        out[a.u].append(len(head))
        head.append(a.v)
        cap.append(c)
        out[a.v].append(len(head))
        head.append(a.u)
        cap.append(c)
    is_sink = [False] * (n + 1)
    for t in sinks:
        is_sink[t] = True

    while True:
        # Breadth-first search from every source at once; via[v] is the
        # edge that first reached v, -1 at a source, None if unreached.
        via: list[int | None] = [None] * (n + 1)
        for s in sources:
            via[s] = -1
        queue = list(sources)
        end = 0
        for u in queue:
            for e in out[u]:
                v = head[e]
                if cap[e] and via[v] is None:
                    via[v] = e
                    if is_sink[v]:
                        end = v
                        break
                    queue.append(v)
            if end:
                break
        if not end:
            side = frozenset(v for v in range(1, n + 1) if via[v] is not None)
            cut = frozenset(
                a.id for a in network.arcs if (a.u in side) != (a.v in side)
            )
            return side, cut
        path = []
        while via[end] != -1:
            path.append(via[end])
            end = head[via[end] ^ 1]
        push = min(cap[e] for e in path)
        for e in path:
            cap[e] -= push
            cap[e ^ 1] += push
