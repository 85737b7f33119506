"""Weighted shortest paths and minimum cuts on validated networks.

Weights are exact Python integers so that the power-of-two weighting
stays collision free at any arc count; with distinct powers of two the
shortest path is unique and Dijkstra's tie breaking is never exercised.
Minimum cuts take any non-negative integer capacities, and their ties
are settled by a fixed rule: the cut with the smallest source side. A
cut search may be told that some nodes are already settled on the source
side; those nodes may touch only sources and other settled nodes, so the
search skips them and costs only the part of the graph it newly reaches.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Container, Iterable, Sequence

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


def shortest_path(
    network: Network,
    adj: Sequence[Sequence[tuple[int, int]]],
    weighting: Sequence[int],
) -> tuple[int, ...]:
    """Arc ids of a minimum total weight path from node 1 to node n.

    `adj` is `adjacency(network)`. Plain Dijkstra over exact integer
    distances. Relaxation requires a strict improvement and scans arcs in
    id order, so the returned path is deterministic even when the
    weighting has ties.
    """
    if len(weighting) != network.arc_count:
        raise ValueError("weighting length does not match arc count")
    n = network.node_count
    if n == 1:
        return ()
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
    adj: Sequence[Sequence[tuple[int, int]]],
    capacities: Sequence[int],
    sources: Iterable[int],
    sinks: Collection[int],
    settled: Container[int],
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Minimum capacity cut separating `sources` and `settled` from `sinks`.

    `adj` is `adjacency(network)`. The settled nodes are already known to
    sit on the source side, and every arc at a settled node must end in a
    source or another settled node, so the search never enters them: a
    call costs the part of the graph it reaches, not O(n + m).

    Returns (reached, cut_arc_ids): the real nodes the last, failing
    search reaches from `sources` in the residual graph, in the order it
    reaches them, and every arc from one of them to a node outside both
    them and `settled`. Shortest augmenting paths (Edmonds-Karp) saturate
    a maximum flow, and the reached set is the same after any maximum
    flow, so when several cuts tie this picks the one with the smallest
    source side.
    """
    sources = list(dict.fromkeys(sources))
    if not sources or not sinks:
        raise ValueError("sources and sinks must both be nonempty")
    if any(s in sinks or s in settled for s in sources):
        overlap = sorted(s for s in sources if s in sinks)
        if overlap:
            raise ValueError(f"sources and sinks overlap on {overlap}")
        raise ValueError("sources must not be settled")
    if len(capacities) != network.arc_count:
        raise ValueError("capacity list length does not match arc count")

    # Net flow on each arc the search has pushed on, counted from its
    # lower-numbered end; an undirected arc of capacity c has residual
    # c - f from that end and c + f back.
    flow: dict[int, int] = {}
    while True:
        # Breadth-first search from every source at once; via[v] is the
        # arc, the node and the residual capacity that first reached v,
        # None at a source.
        via: dict[int, tuple[int, int, int] | None] = dict.fromkeys(sources)
        queue = list(sources)
        end = 0
        for u in queue:
            for arc_id, v in adj[u]:
                if v in via or v in settled:
                    continue
                f = flow.get(arc_id, 0)
                residual = capacities[arc_id - 1] - (f if u < v else -f)
                if residual > 0:
                    via[v] = (arc_id, u, residual)
                    if v in sinks:
                        end = v
                        break
                    queue.append(v)
            if end:
                break
        if not end:
            cut = frozenset(
                arc_id
                for u in queue
                for arc_id, v in adj[u]
                if v not in via and v not in settled
            )
            return tuple(queue), cut
        path = []
        while via[end] is not None:
            arc_id, u, residual = via[end]
            path.append((arc_id, u, end, residual))
            end = u
        push = min(residual for *_, residual in path)
        for arc_id, u, v, _ in path:
            flow[arc_id] = flow.get(arc_id, 0) + (push if u < v else -push)
