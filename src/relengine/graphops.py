"""Weighted shortest paths and minimum cuts on validated networks.

Weights are exact Python integers so that the power-of-two weighting
schemes stay collision free at any arc count; with distinct powers of
two both the shortest path and the minimum cut are unique and no tie
breaking is ever exercised.
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


class _Dinic:
    """Max flow on a small graph with integer capacities."""

    def __init__(self, node_slots: int):
        self.adj: list[list[int]] = [[] for _ in range(node_slots)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap_uv: int, cap_vu: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap_uv)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(cap_vu)

    def _levels(self, src: int) -> list[int]:
        level = [-1] * len(self.adj)
        level[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for e in self.adj[u]:
                    v = self.to[e]
                    if level[v] < 0 and self.cap[e] > 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level

    def _augment(self, u: int, snk: int, pushed: int, level, it) -> int:
        if u == snk:
            return pushed
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                got = self._augment(v, snk, min(pushed, self.cap[e]), level, it)
                if got > 0:
                    self.cap[e] -= got
                    self.cap[e ^ 1] += got
                    return got
            it[u] += 1
        return 0

    def max_flow(self, src: int, snk: int) -> tuple[int, list[int]]:
        """Returns (flow value, final level array for residual reachability)."""
        flow = 0
        big = sum(self.cap) + 1
        while True:
            level = self._levels(src)
            if level[snk] < 0:
                return flow, level
            it = [0] * len(self.adj)
            while True:
                got = self._augment(src, snk, big, level, it)
                if got == 0:
                    break
                flow += got


def min_cut_partition(
    network: Network,
    capacities: Sequence[int],
    sources: Iterable[int],
    sinks: Iterable[int],
) -> tuple[frozenset[int], frozenset[int]]:
    """Minimum capacity cut separating `sources` from `sinks`.

    Returns (source_side, cut_arc_ids). The source side is the set of
    real nodes still reachable from the sources in the residual graph;
    the cut is every arc with exactly one endpoint on that side. When
    several cuts tie this picks the one with the smallest source side.
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
    super_src = 0
    super_snk = n + 1
    dinic = _Dinic(n + 2)
    inf = sum(capacities) + 1
    for a in network.arcs:
        c = capacities[a.id - 1]
        dinic.add_edge(a.u, a.v, c, c)
    for s in sources:
        dinic.add_edge(super_src, s, inf, 0)
    for t in sinks:
        dinic.add_edge(t, super_snk, inf, 0)

    _, level = dinic.max_flow(super_src, super_snk)
    side = frozenset(v for v in range(1, n + 1) if level[v] >= 0)
    cut = frozenset(a.id for a in network.arcs if (a.u in side) != (a.v in side))
    return side, cut


def min_cut(
    network: Network, weighting: Sequence[int], separated_sources: Iterable[int]
) -> frozenset[int]:
    """Arc set of minimum total weight separating every given source from node n."""
    separated = set(separated_sources)
    if not separated:
        raise ValueError("separated_sources must be nonempty")
    if network.sink in separated:
        raise ValueError("separated_sources must not contain the sink")
    _, cut = min_cut_partition(network, weighting, separated, {network.sink})
    return cut
