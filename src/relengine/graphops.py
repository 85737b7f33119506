"""Shortest paths and minimum cuts on validated networks.

Both rank by arc count, one per arc. In the shortest path, each node's
predecessor is its lowest-numbered neighbour one arc nearer to node 1,
so the same adjacency always gives the same path. Minimum cuts count
arcs, one each, except one pinned arc that is free to cut; their ties
are settled by a fixed rule: the cut with the smallest source side. A
cut search reads one list that marks each node free, settled on the
source side or a sink. Settled nodes may touch only sources and other
settled nodes, so the search skips them, and it marks the nodes it
reaches settled: a chain of nested cuts shares one list, and each search
costs only the part of the graph it newly reaches.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from .network import Network

# Where a node stands in a cut search: see min_cut_partition.
FREE, SETTLED, SINK = 0, 1, 2


def adjacency(network: Network) -> list[list[tuple[int, int]]]:
    """Per node list of (arc_id, neighbour), indexed 0..n with 0 unused."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(network.node_count + 1)]
    for a in network.arcs:
        adj[a.u].append((a.id, a.v))
        adj[a.v].append((a.id, a.u))
    return adj


def shortest_path(adj: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, ...]:
    """Arc ids of a fewest-arc path from node 1 to node n = len(adj) - 1.

    `adj` has the shape of `adjacency`. One breadth-first search from
    node 1 in queue order, stopped when node n leaves the queue. Each
    node's predecessor is its lowest-numbered neighbour one arc nearer to
    node 1, by that neighbour's first arc to it: a lower-numbered
    neighbour at the same distance that the queue reaches later replaces
    an earlier one.
    """
    n = len(adj) - 1
    # via[v] is (distance, predecessor, arc id), None until v is reached
    via: list[tuple[int, int, int] | None] = [None] * (n + 1)
    via[1] = (0, 0, 0)
    queue = [1]
    for u in queue:
        if u == n:
            break
        d = via[u][0] + 1
        for arc_id, v in adj[u]:
            seen = via[v]
            if seen is None:
                queue.append(v)
            elif seen[1] <= u or seen[0] < d:
                continue  # v is no farther than u, or has a predecessor <= u
            via[v] = (d, u, arc_id)
    if via[n] is None:
        raise ValueError("no path from the source to the sink")
    path = []
    node = n
    while node != 1:
        _, node, arc_id = via[node]
        path.append(arc_id)
    path.reverse()
    return tuple(path)


def min_cut_partition(
    adj: Sequence[Sequence[tuple[int, int]]],
    pinned: int,
    sources: Collection[int],
    side: list[int],
) -> tuple[list[int], dict[int, int]]:
    """Fewest-arc cut separating `sources` and the settled nodes from the sinks.

    `adj` is the network's `adjacency`; side[v] is FREE, SETTLED (known to
    sit on the source side) or SINK, and the sources are distinct FREE
    nodes. Every arc counts one, except arc `pinned`, which costs nothing
    to cut and which the search never crosses (0 pins nothing). Every arc
    at a settled node must end in a source or another settled node, so
    the search never enters them and costs only the part of the graph it
    reaches. It marks the nodes it reaches SETTLED.

    Returns (reached, cut): the nodes the last, failing search reaches
    from `sources` in the residual graph, in the order it reaches them,
    and every arc from one of them to a node left unsettled, the pinned
    arc included, mapped to that node. Shortest augmenting paths
    (Edmonds-Karp) saturate a maximum flow, and the reached set is the
    same after any maximum flow, so of tied cuts this picks the one with
    the smallest source side.
    """
    if not sources:
        raise ValueError("sources must be nonempty")
    for s in sources:
        if side[s] != FREE:
            state = "overlaps the sinks" if side[s] == SINK else "is settled"
            raise ValueError(f"source {s} {state}")

    # flow[arc] is the end that the arc's unit of flow runs into; an arc
    # without flow has no entry. No flow ever leaves a sink, so the last
    # arc of every augmenting path has one unit of room, every path
    # carries one unit, and an arc is full from u exactly when its flow
    # runs into the node across it.
    flow: dict[int, int] = {}
    while True:
        # Breadth-first search from every source at once; via[v] is the
        # arc and the node that first reached v, None at a source.
        via: dict[int, tuple[int, int] | None] = dict.fromkeys(sources)
        queue = list(sources)
        end = 0
        for u in queue:
            for arc_id, v in adj[u]:
                state = side[v]
                if state == SETTLED or v in via:
                    continue
                if arc_id == pinned or flow.get(arc_id) == v:
                    continue  # no room from u
                via[v] = (arc_id, u)
                if state == SINK:
                    end = v
                    break
                queue.append(v)
            if end:
                break
        if not end:
            cut = {}
            for u in queue:
                side[u] = SETTLED
                for arc_id, v in adj[u]:
                    if v not in via and side[v] != SETTLED:
                        cut[arc_id] = v
            return queue, cut
        while via[end] is not None:
            arc_id, u = via[end]
            if flow.get(arc_id) == u:
                del flow[arc_id]
            else:
                flow[arc_id] = end
            end = u
