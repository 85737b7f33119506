"""Exact two-terminal reliability from dyadic masses, for the tests.

Written without importing relengine, so it is a reference independent of
the code under test, and it has no arc-count cap. Every float p is a
dyadic rational: ``p.as_integer_ratio()`` gives p = a / 2^d exactly, and
1 - p = (2^d - a) / 2^d. So a partition DP can carry every mass as an
integer numerator over one running denominator 2^D: an arc multiplies
each mass by a or 2^d - a and adds d to D. Nothing is ever rounded.

The DP takes the arcs in its own breadth-first order from node 1: the
nodes in the order the search meets them, neighbours by arc id, and at
each node its arcs not yet taken, by arc id. The state is the partition
of the frontier, the nodes with an arc taken and an arc still to come,
plus the source and the sink, which stay to the end. Once the source and
the sink share a block, the state's mass goes to R; once the block of
either has no node with an arc still to come, it goes to Q.
"""

from __future__ import annotations


def bfs_arc_order(node_count: int, pairs) -> list[int]:
    """Indices into `pairs`: each node's arcs not yet taken, nodes in BFS order."""
    incident: list[list[int]] = [[] for _ in range(node_count + 1)]
    for i, (u, v) in enumerate(pairs):
        incident[u].append(i)
        incident[v].append(i)
    seen = [False] * (node_count + 1)
    seen[1] = True
    queue = [1]
    taken = [False] * len(pairs)
    order = []
    for node in queue:
        for i in incident[node]:
            if not taken[i]:
                taken[i] = True
                order.append(i)
            for other in pairs[i]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
    return order


def _canonical(labels: list[int]) -> tuple[int, ...]:
    """The labels renumbered by first appearance."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(x, len(names)) for x in labels)


def reliability(node_count: int, triples) -> tuple[int, int, int]:
    """(R, Q, D): reliability R / 2^D and unreliability Q / 2^D, exactly.

    `triples` are (u, v, p) per arc; the source is node 1 and the sink
    node `node_count`, which every arc must be able to reach from node 1.
    """
    triples = list(triples)
    source, sink = 1, node_count
    if source == sink:
        return 1, 0, 0
    order = bfs_arc_order(node_count, [(u, v) for u, v, _ in triples])
    if len(order) != len(triples):
        raise ValueError("some arc is out of reach of node 1")
    last = [-1] * (node_count + 1)
    for step, i in enumerate(order):
        u, v, _ = triples[i]
        last[u] = last[v] = step

    frontier = [source, sink]
    states = {(0, 1): 1}
    r = q = exponent = 0
    for step, i in enumerate(order):
        u, v, p = triples[i]
        num, den = p.as_integer_ratio()
        d = den.bit_length() - 1
        r <<= d
        q <<= d
        exponent += d
        for node in (u, v):
            if node not in frontier:
                frontier.append(node)
                # a fresh label above every label in use
                states = {labels + (len(frontier),): mass for labels, mass in states.items()}
        iu, iv = frontier.index(u), frontier.index(v)
        keep = [
            k for k, node in enumerate(frontier)
            if node in (source, sink) or last[node] > step
        ]
        alive = [frontier[k] for k in keep]
        pooled: dict[tuple[int, ...], int] = {}
        for labels, mass in states.items():
            joined = [labels[iv] if x == labels[iu] else x for x in labels]
            for branch, weight in ((labels, den - num), (joined, num)):
                kept = [branch[k] for k in keep]
                grows = {x for x, node in zip(kept, alive) if last[node] > step}
                if kept[0] == kept[1]:  # the source and the sink share a block
                    r += mass * weight
                elif kept[0] not in grows or kept[1] not in grows:
                    q += mass * weight
                else:
                    key = _canonical(kept)
                    pooled[key] = pooled.get(key, 0) + mass * weight
        frontier = alive
        states = pooled
    assert not states, "every state ends in R or Q"
    assert r + q == 1 << exponent
    return r, q, exponent
