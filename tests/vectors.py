"""Per-vector reference helpers for the tests.

Of relengine this imports only ``SourceTargetMatrix``, a plain container
for a stage vector's matrix; the connectivity and the vector weights the
tests compare against are computed here, so they stay independent of the
code under test. A state vector is an integer bitmask with arc 1 on the
least significant bit.
"""

from relengine.stm import SourceTargetMatrix


def bits_from_states(states):
    """Pack (x(a_1), x(a_2), ...) into a bitmask, arc 1 least significant."""
    bits = 0
    for i, s in enumerate(states):
        if s not in (0, 1):
            raise ValueError(f"state {s!r} at coordinate {i + 1} is not binary")
        bits |= s << i
    return bits


def _reached(adj, start):
    """The nodes that a depth-first search from `start` reaches over `adj`."""
    seen = {start}
    frontier = [start]
    while frontier:
        for other in adj[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def is_connected(network, bits):
    """True when the source reaches the sink over the arcs set in `bits`."""
    adj = {v: [] for v in range(1, network.node_count + 1)}
    for a in network.arcs:
        if (bits >> (a.id - 1)) & 1:
            adj[a.u].append(a.v)
            adj[a.v].append(a.u)
    return network.sink in _reached(adj, network.source)


def stm_from_vector(network, stage, bits):
    """Connectivity matrix of one stage vector.

    Coordinate h of the stage vector is arc stage.arc_ids[h]. Entry
    (alpha, beta) is 1 when source node alpha and target node beta sit in
    the same component of the stage subgraph under that vector; a node
    serving as both source and target is connected to itself with no arcs
    at all.
    """
    adj = {v: [] for v in stage.node_ids}
    for h, arc_id in enumerate(stage.arc_ids):
        if (bits >> h) & 1:
            a = network.arcs[arc_id - 1]
            adj[a.u].append(a.v)
            adj[a.v].append(a.u)
    out = 0
    pos = 0
    for s in stage.source_nodes:
        seen = _reached(adj, s)
        for t in stage.target_nodes:
            if t in seen:
                out |= 1 << pos
            pos += 1
    return SourceTargetMatrix(len(stage.source_nodes), len(stage.target_nodes), out)


def half_tables(probs):
    """Weights of every vector over `probs`, as two half-width tables.

    Returns (low, high, shift) with shift = len(probs) // 2: vector
    ``bits`` weighs ``low[bits & (2^shift - 1)] * high[bits >> shift]``.
    Entry j of a half is the left-to-right product of its arcs' factors,
    p where bit i of j is set and 1 - p where it is clear; an empty half
    is [1.0].
    """
    shift = len(probs) // 2
    return _half(probs[:shift]), _half(probs[shift:]), shift


def _half(probs):
    out = []
    for j in range(1 << len(probs)):
        weight = 1.0
        for i, p in enumerate(probs):
            weight *= p if (j >> i) & 1 else 1.0 - p
        out.append(weight)
    return out
