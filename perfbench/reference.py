"""Exact two-terminal reliabilities computed without any relengine code.

Every value here is derived from the generator's own description of a
network (node count and ``(u, v, p)`` triples in arc order, source node 1,
sink node n), never from a parsed ``relengine.Network``, so a fault in
the program's parser or backends cannot leak into the reference.

* ``brute_force``: sums the probability of every one of the 2^m arc-state
  vectors in which the source reaches the sink. All vectors are evaluated
  at once: bit ``x`` of a Python integer stands for state vector ``x``, so
  one big-integer AND/OR propagates reachability through an arc in every
  state simultaneously.
* ``series``: the product of the arc probabilities.
* ``bridge_chain``: the product of the block values, because consecutive
  double-bridge blocks share a single cut node.
* ``ladder``: a transfer computation along the two rails.
"""

from __future__ import annotations

import math

BRUTE_FORCE_MAX_ARCS = 17

# Double-bridge block of the bridge-chain family, local nodes 1..5.
BRIDGE_BLOCK = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))


def _arc_up_pattern(arc: int, m: int) -> int:
    """Integer whose bit x is set exactly when bit `arc` of x is set, x < 2^m."""
    if arc >= 3:
        run = 1 << (arc - 3)  # bytes per run of equal bits
        block = b"\x00" * run + b"\xff" * run
    else:
        block = (b"\xaa", b"\xcc", b"\xf0")[arc]
    total_bytes = (1 << m) // 8
    return int.from_bytes(block * (total_bytes // len(block)), "little")


def _state_table(probs) -> list[float]:
    """table[x] = probability of state vector x over `probs`, bit i = arc i up."""
    table = [1.0]
    for p in probs:
        table = [t * (1.0 - p) for t in table] + [t * p for t in table]
    return table


def brute_force(node_count: int, triples) -> float:
    """Sum over all 2^m state vectors of the connected ones' probabilities."""
    triples = list(triples)
    m = len(triples)
    if m > BRUTE_FORCE_MAX_ARCS:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX_ARCS} arcs, got {m}")
    if node_count == 1:
        return 1.0
    if m < 3:
        # too few states for the byte-wise sum below; pad with arcs that
        # are certainly down and join nothing new (a loop at the source)
        triples += [(1, 1, 0.0)] * (3 - m)
        m = 3
    everything = (1 << (1 << m)) - 1
    arcs = [(u, v, _arc_up_pattern(i, m)) for i, (u, v, _) in enumerate(triples)]
    reach = [0] * (node_count + 1)
    reach[1] = everything
    changed = True
    while changed:
        changed = False
        for u, v, up in arcs:
            ru, rv = reach[u], reach[v]
            grown_u = ru | (rv & up)
            grown_v = rv | (ru & up)
            if grown_u != ru or grown_v != rv:
                reach[u], reach[v] = grown_u, grown_v
                changed = True
    # Byte j of the sink's reach set covers states 8j..8j+7. Their
    # probabilities factor into the three lowest arcs (index within the
    # byte) times the remaining arcs (j), so each byte costs one lookup.
    probs = [p for _, _, p in triples]
    low = _state_table(probs[:3])
    per_byte = [
        sum(low[b] for b in range(8) if (byte >> b) & 1) for byte in range(256)
    ]
    rest = _state_table(probs[3:])
    connected = reach[node_count].to_bytes(1 << (m - 3), "little")
    return math.fsum(rest[j] * per_byte[byte] for j, byte in enumerate(connected) if byte)


def series(probs) -> float:
    return math.prod(probs)


def bridge_chain(probs) -> float:
    """Blocks of seven arcs in the order of BRIDGE_BLOCK, glued sink to source."""
    probs = list(probs)
    if len(probs) % len(BRIDGE_BLOCK):
        raise ValueError("bridge-chain arc count must be a multiple of 7")
    value = 1.0
    for start in range(0, len(probs), len(BRIDGE_BLOCK)):
        block = probs[start : start + len(BRIDGE_BLOCK)]
        value *= brute_force(5, [(u, v, p) for (u, v), p in zip(BRIDGE_BLOCK, block)])
    return value


def ladder(k: int, probs) -> float:
    """Two rails with k rungs, arcs in the order ladder generators emit them.

    Arc order: (1, a1), (1, b1), then for each level below k its rung
    (a, b) and the rails (a, a'), (b, b'), then the last rung and the two
    arcs into the sink. After each level the only nodes that can still
    connect anything to the source are that level's rail nodes a and b,
    so the state is which of them the source reaches: both, a only or
    b only (every other case can never reach the sink and is dropped).
    """
    probs = list(probs)
    if len(probs) != 3 * k + 2:
        raise ValueError("a ladder with k rungs has 3k + 2 arcs")
    it = iter(probs)
    pa, pb = next(it), next(it)
    both, only_a, only_b = pa * pb, pa * (1.0 - pb), (1.0 - pa) * pb
    for level in range(1, k + 1):
        rung = next(it)
        both += (only_a + only_b) * rung
        only_a *= 1.0 - rung
        only_b *= 1.0 - rung
        ra, rb = next(it), next(it)  # rails onward, or the arcs into the sink
        if level == k:
            return both * (1.0 - (1.0 - ra) * (1.0 - rb)) + only_a * ra + only_b * rb
        # a' is reached through rail a from a reached a; b' likewise
        both, only_a, only_b = (
            both * ra * rb,
            both * ra * (1.0 - rb) + only_a * ra,
            both * (1.0 - ra) * rb + only_b * rb,
        )
    raise AssertionError("unreachable")
