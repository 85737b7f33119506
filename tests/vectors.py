"""Per-vector reference helpers for the tests.

Written without importing relengine, so the connectivity the tests
compare against stays independent of the code under test. A state vector
is an integer bitmask with arc 1 on the least significant bit.
"""


def bits_from_states(states):
    """Pack (x(a_1), x(a_2), ...) into a bitmask, arc 1 least significant."""
    bits = 0
    for i, s in enumerate(states):
        if s not in (0, 1):
            raise ValueError(f"state {s!r} at coordinate {i + 1} is not binary")
        bits |= s << i
    return bits


def is_connected(network, bits):
    """True when the source reaches the sink over the arcs set in `bits`."""
    adj = {v: [] for v in range(1, network.node_count + 1)}
    for a in network.arcs:
        if (bits >> (a.id - 1)) & 1:
            adj[a.u].append(a.v)
            adj[a.v].append(a.u)
    seen = {network.source}
    frontier = [network.source]
    while frontier:
        for other in adj[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return network.sink in seen
