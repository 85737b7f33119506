"""The full-enumeration backend (the oracle) and its probability tables.

A state vector over m arcs is stored as an integer bitmask with arc 1 on
the least significant bit. The enumeration successor rule (flip the first
zero coordinate, clear everything below it) is then exactly integer
increment, so the k-th vector of the enumeration encodes k - 1 and the
oracle's sum runs over ``range(2^m)``. Each vector's probability is
``low[lb] * high[hb]``, the product of two half-width table entries
(``half_probability_tables``), and the oracle's sweep splits at the same
place: for each high leaf hb, in increasing order, the partition its arcs
induce on the low arcs' endpoints and the two terminals decides which low
leaves lb connect, so each such partition is swept over the low half once
(while a bounded memo has room) and every later high leaf that induces it
reuses the low masses it selected. Both halves' partitions are built by
doubling, one block merge per leaf (``_leaves``), not by a union-find per
vector. Connected vectors are still added one by one in integer order, so
the sum is bit-identical to a per-vector sweep.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from itertools import compress, repeat
from operator import add, mul

from .budget import STRIDE, Budget
from .network import Network

DEFAULT_ENUMERATION_CAP = 30
# Bytes one oracle call keeps of keys and their selected low masses, at 8
# bytes a key label or mass; past this, a new key's low half is swept again
# at each of its high leaves. 32 MiB holds the 9.3 MiB a 29-arc random
# network's keys select (1 MiB made it ten times slower); uncapped, a
# 30-arc network could store 2^30 masses, or 2^15 keys that select none.
_MEMO_BYTES = 32 << 20
# Each label as a one-byte string, for bytes.replace and bytes.find: the
# oracle labels nodes, at most 31 in a connected network within the cap,
# and qb2's partition DP labels frontier slots, at most a stage's nodes.
_BYTE = [bytes((i,)) for i in range(256)]


class EnumerationCapExceeded(RuntimeError):
    """Refused at a fixed cap: the oracle's or a qb2 stage's arcs, or qbat's nodes."""


def half_probability_tables(probs: Sequence[float]) -> tuple[list[float], list[float], int]:
    """Probability of every state vector, as two half-width tables.

    Returns (low, high, shift) with
    ``prob(bits) == low[bits & (2^shift - 1)] * high[bits >> shift]``,
    where prob(bits) is the product of p_i over set coordinates and
    1 - p_i over clear ones. Each table entry is a plain left-to-right
    product of its arc factors. The callers are the oracle, which refuses
    more than 30 arcs first (DEFAULT_ENUMERATION_CAP), so a table has at
    most 2^15 entries, and qb2's sliced stages of 3 to 10 arcs
    (``stm._tabulate``), whose tables have at most 2^5.
    """
    m = len(probs)
    shift = m // 2
    return _table(probs[:shift]), _table(probs[shift:]), shift


def _table(probs: Sequence[float]) -> list[float]:
    # arc i appends its factor to every entry built so far: clear below
    # 2^i, set from 2^i on, so each entry is a left-to-right product from
    # 1.0, and the first arc's two entries are its two factors
    out = [1.0 - probs[0], probs[0]] if probs else [1.0]
    for p in probs[1:]:
        out = [x * f for f in (1.0 - p, p) for x in out]
    return out


def _leaves(labels, arc_u, arc_v):
    """Block labels at every leaf of the arcs, in integer order, by doubling.

    `labels` is a bytes string, one label per node, each block labelled
    by its smallest node; it is leaf 0. After arc k (on bit k) the list
    gains leaf j + 2^k for each j < 2^k: leaf j's labels with arc k's two
    blocks merged under the smaller label, or leaf j's own string when
    they already share one. This is the partition update of Carlier and
    Lucet, so each leaf costs one merge, not a union-find of its own, and
    every leaf's blocks stay labelled by their smallest node.
    """
    leaves = [labels]
    append = leaves.append
    for u, v in zip(arc_u, arc_v):
        for labels in leaves[:]:
            a, b = labels[u], labels[v]
            if a != b:
                if a > b:
                    a, b = b, a
                labels = labels.replace(_BYTE[b], _BYTE[a])
            append(labels)
    return leaves


def reliability_oracle(network: Network, budget: Budget | None = None) -> float:
    """Ground-truth reliability: sum the probability of every connected vector.

    Deliberately self-contained (its own partition loop; of relengine it
    imports only ``budget`` and ``network``) so the smarter backends are
    validated against an independent implementation. The split below
    builds its partitions with the update that qb2's partition DP
    (``stm._partitions``) applies, written again here, not imported. A
    network of more than DEFAULT_ENUMERATION_CAP arcs raises
    EnumerationCapExceeded before any table is built.

    Vector ``bits`` is the high leaf ``hb = bits >> shift`` over arcs
    shift..m-1 and the low leaf ``lb = bits & (2^shift - 1)`` over arcs
    0..shift-1, split where ``half_probability_tables`` splits. The
    interface is the sorted endpoints of the low arcs with node 1 and
    node n. Nodes are renumbered with the interface first (positions
    0..width-1) and the others after it, and ``_leaves`` builds every
    high leaf's block labels from one block per node. A high leaf's key
    is its first width labels: for each interface node, the position of
    the first interface node in its set. Keys are read in one pass, equal
    keys share one string, and the full labels are dropped. The key is
    enough. Under high arcs H and low arcs L, a source-sink path
    alternates between components of H and arcs of L, so it enters or
    leaves a component of H only at an endpoint of a low arc, or starts
    or ends in one at node 1 or node n. Whether node 1 meets node n thus
    depends on H only through the partition H induces on the interface.
    The first time a key is seen, ``_leaves`` builds every low leaf's
    labels from the key, and the key keeps ``low[lb]`` for each leaf lb
    in which node 1 and node n share a label, in increasing lb.

    Those selected masses are kept per key while _MEMO_BYTES (8 bytes a
    key label or mass) allow; a key that does not fit is swept again at
    each of its high leaves. Each high leaf adds ``low[lb] * high[hb]``
    for its selected lb in increasing order, so the answer is the same
    sum, in the same order, as a per-vector sweep over ``range(2^m)``, bit
    for bit, and a high leaf costs only its connected vectors. A budget
    is checked at every high leaf whose first vector ``hb << shift`` is a
    multiple of budget.STRIDE: every STRIDE vectors up to 25 arcs, every
    high leaf from 26.
    """
    if network.arc_count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"full enumeration over {network.arc_count} arcs exceeds the cap of "
            f"{DEFAULT_ENUMERATION_CAP}; qb2 answers when its widest stage has at most "
            f"{DEFAULT_ENUMERATION_CAP} arcs, and qbat has no arc cap; --budget bounds it"
        )
    n = network.node_count
    if n == 1:
        return 1.0
    arc_u = [a.u for a in network.arcs]
    arc_v = [a.v for a in network.arcs]
    low, high, shift = half_probability_tables(network.probabilities())
    interface = sorted({1, n, *arc_u[:shift], *arc_v[:shift]})
    width = len(interface)
    inner = sorted(set(range(1, n + 1)).difference(interface))
    # interface first: a block's smallest node is an interface node
    # whenever the block holds one
    at = {node: i for i, node in enumerate(interface + inner)}
    arc_u = [at[x] for x in arc_u]
    arc_v = [at[x] for x in arc_v]
    s, t = at[1], at[n]
    highs = _leaves(bytes(range(n)), arc_u[shift:], arc_v[shift:])
    keys: dict[bytes, bytes] = {}
    for hb, labels in enumerate(highs):
        key = labels[:width]
        highs[hb] = keys.setdefault(key, key)
    del keys
    memo: dict[bytes, list[float]] = {}
    stored = 0
    total = 0.0
    for hb, key in enumerate(highs):
        if budget is not None and (hb << shift) % STRIDE == 0:
            budget.check()
        chosen = memo.get(key)
        if chosen is None:
            lows = _leaves(key, arc_u[:shift], arc_v[:shift])
            chosen = list(compress(low, [x[s] == x[t] for x in lows]))
            size = 8 * (len(key) + len(chosen))
            if stored + size <= _MEMO_BYTES:
                memo[key] = chosen
                stored += size
        # selected before multiplying: a leaf that fails costs no product
        total = reduce(add, map(mul, chosen, repeat(high[hb])), total)
    return total
