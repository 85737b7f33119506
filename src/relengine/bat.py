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
reuses the low masses it selected. Connected vectors are still added one
by one in integer order, so the sum is bit-identical to a per-vector
sweep.
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
# bytes a key slot or mass (1 MiB; uncapped, a 30-arc network could store
# 2^30 masses, or 2^15 keys that select none); past this, a new key's low
# half is swept again at each of its high leaves.
_MEMO_BYTES = 1 << 20


class EnumerationCapExceeded(RuntimeError):
    """Full 2^m enumeration refused because m exceeds DEFAULT_ENUMERATION_CAP."""

    def __init__(self, arc_count: int, message: str | None = None):
        super().__init__(
            message
            or f"full enumeration over {arc_count} arcs exceeds the cap of "
            f"{DEFAULT_ENUMERATION_CAP}; use the qb2 backend for networks this large"
        )
        self.arc_count = arc_count


def half_probability_tables(probs: Sequence[float]) -> tuple[list[float], list[float], int]:
    """Probability of every state vector, as two half-width tables.

    Returns (low, high, shift) with
    ``prob(bits) == low[bits & (2^shift - 1)] * high[bits >> shift]``,
    where prob(bits) is the product of p_i over set coordinates and
    1 - p_i over clear ones. Each table entry is a plain left-to-right
    product of its arc factors. Callers refuse more than 30 arcs first
    (DEFAULT_ENUMERATION_CAP), so a table has at most 2^15 entries.
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


def _roots(base, arc_u, arc_v, count, nodes):
    """Yield the roots of `nodes` under each vector of range(count), in order.

    Every vector starts from a fresh copy of the forest `base` and unions
    the arcs set in its bits (arc k on bit k), linking root to root with
    no ranks and no path compression.
    """
    for bits in range(count):
        parent = base.copy()
        msk = bits
        while msk:
            lowbit = msk & -msk
            msk ^= lowbit
            k = lowbit.bit_length() - 1
            x = arc_u[k]
            while parent[x] != x:
                x = parent[x]
            y = arc_v[k]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                parent[x] = y
        roots = []
        for x in nodes:
            while parent[x] != x:
                x = parent[x]
            roots.append(x)
        yield roots


def reliability_oracle(network: Network, budget: Budget | None = None) -> float:
    """Ground-truth reliability: sum the probability of every connected vector.

    Deliberately self-contained (its own union-find, its own loops; of
    relengine it imports only ``budget`` and ``network``) so the smarter
    backends are validated against an independent implementation. The
    split below shares the idea of qb2's keyed tabulation but none of its
    code: each vector is still unioned from scratch, one at a time. A
    network of more than DEFAULT_ENUMERATION_CAP arcs raises
    EnumerationCapExceeded before any table is built.

    Vector ``bits`` is the high leaf ``hb = bits >> shift`` over arcs
    shift..m-1 and the low leaf ``lb = bits & (2^shift - 1)`` over arcs
    0..shift-1, split where ``half_probability_tables`` splits. Each high
    leaf, in increasing order, unions its set arcs on a fresh forest and
    reads its key over the interface, the sorted endpoints of the low arcs
    with node 1 and node n: for each interface node, the position of the
    first interface node in its set. The key is enough. Under high arcs H
    and low arcs L, a source-sink path alternates between components of H
    and arcs of L, so it enters or leaves a component of H only at an
    endpoint of a low arc, or starts or ends in one at node 1 or node n.
    Whether node 1 meets node n thus depends on H only through the
    partition H induces on the interface. The first time a key is seen,
    every low leaf is unioned on the key, read as a parent list over
    interface positions, and the key keeps ``low[lb]`` for each leaf lb
    in which node 1 meets node n, in increasing lb.

    Those selected masses are kept per key while _MEMO_BYTES (8 bytes a
    key slot or mass) allow; a key that does not fit is swept again at
    each of its high leaves. Each high leaf adds ``low[lb] * high[hb]``
    for its selected lb in increasing order, so the answer is the same
    sum, in the same order, as a per-vector sweep over ``range(2^m)``, bit
    for bit, and a high leaf costs only its connected vectors. A budget is checked
    at every high leaf whose first vector ``hb << shift`` is a multiple of
    budget.STRIDE: every STRIDE vectors up to 25 arcs, every high leaf
    from 26.
    """
    if network.arc_count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(network.arc_count)
    n = network.node_count
    m = network.arc_count
    if n == 1:
        return 1.0
    arc_u = [a.u for a in network.arcs]
    arc_v = [a.v for a in network.arcs]
    low, high, shift = half_probability_tables(network.probabilities())
    interface = sorted({1, n, *arc_u[:shift], *arc_v[:shift]})
    at = {node: i for i, node in enumerate(interface)}
    low_u = [at[x] for x in arc_u[:shift]]
    low_v = [at[x] for x in arc_v[:shift]]
    ends = (at[1], at[n])
    highs = _roots(
        list(range(n + 1)), arc_u[shift:], arc_v[shift:], 1 << (m - shift), interface
    )
    memo: dict[tuple[int, ...], list[float]] = {}
    stored = 0
    total = 0.0
    for hb, roots in enumerate(highs):
        if budget is not None and (hb << shift) % STRIDE == 0:
            budget.check()
        first: dict[int, int] = {}
        key = tuple([first.setdefault(r, i) for i, r in enumerate(roots)])
        chosen = memo.get(key)
        if chosen is None:
            lows = _roots(list(key), low_u, low_v, 1 << shift, ends)
            chosen = list(compress(low, [s == t for s, t in lows]))
            size = 8 * (len(key) + len(chosen))
            if stored + size <= _MEMO_BYTES:
                memo[key] = chosen
                stored += size
        # selected before multiplying: a leaf that fails costs no product
        total = reduce(add, map(mul, chosen, repeat(high[hb])), total)
    return total
