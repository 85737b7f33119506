"""The full-enumeration backend (the oracle) and its probability tables.

A state vector over m arcs is stored as an integer bitmask with arc 1 on
the least significant bit. The enumeration successor rule (flip the first
zero coordinate, clear everything below it) is then exactly integer
increment, so the k-th vector of the enumeration encodes k - 1 and the
oracle's sweep is ``range(2^m)``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .budget import STRIDE, Budget
from .network import Network

DEFAULT_ENUMERATION_CAP = 30


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
    # 2^i, set from 2^i on, so each entry is still a left-to-right product
    out = [1.0]
    for p in probs:
        out = [x * (1.0 - p) for x in out] + [x * p for x in out]
    return out


def reliability_oracle(network: Network, budget: Budget | None = None) -> float:
    """Ground-truth reliability: sum the probability of every connected vector.

    Deliberately self-contained (its own union-find, its own loop) so the
    smarter backends are validated against an independent implementation.
    A network of more than DEFAULT_ENUMERATION_CAP arcs raises
    EnumerationCapExceeded before any vector is enumerated.
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
    low_mask = (1 << shift) - 1
    base = list(range(n + 1))
    total = 0.0
    for bits in range(1 << m):
        if budget is not None and bits % STRIDE == 0:
            budget.check()
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
        x = 1
        while parent[x] != x:
            x = parent[x]
        y = n
        while parent[y] != y:
            y = parent[y]
        if x == y:
            total += low[bits & low_mask] * high[bits >> shift]
    return total
