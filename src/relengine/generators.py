"""Parametric network families plus a seeded random-network helper.

Families:

* ``series``: k arcs in a single path, k+1 nodes.
* ``ladder``: two rails with k rungs between source and sink; k=1 is the
  classic 4-node bridge.
* ``grid``: 3 rows by k columns, source top-left, sink bottom-right.
* ``bridge-chain``: k copies of the 5-node, 7-arc double-bridge block
  glued sink to source; the canonical scaling family for benchmarks.

Every family is deterministic in (family, k, p, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .network import Network, make_network

FAMILIES = ("series", "ladder", "grid", "bridge-chain")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    k: int
    p: float
    seed: int | None = None


def series_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    return k + 1, [(i, i + 1) for i in range(1, k + 1)]


def ladder_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    pairs = [(1, 2), (1, 3)]
    for level in range(1, k):
        a, b = 2 * level, 2 * level + 1
        pairs.append((a, b))
        pairs.append((a, a + 2))
        pairs.append((b, b + 2))
    a, b = 2 * k, 2 * k + 1
    n = 2 * k + 2
    pairs.append((a, b))
    pairs.append((a, n))
    pairs.append((b, n))
    return n, pairs


def grid_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    def node(row: int, col: int) -> int:
        return (col - 1) * 3 + row

    pairs = []
    for col in range(1, k + 1):
        for row in (1, 2):
            pairs.append((node(row, col), node(row + 1, col)))
        if col < k:
            for row in (1, 2, 3):
                pairs.append((node(row, col), node(row, col + 1)))
    return 3 * k, pairs


_BLOCK = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))


def bridge_chain_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    pairs = []
    for block in range(k):
        base = 4 * block
        pairs.extend((base + u, base + v) for u, v in _BLOCK)
    return 4 * k + 1, pairs


_BUILDERS = {
    "series": series_pairs,
    "ladder": ladder_pairs,
    "grid": grid_pairs,
    "bridge-chain": bridge_chain_pairs,
}


def build(spec: GeneratorSpec) -> Network:
    if spec.family not in _BUILDERS:
        raise ValueError(
            f"unknown family {spec.family!r}, expected one of {', '.join(FAMILIES)}"
        )
    if spec.k < 1:
        raise ValueError("size parameter k must be at least 1")
    node_count, pairs = _BUILDERS[spec.family](spec.k)
    if spec.seed is None:  # make_network refuses a p outside [0, 1]
        probs = [spec.p] * len(pairs)
    elif not 0.0 <= spec.p <= 1.0:  # the seed draws every arc's p instead
        raise ValueError(f"probability p={spec.p!r} outside [0, 1]")
    else:
        rng = random.Random(spec.seed)
        probs = [round(rng.uniform(0.05, 0.95), 6) for _ in pairs]
    return make_network(node_count, [(u, v, p) for (u, v), p in zip(pairs, probs)])


def random_network(
    rng: random.Random,
    node_range: tuple[int, int] = (4, 8),
    arc_range: tuple[int, int] = (5, 14),
) -> Network:
    """A connected random network with per-arc probabilities in (0, 1).

    Draws a node count, spans the nodes with a random tree, then tops up
    with distinct extra arcs to the drawn arc count. Arc order is
    shuffled so enumeration order is exercised too. Raises ValueError,
    without drawing from ``rng``, when no node count in ``node_range``
    admits an arc count in ``arc_range``.
    """

    def arc_bounds(n: int) -> tuple[int, int]:
        return max(arc_range[0], n - 1), min(arc_range[1], n * (n - 1) // 2)

    # more than arc_range[1] + 1 nodes cannot be spanned by arc_range[1] arcs
    counts = range(node_range[0], min(node_range[1], arc_range[1] + 1) + 1)
    if not any(low <= high for low, high in map(arc_bounds, counts)):
        raise ValueError(
            f"no node count in {node_range} admits an arc count in {arc_range}"
        )
    while True:
        n = rng.randint(*node_range)
        low, high = arc_bounds(n)
        if low <= high:
            break
    m = rng.randint(low, high)

    nodes = list(range(2, n + 1))
    rng.shuffle(nodes)
    placed = [1]
    pairs = []
    for node in nodes:
        anchor = rng.choice(placed)
        pairs.append((min(anchor, node), max(anchor, node)))
        placed.append(node)
    used = set(pairs)
    spare = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in used
    ]
    pairs.extend(rng.sample(spare, m - len(pairs)))
    rng.shuffle(pairs)
    return make_network(
        n, [(u, v, round(rng.uniform(0.05, 0.95), 6)) for u, v in pairs]
    )
