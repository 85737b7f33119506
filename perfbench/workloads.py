"""Seeded workload inputs: network texts plus their exact reference values.

The program under test receives only the text of each network. The make-up
of every workload (how many networks, of which families, sizes and arc
counts) is fixed; the seed draws the topologies of the random corpus, the
arc order of the corpus and every arc probability. Fixing the make-up keeps
a run's cost the same from seed to seed, so that two sets of runs with
different seeds measure the same work. The family shapes are written out
here rather than taken from ``relengine.generators``, so that the inputs
stay the same when the program's generators change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import reference

WORKLOADS = ("corpus", "chains", "grid")


@dataclass(frozen=True)
class Instance:
    label: str
    text: str
    backends: tuple[str, ...]
    reference: float


def network_text(node_count: int, triples) -> str:
    lines = [f"nodes {node_count}"]
    lines += [f"arc {u} {v} {p!r}" for u, v, p in triples]
    return "\n".join(lines) + "\n"


def _instance(label, node_count, triples, backends, value) -> Instance:
    return Instance(label, network_text(node_count, triples), backends, value)


# --- corpus -----------------------------------------------------------------

CORPUS_SIZE = 300
CORPUS_NODES = (4, 8)
CORPUS_ARCS = (5, 14)


def _random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree topped up to m distinct arcs, in shuffled order."""
    others = list(range(2, n + 1))
    rng.shuffle(others)
    placed = [1]
    pairs = []
    for node in others:
        anchor = rng.choice(placed)
        pairs.append((min(anchor, node), max(anchor, node)))
        placed.append(node)
    used = set(pairs)
    spare = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in used]
    pairs += rng.sample(spare, m - len(pairs))
    rng.shuffle(pairs)
    return pairs


def _corpus_shapes() -> list[tuple[int, int]]:
    """(nodes, arcs) of each corpus network: 60 networks for each node count
    from 4 to 8, spread evenly over the arc counts in 5..14 it admits."""
    per_node_count = CORPUS_SIZE // (CORPUS_NODES[1] - CORPUS_NODES[0] + 1)
    shapes = []
    for n in range(CORPUS_NODES[0], CORPUS_NODES[1] + 1):
        low = max(CORPUS_ARCS[0], n - 1)
        high = min(CORPUS_ARCS[1], n * (n - 1) // 2)
        shapes += [(n, low + j % (high - low + 1)) for j in range(per_node_count)]
    return shapes


def corpus(seed: int) -> list[Instance]:
    """300 random connected networks of 4-8 nodes and 5-14 arcs.

    The node and arc counts follow a fixed schedule (``_corpus_shapes``);
    the seed draws the topology, the arc order and the probabilities,
    uniform in (0.05, 0.95). Every backend solves every network, and the
    reference is the brute-force sum.
    """
    rng = random.Random(f"corpus/{seed}")
    out = []
    for i, (n, m) in enumerate(_corpus_shapes()):
        triples = [(u, v, round(rng.uniform(0.05, 0.95), 6)) for u, v in _random_connected(rng, n, m)]
        out.append(
            _instance(
                f"corpus-{i}", n, triples, ("oracle", "qbat", "qb2"), reference.brute_force(n, triples)
            )
        )
    return out


# --- chains -----------------------------------------------------------------


def series_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    return k + 1, [(i, i + 1) for i in range(1, k + 1)]


def ladder_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    pairs = [(1, 2), (1, 3)]
    for level in range(1, k):
        a, b = 2 * level, 2 * level + 1
        pairs += [(a, b), (a, a + 2), (b, b + 2)]
    a, b = 2 * k, 2 * k + 1
    n = 2 * k + 2
    pairs += [(a, b), (a, n), (b, n)]
    return n, pairs


def bridge_chain_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    pairs = []
    for block in range(k):
        base = 4 * block
        pairs += [(base + u, base + v) for u, v in reference.BRIDGE_BLOCK]
    return 4 * k + 1, pairs


def grid_pairs(k: int) -> tuple[int, list[tuple[int, int]]]:
    """3 rows by k columns, column-major node numbers, source top-left."""

    def node(row: int, col: int) -> int:
        return (col - 1) * 3 + row

    pairs = []
    for col in range(1, k + 1):
        pairs += [(node(row, col), node(row + 1, col)) for row in (1, 2)]
        if col < k:
            pairs += [(node(row, col), node(row, col + 1)) for row in (1, 2, 3)]
    return 3 * k, pairs


# Long chains are qb2's; qbat also takes series up to 600 arcs (beyond
# about 1000 it dies of recursion depth). The short chains are within the
# oracle's reach, so every backend has solves on this workload.
CHAINS_LONG = (
    ("series", 300), ("series", 400), ("series", 500), ("series", 600),
    ("series", 900), ("series", 1200),
    ("ladder", 100), ("ladder", 150), ("ladder", 200),
    ("bridge-chain", 32), ("bridge-chain", 64), ("bridge-chain", 128),
)
CHAINS_SHORT = (("series", 12), ("ladder", 4), ("bridge-chain", 2))
QBAT_SERIES_MAX = 600


def _chain_probability(rng: random.Random, family: str, k: int) -> float:
    """Arc reliabilities that keep the whole chain's reliability near 0.1-0.9."""
    if family == "series":
        return round(1.0 - rng.uniform(0.1, 1.0) / k, 9)
    if family == "ladder":
        return round(rng.uniform(0.75, 0.99), 6)
    return round(rng.uniform(0.9, 0.995), 6)


def chains(seed: int) -> list[Instance]:
    rng = random.Random(f"chains/{seed}")
    family_pairs = {"series": series_pairs, "ladder": ladder_pairs, "bridge-chain": bridge_chain_pairs}
    out = []
    for family, k in CHAINS_LONG + CHAINS_SHORT:
        n, pairs = family_pairs[family](k)
        probs = [_chain_probability(rng, family, k) for _ in pairs]
        if family == "series":
            value = reference.series(probs)
        elif family == "ladder":
            value = reference.ladder(k, probs)
        else:
            value = reference.bridge_chain(probs)
        short = (family, k) in CHAINS_SHORT
        backends = ("qb2",)
        if short or (family == "series" and k <= QBAT_SERIES_MAX):
            backends += ("qbat",)
        if short:
            backends += ("oracle",)
        triples = [(u, v, p) for (u, v), p in zip(pairs, probs)]
        out.append(_instance(f"{family}-{k}", n, triples, backends, value))
    return out


# --- grid -------------------------------------------------------------------

GRID_COLUMNS = (2, 3, 4)
GRID_COPIES = 5


def grid(seed: int) -> list[Instance]:
    """Five 3xk grids for each k in 2..4, probabilities uniform in (0.05, 0.95)."""
    rng = random.Random(f"grid/{seed}")
    out = []
    for k in GRID_COLUMNS:
        n, pairs = grid_pairs(k)
        for copy in range(GRID_COPIES):
            triples = [(u, v, round(rng.uniform(0.05, 0.95), 6)) for u, v in pairs]
            out.append(
                _instance(
                    f"grid-3x{k}-{copy}", n, triples, ("oracle", "qbat", "qb2"),
                    reference.brute_force(n, triples),
                )
            )
    return out


def build(workload: str, seed: int) -> list[Instance]:
    return {"corpus": corpus, "chains": chains, "grid": grid}[workload](seed)
