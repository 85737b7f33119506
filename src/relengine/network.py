"""Undirected binary-state network model and its file format.

A network is a connected undirected graph on nodes 1..n with one
probability per arc. Node 1 is always the source and node n the sink.
Arc order is file order and is load-bearing: state vectors and every
enumeration index arcs by this order.

File format (UTF-8, line oriented):

    # comment lines start with '#', blanks are ignored
    nodes 5
    arc 1 2 0.9
    arc 1 3 0.9
    ...

The first non-comment line must be the ``nodes`` line; every following
line declares one arc as ``arc <u> <v> <p>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .unionfind import union


class NetworkError(Exception):
    """Base class for everything parse_network can raise."""


class NetworkSyntaxError(NetworkError):
    """Malformed input text; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NetworkInvariantError(NetworkError):
    """A structurally invalid network.

    ``kind`` identifies the violated invariant:
    ``loop``, ``parallel_arc``, ``probability``, ``node_range``,
    ``node_count`` or ``disconnected``.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Arc:
    id: int
    u: int
    v: int
    p: float


@dataclass(frozen=True)
class Network:
    node_count: int
    arcs: tuple[Arc, ...]

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def source(self) -> int:
        return 1

    @property
    def sink(self) -> int:
        return self.node_count

    def probabilities(self) -> tuple[float, ...]:
        return tuple(a.p for a in self.arcs)


def _connected_with_all_arcs(node_count: int, arcs: tuple[Arc, ...]) -> bool:
    parent = list(range(node_count + 1))
    merged = sum(union(parent, a.u, a.v) for a in arcs)
    return merged == node_count - 1


def make_network(node_count: int, arc_triples) -> Network:
    """Build and validate a Network from (u, v, p) triples in arc order."""
    if node_count < 1:
        raise NetworkInvariantError(
            "node_count", f"node count must be at least 1, got {node_count}"
        )
    arcs = []
    seen_pairs: set[tuple[int, int]] = set()
    for idx, (u, v, p) in enumerate(arc_triples, start=1):
        if not (1 <= u <= node_count) or not (1 <= v <= node_count):
            raise NetworkInvariantError(
                "node_range",
                f"arc {idx} endpoint out of range 1..{node_count}: ({u}, {v})",
            )
        if u == v:
            raise NetworkInvariantError("loop", f"arc {idx} is a self loop at node {u}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen_pairs:
            raise NetworkInvariantError(
                "parallel_arc",
                f"arc {idx} duplicates endpoint pair {pair[0]}-{pair[1]}",
            )
        seen_pairs.add(pair)
        p = float(p)
        if not (0.0 <= p <= 1.0):
            raise NetworkInvariantError(
                "probability", f"arc {idx} probability {p!r} outside [0, 1]"
            )
        arcs.append(Arc(idx, u, v, p))
    arcs = tuple(arcs)
    # too few arcs to span: refuse before sizing a union-find by node_count
    if len(arcs) < node_count - 1 or not _connected_with_all_arcs(node_count, arcs):
        raise NetworkInvariantError(
            "disconnected", "graph is disconnected even with every arc functioning"
        )
    return Network(node_count, arcs)


def parse_network(text: str) -> Network:
    """Parse the line-oriented network format described in the module docstring."""
    node_count = None
    triples = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if node_count is None:
            if fields[0] != "nodes":
                raise NetworkSyntaxError(
                    f"expected 'nodes <n>' as the first declaration, got {fields[0]!r}",
                    line_no,
                )
            if len(fields) != 2:
                raise NetworkSyntaxError("'nodes' takes exactly one value", line_no)
            try:
                node_count = int(fields[1])
            except ValueError:
                raise NetworkSyntaxError(
                    f"node count {fields[1]!r} is not an integer", line_no
                ) from None
            continue
        if fields[0] == "nodes":
            raise NetworkSyntaxError("'nodes' may appear only once", line_no)
        if fields[0] != "arc":
            raise NetworkSyntaxError(f"unknown declaration {fields[0]!r}", line_no)
        if len(fields) != 4:
            raise NetworkSyntaxError("'arc' takes exactly <u> <v> <p>", line_no)
        try:
            u = int(fields[1])
            v = int(fields[2])
        except ValueError:
            raise NetworkSyntaxError(
                f"arc endpoints {fields[1]!r} {fields[2]!r} must be integers", line_no
            ) from None
        try:
            p = float(fields[3])
        except ValueError:
            raise NetworkSyntaxError(
                f"arc probability {fields[3]!r} is not a number", line_no
            ) from None
        triples.append((u, v, p))
    if node_count is None:
        raise NetworkSyntaxError("empty input, expected a 'nodes' line", 1)
    return make_network(node_count, triples)


def format_network(network: Network, comment: str | None = None) -> str:
    """Render a network back into its file format. Deterministic."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"nodes {network.node_count}")
    for a in network.arcs:
        lines.append(f"arc {a.u} {a.v} {a.p!r}")
    return "\n".join(lines) + "\n"


def network_digest(network: Network) -> str:
    """SHA-256 over the canonical rendering of the parsed network."""
    # imported here, not at module load: hashlib costs about 3.6 MiB of
    # RSS on CPython 3.11, and nothing else in relengine needs it
    import hashlib

    return hashlib.sha256(format_network(network).encode("utf-8")).hexdigest()
