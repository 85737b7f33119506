"""Slice a network into sequential stages along a chain of minimum cuts.

One cut is found per arc of a hop-count shortest path, each cut pinned
so it contains exactly that path arc. The source sides of the cuts are
nested, so each cut's search starts beyond the previous side and never
enters it, and the nodes a search newly reaches are that cut's region;
the regions partition the nodes from source to sink. Cut arcs are then
assigned to an adjacent stage to balance stage sizes, and consecutive
stages share an ordered boundary node list that the matrix convolution
engine folds over.

No arc spans non-adjacent regions: the outer endpoints of every cut's
arcs join the sources of the next cut, so an arc that crosses one cut
ends on the source side of the next and crosses no other (`self_adjust`
asserts this). One repair keeps the stage chain sound on arbitrary
inputs: a boundary wider than two nodes is collapsed by merging its two
stages, because the fold carries only boundary reach sets and those are
exact precisely when every boundary has at most two nodes.

Boundaries follow the frontier rule (Kawahara et al., IEICE Trans.
Fundamentals E100-A(9), 2017): with first[v] and last[v] the lowest and
highest stage that has an arc at node v, v is on boundary s exactly when
first[v] <= s < last[v]. So a node that skips a stage stays on every
boundary it rides through, and the fold keeps the paths that return to it.
Merging two stages removes the boundary between them and leaves every
other boundary's nodes as they were, so the stages are measured once and
the boundaries that the merges remove are dropped in one pass.

A chain holds one cut and one stage per path arc, so the per-cut and
per-stage bookkeeping is kept to plain lists and tuples: the records are
named tuples, one side list marks every node for all the cut searches,
and one adjacency serves the shortest path and every cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

from . import graphops
from .graphops import FREE, SETTLED, SINK
from .network import Network


class CutInfo(NamedTuple):
    """One pinned minimum cut and the state the search held when it was found.

    Every cut of a chain shares `joined`, all nodes in the order they
    joined the source side; this cut's source side is its first
    `side_size` nodes, so the nested sides cost one tuple, not one set each.
    The repr leaves `joined` out, since it lists every node of the chain.
    """

    index: int
    path_arc: int
    arc_ids: frozenset[int]
    separated_sources: tuple[int, ...]
    joined: tuple[int, ...]
    side_size: int

    @property
    def source_side(self) -> frozenset[int]:
        return frozenset(self.joined[: self.side_size])

    def __repr__(self) -> str:
        return (
            f"CutInfo(index={self.index!r}, path_arc={self.path_arc!r}, "
            f"arc_ids={self.arc_ids!r}, separated_sources={self.separated_sources!r}, "
            f"side_size={self.side_size!r})"
        )


class Stage(NamedTuple):
    """One stage of the chain, numbered from 1.

    `arc_ids` are its arcs in id order. `source_nodes` and `target_nodes`
    are its ordered boundaries with the previous and the next stage (the
    network's source for the first stage and its sink for the last), and
    `node_ids` are the nodes of its arcs plus those riding through it.
    """

    index: int
    arc_ids: tuple[int, ...]
    source_nodes: tuple[int, ...]
    target_nodes: tuple[int, ...]
    node_ids: tuple[int, ...]


@dataclass(frozen=True)
class Decomposition:
    """Progressively filled by the three pipeline operations below."""

    path_arcs: tuple[int, ...]
    cuts: tuple[CutInfo, ...]
    regions: tuple[tuple[int, ...], ...]
    stage_arcs: tuple[tuple[int, ...], ...] | None = None
    stages: tuple[Stage, ...] | None = None


def find_shortest_mcs(network: Network) -> Decomposition:
    """Chain of pinned minimum cuts along a hop-count shortest path.

    The cut for path arc i is a minimum cut (arc count, with the pinned
    arc free) separating everything known to sit on the source side from
    the rest of the path and the sink. Pinning the earlier path nodes to
    the source and the later ones to the sink makes "exactly one path arc
    per cut" structural and keeps the cut source sides nested.

    The nodes on the previous cut's source side are settled: every arc
    leaving them ends in one of that cut's outer endpoints, which are
    sources of the next cut, so each search starts from the sources not
    yet settled and never enters a settled node. One side list marks
    every node free, settled or a sink for the whole chain; each search
    settles the nodes it reaches, its cut's region, which join the source
    side in search order from the iteration order of the sources' set.
    """
    adj = graphops.adjacency(network)
    path = graphops.shortest_path(adj)
    side = [FREE] * (network.node_count + 1)
    nodes_on_path = [network.source]
    for arc_id in path:
        a = network.arcs[arc_id - 1]
        nodes_on_path.append(a.v if a.u == nodes_on_path[-1] else a.u)
        side[nodes_on_path[-1]] = SINK  # nodes_on_path[i:] are the sinks of cut i
    joined: list[int] = []
    pending: set[int] = set()  # sources not yet settled
    found, regions = [], []  # each cut's fields but joined, and its region
    sep_sources: tuple[int, ...] = (network.source,)
    for i, (at, arc_id) in enumerate(zip(nodes_on_path, path), start=1):
        side[at] = FREE
        pending.add(at)
        # only a grown source can be a sink; then no cut can hold exactly
        # this path arc, and stages merge here
        if SINK in map(side.__getitem__, sep_sources):
            continue
        reached, cut = graphops.min_cut_partition(adj, arc_id, pending, side)
        joined += reached
        found.append((i, arc_id, frozenset(cut), sep_sources, len(joined)))
        reached.sort()
        regions.append(tuple(reached))
        sep_sources = tuple(sorted({*cut.values()}))
        pending = set(sep_sources)

    columns = [*zip(*found)] or [()] * 5
    cuts = _records(CutInfo, *columns[:4], repeat(tuple(joined)), columns[4])
    regions.append(tuple([v for v in range(1, len(side)) if side[v] != SETTLED]))
    return Decomposition(path, cuts, tuple(regions))


def self_adjust(network: Network, decomposition: Decomposition) -> Decomposition:
    """Assign every boundary-crossing arc to one of its two adjacent stages.

    Crossing arcs go to whichever side currently holds fewer arcs; ties go
    to the stage nearer an end of the chain, and a still-standing tie goes
    left. Stages that end up empty are dropped.
    """
    regions = decomposition.regions
    count = len(regions)
    region_of = [0] * (network.node_count + 1)
    for idx, nodes in enumerate(regions):
        for node in nodes:
            region_of[node] = idx

    assigned: list[list[int]] = [[] for _ in range(count)]
    # crossing[b]: the arcs between regions b - 1 and b (slot 0 is unused)
    crossing: list[list[int]] = [[] for _ in range(count)]
    for a in network.arcs:
        j, k = region_of[a.u], region_of[a.v]
        if j == k:
            assigned[j].append(a.id)
        elif k == j + 1:
            crossing[k].append(a.id)
        elif j == k + 1:
            crossing[j].append(a.id)
        else:
            raise AssertionError(f"arc {a.id} spans non-adjacent regions")

    for b in range(1, count):
        left, right = assigned[b - 1], assigned[b]
        if len(left) != len(right):
            pick = left if len(left) < len(right) else right
        else:  # stage b - 1 is no farther from an end than stage b
            pick = left if 2 * b <= count else right
        pick += crossing[b]

    stage_arcs = tuple(map(tuple, map(sorted, filter(None, assigned))))
    return Decomposition(decomposition.path_arcs, decomposition.cuts, regions, stage_arcs)


def _stage_spans(network: Network, arcsets) -> tuple[list[int], list[int]]:
    """first[v] and last[v]: the lowest and highest stage with an arc at v.

    A node with no arc gets the empty span (len(arcsets), -1).
    """
    us = [0] + [a.u for a in network.arcs]  # the ends of arc i, slot 0 unused
    vs = [0] + [a.v for a in network.arcs]
    first = [len(arcsets)] * (network.node_count + 1)
    last = [-1] * (network.node_count + 1)
    for s in range(len(arcsets) - 1, -1, -1):
        for arc_id in arcsets[s]:
            first[us[arc_id]] = first[vs[arc_id]] = s
    for s, arcs in enumerate(arcsets):
        for arc_id in arcs:
            last[us[arc_id]] = last[vs[arc_id]] = s
    return first, last


def _buckets(first, last, count: int) -> tuple[list[tuple], list[tuple]]:
    """Boundaries and node lists of `count` stages, each in node order.

    Boundary s holds each v with first[v] <= s < last[v], so a node that
    skips a stage stays on every boundary it rides through, and stage s's
    node list each v with first[v] <= s <= last[v].
    """
    boundaries: list[list[int]] = [[] for _ in range(count - 1)]
    nodes: list[list[int]] = [[] for _ in range(count)]
    for v in range(1, len(first)):
        end = last[v]
        for s in range(first[v], end + 1):
            nodes[s].append(v)
            if s < end:
                boundaries[s].append(v)
    return list(map(tuple, boundaries)), list(map(tuple, nodes))


def _records(kind, *columns) -> tuple:
    # kind(*row) for each row: tuple.__new__ is what a named tuple's own
    # constructor calls, here without one Python call per cut or stage
    return tuple(map(tuple.__new__, repeat(kind), zip(*columns)))


def stage_sources_targets(
    network: Network, decomposition: Decomposition
) -> Decomposition:
    """Finalize stages with their ordered source and target boundary lists.

    Merges neighbouring stages until the chain is sound: the first stage
    must touch the source, the last must touch the sink, and no boundary
    may hold more than two nodes. Merging two stages deletes the boundary
    between them and leaves every other boundary's nodes as they were, so
    the merges these rules call for, in any order, delete exactly the
    boundaries before the source's first stage, those after the sink's
    last stage and those wider than two nodes. The stages are measured
    once and those boundaries dropped in one pass; a merged stage's node
    list is the union of its stages' lists, so the cost stays linear in
    the network however many stages merge.
    """
    if decomposition.stage_arcs is None:
        raise ValueError("self_adjust must run before stage_sources_targets")
    arcsets = decomposition.stage_arcs
    first, last = _stage_spans(network, arcsets)
    boundaries, node_ids = _buckets(first, last, len(arcsets))
    lo, hi = first[network.source], last[network.sink]
    kept = [s for s, nodes in enumerate(boundaries) if lo <= s < hi and len(nodes) <= 2]
    if len(kept) < len(boundaries):
        # a merged stage runs from just after one kept boundary to the next
        ends = [-1, *kept, len(arcsets) - 1]
        spans = list(zip(ends, ends[1:]))
        arcsets = tuple(
            tuple(sorted(chain.from_iterable(arcsets[a + 1 : b + 1]))) for a, b in spans
        )
        node_ids = [
            tuple(sorted({*chain.from_iterable(node_ids[a + 1 : b + 1])})) for a, b in spans
        ]
        boundaries = [boundaries[s] for s in kept]

    sources = [(network.source,)] + boundaries
    targets = boundaries + [(network.sink,)]
    stages = _records(
        Stage, range(1, len(arcsets) + 1), arcsets, sources, targets, node_ids
    )
    return Decomposition(
        decomposition.path_arcs, decomposition.cuts, decomposition.regions, arcsets, stages
    )


def decompose(network: Network) -> Decomposition:
    return stage_sources_targets(network, self_adjust(network, find_shortest_mcs(network)))


def explain_decomposition(network: Network) -> str:
    """Human-readable dump of the cut chain and the final stages."""
    d = decompose(network)
    lines = []
    if d.path_arcs:
        lines.append(
            "shortest path: " + " ".join(f"a{i}" for i in d.path_arcs)
        )
    else:
        lines.append("shortest path: (source equals sink)")
    for cut in d.cuts:
        arcs = " ".join(f"a{i}" for i in sorted(cut.arc_ids))
        side = " ".join(str(v) for v in sorted(cut.source_side))
        grown = " ".join(str(v) for v in cut.separated_sources)
        lines.append(
            f"cut {cut.index}: pins a{cut.path_arc}, arcs {{{arcs}}}, "
            f"source side {{{side}}}, grown sources {{{grown}}}"
        )
    lines.append(
        "regions: " + " | ".join("{" + " ".join(map(str, r)) + "}" for r in d.regions)
    )
    for stage in d.stages or ():
        arcs = " ".join(f"a{i}" for i in stage.arc_ids)
        lines.append(
            f"stage {stage.index}: arcs {{{arcs}}}"
            f"  S={{{' '.join(map(str, stage.source_nodes))}}}"
            f"  T={{{' '.join(map(str, stage.target_nodes))}}}"
            f"  nodes {{{' '.join(map(str, stage.node_ids))}}}"
        )
    return "\n".join(lines)
