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
named tuples, node regions and arc endpoints are lists indexed by node
and arc id, and one adjacency serves the shortest path and every cut.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

from . import graphops
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


def _arc_ends(network: Network) -> tuple[list[int], list[int]]:
    """us[i] and vs[i]: the endpoints of arc i (slot 0 is unused)."""
    return [0] + [a.u for a in network.arcs], [0] + [a.v for a in network.arcs]


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
    yet settled and never enters a settled node. The sinks and the settled
    nodes are updated in place from cut to cut, and the region of a cut
    is the nodes its search newly reached.
    """
    adj = graphops.adjacency(network)
    path = graphops.shortest_path(network, adj, graphops.unit_weights(network))
    us, vs = _arc_ends(network)
    nodes_on_path = [network.source]
    for arc_id in path:
        at = nodes_on_path[-1]
        nodes_on_path.append(vs[arc_id] if us[arc_id] == at else us[arc_id])
    sinks = set(nodes_on_path)  # nodes_on_path[i:] inside the loop
    settled: set[int] = set()
    joined: list[int] = []
    pending: set[int] = set()  # sources not yet settled
    found = []
    sep_sources: tuple[int, ...] = (network.source,)
    for i, arc_id in enumerate(path, start=1):
        pending.add(nodes_on_path[i - 1])
        sinks.discard(nodes_on_path[i - 1])
        # Settled nodes and earlier path nodes are never sinks, so only a
        # grown source can overlap them.
        if not sinks.isdisjoint(sep_sources):
            continue  # no cut can hold exactly this path arc; stages merge here
        reached, cut = graphops.min_cut_partition(adj, arc_id, pending, sinks, settled)
        settled.update(reached)
        found.append((i, arc_id, cut, sep_sources, len(joined), len(reached)))
        joined.extend(reached)
        sep_sources = tuple(
            sorted({v for c in cut for v in (us[c], vs[c]) if v not in settled})
        )
        pending = set(sep_sources)

    order = tuple(joined)
    cuts = tuple(
        CutInfo(i, arc_id, cut, sep, order, start + size)
        for i, arc_id, cut, sep, start, size in found
    )
    regions = [tuple(sorted(order[start : start + size])) for *_, start, size in found]
    regions.append(
        tuple(v for v in range(1, network.node_count + 1) if v not in settled)
    )
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
        left, right = b - 1, b
        if len(assigned[left]) < len(assigned[right]):
            pick = left
        elif len(assigned[right]) < len(assigned[left]):
            pick = right
        else:
            end_distance_left = min(left, count - 1 - left)
            end_distance_right = min(right, count - 1 - right)
            pick = left if end_distance_left <= end_distance_right else right
        assigned[pick].extend(crossing[b])

    stage_arcs = tuple(tuple(sorted(arcs)) for arcs in assigned if arcs)
    return replace(decomposition, stage_arcs=stage_arcs)


def _stage_spans(network: Network, arcsets) -> tuple[list[int], list[int]]:
    """first[v] and last[v]: the lowest and highest stage with an arc at v.

    A node with no arc gets the empty span (len(arcsets), -1).
    """
    us, vs = _arc_ends(network)
    first = [len(arcsets)] * (network.node_count + 1)
    last = [-1] * (network.node_count + 1)
    for s in range(len(arcsets) - 1, -1, -1):
        for arc_id in arcsets[s]:
            first[us[arc_id]] = first[vs[arc_id]] = s
    for s, arcs in enumerate(arcsets):
        for arc_id in arcs:
            last[us[arc_id]] = last[vs[arc_id]] = s
    return first, last


def _bucket(first, last, count: int, reach: int) -> list[tuple[int, ...]]:
    """Bucket s holds, in node order, each v with first[v] <= s < last[v] + reach.

    With reach 0 bucket s is boundary s: the nodes with arcs in some
    stage <= s and in some stage > s, so a node that skips a stage stays
    in every boundary it rides through. With reach 1 bucket s is stage
    s's node list: the nodes of its arcs plus those riding through it.
    """
    buckets: list[list[int]] = [[] for _ in range(count)]
    for v in range(1, len(first)):
        for s in range(first[v], last[v] + reach):
            buckets[s].append(v)
    return [tuple(b) for b in buckets]


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
    once, those boundaries dropped in one pass, and the span table built
    once more for the merged stages' node lists, so the cost stays linear
    in the network however many stages merge.
    """
    if decomposition.stage_arcs is None:
        raise ValueError("self_adjust must run before stage_sources_targets")
    arcsets = decomposition.stage_arcs
    first, last = _stage_spans(network, arcsets)
    boundaries = _bucket(first, last, len(arcsets) - 1, 0)
    lo, hi = first[network.source], last[network.sink]
    kept = [s for s, nodes in enumerate(boundaries) if lo <= s < hi and len(nodes) <= 2]
    if len(kept) < len(boundaries):
        # a merged stage runs from just after one kept boundary to the next
        ends = [-1, *kept, len(arcsets) - 1]
        arcsets = tuple(
            tuple(sorted(chain.from_iterable(arcsets[a + 1 : b + 1])))
            for a, b in zip(ends, ends[1:])
        )
        boundaries = [boundaries[s] for s in kept]
        first, last = _stage_spans(network, arcsets)

    node_ids = _bucket(first, last, len(arcsets), 1)
    sources = [(network.source,)] + boundaries
    targets = boundaries + [(network.sink,)]
    stages = tuple(
        map(Stage, range(1, len(arcsets) + 1), arcsets, sources, targets, node_ids)
    )
    return replace(decomposition, stage_arcs=arcsets, stages=stages)


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
