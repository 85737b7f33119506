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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import graphops
from .network import Network


@dataclass(frozen=True)
class CutInfo:
    """One pinned minimum cut and the state the search held when it was found.

    Every cut of a chain shares `joined`, all nodes in the order they
    joined the source side; this cut's source side is its first
    `side_size` nodes, so the nested sides cost one tuple, not one set each.
    """

    index: int
    path_arc: int
    arc_ids: frozenset[int]
    separated_sources: tuple[int, ...]
    joined: tuple[int, ...] = field(repr=False)
    side_size: int

    @property
    def source_side(self) -> frozenset[int]:
        return frozenset(self.joined[: self.side_size])


@dataclass(frozen=True)
class Stage:
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


def _path_nodes(network: Network, path_arcs: tuple[int, ...]) -> list[int]:
    nodes = [network.source]
    at = network.source
    for arc_id in path_arcs:
        a = network.arcs[arc_id - 1]
        at = a.v if a.u == at else a.u
        nodes.append(at)
    return nodes


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
    yet settled and never enters a settled node. The capacities, the sinks
    and the settled nodes are updated in place from cut to cut, and the
    region of a cut is the nodes its search newly reached.
    """
    path = graphops.shortest_path(network, graphops.unit_weights(network))
    nodes_on_path = _path_nodes(network, path)
    adj = graphops.adjacency(network)
    caps = [1] * network.arc_count
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
        if any(v in sinks for v in sep_sources):
            continue  # no cut can hold exactly this path arc; stages merge here
        caps[arc_id - 1] = 0
        reached, cut = graphops.min_cut_partition(
            network, adj, caps, pending, sinks, settled
        )
        caps[arc_id - 1] = 1
        settled.update(reached)
        found.append((i, arc_id, cut, sep_sources, len(joined), len(reached)))
        joined.extend(reached)
        sep_sources = tuple(
            sorted(
                {
                    node
                    for cut_arc in cut
                    for node in (
                        network.arcs[cut_arc - 1].u,
                        network.arcs[cut_arc - 1].v,
                    )
                    if node not in settled
                }
            )
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
    region_of = {}
    for idx, nodes in enumerate(regions):
        for node in nodes:
            region_of[node] = idx

    assigned: list[list[int]] = [[] for _ in range(count)]
    crossing: dict[int, list[int]] = {b: [] for b in range(1, count)}
    for a in network.arcs:
        j, k = sorted((region_of[a.u], region_of[a.v]))
        if j == k:
            assigned[j].append(a.id)
        elif k == j + 1:
            crossing[k].append(a.id)
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
    first = [len(arcsets)] * (network.node_count + 1)
    last = [-1] * (network.node_count + 1)
    for s, arcs in enumerate(arcsets):
        for arc_id in arcs:
            a = network.arcs[arc_id - 1]
            for v in (a.u, a.v):
                if last[v] < 0:
                    first[v] = s
                last[v] = s
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
    may hold more than two nodes (the widest is merged first). Every
    pass measures the stages from one stage-span table.
    """
    if decomposition.stage_arcs is None:
        raise ValueError("self_adjust must run before stage_sources_targets")
    arcsets = [list(arcs) for arcs in decomposition.stage_arcs]

    while True:
        first, last = _stage_spans(network, arcsets)
        end = len(arcsets) - 1
        boundaries = _bucket(first, last, end, 0)
        widths = [len(b) for b in boundaries]
        if end < 1:
            break
        if first[network.source] > 0:
            at = 0
        elif last[network.sink] < end:
            at = end - 1
        elif max(widths) > 2:
            at = widths.index(max(widths))
        else:
            break
        arcsets[at : at + 2] = [sorted(arcsets[at] + arcsets[at + 1])]

    node_ids = _bucket(first, last, end + 1, 1)
    sources = [(network.source,)] + boundaries
    targets = boundaries + [(network.sink,)]
    stages = tuple(
        Stage(idx + 1, tuple(arcs), sources[idx], targets[idx], node_ids[idx])
        for idx, arcs in enumerate(arcsets)
    )
    return replace(
        decomposition,
        stage_arcs=tuple(tuple(arcs) for arcs in arcsets),
        stages=stages,
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
