import itertools
import random

import pytest

from relengine.graphops import (
    adjacency,
    ld_weights,
    min_cut_partition,
    shortest_path,
    unit_weights,
)
from relengine.network import Arc, Network, make_network
from relengine.generators import GeneratorSpec, build, random_network


def from_scratch(net, sources, sinks, pinned=0):
    """(source side, cut arcs) of a cut searched with nothing settled."""
    side, cut = min_cut_partition(adjacency(net), pinned, sources, sinks, frozenset())
    return frozenset(side), cut


def crossing_count(net, side, pinned):
    """Arcs other than `pinned` with exactly one end in `side`."""
    return sum(
        1 for a in net.arcs if a.id != pinned and (a.u in side) != (a.v in side)
    )


def all_simple_paths(net):
    """Every simple source-sink path as a tuple of arc ids, by DFS."""
    adj = {v: [] for v in range(1, net.node_count + 1)}
    for a in net.arcs:
        adj[a.u].append((a.id, a.v))
        adj[a.v].append((a.id, a.u))
    paths = []
    stack = [(net.source, (), frozenset([net.source]))]
    while stack:
        node, path, seen = stack.pop()
        if node == net.sink:
            paths.append(path)
            continue
        for arc_id, other in adj[node]:
            if other not in seen:
                stack.append((other, path + (arc_id,), seen | {other}))
    return paths


def disconnects(net, removed_ids, sources, sink):
    """True when deleting the given arcs separates every source from the sink."""
    adj = {v: [] for v in range(1, net.node_count + 1)}
    for a in net.arcs:
        if a.id not in removed_ids:
            adj[a.u].append(a.v)
            adj[a.v].append(a.u)
    seen = {sink}
    frontier = [sink]
    while frontier:
        node = frontier.pop()
        for other in adj[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return not any(s in seen for s in sources)


def test_weight_helpers_on_seven_arcs():
    net = make_network(8, [(i, i + 1, 0.5) for i in range(1, 8)])
    assert unit_weights(net) == (1,) * 7
    assert ld_weights(net) == (2, 4, 8, 16, 32, 64, 128)


def test_weight_helpers_on_one_arc():
    net = make_network(2, [(1, 2, 0.5)])
    assert ld_weights(net) == (2,)


def test_weight_helpers_are_monotone_power_of_two_sequences():
    net = make_network(6, [(i, i + 1, 0.5) for i in range(1, 6)])
    ld = ld_weights(net)
    assert all(a < b for a, b in zip(ld, ld[1:]))
    assert all(w & (w - 1) == 0 for w in ld)


def test_shortest_path_on_example(example_uniform):
    adj = adjacency(example_uniform)
    assert shortest_path(example_uniform, adj, unit_weights(example_uniform)) == (2, 6)
    assert shortest_path(example_uniform, adj, (64, 32, 16, 8, 4, 2, 1)) == (2, 6)


def test_shortest_path_single_arc():
    net = make_network(2, [(1, 2, 0.5)])
    assert shortest_path(net, adjacency(net), unit_weights(net)) == (1,)


def test_shortest_path_rejects_bad_weighting_length(example_uniform):
    with pytest.raises(ValueError):
        shortest_path(example_uniform, adjacency(example_uniform), (1, 2, 3))


def test_shortest_path_reports_unreachable_sink():
    # Bypasses make_network to build a (normally rejected) split graph.
    net = Network(3, (Arc(1, 1, 2, 0.5),))
    with pytest.raises(ValueError, match="no path"):
        shortest_path(net, adjacency(net), (1,))


def test_min_cut_on_example(example_uniform):
    # Two two-arc min cuts exist; the implementation settles ties by
    # taking the one nearest the source.
    assert from_scratch(example_uniform, {1}, {5})[1] == {1, 2}


def test_min_cut_single_arc():
    net = make_network(2, [(1, 2, 0.5)])
    assert from_scratch(net, {1}, {2})[1] == {1}
    # a pinned arc is free to cut, so the cut still lists it
    assert from_scratch(net, {1}, {2}, pinned=1) == (frozenset({1}), frozenset({1}))


def test_min_cut_argument_validation(example_uniform):
    with pytest.raises(ValueError, match="nonempty"):
        from_scratch(example_uniform, set(), {5})
    with pytest.raises(ValueError, match="nonempty"):
        from_scratch(example_uniform, {1}, set())
    with pytest.raises(ValueError, match="overlap"):
        from_scratch(example_uniform, {1, 5}, {5})


def test_min_cut_partition_sides_and_crossing_arcs(example_uniform):
    side, cut = from_scratch(example_uniform, {1}, {5})
    assert 1 in side and 5 not in side
    crossing = {
        a.id for a in example_uniform.arcs if (a.u in side) != (a.v in side)
    }
    assert cut == crossing


def test_min_cut_partition_zero_capacity_arc_can_cross(example_uniform):
    # A pinned arc costs nothing to cut, which forces the cheapest cut
    # through it.
    side, cut = from_scratch(example_uniform, {1}, {5}, pinned=2)
    assert 2 in cut
    assert disconnects(example_uniform, cut, {1}, 5)


def test_min_cut_partition_ties_pick_smallest_source_side():
    # Arc counts tie often; every optimal source side contains the
    # returned one, which is the intersection of them all.
    rng = random.Random(44)
    for _ in range(60):
        net = random_network(rng, node_range=(4, 7), arc_range=(5, 12))
        pinned = rng.choice([0, rng.randint(1, net.arc_count)])
        sources = {1} | set(rng.sample(range(2, net.node_count), k=1))
        free = [v for v in range(1, net.node_count) if v not in sources]
        sides = []
        for mask in range(1 << len(free)):
            side = sources | {v for i, v in enumerate(free) if (mask >> i) & 1}
            sides.append((crossing_count(net, side, pinned), frozenset(side)))
        best = min(weight for weight, _ in sides)
        smallest = frozenset.intersection(*(s for w, s in sides if w == best))
        side, cut = from_scratch(net, sources, {net.sink}, pinned)
        assert side == smallest
        assert len(cut - {pinned}) == best


def test_min_cut_partition_on_long_path_does_not_recurse():
    net = build(GeneratorSpec("series", 1500, 0.9))
    assert from_scratch(net, {1}, {1501}) == (
        frozenset({1}),
        frozenset({1}),
    )


class RecordingRows(list):
    """Adjacency rows that remember which nodes were read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, node):
        self.read.append(node)
        return super().__getitem__(node)


def test_min_cut_partition_with_settled_nodes(example_uniform):
    # The example's second cut: node 1 is settled, its cut {1, 2} ends in
    # the grown sources 2 and 3, and arc 6 is pinned.
    adj = RecordingRows(adjacency(example_uniform))
    reached, cut = min_cut_partition(adj, 6, {2, 3}, {5}, {1})
    assert sorted(reached) == [2, 3, 4]
    assert cut == {6, 7}
    assert 1 not in adj.read
    assert (frozenset({1}) | set(reached), cut) == from_scratch(
        example_uniform, {1, 2, 3}, {5}, pinned=6
    )
    with pytest.raises(ValueError, match="settled"):
        min_cut_partition(adj, 6, {1, 2}, {5}, {1})


def test_settled_search_matches_from_scratch_on_random_networks():
    # Settle the side of a first cut; the second search, with another
    # pinned arc, starts from the cut's outer endpoints and must find the
    # from-scratch cut of the union without reading a settled node's row.
    rng = random.Random(45)
    checked = 0
    for _ in range(300):
        net = random_network(rng, node_range=(6, 10), arc_range=(6, 18))
        pinned = rng.randint(1, net.arc_count)
        side, cut = from_scratch(net, {1}, {net.sink}, pinned)
        grown = {
            v for i in cut for v in (net.arcs[i - 1].u, net.arcs[i - 1].v)
        } - side
        if net.sink in grown:
            continue  # a settled node would touch the sink
        pinned = rng.randint(1, net.arc_count)
        adj = RecordingRows(adjacency(net))
        reached, got = min_cut_partition(adj, pinned, grown, {net.sink}, side)
        assert not side & set(reached)
        assert not side & set(adj.read)
        assert (side | set(reached), got) == from_scratch(
            net, side | grown, {net.sink}, pinned
        )
        checked += 1
    assert checked >= 60


def test_shortest_path_matches_exhaustive_search():
    rng = random.Random(41)
    for _ in range(120):
        net = random_network(rng, node_range=(4, 7), arc_range=(5, 12))
        exponents = list(range(1, net.arc_count + 1))
        rng.shuffle(exponents)
        weighting = tuple(1 << e for e in exponents)
        best = min(
            all_simple_paths(net),
            key=lambda path: sum(weighting[i - 1] for i in path),
        )
        got = shortest_path(net, adjacency(net), weighting)
        # Distinct powers of two make the optimum unique as an arc set.
        assert sorted(got) == sorted(best)
        assert sum(weighting[i - 1] for i in got) == sum(
            weighting[i - 1] for i in best
        )


def test_min_cut_matches_exhaustive_search():
    # Over every arc set that disconnects: the cut is one of the fewest
    # arcs, not counting the pinned arc. On the first network, with
    # nothing pinned, an augmenting path cancels the flow on arc 2 (2-4),
    # which leaves that arc empty, with room both ways.
    cancels = make_network(7, [
        (u, v, 0.5)
        for u, v in [(1, 2), (2, 4), (3, 4), (1, 5), (2, 6), (1, 3),
                     (3, 5), (4, 5), (4, 7), (6, 7), (1, 7)]
    ])
    rng = random.Random(42)
    nets = [(cancels, 0)]
    for _ in range(40):
        net = random_network(rng, node_range=(4, 6), arc_range=(5, 10))
        nets.append((net, rng.randint(1, net.arc_count)))
    for net, pinned in nets:
        sources = {1}
        best = None
        for mask in range(1 << net.arc_count):
            removed = {i + 1 for i in range(net.arc_count) if (mask >> i) & 1}
            if not disconnects(net, removed, sources, net.sink):
                continue
            weight = len(removed - {pinned})
            if best is None or weight < best:
                best = weight
        got = from_scratch(net, sources, {net.sink}, pinned)[1]
        assert len(got - {pinned}) == best
        assert disconnects(net, got, sources, net.sink)


def test_min_cut_respects_multi_node_source_sets():
    rng = random.Random(43)
    for _ in range(30):
        net = random_network(rng, node_range=(5, 7), arc_range=(6, 10))
        nodes = list(range(1, net.node_count))
        sources = set(rng.sample(nodes, k=2))
        cut = from_scratch(net, sources, {net.sink})[1]
        assert disconnects(net, cut, sources, net.sink)
        # Minimality of each single arc: putting any cut arc back restores
        # some source-sink connection.
        for arc_id in cut:
            assert not disconnects(net, cut - {arc_id}, sources, net.sink)


def test_unit_min_cut_size_matches_arc_disjoint_path_bound(example_uniform):
    # Menger: unit-capacity min cut size equals the max number of
    # arc-disjoint source-sink paths; the example has two.
    cut = from_scratch(example_uniform, {1}, {5})[1]
    assert len(cut) == 2
    paths = all_simple_paths(example_uniform)
    disjoint_pairs = [
        (p, q)
        for p, q in itertools.combinations(paths, 2)
        if not set(p) & set(q)
    ]
    assert disjoint_pairs
