import random

import importlib
from dataclasses import replace

import pytest

from relengine import graphops
from relengine.decompose import (
    decompose,
    explain_decomposition,
    find_shortest_mcs,
    self_adjust,
    stage_sources_targets,
)
from relengine.generators import FAMILIES, GeneratorSpec, build, random_network
from relengine.network import make_network

# the submodule, not the decompose function that relengine exports
decompose_module = importlib.import_module("relengine.decompose")


def removed_disconnects(net, removed_ids, sources):
    adj = {v: [] for v in range(1, net.node_count + 1)}
    for a in net.arcs:
        if a.id not in removed_ids:
            adj[a.u].append(a.v)
            adj[a.v].append(a.u)
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        node = frontier.pop()
        for other in adj[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return net.sink not in seen


def test_shortest_mcs_on_example(example_uniform):
    d = find_shortest_mcs(example_uniform)
    assert d.path_arcs == (2, 6)
    assert [c.arc_ids for c in d.cuts] == [{1, 2}, {6, 7}]
    assert d.cuts[0].source_side == {1}
    assert d.cuts[0].separated_sources == (1,)
    assert d.cuts[1].separated_sources == (2, 3)
    assert d.regions == ((1,), (2, 3, 4), (5,))


def test_shortest_mcs_single_arc():
    d = find_shortest_mcs(make_network(2, [(1, 2, 0.5)]))
    assert d.path_arcs == (1,)
    assert [c.arc_ids for c in d.cuts] == [{1}]


def test_shortest_mcs_series():
    net = make_network(3, [(1, 2, 0.5), (2, 3, 0.5)])
    d = find_shortest_mcs(net)
    assert d.path_arcs == (1, 2)
    assert [c.arc_ids for c in d.cuts] == [{1}, {2}]


def test_each_path_arc_sits_in_exactly_one_cut():
    rng = random.Random(51)
    for _ in range(80):
        net = random_network(rng)
        d = find_shortest_mcs(net)
        assert len(d.cuts) <= len(d.path_arcs)
        placed = [
            arc_id
            for arc_id in d.path_arcs
            for c in d.cuts
            if arc_id in c.arc_ids
        ]
        assert len(placed) == len(set(placed))
        for cut in d.cuts:
            inside = set(d.path_arcs) & cut.arc_ids
            assert len(inside) == 1
            assert cut.path_arc in inside


def test_cuts_disconnect_their_source_side():
    rng = random.Random(53)
    for _ in range(80):
        net = random_network(rng)
        d = find_shortest_mcs(net)
        for cut in d.cuts:
            assert removed_disconnects(net, cut.arc_ids, cut.source_side)


def cut_chain_from_scratch(net, path):
    """The cut chain with every cut searched from its full source set.

    Cut i separates the previous source side, the grown sources and the
    path nodes before arc i from the later path nodes and the sink.
    Returns the cuts as (index, path arc, arcs, source side, grown
    sources) and the regions between consecutive source sides.
    """
    nodes = [net.source]
    for arc_id in path:
        a = net.arcs[arc_id - 1]
        nodes.append(a.v if a.u == nodes[-1] else a.u)
    adj = graphops.adjacency(net)
    cuts = []
    side = frozenset()
    grown = (net.source,)
    for i, arc_id in enumerate(path, start=1):
        sources = side | set(grown) | set(nodes[:i])
        sinks = set(nodes[i:]) | {net.sink}
        if sources & sinks:
            continue
        marks = [graphops.FREE] * (net.node_count + 1)
        for v in sinks:
            marks[v] = graphops.SINK
        reached, cut = graphops.min_cut_partition(adj, arc_id, sources, marks)
        cuts.append((i, arc_id, frozenset(cut), frozenset(reached), grown))
        side = frozenset(reached)
        ends = {v for c in cut for v in (net.arcs[c - 1].u, net.arcs[c - 1].v)}
        grown = tuple(sorted(ends - side))
    regions, previous = [], frozenset()
    for *_, cut_side, _ in cuts:
        regions.append(tuple(sorted(cut_side - previous)))
        previous = cut_side
    regions.append(tuple(v for v in range(1, net.node_count + 1) if v not in previous))
    return cuts, tuple(regions)


def chain_test_networks():
    for family in FAMILIES:
        for k in range(1, 31):
            yield build(GeneratorSpec(family, k, 0.9))
    rng = random.Random(67)
    for _ in range(300):
        yield random_network(rng, node_range=(4, 12), arc_range=(5, 30))


def test_cut_chain_matches_from_scratch_cuts(example_uniform, example_mixed):
    for net in [example_uniform, example_mixed, *chain_test_networks()]:
        d = find_shortest_mcs(net)
        cuts, regions = cut_chain_from_scratch(net, d.path_arcs)
        assert [
            (c.index, c.path_arc, c.arc_ids, c.source_side, c.separated_sources)
            for c in d.cuts
        ] == cuts
        assert d.regions == regions


def test_cut_search_starts_with_settled_nodes_closed(monkeypatch):
    # min_cut_partition does not check that every arc at a settled node
    # ends in a source or another settled node; it returns a wrong cut
    # when that fails, so check it before every call of the cut chain.
    # The chain must call it through the module, once per cut it returns.
    search = graphops.min_cut_partition
    settled_sizes = []

    def checked(adj, pinned, sources, side):
        settled = {v for v, state in enumerate(side) if state == graphops.SETTLED}
        closed = settled | set(sources)
        for node in settled:
            for arc_id, other in adj[node]:
                assert other in closed, (node, arc_id, other)
        settled_sizes.append(len(settled))
        return search(adj, pinned, sources, side)

    monkeypatch.setattr(graphops, "min_cut_partition", checked)
    nets = [
        build(GeneratorSpec(family, k, 0.9))
        for family in ("series", "ladder", "bridge-chain")
        for k in (*range(1, 31), 100)
    ]
    rng = random.Random(89)
    nets += [random_network(rng, node_range=(4, 12), arc_range=(5, 30)) for _ in range(300)]
    for net in nets:
        calls = len(settled_sizes)
        d = find_shortest_mcs(net)
        assert len(settled_sizes) - calls == len(d.cuts)
    assert max(settled_sizes) >= 100


class CountingRows(list):
    """Adjacency rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, node):
        CountingRows.reads += 1
        return super().__getitem__(node)


@pytest.mark.parametrize("family, k", [("series", 2000), ("ladder", 300)])
def test_cut_chain_reads_each_row_a_few_times(monkeypatch, family, k):
    # Each cut searches only beyond the previous one, so the whole chain
    # (the shortest path included) reads O(n + m) adjacency rows, where a
    # search of the whole graph per cut would read O(n) rows per cut.
    build_rows = graphops.adjacency
    monkeypatch.setattr(graphops, "adjacency", lambda net: CountingRows(build_rows(net)))
    net = build(GeneratorSpec(family, k, 0.9))
    CountingRows.reads = 0
    d = find_shortest_mcs(net)
    assert len(d.cuts) >= k
    assert CountingRows.reads <= 4 * (net.node_count + net.arc_count)


def test_self_adjust_on_example(example_uniform):
    d = self_adjust(example_uniform, find_shortest_mcs(example_uniform))
    assert d.stage_arcs == ((1, 2), (3, 4, 5), (6, 7))


def test_self_adjust_series():
    net = make_network(3, [(1, 2, 0.5), (2, 3, 0.5)])
    d = self_adjust(net, find_shortest_mcs(net))
    assert d.stage_arcs == ((1,), (2,))


def test_self_adjust_partitions_all_arcs():
    rng = random.Random(59)
    for _ in range(120):
        net = random_network(rng)
        d = self_adjust(net, find_shortest_mcs(net))
        seen = [arc_id for stage in d.stage_arcs for arc_id in stage]
        assert sorted(seen) == [a.id for a in net.arcs]
        assert all(stage for stage in d.stage_arcs)


def test_stage_boundaries_on_example(example_uniform):
    d = decompose(example_uniform)
    stages = d.stages
    assert [s.arc_ids for s in stages] == [(1, 2), (3, 4, 5), (6, 7)]
    assert stages[0].source_nodes == (1,)
    assert stages[0].target_nodes == (2, 3)
    assert stages[1].source_nodes == (2, 3)
    assert stages[1].target_nodes == (3, 4)
    assert stages[2].source_nodes == (3, 4)
    assert stages[2].target_nodes == (5,)
    assert stages[0].node_ids == (1, 2, 3)
    assert stages[1].node_ids == (2, 3, 4)
    assert stages[2].node_ids == (3, 4, 5)


def test_stage_boundaries_single_arc():
    d = decompose(make_network(2, [(1, 2, 0.5)]))
    assert len(d.stages) == 1
    assert d.stages[0].source_nodes == (1,)
    assert d.stages[0].target_nodes == (2,)


def test_stage_boundaries_series():
    net = make_network(3, [(1, 2, 0.5), (2, 3, 0.5)])
    d = decompose(net)
    assert [s.target_nodes for s in d.stages] == [(2,), (3,)]


def check_stage_invariants(net, d):
    stages = d.stages
    assert stages, "at least one stage"
    assert stages[0].source_nodes == (net.source,)
    assert stages[-1].target_nodes == (net.sink,)
    seen = [arc_id for s in stages for arc_id in s.arc_ids]
    assert sorted(seen) == [a.id for a in net.arcs]
    arcs_by_id = {a.id: a for a in net.arcs}
    for s in stages:
        assert s.source_nodes == tuple(sorted(s.source_nodes))
        assert s.target_nodes == tuple(sorted(s.target_nodes))
        for arc_id in s.arc_ids:
            a = arcs_by_id[arc_id]
            assert a.u in s.node_ids and a.v in s.node_ids
        assert set(s.source_nodes) <= set(s.node_ids)
        assert set(s.target_nodes) <= set(s.node_ids)
    for left, right in zip(stages, stages[1:]):
        assert left.target_nodes == right.source_nodes
        # boundaries stay narrow enough for exact matrix folding
        assert 1 <= len(left.target_nodes) <= 2


def test_stage_invariants_on_random_networks():
    rng = random.Random(61)
    for _ in range(150):
        net = random_network(rng)
        check_stage_invariants(net, decompose(net))


def test_stage_invariants_on_wide_grids():
    # three-row grids force 3-node separators, exercising the merge of
    # stages whose shared boundary would be too wide
    for k in range(1, 6):
        net = build(GeneratorSpec("grid", k, 0.5))
        check_stage_invariants(net, decompose(net))


def test_stage_invariants_on_long_chains():
    for k in range(1, 5):
        net = build(GeneratorSpec("bridge-chain", k, 0.9))
        d = decompose(net)
        check_stage_invariants(net, d)
        # the shortest path takes two arcs per 7-arc block, so the cut
        # chain yields 2k+1 stages
        assert len(d.stages) == 2 * k + 1


def test_stage_order_is_induced_by_regions(example_uniform):
    d = decompose(example_uniform)
    firsts = [min(s.node_ids) for s in d.stages]
    assert firsts == sorted(firsts)


def test_explain_decomposition_mentions_all_parts(example_uniform):
    text = explain_decomposition(example_uniform)
    assert "shortest path: a2 a6" in text
    assert "stage 1" in text and "stage 3" in text
    assert "S={2 3}" in text and "T={3 4}" in text


def test_stage_sources_targets_requires_adjusted_input(example_uniform):
    raw = find_shortest_mcs(example_uniform)
    try:
        stage_sources_targets(example_uniform, raw)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected a ValueError for unadjusted input")


def test_single_node_network_has_no_stages():
    assert decompose(make_network(1, [])).stages == ()


def test_node_rides_through_a_stage_without_arcs():
    # node 2 has arcs in the first and the last stage but none in the
    # middle one, so it stays on both boundaries and in the middle stage
    net = make_network(
        6,
        [
            (1, 3, 0.887396), (2, 4, 0.794423), (4, 6, 0.643843),
            (3, 5, 0.249495), (1, 2, 0.507486), (3, 6, 0.783229),
            (2, 6, 0.383928),
        ],
    )
    d = decompose(net)
    assert d.stage_arcs == ((1, 5), (4,), (2, 3, 6, 7))
    assert tuple(s.target_nodes for s in d.stages) == ((2, 3), (2, 3), (6,))
    assert d.stages[1].node_ids == (2, 3, 5)
    check_stage_invariants(net, d)


def stages_by_remeasuring(net, d):
    """Stages from the merge loop that measures the whole chain after each merge.

    The reference for stage_sources_targets: every pass rebuilds the span
    table and every boundary, then merges the stages before the source's
    first stage or after the sink's last one, or else the two stages at
    the widest (leftmost) boundary if it holds more than two nodes.
    Returns (arc_ids, source_nodes, target_nodes, node_ids) per stage.
    """
    arcsets = [list(arcs) for arcs in d.stage_arcs]
    while True:
        first = [len(arcsets)] * (net.node_count + 1)
        last = [-1] * (net.node_count + 1)
        for s, arcs in enumerate(arcsets):
            for arc_id in arcs:
                a = net.arcs[arc_id - 1]
                for v in (a.u, a.v):
                    if last[v] < 0:
                        first[v] = s
                    last[v] = s
        end = len(arcsets) - 1
        boundaries = [
            tuple(v for v in range(1, net.node_count + 1) if first[v] <= s < last[v])
            for s in range(end)
        ]
        widths = [len(b) for b in boundaries]
        if end < 1:
            break
        if first[net.source] > 0:
            at = 0
        elif last[net.sink] < end:
            at = end - 1
        elif max(widths) > 2:
            at = widths.index(max(widths))
        else:
            break
        arcsets[at : at + 2] = [sorted(arcsets[at] + arcsets[at + 1])]
    node_ids = [
        tuple(v for v in range(1, net.node_count + 1) if first[v] <= s <= last[v])
        for s in range(end + 1)
    ]
    sources = [(net.source,)] + boundaries
    targets = boundaries + [(net.sink,)]
    return [
        (tuple(arcs), sources[s], targets[s], node_ids[s])
        for s, arcs in enumerate(arcsets)
    ]


def merge_test_networks():
    for k in (10, 50, 120):
        yield build(GeneratorSpec("grid", k, 0.9))
    rng = random.Random(71)
    for _ in range(60):
        yield random_network(rng, node_range=(10, 60), arc_range=(20, 150))


def test_stage_merge_matches_remeasuring_reference():
    merged = 0
    for net in merge_test_networks():
        adjusted = self_adjust(net, find_shortest_mcs(net))
        d = stage_sources_targets(net, adjusted)
        want = stages_by_remeasuring(net, adjusted)
        got = [(s.arc_ids, s.source_nodes, s.target_nodes, s.node_ids) for s in d.stages]
        assert got == want
        assert d.stage_arcs == tuple(arcs for arcs, *_ in want)
        assert [s.index for s in d.stages] == list(range(1, len(want) + 1))
        merged += len(d.stages) < len(adjusted.stage_arcs)
    assert merged >= 20  # the reference's merge loop ran on most of them


def test_stage_merge_matches_reference_on_scrambled_stages():
    # Stages cut from a shuffled arc list need not touch the source first
    # or the sink last, so the source and sink rules merge them too.
    rng = random.Random(73)
    end_merges = 0
    for net in merge_test_networks():
        ids = [a.id for a in net.arcs]
        rng.shuffle(ids)
        ends = sorted(rng.sample(range(1, len(ids)), rng.randint(1, min(12, len(ids) - 1))))
        pieces = [ids[a:b] for a, b in zip([0, *ends], [*ends, len(ids)])]
        raw = replace(
            find_shortest_mcs(net), stage_arcs=tuple(tuple(sorted(p)) for p in pieces)
        )
        d = stage_sources_targets(net, raw)
        want = stages_by_remeasuring(net, raw)
        got = [(s.arc_ids, s.source_nodes, s.target_nodes, s.node_ids) for s in d.stages]
        assert got == want
        touches = [{v for i in p for v in (net.arcs[i - 1].u, net.arcs[i - 1].v)} for p in pieces]
        end_merges += net.source not in touches[0] or net.sink not in touches[-1]
    assert end_merges >= 20


def test_stage_merge_measures_the_chain_once(monkeypatch):
    calls = []

    def counted(name):
        helper = getattr(decompose_module, name)

        def call(*args):
            calls.append(name)
            return helper(*args)

        monkeypatch.setattr(decompose_module, name, call)

    counted("_stage_spans")
    counted("_buckets")
    net = build(GeneratorSpec("grid", 200, 0.9))
    d = decompose(net)
    assert len(d.stages) < len(self_adjust(net, find_shortest_mcs(net)).stage_arcs)
    assert calls == ["_stage_spans", "_buckets"]


def test_cut_and_stage_records_are_immutable(example_uniform):
    d = decompose(example_uniform)
    with pytest.raises(AttributeError):
        d.cuts[0].side_size = 0
    with pytest.raises(AttributeError):
        d.stages[0].arc_ids = ()


def test_decompositions_of_one_network_are_equal_and_hash_alike():
    net = build(GeneratorSpec("ladder", 20, 0.9))
    one, two = decompose(net), decompose(net)
    assert one is not two and one == two
    assert hash(one) == hash(two)
    assert hash(one.cuts[3]) == hash(two.cuts[3])
    assert hash(one.stages[3]) == hash(two.stages[3])


def test_cut_source_side_agrees_with_side_size():
    net = build(GeneratorSpec("series", 1200, 0.9))
    cuts = find_shortest_mcs(net).cuts
    assert len(cuts) == 1200
    for cut in cuts:
        assert len(cut.source_side) == cut.side_size
        assert cut.source_side == frozenset(cut.joined[: cut.side_size])


def test_cut_repr_leaves_out_joined():
    cut = find_shortest_mcs(build(GeneratorSpec("series", 50, 0.9))).cuts[10]
    text = repr(cut)
    assert repr(cut.joined) not in text and "joined" not in text
    assert "path_arc=11" in text and "side_size=11" in text
