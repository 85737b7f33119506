import ast
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relengine
from relengine.bat import EnumerationCapExceeded, reliability_oracle
from relengine.budget import STRIDE, Budget, BudgetExceeded
from relengine.generators import FAMILIES, GeneratorSpec, build, random_network
from relengine.network import Arc, Network, make_network
from relengine.quickbat import (
    QuickBatStats,
    first_connected,
    last_disconnected,
    reliability_quick_bat,
    tail_mass_above,
)

from vectors import bits_from_states, is_connected


def test_first_connected_on_example(example_uniform):
    assert first_connected(example_uniform) == bits_from_states(
        (0, 1, 0, 0, 0, 1, 0)
    )
    assert first_connected(example_uniform) == 34


def test_first_connected_trivial_networks():
    assert first_connected(make_network(2, [(1, 2, 0.5)])) == 0b1
    series = make_network(3, [(1, 2, 0.5), (2, 3, 0.5)])
    assert first_connected(series) == 0b11


def test_last_disconnected_on_example(example_uniform):
    assert last_disconnected(example_uniform) == bits_from_states(
        (0, 0, 1, 1, 1, 1, 1)
    )
    # exactly 3 vectors follow it in a 7-bit space
    assert (1 << 7) - 1 - last_disconnected(example_uniform) == 3


def test_last_disconnected_trivial_networks():
    assert last_disconnected(make_network(2, [(1, 2, 0.5)])) == 0b0
    series = make_network(3, [(1, 2, 0.5), (2, 3, 0.5)])
    assert last_disconnected(series) == 0b10


def test_last_disconnected_on_long_path_does_not_recurse():
    net = build(GeneratorSpec("series", 1500, 0.9))
    assert last_disconnected(net) == (1 << 1500) - 2


def test_first_connected_on_long_path_stays_small():
    # The spanning tree and its path take O(n + m) memory, a few MiB here;
    # path weights of 2^i would hold about m^2/2 bits, some 57 MiB.
    net = build(GeneratorSpec("series", 20000, 0.9))
    tracemalloc.start()
    try:
        assert first_connected(net) == (1 << 20000) - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_walk_on_long_path_does_not_recurse():
    net = build(GeneratorSpec("series", 1500, 0.9))
    expected = math.prod(net.probabilities())
    assert reliability_quick_bat(net) == pytest.approx(expected, rel=1e-12, abs=0)


def test_walk_on_long_path_stays_small():
    # the walk keeps O(m) words of state: per-arc lists of 2^k and
    # 2^m - 2^k would hold about 1.5 m^2 bits, a traced 80 MiB here
    net = build(GeneratorSpec("series", 20000, 0.9))
    tracemalloc.start()
    try:
        reliability_quick_bat(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def landmark_sweep(net):
    lo = first_connected(net)
    hi = last_disconnected(net)
    assert is_connected(net, lo)
    assert not is_connected(net, hi)
    for bits in range(lo):
        assert not is_connected(net, bits)
    for bits in range(hi + 1, 1 << net.arc_count):
        assert is_connected(net, bits)


def test_landmarks_are_exact_on_example(example_uniform):
    landmark_sweep(example_uniform)


def test_landmarks_are_exact_on_random_networks():
    rng = random.Random(19)
    for _ in range(25):
        landmark_sweep(random_network(rng, node_range=(4, 7), arc_range=(5, 12)))


def test_landmarks_are_exact_on_fourteen_arcs():
    landmark_sweep(build(GeneratorSpec("ladder", 4, 0.5)))  # m = 14


def test_tail_mass_on_example(example_uniform):
    hi = last_disconnected(example_uniform)
    expected = 2 * (0.9**6) * 0.1 + 0.9**7
    assert tail_mass_above(example_uniform.probabilities(), hi) == pytest.approx(
        expected, abs=1e-15
    )


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=10,
    ),
    st.data(),
)
@settings(max_examples=60)
def test_tail_mass_matches_enumeration(probs, data):
    m = len(probs)
    bits = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    expected = math.fsum(
        math.prod(p if (x >> i) & 1 else 1.0 - p for i, p in enumerate(probs))
        for x in range(bits + 1, 1 << m)
    )
    assert tail_mass_above(probs, bits) == pytest.approx(
        expected, rel=1e-12, abs=1e-12
    )


def test_quick_bat_trivial_networks():
    assert reliability_quick_bat(make_network(2, [(1, 2, 0.7)])) == pytest.approx(0.7)
    assert reliability_quick_bat(make_network(1, [])) == 1.0
    series = make_network(3, [(1, 2, 0.9), (2, 3, 0.9)])
    assert reliability_quick_bat(series) == pytest.approx(0.81)


def test_quick_bat_on_example(example_uniform, example_mixed):
    assert reliability_quick_bat(example_uniform) == pytest.approx(
        0.9781803, abs=1e-12
    )
    assert reliability_quick_bat(example_mixed) == pytest.approx(
        0.98072811, abs=1e-12
    )


def test_quick_bat_equals_oracle_on_random_networks():
    rng = random.Random(23)
    for _ in range(200):
        net = random_network(rng, node_range=(4, 7), arc_range=(5, 12))
        assert abs(reliability_quick_bat(net) - reliability_oracle(net)) <= 1e-10


def cover_multiplicity(net, bits):
    """How many accepted super vectors (or the tail) cover a full vector.

    Degenerate arc probabilities make every probability product 0 or 1,
    so the returned reliability counts covering terms exactly.
    """
    probe = make_network(
        net.node_count,
        [(a.u, a.v, float((bits >> (a.id - 1)) & 1)) for a in net.arcs],
    )
    return reliability_quick_bat(probe)


def test_accepted_super_vectors_partition_connected_space(example_uniform):
    for bits in range(1 << 7):
        want = 1.0 if is_connected(example_uniform, bits) else 0.0
        assert cover_multiplicity(example_uniform, bits) == want


def test_partition_holds_on_random_networks():
    rng = random.Random(29)
    for _ in range(6):
        net = random_network(rng, node_range=(4, 6), arc_range=(5, 10))
        for bits in range(1 << net.arc_count):
            want = 1.0 if is_connected(net, bits) else 0.0
            assert cover_multiplicity(net, bits) == want


def test_quick_bat_never_checks_more_than_the_oracle():
    rng = random.Random(31)
    for _ in range(60):
        net = random_network(rng)
        stats = QuickBatStats()
        reliability_quick_bat(net, stats=stats)
        # the oracle performs one connectivity check per vector: 2^m
        assert stats.connectivity_checks < (1 << net.arc_count)
        assert stats.super_vectors >= 1


def test_quick_bat_respects_budget():
    net = build(GeneratorSpec("grid", 5, 0.5))
    with pytest.raises(BudgetExceeded):
        reliability_quick_bat(net, budget=Budget(1e-7))


def test_stats_counts_on_example(example_uniform):
    stats = QuickBatStats()
    reliability_quick_bat(example_uniform, stats=stats)
    assert stats.super_vectors == 38
    assert stats.connectivity_checks == 106
    assert stats.multiplications == 227
    assert stats.summations == 40
    # super_vectors, connectivity_checks, multiplications, summations
    for family, k, counts in [
        ("series", 12, (0, 12, 37, 1)),
        ("ladder", 4, (1592, 15671, 31364, 1594)),
        ("bridge-chain", 2, (2242, 15144, 30310, 2244)),
        ("grid", 3, (648, 3603, 7240, 650)),
        ("grid", 4, (15156, 117280, 234599, 15158)),
    ]:
        stats = QuickBatStats()
        reliability_quick_bat(build(GeneratorSpec(family, k, 0.9)), stats=stats)
        assert tuple(stats.as_dict().values()) == counts, (family, k)


@pytest.mark.parametrize(
    "family, k, p, want",
    [
        ("grid", 4, 0.9, "0x1.f1f7be2262508p-1"),
        ("ladder", 4, 0.9, "0x1.e381e87aa1825p-1"),
        ("bridge-chain", 2, 0.9, "0x1.e9e67ff6481b4p-1"),
        ("series", 600, 0.999, "0x1.18e83f59674b2p-1"),
    ],
)
def test_quick_bat_bits_are_pinned(family, k, p, want):
    assert reliability_quick_bat(build(GeneratorSpec(family, k, p))).hex() == want


def per_frame_quick_bat(net):
    """qbat's walk with one stack frame per prefix, 0-branches included.

    Returns (reliability, stats, frames visited). It keeps its own
    union-find with an undo trail, so it shares only the landmarks and
    the tail with the backend.
    """
    n, m = net.node_count, net.arc_count
    if n == 1:
        return 1.0, QuickBatStats(), 0
    lo, hi = first_connected(net), last_disconnected(net)
    probs = net.probabilities()
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    trail = []

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def merge(x, y):
        rx, ry = root(x), root(y)
        if rx != ry:
            if size[rx] > size[ry]:
                rx, ry = ry, rx
            parent[rx] = ry
            size[ry] += size[rx]
            trail.append(rx)

    def undo(mark):
        while len(trail) > mark:
            rx = trail.pop()
            size[parent[rx]] -= size[rx]
            parent[rx] = rx

    total = 0.0
    visited = accepted = checks = 0
    # (k, value, prob, connected, trail mark); connected is None until the
    # 1-branch of a disconnected prefix merges arc k-1 on popping
    stack = [(0, 0, 1.0, False, 0)]
    while stack:
        k, value, prob, connected, mark = stack.pop()
        undo(mark)
        if connected is None:
            a = net.arcs[k - 1]
            merge(a.u, a.v)
            checks += 1
            connected = root(1) == root(n)
        visited += 1
        top = value + (1 << m) - (1 << k)
        if value > hi or top < lo:
            continue
        if connected and top <= hi:
            total += prob
            accepted += 1
            continue
        if k == m:
            continue
        mark = len(trail)
        stack.append(
            (k + 1, value + (1 << k), prob * probs[k], True if connected else None, mark)
        )
        stack.append((k + 1, value, prob * (1.0 - probs[k]), connected, mark))
    zeros = m - hi.bit_count()
    stats = QuickBatStats(accepted, checks, visited - 1 + m + zeros, accepted + zeros)
    return total + tail_mass_above(probs, hi), stats, visited


def referenced_networks():
    rng = random.Random(19)
    nets = [random_network(rng, (2, 7), (1, 16)) for _ in range(300)]
    nets += [
        build(GeneratorSpec(family, k, 0.9, seed=k))
        for family in FAMILIES
        for k in (1, 2, 3)
        if family != "bridge-chain" or k < 3  # 21 arcs, 3 s per-frame
    ]
    return nets


def test_walk_is_bit_identical_to_per_frame_walk():
    for net in referenced_networks():
        want, want_stats, _ = per_frame_quick_bat(net)
        stats = QuickBatStats()
        assert reliability_quick_bat(net, stats=stats).hex() == want.hex()
        assert stats.as_dict() == want_stats.as_dict()


def test_walk_is_bit_identical_to_per_frame_walk_on_two_byte_labels(path_into_example):
    net = path_into_example
    assert net.node_count > 255 and min(a.u for a in net.arcs[:7]) > 255
    want, want_stats, visited = per_frame_quick_bat(net)
    stats = QuickBatStats()
    assert reliability_quick_bat(net, stats=stats).hex() == want.hex()
    assert stats.as_dict() == want_stats.as_dict()
    # the walk branches on the block's arcs: far more than one frame per arc
    assert visited > 10 * net.arc_count


def test_quick_bat_refuses_more_nodes_than_label_characters():
    # unvalidated, so no union-find is sized by the node count first
    net = Network(sys.maxunicode + 1, (Arc(1, 1, 2, 0.5),))
    with pytest.raises(EnumerationCapExceeded, match=f"at most {sys.maxunicode} nodes"):
        reliability_quick_bat(net)


def test_only_unionfind_walks_to_a_root():
    # one union-find: no other module keeps a forest of its own and walks
    # it with `while parent[x] != x`
    walkers = set()
    for path in Path(relengine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.While)
                and isinstance(node.test, ast.Compare)
                and isinstance(node.test.ops[0], ast.NotEq)
                and isinstance(node.test.left, ast.Subscript)
                and ast.unparse(node.test.left.slice) == ast.unparse(node.test.comparators[0])
            ):
                walkers.add(path.name)
    assert walkers == {"unionfind.py"}


class CountingBudget:
    def __init__(self):
        self.calls = 0

    def check(self):
        self.calls += 1


@pytest.mark.parametrize(
    "family, k, p, calls",
    [("grid", 4, 0.9, 57), ("ladder", 4, 0.9, 7), ("series", 600, 0.999, 0)],
)
def test_budget_is_polled_once_per_stride_of_frames(family, k, p, calls):
    # frames walked in place on a 0-branch count as much as popped ones
    net = build(GeneratorSpec(family, k, p))
    visited = per_frame_quick_bat(net)[2]
    budget = CountingBudget()
    reliability_quick_bat(net, budget=budget)
    assert budget.calls == visited // STRIDE == calls
