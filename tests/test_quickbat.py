import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from relengine.bat import reliability_oracle
from relengine.budget import Budget, BudgetExceeded
from relengine.generators import GeneratorSpec, build, random_network
from relengine.network import make_network
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
    ]:
        stats = QuickBatStats()
        reliability_quick_bat(build(GeneratorSpec(family, k, 0.9)), stats=stats)
        assert tuple(stats.as_dict().values()) == counts, (family, k)
