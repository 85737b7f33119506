import ast
import functools
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relengine import bat
from relengine.bat import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    half_probability_tables,
    reliability_oracle,
)
from relengine.budget import Budget, BudgetExceeded
from relengine.generators import FAMILIES, GeneratorSpec, build, random_network
from relengine.network import make_network

from vectors import bits_from_states, half_tables, is_connected


def test_bits_round_trip():
    states = (0, 1, 1, 0, 1)
    bits = bits_from_states(states)
    assert bits == 0b10110
    assert tuple((bits >> i) & 1 for i in range(5)) == states


def test_connectivity_on_example(example_uniform):
    assert is_connected(example_uniform, bits_from_states((0, 1, 0, 1, 1, 0, 1)))
    assert is_connected(example_uniform, bits_from_states((0, 1, 0, 0, 0, 1, 0)))
    assert not is_connected(example_uniform, bits_from_states((0, 0, 1, 1, 1, 1, 1)))
    assert not is_connected(example_uniform, 0)
    assert is_connected(example_uniform, (1 << 7) - 1)


def test_connectivity_is_monotone(example_uniform):
    m = example_uniform.arc_count
    rng = random.Random(7)
    for _ in range(200):
        x = rng.randrange(1 << m)
        y = x | rng.randrange(1 << m)
        if is_connected(example_uniform, x):
            assert is_connected(example_uniform, y)


def vector_probability(probs, bits):
    """Product of p_i over set coordinates and 1 - p_i over clear ones."""
    return math.prod(p if (bits >> i) & 1 else 1.0 - p for i, p in enumerate(probs))


def split_probability(probs, bits):
    low, high, shift = half_probability_tables(probs)
    return low[bits & ((1 << shift) - 1)] * high[bits >> shift]


def test_vector_probability_all_ones():
    assert split_probability([0.9] * 7, (1 << 7) - 1) == pytest.approx(
        0.9**7, abs=1e-15
    )


def test_vector_probability_mixed_states():
    bits = bits_from_states((0, 1, 0, 1, 1))
    assert split_probability([0.8] * 5, bits) == pytest.approx(
        0.8**3 * 0.2**2, abs=1e-15
    )


@pytest.mark.parametrize("width", [1, 4, 9, 16])
def test_probability_mass_sums_to_one(width):
    rng = random.Random(width)
    probs = [rng.random() for _ in range(width)]
    low, high, _ = half_probability_tables(probs)
    total = math.fsum(lo * hi for hi in high for lo in low)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=10,
    ),
    st.data(),
)
@settings(max_examples=60)
def test_half_tables_reconstruct_every_vector_probability(probs, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << len(probs)) - 1))
    assert split_probability(probs, bits) == pytest.approx(
        vector_probability(probs, bits), rel=1e-12, abs=1e-300
    )


def test_oracle_on_trivial_networks():
    assert reliability_oracle(make_network(2, [(1, 2, 0.7)])) == pytest.approx(0.7)
    series = make_network(3, [(1, 2, 0.9), (2, 3, 0.9)])
    assert reliability_oracle(series) == pytest.approx(0.81)
    assert reliability_oracle(make_network(1, [])) == 1.0


def test_oracle_on_example(example_uniform, example_mixed):
    assert reliability_oracle(example_uniform) == pytest.approx(
        0.9781803, abs=1e-12
    )
    assert reliability_oracle(example_mixed) == pytest.approx(
        0.98072811, abs=1e-12
    )


def test_oracle_respects_cap():
    assert DEFAULT_ENUMERATION_CAP == 30
    net = build(GeneratorSpec("series", 31, 0.9))
    with pytest.raises(EnumerationCapExceeded, match="31 arcs exceeds the cap") as err:
        reliability_oracle(net)
    assert err.value.arc_count == 31


def test_oracle_respects_budget():
    net = build(GeneratorSpec("ladder", 6, 0.5))  # 20 arcs
    with pytest.raises(BudgetExceeded):
        reliability_oracle(net, budget=Budget(1e-7))


def test_deterministic_arc_probability_pins_reliability():
    # An arc with p=1 in series with a p=0.5 arc leaves exactly 0.5.
    net = make_network(3, [(1, 2, 1.0), (2, 3, 0.5)])
    assert reliability_oracle(net) == pytest.approx(0.5, abs=0)
    # p=0 on the only bridge kills the network.
    net = make_network(3, [(1, 2, 0.0), (2, 3, 0.5)])
    assert reliability_oracle(net) == pytest.approx(0.0, abs=0)


def per_vector_oracle(net):
    """The oracle as one sweep over range(2^m), one connectivity test a vector."""
    low, high, shift = half_tables(net.probabilities())
    mask = (1 << shift) - 1
    total = 0.0
    for bits in range(1 << net.arc_count):
        if is_connected(net, bits):
            total += low[bits & mask] * high[bits >> shift]
    return total


@functools.cache
def swept_networks():
    """Seeded random networks of 1-16 arcs and small family members, each
    with its per-vector answer in float.hex."""
    rng = random.Random(18)
    nets = [random_network(rng, (2, 7), (1, 16)) for _ in range(300)]
    nets += [
        build(GeneratorSpec(family, k, 0.9, seed=k))
        for family in FAMILIES
        for k in (1, 2, 3)
        if family != "bridge-chain" or k < 3  # 21 arcs
    ]
    assert {net.arc_count for net in nets} == set(range(1, 17))
    return [(net, per_vector_oracle(net).hex()) for net in nets]


def test_oracle_is_bit_identical_to_per_vector_sweep():
    for net, want in swept_networks():
        assert reliability_oracle(net).hex() == want


@pytest.mark.parametrize("memo_bytes", [0, 300])
def test_oracle_with_bounded_memo_is_bit_identical(monkeypatch, memo_bytes):
    # 0: every high leaf builds its low half again; 300: the first keys
    # (8 bytes a key label or selected mass) are stored and later ones
    # rebuilt, side by side in one sweep
    sweeps = []
    leaves = bat._leaves
    monkeypatch.setattr(
        "relengine.bat._leaves", lambda *args: sweeps.append(1) or leaves(*args)
    )

    def low_sweeps():
        count = 0
        for net, want in swept_networks():
            if net.arc_count <= 12:
                sweeps.clear()
                assert reliability_oracle(net).hex() == want
                count += len(sweeps) - 1  # the first call builds the high half
        return count

    keys = low_sweeps()
    monkeypatch.setattr("relengine.bat._MEMO_BYTES", memo_bytes)
    bounded = low_sweeps()
    high_leaves = sum(
        1 << (net.arc_count - net.arc_count // 2)
        for net, _ in swept_networks()
        if net.arc_count <= 12
    )
    if memo_bytes == 0:
        assert bounded == high_leaves
    else:
        assert keys < bounded < high_leaves


def root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def first_positions(parent, nodes):
    """For each of `nodes`, the position of the first of them in its set."""
    first = {}
    return tuple(first.setdefault(root(parent, x), i) for i, x in enumerate(nodes))


class Stop(Exception):
    pass


def test_oracle_doubles_the_partitions_a_union_find_gives(monkeypatch):
    # Every high leaf's key, and the low half of the first key that joins
    # two interface nodes, against one union-find per leaf. The oracle is
    # stopped there, before its 2^30-vector sum.
    net = random_network(random.Random(25), (12, 16), (30, 30))
    assert net.arc_count == 30
    n, shift = net.node_count, 15
    arcs = [(a.u, a.v) for a in net.arcs]
    interface = sorted({1, n, *(x for arc in arcs[:shift] for x in arc)})
    at = {node: i for i, node in enumerate(interface)}
    calls = []
    leaves = bat._leaves

    def recording(labels, arc_u, arc_v):
        out = leaves(labels, arc_u, arc_v)
        calls.append((labels, out))
        if len(calls) > 1 and len(set(labels)) < len(labels):
            raise Stop
        return out

    monkeypatch.setattr("relengine.bat._leaves", recording)
    with pytest.raises(Stop):
        reliability_oracle(net)
    # the oracle has replaced the first call's leaves by their keys
    keys = calls[0][1]
    assert len(keys) == 1 << shift
    for hb, key in enumerate(keys):
        parent = list(range(n + 1))
        for k, (u, v) in enumerate(arcs[shift:]):
            if hb >> k & 1:
                parent[root(parent, u)] = root(parent, v)
        assert tuple(key) == first_positions(parent, interface)
    key, lows = calls[-1]
    assert key in keys
    assert len(lows) == 1 << shift
    for lb, labels in enumerate(lows):
        parent = list(key)  # a key is a forest over interface positions
        for k, (u, v) in enumerate(arcs[:shift]):
            if lb >> k & 1:
                parent[root(parent, at[u])] = root(parent, at[v])
        assert tuple(labels) == first_positions(parent, range(len(interface)))


def test_oracle_at_the_cap_is_the_product_of_a_series():
    # 30 arcs in series: two keys, and one connected vector among 2^30.
    # The 2^15 high leaves' labels, then a key's 2^15 low leaves' labels,
    # are held as lists of byte strings: about 6 MiB traced at the peak.
    net = build(GeneratorSpec("series", 30, 0.99))
    assert net.arc_count == DEFAULT_ENUMERATION_CAP
    tracemalloc.start()
    try:
        r = reliability_oracle(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(r - math.prod(net.probabilities())) <= 1e-10
    assert peak <= 32 * 2**20


def test_oracle_imports_only_budget_and_network():
    # the oracle is the independent reference: of relengine it may use
    # only the budget and the network, never another backend's code
    tree = ast.parse(Path(bat.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                used.add(node.module or "")
            elif node.module.split(".")[0] == "relengine":
                used.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "relengine":
                    used.add(alias.name.partition(".")[2])
    assert used == {"budget", "network"}


class CountingBudget:
    def __init__(self):
        self.calls = 0

    def check(self):
        self.calls += 1


def test_oracle_checks_budget_once_per_stride(monkeypatch):
    net = random_network(random.Random(2), (6, 9), (13, 13))
    assert net.arc_count == 13  # shift 6: 128 high leaves of 64 vectors
    budget = CountingBudget()
    reliability_oracle(net, budget)
    assert budget.calls == 2  # at vectors 0 and 4096
    # a stride below 2^shift puts a check at every high leaf, as
    # budget.STRIDE does from 26 arcs on
    monkeypatch.setattr("relengine.bat.STRIDE", 16)
    budget = CountingBudget()
    reliability_oracle(net, budget)
    assert budget.calls == 128
