import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from relengine.bat import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    half_probability_tables,
    reliability_oracle,
)
from relengine.budget import Budget, BudgetExceeded
from relengine.generators import GeneratorSpec, build
from relengine.network import make_network

from vectors import bits_from_states, is_connected


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


def test_probability_tables_honour_the_budget():
    # two tables of 2^22 entries: the budget runs out long before they fill
    with pytest.raises(BudgetExceeded):
        half_probability_tables([0.5] * 44, Budget(1e-7))
