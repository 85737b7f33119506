import random

import pytest

from relengine.generators import (
    FAMILIES,
    GeneratorSpec,
    build,
    random_network,
)
from relengine.network import network_digest

from conftest import EXAMPLE_PAIRS


def test_series_shape():
    net = build(GeneratorSpec("series", 4, 0.5))
    assert net.node_count == 5
    assert [(a.u, a.v) for a in net.arcs] == [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert all(a.p == 0.5 for a in net.arcs)


def test_ladder_base_case_is_the_classic_bridge():
    net = build(GeneratorSpec("ladder", 1, 0.9))
    assert net.node_count == 4
    assert [(a.u, a.v) for a in net.arcs] == [
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (3, 4),
    ]


def test_ladder_growth():
    for k in range(1, 6):
        net = build(GeneratorSpec("ladder", k, 0.5))
        assert net.node_count == 2 * k + 2
        assert net.arc_count == 3 * k + 2


def test_grid_shape():
    for k in range(1, 6):
        net = build(GeneratorSpec("grid", k, 0.5))
        assert net.node_count == 3 * k
        assert net.arc_count == 5 * k - 3


def test_bridge_chain_base_case_matches_example(example_uniform):
    net = build(GeneratorSpec("bridge-chain", 1, 0.9))
    assert net == example_uniform
    assert [(a.u, a.v) for a in net.arcs] == list(EXAMPLE_PAIRS)


def test_bridge_chain_growth():
    for k in range(1, 7):
        net = build(GeneratorSpec("bridge-chain", k, 0.9))
        assert net.node_count == 4 * k + 1
        assert net.arc_count == 7 * k


def test_build_is_deterministic():
    a = build(GeneratorSpec("grid", 3, 0.7, seed=5))
    b = build(GeneratorSpec("grid", 3, 0.7, seed=5))
    assert a == b
    assert network_digest(a) == network_digest(b)
    c = build(GeneratorSpec("grid", 3, 0.7, seed=6))
    assert a != c


def test_seedless_build_uses_the_uniform_probability():
    net = build(GeneratorSpec("ladder", 2, 0.35))
    assert all(a.p == 0.35 for a in net.arcs)


def test_seeded_build_randomizes_probabilities():
    net = build(GeneratorSpec("ladder", 2, 0.35, seed=1))
    assert len({a.p for a in net.arcs}) > 1
    assert all(0.05 <= a.p <= 0.95 for a in net.arcs)


def test_build_validation():
    with pytest.raises(ValueError, match="unknown family"):
        build(GeneratorSpec("torus", 2, 0.5))
    with pytest.raises(ValueError, match="at least 1"):
        build(GeneratorSpec("series", 0, 0.5))
    assert set(FAMILIES) == {"series", "ladder", "grid", "bridge-chain"}


def test_random_network_respects_ranges():
    rng = random.Random(99)
    for _ in range(100):
        net = random_network(rng, node_range=(4, 8), arc_range=(5, 14))
        assert 4 <= net.node_count <= 8
        assert 5 <= net.arc_count <= 14
        assert all(0.05 <= a.p <= 0.95 for a in net.arcs)


class NoDraws(random.Random):
    def random(self):
        raise AssertionError("drew from rng")

    def getrandbits(self, k):
        raise AssertionError("drew from rng")


def test_random_network_refuses_ranges_no_network_fits():
    # 4..8 nodes need at least 3 arcs; the refusal draws nothing from rng
    with pytest.raises(ValueError, match="admits an arc count"):
        random_network(NoDraws(), node_range=(4, 8), arc_range=(1, 2))


def test_random_network_is_reproducible_from_the_seed():
    first = [network_digest(random_network(random.Random(5))) for _ in range(5)]
    second = [network_digest(random_network(random.Random(5))) for _ in range(5)]
    assert first == second


def test_random_network_varies_between_draws():
    rng = random.Random(101)
    digests = {network_digest(random_network(rng)) for _ in range(25)}
    assert len(digests) > 20
