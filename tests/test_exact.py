"""The dyadic reference of tests/exact.py, and the backends held to it.

The reference is checked exactly, as fractions, against closed forms
written out here from those of perfbench/reference.py. Then qb2 and qbat
are held to it to 1e-10 on networks far above the 30-arc enumeration cap,
where the oracle cannot reach, qb2 on stages of 20-30 arcs too, and the
oracle is held to it just below that cap.
"""

import random
from fractions import Fraction
from itertools import product

import exact
import pytest

from relengine.bat import reliability_oracle
from relengine.decompose import decompose
from relengine.generators import FAMILIES, GeneratorSpec, build, random_network
from relengine.network import make_network
from relengine.quickbat import reliability_quick_bat
from relengine.stm import reliability_qb2

# the double-bridge block of the bridge-chain family, local nodes 1..5
BRIDGE_BLOCK = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))


def exact_value(node_count, triples) -> Fraction:
    r, q, d = exact.reliability(node_count, triples)
    assert r + q == 1 << d
    return Fraction(r, 1 << d)


def series_form(probs) -> Fraction:
    value = Fraction(1)
    for p in probs:
        value *= Fraction(p)
    return value


def bridge_block_form(probs) -> Fraction:
    """The block's reliability: every one of its 2^7 states, summed."""
    total = Fraction(0)
    for states in product((0, 1), repeat=len(BRIDGE_BLOCK)):
        reach = {1}
        for _ in BRIDGE_BLOCK:  # a pass per arc is enough to settle
            for (u, v), up in zip(BRIDGE_BLOCK, states):
                if up and (u in reach or v in reach):
                    reach |= {u, v}
        if 5 in reach:
            weight = Fraction(1)
            for p, up in zip(probs, states):
                weight *= Fraction(p) if up else 1 - Fraction(p)
            total += weight
    return total


def bridge_chain_form(probs) -> Fraction:
    """Blocks glued sink to source share one cut node: a product of blocks."""
    value = Fraction(1)
    for start in range(0, len(probs), len(BRIDGE_BLOCK)):
        value *= bridge_block_form(probs[start : start + len(BRIDGE_BLOCK)])
    return value


def ladder_form(k, probs) -> Fraction:
    """Two rails with k rungs, by which rail ends the source reaches."""
    it = iter(map(Fraction, probs))
    pa, pb = next(it), next(it)
    both, only_a, only_b = pa * pb, pa * (1 - pb), (1 - pa) * pb
    for level in range(1, k + 1):
        rung = next(it)
        both += (only_a + only_b) * rung
        only_a *= 1 - rung
        only_b *= 1 - rung
        ra, rb = next(it), next(it)  # rails onward, or the arcs into the sink
        if level == k:
            return both * (1 - (1 - ra) * (1 - rb)) + only_a * ra + only_b * rb
        both, only_a, only_b = (
            both * ra * rb,
            both * ra * (1 - rb) + only_a * ra,
            both * (1 - ra) * rb + only_b * rb,
        )
    raise AssertionError("unreachable")


def family_network(family, k, seed, low, high):
    """A family topology with seeded per-arc p, uniform in [low, high)."""
    shape = build(GeneratorSpec(family, k, 0.5))
    rng = random.Random(seed)
    return make_network(
        shape.node_count,
        [(a.u, a.v, round(rng.uniform(low, high), 9)) for a in shape.arcs],
    )


def triples(net):
    return [(a.u, a.v, a.p) for a in net.arcs]


def test_bfs_arc_order_takes_each_node_arcs_by_id():
    # node 1's arcs by id meet node 3 before node 2, so node 3's arc to 4
    # comes before node 2's
    pairs = [(2, 4), (1, 3), (3, 4), (1, 2)]
    assert exact.bfs_arc_order(4, pairs) == [1, 3, 2, 0]


@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_series_equals_the_product(k):
    net = family_network("series", k, k, 0.05, 0.95)
    assert exact_value(net.node_count, triples(net)) == series_form(a.p for a in net.arcs)


@pytest.mark.parametrize("k", range(1, 9))
def test_ladder_equals_the_two_rail_transfer(k):
    net = family_network("ladder", k, k, 0.05, 0.95)
    assert exact_value(net.node_count, triples(net)) == ladder_form(k, [a.p for a in net.arcs])


@pytest.mark.parametrize("k", [1, 2, 4])
def test_bridge_chain_equals_the_block_product(k):
    net = family_network("bridge-chain", k, k, 0.05, 0.95)
    want = bridge_chain_form([a.p for a in net.arcs])
    assert exact_value(net.node_count, triples(net)) == want


def test_dyadic_p_gives_the_exact_power_of_two():
    # series-1200 at p = 0.5 is 2^-1200, far below the float range
    net = build(GeneratorSpec("series", 1200, 0.5))
    assert exact.reliability(net.node_count, triples(net)) == (1, (1 << 1200) - 1, 1200)


def test_small_networks_match_a_state_by_state_sum():
    nets = [build(GeneratorSpec(family, 1, 0.7, seed=1)) for family in FAMILIES]
    rng = random.Random(5)
    nets += [random_network(rng, (2, 7), (1, 9)) for _ in range(30)]
    for net in nets:
        total = Fraction(0)
        for states in product((0, 1), repeat=net.arc_count):
            reach = {1}
            for _ in net.arcs:
                for a, up in zip(net.arcs, states):
                    if up and (a.u in reach or a.v in reach):
                        reach |= {a.u, a.v}
            if net.node_count in reach:
                weight = Fraction(1)
                for a, up in zip(net.arcs, states):
                    weight *= Fraction(a.p) if up else 1 - Fraction(a.p)
                total += weight
        assert exact_value(net.node_count, triples(net)) == total


# (family, k, per-arc p range): each keeps R well away from 0 and 1, so an
# answer of 0.0 or 1.0 cannot pass the absolute 1e-10
LONG_CHAINS = [
    ("series", 1200, (1 - 1 / 1200, 1 - 0.1 / 1200)),
    ("ladder", 200, (0.9, 0.99)),
    ("bridge-chain", 128, (0.9, 0.995)),
]


@pytest.mark.parametrize("family, k, bounds", LONG_CHAINS)
def test_qb2_matches_the_exact_value_on_long_chains(family, k, bounds):
    net = family_network(family, k, 1, *bounds)
    want = exact_value(net.node_count, triples(net))
    assert 0.05 < want < 0.95
    assert abs(reliability_qb2(net)[0] - want) <= 1e-10


def test_qbat_matches_the_exact_value_on_series_600():
    net = family_network("series", 600, 2, 1 - 1 / 600, 1 - 0.1 / 600)
    want = exact_value(net.node_count, triples(net))
    assert 0.05 < want < 0.95
    assert abs(reliability_quick_bat(net) - want) <= 1e-10


def test_qbat_matches_the_exact_value_on_two_byte_labels(path_into_example):
    net = path_into_example
    want = exact_value(net.node_count, triples(net))
    assert 0.05 < want < 0.95
    assert abs(reliability_quick_bat(net) - want) <= 1e-10


def path_with_chords(rng, nodes=(28, 50), chords=(3, 8)):
    """A seeded random path of 28-50 nodes with 3-8 chords of 2-5 hops."""
    n = rng.randint(*nodes)
    pairs = [(i, i + 1) for i in range(1, n)]
    chords = rng.randint(*chords)
    while len(pairs) < n - 1 + chords:
        u = rng.randint(1, n - 2)
        v = rng.randint(u + 2, min(n, u + 5))
        if (u, v) not in pairs:
            pairs.append((u, v))
    rng.shuffle(pairs)
    return make_network(n, [(u, v, round(rng.uniform(0.8, 0.999), 6)) for u, v in pairs])


def narrow_random_networks(count):
    """The first seeded random networks of 36-40 arcs that qb2 answers fast.

    A random draw of this size often has one stage of 20-38 arcs, which
    qb2 refuses above 30; these keep every stage at 16 arcs or fewer.
    """
    rng = random.Random(3)
    while count:
        net = random_network(rng, (36, 38), (36, 40))
        if max(len(stage.arc_ids) for stage in decompose(net).stages) <= 16:
            count -= 1
            yield net


def test_qb2_matches_the_exact_value_on_random_networks_above_the_cap():
    rng = random.Random(23)
    nets = [path_with_chords(rng) for _ in range(4)]
    nets += narrow_random_networks(3)
    for net in nets:
        assert 31 <= net.arc_count <= 60
        want = exact_value(net.node_count, triples(net))
        assert abs(reliability_qb2(net)[0] - want) <= 1e-10


@pytest.mark.parametrize("k", [5, 6, 7])
def test_qb2_matches_the_exact_value_on_wide_grid_stages(k):
    # one stage of 5k - 5 arcs (20, 25 and 30), tabulated by the partition DP
    net = family_network("grid", k, 1, 0.6, 0.95)
    assert max(len(stage.arc_ids) for stage in decompose(net).stages) == 5 * k - 5
    want = exact_value(net.node_count, triples(net))
    assert 0.05 < want < 0.95
    assert abs(reliability_qb2(net)[0] - want) <= 1e-10


def test_qb2_matches_the_exact_value_on_random_wide_stages():
    # the first eight seeded random networks whose widest stage has 14-30
    # arcs (20-28 at this seed), plus one of 29 arcs with a 28-arc stage
    rng = random.Random(37)
    nets = []
    while len(nets) < 8:
        net = random_network(rng, (8, 20), (14, 30))
        if 14 <= max(len(stage.arc_ids) for stage in decompose(net).stages) <= 30:
            nets.append(net)
    nets.append(random_network(random.Random(0), (20, 28), (28, 30)))
    for net in nets:
        want = exact_value(net.node_count, triples(net))
        assert abs(reliability_qb2(net)[0] - want) <= 1e-10


def test_qbat_and_qb2_match_the_exact_value_on_random_networks():
    # qbat finishes on no random network above 30 arcs that was tried (a
    # 31-arc cycle already takes over a second), so it is held to the
    # reference below the cap, beside qb2
    rng = random.Random(29)
    for _ in range(4):
        net = random_network(rng, (8, 12), (14, 18))
        want = exact_value(net.node_count, triples(net))
        assert abs(reliability_quick_bat(net) - want) <= 1e-10
        assert abs(reliability_qb2(net)[0] - want) <= 1e-10


def breadth_first(net):
    """The network with its arcs in the reference's breadth-first order."""
    arcs = triples(net)
    order = exact.bfs_arc_order(net.node_count, [(u, v) for u, v, _ in arcs])
    return make_network(net.node_count, [arcs[i] for i in order])


# (family, k, per-arc p range) just below the oracle's cap
NEAR_THE_CAP = [("ladder", 8, (0.8, 0.95)), ("grid", 6, (0.6, 0.95))]


@pytest.mark.parametrize("family, k, bounds", NEAR_THE_CAP)
def test_oracle_matches_the_exact_value_near_its_cap(family, k, bounds):
    net = family_network(family, k, 1, *bounds)
    assert 26 <= net.arc_count <= 30
    want = exact_value(net.node_count, triples(net))
    assert 0.05 < want < 0.95
    assert abs(reliability_oracle(net) - want) <= 1e-10


def test_oracle_matches_the_exact_value_on_random_networks_near_its_cap():
    # In breadth-first order the low half's arcs lie near the source, so
    # few high leaves split the interface apart differently: these two
    # key 2 and 4 partitions. In their drawn order they key 512 and 2,048,
    # each with its own sweep of 2^14 low leaves, and take 40 to 160
    # times as long.
    rng = random.Random(31)
    for _ in range(2):
        net = breadth_first(path_with_chords(rng, (24, 25), (5, 6)))
        assert 28 <= net.arc_count <= 30
        want = exact_value(net.node_count, triples(net))
        assert 0.05 < want < 0.95
        assert abs(reliability_oracle(net) - want) <= 1e-10
