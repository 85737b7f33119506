import random

import pytest

from relengine.network import make_network

# 5-node, 7-arc worked example used throughout the tests: two triangles
# sharing the 3-4 edge, source 1, sink 5.
EXAMPLE_PAIRS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))
EXAMPLE_PROBS = (0.98, 0.80, 0.85, 0.95, 0.75, 0.90, 0.88)


def build_example(probs):
    return make_network(5, [(u, v, p) for (u, v), p in zip(EXAMPLE_PAIRS, probs)])


@pytest.fixture(scope="session")
def example_uniform():
    """The worked example with every arc at 0.9."""
    return build_example([0.9] * 7)


@pytest.fixture(scope="session")
def example_mixed():
    """The worked example with per-arc probabilities."""
    return build_example(EXAMPLE_PROBS)


@pytest.fixture(scope="session")
def path_into_example():
    """A 300-arc path from node 1 into the worked example on nodes 301-305.

    The example's seven arcs come first, so qbat's walk branches on arcs
    whose ends are numbered above 255, and its block labels need more
    than one byte each; then every prefix runs down the path in turn.
    """
    rng = random.Random(5)
    block = [(u + 300, v + 300, round(rng.uniform(0.6, 0.95), 9)) for u, v in EXAMPLE_PAIRS]
    path = [(i, i + 1, round(rng.uniform(1 - 1 / 300, 1 - 0.1 / 300), 9)) for i in range(1, 301)]
    return make_network(305, block + path)
