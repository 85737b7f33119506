import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import relengine
from relengine.network import (
    Arc,
    NetworkInvariantError,
    NetworkSyntaxError,
    format_network,
    make_network,
    network_digest,
    parse_network,
)


def test_make_network_basic():
    net = make_network(3, [(1, 2, 0.5), (2, 3, 0.25)])
    assert net.node_count == 3
    assert net.arc_count == 2
    assert net.source == 1
    assert net.sink == 3
    assert net.arcs[0] == Arc(1, 1, 2, 0.5)
    assert net.arcs[1] == Arc(2, 2, 3, 0.25)
    assert net.probabilities() == (0.5, 0.25)


def test_arc_ids_are_one_based_and_ordered():
    net = make_network(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.3)])
    assert [a.id for a in net.arcs] == [1, 2, 3]


def test_single_node_network_has_no_arcs():
    net = make_network(1, [])
    assert net.source == net.sink == 1
    assert net.arc_count == 0


@pytest.mark.parametrize(
    "node_count, triples, kind",
    [
        (0, [], "node_count"),
        (3, [(1, 1, 0.5), (1, 3, 0.5)], "loop"),
        (3, [(1, 2, 0.5), (2, 1, 0.5), (2, 3, 0.5)], "parallel_arc"),
        (3, [(1, 2, 0.5), (2, 4, 0.5)], "node_range"),
        (3, [(0, 2, 0.5), (2, 3, 0.5)], "node_range"),
        (3, [(1, 2, 1.5), (2, 3, 0.5)], "probability"),
        (3, [(1, 2, -0.1), (2, 3, 0.5)], "probability"),
        (3, [(1, 2, math.nan), (2, 3, 0.5)], "probability"),
        (4, [(1, 2, 0.5), (3, 4, 0.5)], "disconnected"),
        (2, [], "disconnected"),
        (10**20, [(1, 2, 0.5)], "disconnected"),
        (10**20, [(1, 2, 1.5)], "probability"),
    ],
)
def test_make_network_rejects(node_count, triples, kind):
    with pytest.raises(NetworkInvariantError) as err:
        make_network(node_count, triples)
    assert err.value.kind == kind


def test_probability_endpoints_are_allowed():
    net = make_network(2, [(1, 2, 0.0)])
    assert net.arcs[0].p == 0.0
    net = make_network(2, [(1, 2, 1.0)])
    assert net.arcs[0].p == 1.0


def test_parse_round_trip():
    net = make_network(3, [(1, 2, 0.125), (2, 3, 0.9), (1, 3, 0.33)])
    again = parse_network(format_network(net))
    assert again == net
    assert network_digest(again) == network_digest(net)


def test_parse_ignores_comments_and_blank_lines():
    text = """
# a comment
nodes 3

arc 1 2 0.5
# another
arc 2 3 0.5
"""
    net = parse_network(text)
    assert net.node_count == 3
    assert net.arc_count == 2


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("arc 1 2 0.5\n", 1),
        ("nodes 3\nnodes 3\narc 1 2 0.5\narc 2 3 0.5\n", 2),
        ("nodes 3\narc 1 2\narc 2 3 0.5\n", 2),
        ("nodes 3\narc 1 2 0.5 9\n", 2),
        ("nodes 3\nedge 1 2 0.5\n", 2),
        ("nodes three\n", 1),
        ("nodes 5 6\n", 1),
        ("nodes 3\narc one 2 0.5\n", 2),
        ("nodes 3\narc 1 2 half\n", 2),
        ("", 1),
    ],
)
def test_parse_syntax_errors_carry_line_numbers(text, line_no):
    with pytest.raises(NetworkSyntaxError) as err:
        parse_network(text)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}:")


def test_parse_applies_network_invariants():
    with pytest.raises(NetworkInvariantError):
        parse_network("nodes 3\narc 1 2 0.5\narc 1 2 0.6\narc 2 3 0.5\n")


def test_importing_relengine_leaves_hashlib_unloaded():
    # hashlib costs about 3.6 MiB of RSS; only network_digest needs it, so
    # it is imported there. The child imports the package this test did.
    paths = [str(Path(relengine.__file__).resolve().parents[1])]
    paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    script = (
        "import relengine, sys\n"
        "assert 'hashlib' not in sys.modules\n"
        "relengine.network_digest(relengine.make_network(2, [(1, 2, 0.5)]))\n"
        "assert 'hashlib' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_digest_is_stable_and_sensitive():
    net = make_network(3, [(1, 2, 0.5), (2, 3, 0.5)])
    other = make_network(3, [(1, 2, 0.5), (2, 3, 0.51)])
    assert network_digest(net) == network_digest(net)
    assert network_digest(net) != network_digest(other)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_format_preserves_float_probabilities_exactly(probs):
    triples = [(i + 1, i + 2, p) for i, p in enumerate(probs)]
    net = make_network(len(probs) + 1, triples)
    assert parse_network(format_network(net)) == net
