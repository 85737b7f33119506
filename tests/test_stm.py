import ast
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relengine.bat import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    reliability_oracle,
)
from relengine.budget import BudgetExceeded
from relengine.decompose import decompose
from relengine.generators import GeneratorSpec, build, random_network
from relengine.network import make_network
from relengine.quickbat import reliability_quick_bat
from relengine import stm
from relengine.stm import (
    Counters,
    SourceTargetMatrix,
    WeightedStmSet,
    convolve_sets,
    reliability_qb2,
    tabulate_stage,
)
import exact
import vectors
from conftest import build_example
from vectors import bits_from_states, half_tables, stm_from_vector


def M(rows):
    return SourceTargetMatrix(
        len(rows), len(rows[0]), bits_from_states(sum(rows, []))
    )


def stm_convolve(a, b):
    """Boolean max-min product from its definition:
    out(alpha, beta) = OR over h of a(alpha, h) AND b(h, beta)."""
    assert a.cols == b.rows
    bits = 0
    for alpha in range(a.rows):
        for beta in range(b.cols):
            if any(a.entry(alpha, h) and b.entry(h, beta) for h in range(a.cols)):
                bits |= 1 << (alpha * b.cols + beta)
    return SourceTargetMatrix(a.rows, b.cols, bits)


def convolve_one(a, b):
    """The program's fold (``convolve_sets``) of one-matrix sets a and b."""
    folded = convolve_sets(
        WeightedStmSet(a.rows, a.cols, {a.bits: 1.0}),
        WeightedStmSet(b.rows, b.cols, {b.bits: 1.0}),
    )
    return SourceTargetMatrix(a.rows, b.cols, next(iter(folded.pooled), 0))


def test_matrix_round_trip_and_equality():
    m = M([[1, 0], [1, 1]])
    assert m.rows == 2 and m.cols == 2
    assert m.bits == 0b1101
    assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0
    assert str(m) == "[1 0; 1 1]"
    assert m == M([[1, 0], [1, 1]])
    assert hash(m) == hash(M([[1, 0], [1, 1]]))
    assert m != M([[1, 0], [0, 1]])
    assert M([[0, 0]]).bits == 0


def test_matrix_reshape_changes_identity():
    assert M([[1, 0, 1]]) != M([[1], [0], [1]])


def test_weighted_set_discards_zero_matrices():
    # one arc of p = 0.75: the failed arc's all-zero matrix is not stored
    net = make_network(2, [(1, 2, 0.75)])
    ws = tabulate_stage(net, decompose(net).stages[0])
    assert len(ws) == 1
    assert ws.discarded == 0.25
    assert sum(ws.entries.values()) == 0.75
    assert all(mass > 0 for _, mass in ws.items())


def stage_by_index(net, index):
    return decompose(net).stages[index - 1]


def test_stm_from_vector_middle_stage(example_uniform):
    stage = stage_by_index(example_uniform, 2)
    assert stage.arc_ids == (3, 4, 5)
    assert stm_from_vector(example_uniform, stage, 0b000) == M([[0, 0], [1, 0]])
    assert stm_from_vector(example_uniform, stage, 0b011) == M([[1, 1], [1, 1]])


def test_stm_from_vector_first_stage(example_uniform):
    stage = stage_by_index(example_uniform, 1)
    assert stm_from_vector(example_uniform, stage, 0b01) == M([[1, 0]])
    assert stm_from_vector(example_uniform, stage, 0b10) == M([[0, 1]])
    assert stm_from_vector(example_uniform, stage, 0b11) == M([[1, 1]])


def test_stm_self_connection_without_arcs(example_uniform):
    # node 3 sits on both sides of the middle boundary; with every stage
    # arc failed it still connects to itself
    stage = stage_by_index(example_uniform, 2)
    stm = stm_from_vector(example_uniform, stage, 0)
    assert stm.entry(1, 0) == 1


def test_vectors_import_only_the_matrix_container():
    # the per-vector references are what qb2's tables and the oracle are
    # held to: of relengine they may take only the SourceTargetMatrix
    # container, never the connectivity or probability code they check
    tree = ast.parse(Path(vectors.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
    assert {name for name in used if name.startswith("relengine")} == {
        "relengine.stm.SourceTargetMatrix"
    }


def test_tabulate_first_stage(example_uniform):
    ws = tabulate_stage(example_uniform, stage_by_index(example_uniform, 1))
    got = {str(stm): mass for stm, mass in ws.items()}
    assert got == {
        "[1 0]": pytest.approx(0.09),
        "[0 1]": pytest.approx(0.09),
        "[1 1]": pytest.approx(0.81),
    }
    assert ws.discarded == pytest.approx(0.01)
    assert sum(ws.entries.values()) + ws.discarded == pytest.approx(1.0, abs=1e-12)


def test_tabulate_middle_stage(example_uniform):
    ws = tabulate_stage(example_uniform, stage_by_index(example_uniform, 2))
    assert len(ws) == 5
    got = {str(stm): mass for stm, mass in ws.items()}
    assert got["[1 1; 1 1]"] == pytest.approx(0.081 * 3 + 0.729)
    assert got["[0 0; 1 0]"] == pytest.approx(0.001)
    assert got["[1 0; 1 0]"] == pytest.approx(0.009)
    assert got["[0 1; 1 0]"] == pytest.approx(0.009)
    assert got["[0 0; 1 1]"] == pytest.approx(0.009)


def test_tabulate_last_stage(example_uniform):
    ws = tabulate_stage(example_uniform, stage_by_index(example_uniform, 3))
    got = {str(stm): mass for stm, mass in ws.items()}
    assert got == {
        "[1; 0]": pytest.approx(0.09),
        "[0; 1]": pytest.approx(0.09),
        "[1; 1]": pytest.approx(0.81),
    }


def test_convolve_examples():
    for convolve in (stm_convolve, convolve_one):
        assert convolve(M([[1, 0]]), M([[1, 0], [1, 0]])) == M([[1, 0]])
        assert convolve(M([[1, 0]]), M([[0, 0], [1, 1]])) == M([[0, 0]])
        assert convolve(M([[1, 1]]), M([[0, 1], [1, 0]])) == M([[1, 1]])


def test_convolve_dimension_mismatch():
    with pytest.raises(ValueError, match="2x3 with 2x2"):
        convolve_one(M([[1, 0, 1], [0, 1, 0]]), M([[1, 0], [0, 1]]))
    # widths match, but the accumulator is not one row
    with pytest.raises(ValueError, match="2x2 with 2x2"):
        convolve_one(M([[1, 0], [0, 1]]), M([[1, 0], [0, 1]]))


def test_convolve_sets_dimension_mismatch():
    acc = WeightedStmSet(1, 2, {M([[1, 0]]).bits: 0.5})
    stage = WeightedStmSet(3, 1, {M([[1], [0], [1]]).bits: 0.5})
    with pytest.raises(ValueError, match="1x2 with 3x1"):
        convolve_sets(acc, stage)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_convolve_row_semantics_exhaustively(rows, cols):
    # every 1 x rows accumulator, 0 included, times every rows x cols
    # stage matrix: the four shapes qb2 folds, its boundaries holding at
    # most two nodes
    for rbits in range(1 << rows):
        R = SourceTargetMatrix(1, rows, rbits)
        for bbits in range(1 << rows * cols):
            B = SourceTargetMatrix(rows, cols, bbits)
            assert convolve_one(R, B) == stm_convolve(R, B)


def test_convolve_sets_refuses_a_three_node_boundary():
    for acc, stage in [
        (WeightedStmSet(1, 3, {0b101: 0.5}), WeightedStmSet(3, 1, {0b011: 0.5})),
        (WeightedStmSet(1, 2, {0b01: 0.5}), WeightedStmSet(2, 3, {0b000111: 0.5})),
    ]:
        with pytest.raises(ValueError, match="at most two nodes"):
            convolve_sets(acc, stage)


def random_matrix(rng, rows, cols):
    return SourceTargetMatrix(rows, cols, rng.randrange(1 << (rows * cols)))


@given(st.data())
@settings(max_examples=200)
def test_convolution_is_associative(data):
    dims = [data.draw(st.integers(min_value=1, max_value=6)) for _ in range(4)]
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**9)))
    a = random_matrix(rng, dims[0], dims[1])
    b = random_matrix(rng, dims[1], dims[2])
    c = random_matrix(rng, dims[2], dims[3])
    assert stm_convolve(stm_convolve(a, b), c) == stm_convolve(
        a, stm_convolve(b, c)
    )


@given(st.data())
@settings(max_examples=200)
def test_convolution_is_monotone(data):
    dims = [data.draw(st.integers(min_value=1, max_value=5)) for _ in range(3)]
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**9)))
    a = random_matrix(rng, dims[0], dims[1])
    b = random_matrix(rng, dims[1], dims[2])
    base = stm_convolve(a, b)
    flip = data.draw(st.integers(min_value=0, max_value=dims[0] * dims[1] - 1))
    a_up = SourceTargetMatrix(a.rows, a.cols, a.bits | (1 << flip))
    lifted = stm_convolve(a_up, b)
    assert lifted.bits & base.bits == base.bits


def test_convolve_sets_reproduces_first_fold(example_uniform):
    d = decompose(example_uniform)
    first = tabulate_stage(example_uniform, d.stages[0])
    second = tabulate_stage(example_uniform, d.stages[1])
    folded = convolve_sets(first, second)
    got = {str(stm): mass for stm, mass in folded.items()}
    assert got["[1 0]"] == pytest.approx(0.01062, abs=1e-12)
    assert got["[0 1]"] == pytest.approx(0.00081, abs=1e-12)
    assert got["[1 1]"] == pytest.approx(0.97767, abs=1e-12)
    assert list(got) == ["[1 0]", "[0 1]", "[1 1]"]


def test_convolve_sets_scalar_chain():
    acc = WeightedStmSet(1, 1, {M([[1]]).bits: 0.5})
    stage = WeightedStmSet(1, 1, {M([[1]]).bits: 0.25})
    out = convolve_sets(acc, stage)
    assert len(out) == 1
    assert sum(out.entries.values()) == pytest.approx(0.125)


def test_convolve_sets_orthogonal_supports_vanish():
    acc = WeightedStmSet(1, 2, {M([[1, 0]]).bits: 0.5})
    stage = WeightedStmSet(2, 2, {M([[0, 0], [1, 1]]).bits: 0.5})
    out = convolve_sets(acc, stage)
    assert len(out) == 0
    assert sum(out.entries.values()) == 0.0


def test_convolve_sets_matches_per_pair_reference():
    # the accumulator holds matrix 0 too: its pairs are attempted, never
    # multiplied
    acc = WeightedStmSet(1, 2, {0: 0.25, 0b01: 0.25, 0b11: 0.5})
    stage_masses = {
        M([[1, 0], [0, 1]]): 0.125,
        M([[0, 0], [1, 1]]): 0.25,
        M([[0, 1], [0, 0]]): 0.0625,
        M([[1, 1], [1, 0]]): 0.375,
        M([[0, 0], [0, 1]]): 0.1875,
    }
    stage = WeightedStmSet(2, 2, {m.bits: mass for m, mass in stage_masses.items()})
    want = {}
    want_counters = Counters()
    for acc_bits, acc_mass in acc.pooled.items():
        for matrix, mass in stage_masses.items():
            product = stm_convolve(SourceTargetMatrix(1, 2, acc_bits), matrix)
            want_counters.convolution_products += 1
            if product.bits == 0:
                continue
            want_counters.multiplications += 1
            if product.bits in want:
                want[product.bits] += acc_mass * mass
                want_counters.summations += 1
            else:
                want[product.bits] = acc_mass * mass
    counters = Counters()
    got = convolve_sets(acc, stage, counters)
    assert (got.rows, got.cols) == (1, 2)
    assert list(got.pooled) == list(want) == [0b01, 0b10, 0b11]
    assert [m.hex() for m in got.pooled.values()] == [m.hex() for m in want.values()]
    assert counters == want_counters
    assert (counters.convolution_products, counters.multiplications) == (15, 8)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_convolve_sets_matches_per_pair_reference_at_any_width(data):
    # stage rows and cols 1-2, every width qb2 folds, the accumulator's
    # matrix 0 among its entries: the fold must agree with stm_convolve
    rows = data.draw(st.integers(min_value=1, max_value=2))
    cols = data.draw(st.integers(min_value=1, max_value=2))
    mass = st.floats(min_value=1e-3, max_value=1.0)
    acc_bits = data.draw(
        st.lists(st.integers(1, (1 << rows) - 1), unique=True, max_size=(1 << rows) - 1)
    )
    acc_bits.insert(data.draw(st.integers(0, len(acc_bits))), 0)
    acc = {bits: data.draw(mass) for bits in acc_bits}
    stage = data.draw(
        st.dictionaries(st.integers(1, (1 << rows * cols) - 1), mass, min_size=1, max_size=12)
    )
    want = {}
    want_counters = Counters()
    for a, acc_mass in acc.items():
        for bits, stage_mass in stage.items():
            product = stm_convolve(
                SourceTargetMatrix(1, rows, a), SourceTargetMatrix(rows, cols, bits)
            )
            want_counters.convolution_products += 1
            if product.bits == 0:
                continue
            want_counters.multiplications += 1
            if product.bits in want:
                want[product.bits] += acc_mass * stage_mass
                want_counters.summations += 1
            else:
                want[product.bits] = acc_mass * stage_mass
    counters = Counters()
    got = convolve_sets(
        WeightedStmSet(1, rows, acc), WeightedStmSet(rows, cols, stage), counters
    )
    assert (got.rows, got.cols) == (1, cols)
    assert list(got.pooled) == list(want)
    assert [m.hex() for m in got.pooled.values()] == [m.hex() for m in want.values()]
    assert counters == want_counters


def test_qb2_on_example(example_uniform, example_mixed):
    r, counters = reliability_qb2(example_uniform)
    assert r == pytest.approx(0.9781803, abs=1e-12)
    assert counters.stage_stm_counts == [3, 5, 3]
    assert counters.fold_stm_counts == [3, 1]
    assert counters.total_aggregated == 15
    r_mixed, _ = reliability_qb2(example_mixed)
    assert r_mixed == pytest.approx(
        reliability_oracle(example_mixed), abs=1e-12
    )


def test_counters_invariant_lengths():
    rng = random.Random(67)
    for _ in range(40):
        net = random_network(rng)
        _, counters = reliability_qb2(net)
        stages = len(decompose(net).stages)
        folds = stages - 1
        assert len(counters.stage_stm_counts) == stages
        assert len(counters.fold_stm_counts) == folds
        assert counters.convolution_products >= folds
        assert all(c >= 0 for c in counters.stage_stm_counts + counters.fold_stm_counts)


def test_qb2_series_closed_form():
    for k in (1, 2, 5, 9):
        net = make_network(k + 1, [(i, i + 1, 0.9) for i in range(1, k + 1)])
        r, _ = reliability_qb2(net)
        assert r == pytest.approx(0.9**k, rel=1e-12)


@pytest.mark.parametrize("k", [5, 40, 100])
def test_qb2_exact_on_bridge_chain_above_the_cap(k):
    # The 7-arc blocks meet at cut nodes, so the chain's reliability is
    # the product of its blocks' enumerated reliabilities.
    net = build(GeneratorSpec("bridge-chain", k, 0.9, seed=k))
    assert net.arc_count == 7 * k > DEFAULT_ENUMERATION_CAP
    probs = net.probabilities()
    want = math.prod(
        reliability_oracle(build_example(probs[7 * b : 7 * b + 7])) for b in range(k)
    )
    r, _ = reliability_qb2(net)
    assert r == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("family, k", [("grid", 5), ("ladder", 7), ("bridge-chain", 3)])
def test_qb2_matches_oracle_on_21_to_23_arcs(family, k):
    net = build(GeneratorSpec(family, k, 0.9, seed=k))
    assert 21 <= net.arc_count <= 23
    r, _ = reliability_qb2(net)
    assert abs(r - reliability_oracle(net)) <= 1e-10


def test_qb2_single_node():
    r, counters = reliability_qb2(make_network(1, []))
    assert r == 1.0
    assert counters.stage_stm_counts == counters.fold_stm_counts == []


def test_qb2_matches_other_backends_on_random_networks():
    rng = random.Random(71)
    for _ in range(120):
        net = random_network(rng)
        r, _ = reliability_qb2(net)
        assert abs(r - reliability_oracle(net)) <= 1e-10
        assert abs(r - reliability_quick_bat(net)) <= 1e-10


def test_stage_masses_conserve_on_random_networks():
    rng = random.Random(73)
    for _ in range(60):
        net = random_network(rng)
        for stage in decompose(net).stages:
            ws = tabulate_stage(net, stage)
            assert sum(ws.entries.values()) + ws.discarded == pytest.approx(
                1.0, abs=1e-12
            )


def test_tabulation_order_is_deterministic(example_uniform):
    d = decompose(example_uniform)
    first = [
        str(stm)
        for stm, _ in tabulate_stage(example_uniform, d.stages[1]).items()
    ]
    second = [
        str(stm)
        for stm, _ in tabulate_stage(example_uniform, d.stages[1]).items()
    ]
    assert first == second == ["[0 0; 1 0]", "[1 0; 1 0]", "[0 1; 1 0]", "[1 1; 1 1]", "[0 0; 1 1]"]


@functools.cache
def reference_tabulation(net, stage):
    """Pool stm_from_vector over range(2^g) with the same half-table products.

    Cached per (network, stage), since two tests tabulate the same
    stages; callers must not change what it returns.
    """
    probs = [net.arcs[arc_id - 1].p for arc_id in stage.arc_ids]
    low, high, shift = half_tables(probs)
    entries = {}
    discarded = 0.0
    counters = Counters()
    for bits in range(1 << len(stage.arc_ids)):
        stm = stm_from_vector(net, stage, bits)
        mass = low[bits & ((1 << shift) - 1)] * high[bits >> shift]
        counters.multiplications += 1
        if stm.bits == 0:
            discarded += mass
        elif stm in entries:
            entries[stm] += mass
            counters.summations += 1
        else:
            entries[stm] = mass
    return list(entries.items()), discarded, counters


def tabulated_shape(stage):
    """(by_dp, sources, targets) of a stage: by_dp is True when it goes to
    the partition DP, False when it is sliced whole."""
    by_dp = len(stage.arc_ids) > stm._SLICED_ARCS
    return by_dp, len(stage.source_nodes), len(stage.target_nodes)


@functools.cache
def two_by_two_networks():
    """Seeded random networks with a 2x2 stage of 8 arcs or more and no
    stage over 16 arcs: 16 of 400 at seed 7."""
    rng = random.Random(7)
    nets = [random_network(rng, (8, 14), (10, 20)) for _ in range(400)]
    return [
        net
        for net, stages in ((net, decompose(net).stages) for net in nets)
        if max(len(stage.arc_ids) for stage in stages) <= 16
        and any(
            len(stage.arc_ids) >= 8 and tabulated_shape(stage)[1:] == (2, 2)
            for stage in stages
        )
    ]


@functools.cache
def dp_networks():
    """The first two of 400 seeded random networks with no stage over 15
    arcs that have a DP stage of each (sources, targets)."""
    rng = random.Random(23)
    picked = {}
    for _ in range(400):
        net = random_network(rng, (8, 14), (16, 22))
        stages = decompose(net).stages
        if max(len(stage.arc_ids) for stage in stages) > 15:
            continue
        for stage in stages:
            by_dp, *shape = tabulated_shape(stage)
            if by_dp:
                nets = picked.setdefault(tuple(shape), [])
                if len(nets) < 2 and net not in nets:
                    nets.append(net)
    return list(dict.fromkeys(net for nets in picked.values() for net in nets))


def assert_same_table(ws, entries, discarded):
    """A DP table against a per-vector one: the same nonzero matrices, each
    mass and the discarded mass within a relative 1e-12, and stored plus
    discarded within 1e-12 of 1."""
    assert set(ws.entries) == {stm for stm, _ in entries}
    for stm, mass in entries:
        assert ws.entries[stm] == pytest.approx(mass, rel=1e-12, abs=0)
    assert ws.discarded == pytest.approx(discarded, rel=1e-12, abs=0)
    assert sum(ws.pooled.values()) + ws.discarded == pytest.approx(1.0, abs=1e-12)


def test_tabulation_matches_per_vector_reference(example_uniform, example_mixed):
    nets = [example_uniform, example_mixed]
    nets += [build(GeneratorSpec("grid", k, 0.9, seed=k)) for k in (2, 3, 4)]
    rng = random.Random(79)
    nets += [random_network(rng) for _ in range(200)]
    nets += two_by_two_networks() + dp_networks()
    shapes = set()
    for net in nets:
        for stage in decompose(net).stages:
            shape = tabulated_shape(stage)
            shapes.add(shape)
            counters = Counters()
            ws = tabulate_stage(net, stage, counters=counters)
            entries, discarded, want = reference_tabulation(net, stage)
            if shape[0]:
                assert_same_table(ws, entries, discarded)
            else:
                # sliced whole: bit-identical, in the sweep's order
                assert list(ws.entries.items()) == entries
                assert ws.discarded == discarded
                assert counters == want
    # every boundary shape, both sliced whole and by the DP
    for by_dp in (False, True):
        assert {(by_dp, 1, 1), (by_dp, 1, 2), (by_dp, 2, 1), (by_dp, 2, 2)} <= shapes


def stages_of_every_width():
    """For each width 1..13, the first few stages of that many arcs among
    seeded random networks of up to 13 arcs, as (network, stage) pairs."""
    rng = random.Random(97)
    found = {g: [] for g in range(1, 14)}
    while any(len(pairs) < 6 for pairs in found.values()):
        net = random_network(rng, (2, 12), (1, 13))
        for stage in decompose(net).stages:
            pairs = found[len(stage.arc_ids)]
            if len(pairs) < 6:
                pairs.append((net, stage))
    return [pair for pairs in found.values() for pair in pairs]


def test_sliced_stages_match_reference_at_every_width():
    pairs = stages_of_every_width()
    assert {len(stage.arc_ids) for _, stage in pairs} == set(range(1, 14))
    for net, stage in pairs:
        assert not tabulated_shape(stage)[0]
        counters = Counters()
        ws = tabulate_stage(net, stage, counters=counters)
        entries, discarded, want = reference_tabulation(net, stage)
        assert list(ws.entries.items()) == entries
        assert ws.discarded == discarded
        assert counters == want
    # a two-row stage, and a node that is both a source and a target
    assert any(len(stage.source_nodes) == 2 for _, stage in pairs)
    assert any(set(stage.source_nodes) & set(stage.target_nodes) for _, stage in pairs)


def test_sliced_stages_match_partition_dp(monkeypatch):
    pairs = [(net, stage) for net, stage in stages_of_every_width() if len(stage.arc_ids) >= 8]
    pairs += [
        (net, stage)
        for net in two_by_two_networks()
        for stage in decompose(net).stages
        if 8 <= len(stage.arc_ids) <= 13
    ]
    sliced = []
    for net, stage in pairs:
        ws = tabulate_stage(net, stage)
        sliced.append((list(ws.entries.items()), ws.discarded))
    runs = []
    partitions = stm._partitions
    monkeypatch.setattr(
        "relengine.stm._partitions", lambda *args: runs.append(1) or partitions(*args)
    )
    monkeypatch.setattr("relengine.stm._SLICED_ARCS", 7)
    for (net, stage), (entries, discarded) in zip(pairs, sliced):
        runs.clear()
        ws = tabulate_stage(net, stage)
        assert runs  # the stage went to the DP
        assert_same_table(ws, entries, discarded)
    widths = {len(stage.arc_ids) for _, stage in pairs}
    assert widths == set(range(8, 14))
    assert any(tabulated_shape(stage)[1:] == (2, 2) for _, stage in pairs)


def local_lists(net, stage):
    """A stage as ``_partitions`` takes it: arc ends, probabilities,
    sources and targets by position in the stage's node list."""
    local = stage.node_ids.index
    arcs = [net.arcs[arc_id - 1] for arc_id in stage.arc_ids]
    return (
        [local(a.u) for a in arcs],
        [local(a.v) for a in arcs],
        [a.p for a in arcs],
        tuple(map(local, stage.source_nodes)),
        tuple(map(local, stage.target_nodes)),
    )


def retirements(n, arc_u, arc_v, sources, targets):
    """(two, label) in the DP's arc order. two: an arc is the last of two
    non-boundary nodes. label: an arc is the last of a node that joined
    the frontier before the arc's other end, which stays; with only that
    arc up, the leaving node labels their block."""
    boundary = {*sources, *targets}
    order = stm._frontier_order(n, arc_u, arc_v, boundary)
    arcs = [(arc_u[k], arc_v[k]) for k in order]
    last = {x: k for k, ends in enumerate(arcs) for x in ends if x not in boundary}
    joined = list(dict.fromkeys((*sources, *targets, *(x for ends in arcs for x in ends))))
    two = label = False
    for k, (u, v) in enumerate(arcs):
        two |= last.get(u) == last.get(v) == k
        for x, y in ((u, v), (v, u)):
            label |= last.get(x) == k != last.get(y) and joined.index(x) < joined.index(y)
    return two, label


def test_partition_dp_relabels_leaving_nodes():
    # 14-16-arc stages against the per-vector sweep; in each a leaving
    # node labels a block that stays, and in some two nodes leave at once
    nets = dp_networks() + [random_network(random.Random(1), (6, 9), (16, 16))]
    seen = []
    for net in nets:
        for stage in decompose(net).stages:
            if len(stage.arc_ids) <= stm._SLICED_ARCS:
                continue
            n = len(stage.node_ids)
            arc_u, arc_v, probs, sources, targets = local_lists(net, stage)
            seen.append(retirements(n, arc_u, arc_v, sources, targets))
            pooled, discarded, _, _ = stm._partitions(
                n, arc_u, arc_v, probs, sources, targets, None
            )
            ws = WeightedStmSet(len(sources), len(targets), pooled, discarded)
            assert_same_table(ws, *reference_tabulation(net, stage)[:2])
    assert len(seen) == 9
    assert all(label for _, label in seen)
    assert sum(two for two, _ in seen) >= 4


def exact_value(net):
    """The network's reliability from the dyadic reference, as a Fraction."""
    r, q, d = exact.reliability(net.node_count, [(a.u, a.v, a.p) for a in net.arcs])
    return Fraction(r, 1 << d)


@pytest.mark.parametrize(
    "seed, value, multiplications, summations",
    [
        (1, "0x1.fe6bee2d39e29p-1", 1966, 982),
        (4, "0x1.d11ba94c99d2ap-1", 2178, 1088),
        (6, "0x1.298883c3b2b1fp-1", 2406, 1202),
    ],
)
def test_qb2_pins_one_stage_random_networks(seed, value, multiplications, summations):
    # one DP stage of 20-22 arcs, within 1e-15 of the exact value
    net = random_network(random.Random(seed), (6, 12), (20, 22))
    assert len(decompose(net).stages) == 1
    r, counters = reliability_qb2(net)
    assert r.hex() == value
    assert abs(Fraction(r) - exact_value(net)) <= 1e-15
    assert counters.as_dict() == {
        "stage_stm_counts": [1],
        "fold_stm_counts": [],
        "total_aggregated": 1,
        "convolution_products": 0,
        "multiplications": multiplications,
        "summations": summations,
    }


def reference_fold(net):
    """reliability_qb2 with a per-product fold: stm_convolve on every pair,
    each nonzero product pooled by matrix in insertion order."""
    counters = Counters()
    tables = []
    for stage in decompose(net).stages:
        ws = tabulate_stage(net, stage, counters=counters)
        counters.stage_stm_counts.append(len(ws))
        tables.append(list(ws.items()))
    acc = tables[0]
    for table in tables[1:]:
        out = {}
        for acc_stm, acc_mass in acc:
            for stage_stm, stage_mass in table:
                product = stm_convolve(acc_stm, stage_stm)
                counters.convolution_products += 1
                if product.bits == 0:
                    continue
                mass = acc_mass * stage_mass
                counters.multiplications += 1
                if product in out:
                    out[product] += mass
                    counters.summations += 1
                else:
                    out[product] = mass
        counters.fold_stm_counts.append(len(out))
        acc = list(out.items())
    total = 0.0
    for _, mass in acc:
        total += mass
    return total, counters


def test_fold_matches_per_product_reference(example_uniform, example_mixed):
    nets = [example_uniform, example_mixed]
    nets += [build(GeneratorSpec("grid", k, 0.9, seed=k)) for k in (2, 3, 4)]
    nets += [
        build(GeneratorSpec(family, k, 0.9, seed=k))
        for family, k in (("series", 300), ("ladder", 50), ("bridge-chain", 32))
    ]
    rng = random.Random(83)
    nets += [random_network(rng) for _ in range(200)]
    for net in nets:
        r, counters = reliability_qb2(net)
        want, want_counters = reference_fold(net)
        assert r.hex() == want.hex()
        assert counters == want_counters


def test_qb2_builds_no_matrix_objects(monkeypatch):
    built = []
    matrix = SourceTargetMatrix

    def counting(*args):
        built.append(args)
        return matrix(*args)

    monkeypatch.setattr("relengine.stm.SourceTargetMatrix", counting)
    net = build(GeneratorSpec("ladder", 20, 0.9))
    reliability_qb2(net)
    assert built == []
    # the wrappers still hand out matrices, through the same name
    assert len(tabulate_stage(net, decompose(net).stages[1]).entries) == len(built) > 0


@pytest.mark.parametrize(
    "family, k, shapes",
    [("series", 300, 1), ("ladder", 50, 5), ("bridge-chain", 32, 4)],
)
def test_qb2_walks_each_stage_shape_once(monkeypatch, family, k, shapes):
    net = build(GeneratorSpec(family, k, 0.9, seed=k))
    stages = decompose(net).stages
    slices = []
    slice_ = stm._slice

    def counting_slice(*args):
        slices.append(args)
        return slice_(*args)

    monkeypatch.setattr("relengine.stm._slice", counting_slice)
    r, counters = reliability_qb2(net)
    assert len(stages) >= k
    assert len(slices) == shapes
    want, want_counters = reference_fold(net)
    assert (r.hex(), counters) == (want.hex(), want_counters)
    # with no room for shapes, every stage is sliced again, to the same bits
    monkeypatch.setattr("relengine.stm._SHAPES", 0)
    slices.clear()
    assert reliability_qb2(net) == (r, counters)
    assert len(slices) == len(stages)


def test_qb2_keeps_nothing_between_solves():
    # same shapes, other probabilities: a memo that outlived its solve
    # would hand B's masses or A's pooled order to the next solve
    a = build(GeneratorSpec("ladder", 50, 0.9, seed=3))
    b = build(GeneratorSpec("ladder", 50, 0.9))
    c = build(GeneratorSpec("bridge-chain", 32, 0.95, seed=5))
    fresh = {net: reference_fold(net) for net in (a, b, c)}
    for net in (a, b, a, c, a):
        r, counters = reliability_qb2(net)
        want, want_counters = fresh[net]
        assert (r.hex(), counters) == (want.hex(), want_counters)


def test_qb2_pins_wide_stage_of_grid_5():
    # a 20-arc DP stage, beyond the per-vector reference; at p = 0.5 every
    # mass is dyadic, and the answer is the exact value
    net = build(GeneratorSpec("grid", 5, 0.5))
    assert [len(stage.arc_ids) for stage in decompose(net).stages] == [2, 20]
    r, counters = reliability_qb2(net)
    assert r.hex() == "0x1.5954e00000000p-3"
    assert abs(Fraction(r) - exact_value(net)) <= 1e-15
    assert counters.as_dict() == {
        "stage_stm_counts": [3, 3],
        "fold_stm_counts": [1],
        "total_aggregated": 7,
        "convolution_products": 9,
        "multiplications": 791,
        "summations": 393,
    }


def test_qb2_takes_a_27_arc_stage_in_greedy_order():
    # the third random network of tests/test_exact.py's wide stages: one
    # 27-arc stage, which in stage order takes 254,966 multiplications
    rng = random.Random(37)
    nets = []
    while len(nets) < 3:
        net = random_network(rng, (8, 20), (14, 30))
        if 14 <= max(len(stage.arc_ids) for stage in decompose(net).stages) <= 30:
            nets.append(net)
    net = nets[2]
    assert [len(stage.arc_ids) for stage in decompose(net).stages] == [27]
    r, counters = reliability_qb2(net)
    assert counters.multiplications == 2682
    assert abs(Fraction(r) - exact_value(net)) <= 1e-10


class CountingBudget:
    """Budget stand-in whose check() raises on its n-th call."""

    def __init__(self, raise_on=None):
        self.raise_on = raise_on
        self.calls = 0

    def check(self):
        self.calls += 1
        if self.calls == self.raise_on:
            raise BudgetExceeded(0.0)


def test_tabulation_checks_budget_inside_walk():
    net = random_network(random.Random(1), (6, 9), (16, 16))
    (stage,) = decompose(net).stages
    assert len(stage.arc_ids) == 16
    # the DP checks once per arc, before its states: no arc here has 4096
    budget = CountingBudget()
    tabulate_stage(net, stage, budget)
    assert budget.calls == 16
    for raise_on in (1, 16):
        budget = CountingBudget(raise_on)
        with pytest.raises(BudgetExceeded):
            tabulate_stage(net, stage, budget)
        assert budget.calls == raise_on


def test_qb2_refuses_stage_above_cap(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built above the cap")

    monkeypatch.setattr("relengine.stm.half_probability_tables", no_tables)
    monkeypatch.setattr("relengine.stm._table", no_tables)
    net = build(GeneratorSpec("grid", 30, 0.9))
    with pytest.raises(EnumerationCapExceeded, match="stage 2 has 145 arcs"):
        reliability_qb2(net)


def test_tabulation_checks_budget_before_walking_a_wide_stage(monkeypatch):
    net = build(GeneratorSpec("grid", 7, 0.9))
    stage = decompose(net).stages[1]
    assert len(stage.arc_ids) == 30

    def no_tables(*args, **kwargs):
        raise AssertionError("a probability table was built")

    # the DP builds no probability tables and checks once per arc, the
    # first before any state
    monkeypatch.setattr("relengine.stm.half_probability_tables", no_tables)
    monkeypatch.setattr("relengine.stm._table", no_tables)
    budget = CountingBudget()
    tabulate_stage(net, stage, budget)
    assert budget.calls == 30
    for raise_on in (1, 2, 30):
        budget = CountingBudget(raise_on)
        with pytest.raises(BudgetExceeded):
            tabulate_stage(net, stage, budget)
        assert budget.calls == raise_on


def test_partition_dp_at_the_cap_stays_small():
    # the 30-arc stage keeps at most a few hundred small states at once:
    # about 18 KiB traced at the peak
    net = build(GeneratorSpec("grid", 7, 0.9))
    stage = decompose(net).stages[1]
    assert len(stage.arc_ids) == 30
    tracemalloc.start()
    try:
        ws = tabulate_stage(net, stage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2**10
    assert len(ws) == 3


def test_tabulation_checks_budget_every_stride_states(monkeypatch):
    # a stride below an arc's state count adds a check every STRIDE
    # states; at stride 1 that is one per state the DP visits
    net = random_network(random.Random(1), (6, 9), (16, 16))
    (stage,) = decompose(net).stages
    for stride, calls in ((16, 32), (1, 371)):
        monkeypatch.setattr("relengine.stm.STRIDE", stride)
        budget = CountingBudget()
        tabulate_stage(net, stage, budget)
        assert budget.calls == calls


@pytest.mark.parametrize("family, k, checks", [("series", 12, 12), ("ladder", 4, 6)])
def test_qb2_checks_budget_on_memo_hits(family, k, checks):
    net = build(GeneratorSpec(family, k, 0.9))
    # one per stage, though most stages reuse a walked shape; every stage
    # here is sliced, and folds check nothing
    assert checks == len(decompose(net).stages)
    budget = CountingBudget()
    reliability_qb2(net, budget)
    assert budget.calls == checks
    for raise_on in range(1, checks + 1):
        budget = CountingBudget(raise_on)
        with pytest.raises(BudgetExceeded):
            reliability_qb2(net, budget)
        assert budget.calls == raise_on


@pytest.mark.parametrize(
    "backend, family, k, p, checks",
    [
        ("qb2", "series", 1200, 0.9, 1200),
        ("qb2", "bridge-chain", 32, 0.9, 65),
        ("oracle", "ladder", 6, 0.5, 256),
        ("qbat", "grid", 5, 0.5, 1876),
    ],
)
def test_backends_check_budget_once_per_stride(backend, family, k, p, checks):
    # qb2 once per stage (each is sliced), the oracle once per
    # 4096 vectors of its 2^20 and qbat once per 4096 search frames
    solve = {
        "qb2": reliability_qb2,
        "oracle": reliability_oracle,
        "qbat": reliability_quick_bat,
    }[backend]
    budget = CountingBudget()
    solve(build(GeneratorSpec(family, k, p)), budget)
    assert budget.calls == checks


def test_qb2_refuses_a_long_wide_grid():
    # grid k=1500 merges about 1500 stages into one; the merge measures
    # the chain once instead of once per merge
    net = build(GeneratorSpec("grid", 1500, 0.9))
    with pytest.raises(EnumerationCapExceeded, match="stage 2 has 7495 arcs"):
        reliability_qb2(net)


def test_qb2_on_long_series_stays_small():
    # One cut and one stage per arc, so every per-cut and per-stage record
    # must stay O(1): the cuts share one tuple of the nodes in the order
    # they joined the source side (about 3.6 MiB traced here at the
    # peak), where a frozenset per cut's source side would hold some n^2/2
    # entries, well over 64 MiB.
    net = build(GeneratorSpec("series", 4000, 0.9))
    tracemalloc.start()
    try:
        reliability_qb2(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
