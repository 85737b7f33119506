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
    stm_from_vector,
    tabulate_stage,
)
from conftest import build_example
from vectors import bits_from_states


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


def test_convolve_row_semantics_exhaustively():
    # 1x2 times 2x2: result entry beta is OR over h of R[h] AND B[h][beta]
    for rbits in range(4):
        R = M([[rbits & 1, rbits >> 1]])
        for bbits in range(16):
            rows = [
                [bbits & 1, (bbits >> 1) & 1],
                [(bbits >> 2) & 1, (bbits >> 3) & 1],
            ]
            B = M(rows)
            got = convolve_one(R, B)
            for beta in range(2):
                want = max(
                    min(R.entry(0, h), B.entry(h, beta)) for h in range(2)
                )
                assert got.entry(0, beta) == want


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


def test_qb2_on_example(example_uniform, example_mixed):
    r, counters = reliability_qb2(example_uniform)
    assert r == pytest.approx(0.9781803, abs=1e-12)
    assert counters.stage_stm_counts == [3, 5, 3]
    assert counters.fold_stm_counts == [3, 1]
    assert counters.stms_per_stage == [3, 5, 3, 3, 1]
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
        assert len(counters.stms_per_stage) == stages + folds
        assert counters.convolution_products >= folds
        assert all(c >= 0 for c in counters.stms_per_stage)


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


def test_qb2_single_node():
    r, counters = reliability_qb2(make_network(1, []))
    assert r == 1.0
    assert counters.stms_per_stage == []


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


def reference_tabulation(net, stage):
    """Pool stm_from_vector over range(2^g) with the same half-table products."""
    probs = [net.arcs[arc_id - 1].p for arc_id in stage.arc_ids]
    low, high, shift = half_probability_tables(probs)
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


def test_tabulation_matches_per_vector_reference(example_uniform, example_mixed):
    nets = [example_uniform, example_mixed]
    nets += [build(GeneratorSpec("grid", k, 0.9, seed=k)) for k in (2, 3, 4)]
    rng = random.Random(79)
    nets += [random_network(rng) for _ in range(200)]
    for net in nets:
        for stage in decompose(net).stages:
            counters = Counters()
            ws = tabulate_stage(net, stage, counters=counters)
            entries, discarded, want = reference_tabulation(net, stage)
            assert list(ws.entries.items()) == entries
            assert ws.discarded == discarded
            assert counters == want


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
    "family, k, shapes, fold_keys",
    [("series", 300, 1, 1), ("ladder", 50, 5, 4), ("bridge-chain", 32, 4, 3)],
)
def test_qb2_walks_each_stage_shape_and_plans_each_fold_once(
    monkeypatch, family, k, shapes, fold_keys
):
    net = build(GeneratorSpec(family, k, 0.9, seed=k))
    stages = decompose(net).stages
    walks, plans = [], []
    walk, fold_plan = stm._walk, stm._fold_plan

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    def counting_plan(acc, stage, stage_shape):
        plans.append((stage_shape, tuple(acc), tuple(stage)))
        return fold_plan(acc, stage, stage_shape)

    monkeypatch.setattr("relengine.stm._walk", counting_walk)
    monkeypatch.setattr("relengine.stm._fold_plan", counting_plan)
    r, counters = reliability_qb2(net)
    assert len(stages) >= k
    assert len(walks) == shapes
    assert len(plans) == len(set(plans)) == fold_keys
    want, want_counters = reference_fold(net)
    assert (r.hex(), counters) == (want.hex(), want_counters)


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


@pytest.mark.parametrize("bound", [0, 256])
def test_tabulation_with_bounded_memo_matches_reference(
    monkeypatch, example_uniform, example_mixed, bound
):
    # 0: every high leaf walks its low half again; 256: the first keys are
    # stored and later ones walked again, side by side in one stage
    monkeypatch.setattr("relengine.stm._MEMO_LEAVES", bound)
    test_tabulation_matches_per_vector_reference(example_uniform, example_mixed)


def test_memo_bound_limits_stored_low_halves(monkeypatch):
    net = build(GeneratorSpec("grid", 4, 0.9, seed=4))
    stage = max(decompose(net).stages, key=lambda stage: len(stage.arc_ids))
    assert len(stage.arc_ids) == 15  # shift 7: 256 high leaves of 128
    walks = []
    low_half = stm._low_half
    monkeypatch.setattr(
        "relengine.stm._low_half", lambda *args: walks.append(1) or low_half(*args)
    )

    def low_walks(bound):
        monkeypatch.setattr("relengine.stm._MEMO_LEAVES", bound)
        walks.clear()
        ws = tabulate_stage(net, stage)
        return len(walks), list(ws.entries.items()), ws.discarded

    unbounded, entries, discarded = low_walks(1 << 20)
    assert unbounded < 256
    assert low_walks(0) == (256, entries, discarded)
    one_key = low_walks(128)
    assert unbounded < one_key[0] < 256
    assert one_key[1:] == (entries, discarded)


def test_qb2_pins_wide_stage_of_grid_5():
    # a 20-arc stage split at shift 10, beyond the per-vector reference
    net = build(GeneratorSpec("grid", 5, 0.5))
    assert [len(stage.arc_ids) for stage in decompose(net).stages] == [2, 20]
    r, counters = reliability_qb2(net)
    assert r.hex() == "0x1.5954e00000000p-3"
    assert counters.as_dict() == {
        "stage_stm_counts": [3, 3],
        "fold_stm_counts": [1],
        "total_aggregated": 7,
        "convolution_products": 9,
        "multiplications": 1048587,
        "summations": 292820,
    }


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
    # one check per arc while the two tables are built, then one per
    # 4096 leaves of the walk
    tables, walk = 16, (1 << 16) // 4096
    budget = CountingBudget()
    tabulate_stage(net, stage, budget)
    assert budget.calls == tables + walk
    for raise_on in (tables + 1, tables + walk):
        budget = CountingBudget(raise_on)
        with pytest.raises(BudgetExceeded):
            tabulate_stage(net, stage, budget)
        assert budget.calls == raise_on


def test_qb2_refuses_stage_above_cap(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built above the cap")

    monkeypatch.setattr("relengine.stm.half_probability_tables", no_tables)
    net = build(GeneratorSpec("grid", 30, 0.9))
    with pytest.raises(EnumerationCapExceeded, match="stage 2 has 145 arcs"):
        reliability_qb2(net)


def test_tabulation_checks_budget_before_walking_a_wide_stage(monkeypatch):
    net = build(GeneratorSpec("grid", 7, 0.9))
    stage = decompose(net).stages[1]
    assert len(stage.arc_ids) == 30
    tables = 30

    def no_walk(*args, **kwargs):
        raise AssertionError("the stage was walked")

    with monkeypatch.context() as patched:
        patched.setattr("relengine.stm._walk", no_walk)
        budget = CountingBudget(tables + 1)
        with pytest.raises(BudgetExceeded):
            tabulate_stage(net, stage, budget)
        assert budget.calls == tables + 1
    # with shift 15, the next check comes at high leaf 1
    budget = CountingBudget(tables + 2)
    with pytest.raises(BudgetExceeded):
        tabulate_stage(net, stage, budget)
    assert budget.calls == tables + 2


def test_tabulation_checks_budget_within_a_high_leaf(monkeypatch):
    # a stride below 2^shift puts a check at every high leaf, as
    # _BUDGET_STRIDE does for stages of 26 arcs and more: 16 arcs split
    # at shift 8 give 2^8 high leaves
    monkeypatch.setattr("relengine.stm._BUDGET_STRIDE", 16)
    net = random_network(random.Random(1), (6, 9), (16, 16))
    (stage,) = decompose(net).stages
    budget = CountingBudget()
    tabulate_stage(net, stage, budget)
    assert budget.calls == 16 + (1 << 8)


@pytest.mark.parametrize("family, k, checks", [("series", 12, 47), ("ladder", 4, 31)])
def test_qb2_checks_budget_on_memo_hits(family, k, checks):
    net = build(GeneratorSpec(family, k, 0.9))
    stages = decompose(net).stages
    # one per stage, one per arc while its tables are built, leaf 0's,
    # and one per fold, though most stages reuse a walked shape
    arcs = sum(len(stage.arc_ids) for stage in stages)
    assert checks == len(stages) + arcs + len(stages) + len(stages) - 1
    budget = CountingBudget()
    reliability_qb2(net, budget)
    assert budget.calls == checks
    for raise_on in range(1, checks + 1):
        budget = CountingBudget(raise_on)
        with pytest.raises(BudgetExceeded):
            reliability_qb2(net, budget)
        assert budget.calls == raise_on


def test_qb2_refuses_a_long_wide_grid():
    # grid k=1500 merges about 1500 stages into one; the merge measures
    # the chain once instead of once per merge
    net = build(GeneratorSpec("grid", 1500, 0.9))
    with pytest.raises(EnumerationCapExceeded, match="stage 2 has 7495 arcs"):
        reliability_qb2(net)
