"""Boundary connectivity matrices and their max-min convolution.

Each stage vector collapses to a small boolean matrix recording which
stage source nodes reach which stage target nodes; equal matrices pool
their probability. A stage is tabulated half by half, split where its
probability tables split (``half_probability_tables``): a depth-first
walk over the high arcs reaches each high leaf with the partition it
induces on the interface (the low arcs' endpoints and the boundary
nodes), and every high leaf with the same partition reuses one walk over
the low arcs, kept as one table from matrix bits to its leaves. Masses
are still added per vector in integer order, the order a per-vector
sweep (``stm_from_vector`` over ``range(2^g)``) would use, so the tables
are bit-identical to that sweep. Folding consecutive stages is a boolean
max-min matrix product. Stage one has a single source node, so the
accumulator is always one row, as wide as the next stage has rows: a
product is the OR of the stage rows that the accumulator's bits select,
and the rows of each stage matrix are unpacked once per fold.
``reliability_qb2`` works on these plain ints and builds no matrix
objects; ``tabulate_stage`` and ``convolve_sets`` wrap the same cores
and return ``WeightedStmSet`` views of their results.

Each stage's and fold's work splits into structure and arithmetic. The
structure (which leaf gives which matrix, which pair gives which
product) depends only on a stage's local shape, or on a fold's stage
shape and the bits of both tables in order; the arithmetic is the
probability sums. One ``reliability_qb2`` call keeps the structure in
two local dicts keyed that way, so on a long chain of like stages each
shape is walked and each fold planned once, and every stage and fold
redoes only its sums, in the same order as before. Nothing outlives the
call, and the wrappers start from empty dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, mul, or_

from .bat import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    half_probability_tables,
)
from .budget import Budget
from .decompose import Stage, decompose
from .network import Network
from .unionfind import find, merge, undo, union

_BUDGET_STRIDE = 4096
# Below this many low arcs (at most 8 low leaves per high leaf) a key
# costs more than the low walk it saves, so the stage is walked whole.
_KEYED_SHIFT = 4
# Low-half leaves one stage tabulation keeps in its memo (about 8 MiB of
# list slots); past this, a key's low half is walked again, not stored.
_MEMO_LEAVES = 1 << 20


@dataclass(frozen=True)
class SourceTargetMatrix:
    """Row-major boolean matrix packed into an int, row 0 at the low bits."""

    rows: int
    cols: int
    bits: int

    def entry(self, row: int, col: int) -> int:
        return (self.bits >> (row * self.cols + col)) & 1

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(self.entry(r, c)) for c in range(self.cols))
            for r in range(self.rows)
        ) + "]"


class WeightedStmSet:
    """Pooled probability mass of rows x cols matrices, keyed by their bits.

    ``pooled`` maps the bits of each nonzero matrix to its mass, in the
    order the matrices were first met. The all-zero matrix is never
    stored; its mass is kept in ``discarded`` so stage tabulations can
    assert stored + discarded = 1.
    """

    __slots__ = ("rows", "cols", "pooled", "discarded")

    def __init__(
        self, rows: int, cols: int, pooled: dict[int, float], discarded: float = 0.0
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.pooled = pooled
        self.discarded = discarded

    @property
    def entries(self) -> dict[SourceTargetMatrix, float]:
        """The pooled masses keyed by matrix, built afresh on every read."""
        return {
            SourceTargetMatrix(self.rows, self.cols, bits): mass
            for bits, mass in self.pooled.items()
        }

    def __len__(self) -> int:
        return len(self.pooled)

    def items(self):
        return self.entries.items()


@dataclass
class Counters:
    """Work accounting for one staged computation.

    stage_stm_counts holds the pooled matrix count of each stage
    tabulation, fold_stm_counts the pooled set size after each fold.
    convolution_products counts matrix products attempted,
    multiplications counts probability multiplies actually performed and
    summations counts additions into existing pooled masses.
    """

    stage_stm_counts: list[int] = field(default_factory=list)
    fold_stm_counts: list[int] = field(default_factory=list)
    convolution_products: int = 0
    multiplications: int = 0
    summations: int = 0

    @property
    def stms_per_stage(self) -> list[int]:
        return self.stage_stm_counts + self.fold_stm_counts

    @property
    def total_aggregated(self) -> int:
        return sum(self.stms_per_stage)

    def as_dict(self) -> dict:
        return {
            "stage_stm_counts": list(self.stage_stm_counts),
            "fold_stm_counts": list(self.fold_stm_counts),
            "total_aggregated": self.total_aggregated,
            "convolution_products": self.convolution_products,
            "multiplications": self.multiplications,
            "summations": self.summations,
        }


def stm_from_vector(network: Network, stage: Stage, bits: int) -> SourceTargetMatrix:
    """Connectivity matrix of one stage vector.

    Coordinate h of the stage vector is arc stage.arc_ids[h]. Entry
    (alpha, beta) is 1 when source node alpha and target node beta sit in
    the same component of the stage subgraph under that vector; a node
    serving as both source and target is connected to itself with no arcs
    at all.
    """
    local = {node: idx for idx, node in enumerate(stage.node_ids)}
    parent = list(range(len(stage.node_ids)))
    for h, arc_id in enumerate(stage.arc_ids):
        if (bits >> h) & 1:
            a = network.arcs[arc_id - 1]
            union(parent, local[a.u], local[a.v])
    source_roots = [find(parent, local[s]) for s in stage.source_nodes]
    target_roots = [find(parent, local[t]) for t in stage.target_nodes]
    out = 0
    pos = 0
    for rs in source_roots:
        for rt in target_roots:
            if rs == rt:
                out |= 1 << pos
            pos += 1
    return SourceTargetMatrix(len(source_roots), len(target_roots), out)


def _walk(parent, size, arc_u, arc_v, lo, hi, nodes, targets=None) -> list:
    """Read the forest at every state of arcs lo..hi-1, in integer order.

    A depth-first walk decides arc hi-1 first and arc lo last, taking
    each 0-branch before its 1-branch, and carries the merges of the set
    arcs in the forest: union by size with an undo trail of real merges
    and no path compression, so backtracking costs O(1) per merge made
    below a frame. With targets, nodes are the source nodes and each
    leaf gives the bits of its source-target matrix, row-major with row 0
    at the low bits. Without, each leaf gives the partition of nodes: for
    each node, the position of the first node in its set. The walk
    leaves the forest changed.
    """
    trail: list[int] = []
    outs: list = []
    # Frames (k, mark): arcs k..hi-1 are decided and arcs below k are
    # still open. Every frame but the root is the 1-branch of arc k,
    # whose merge is made when the frame pops.
    stack = [(hi, 0)]
    while stack:
        k, mark = stack.pop()
        if len(trail) > mark:  # most pops have nothing to roll back
            undo(parent, size, trail, mark)
        if k < hi:
            merge(parent, size, trail, arc_u[k], arc_v[k])
        # follow the 0-branches down to the leaf, leaving each 1-branch
        # on the stack; open arcs merge nothing, so they share one mark
        mark = len(trail)
        while k > lo:
            k -= 1
            stack.append((k, mark))
        if targets is None:
            roots = []
            for x in nodes:
                while parent[x] != x:
                    x = parent[x]
                roots.append(x)
            # from a list, not tuple(map(...)): on CPython that left
            # thousands of spare key-sized tuples on the free lists
            outs.append(tuple([roots.index(r) for r in roots]))
            continue
        target_roots = []
        for x in targets:
            while parent[x] != x:
                x = parent[x]
            target_roots.append(x)
        out = 0
        bit = 1
        for x in nodes:
            while parent[x] != x:
                x = parent[x]
            for rt in target_roots:
                if x == rt:
                    out |= bit
                bit <<= 1
        outs.append(out)
    return outs


def _low_half(key, low_u, low_v, shift, sources, targets, low) -> tuple[dict, int]:
    """The low half under one key, its leaves grouped by matrix.

    Read as a parent list over the interface, the key is already a
    forest of its partition. Returns (by_matrix, zeros): by_matrix maps
    the bits of each matrix, in the order the matrices first appear, to
    the low-table entries of its leaves in integer order; zeros counts
    the leaves whose matrix is all zero.
    """
    size = [key.count(i) for i in range(len(key))]
    outs = _walk(list(key), size, low_u, low_v, 0, shift, sources, targets)
    by_matrix: dict[int, list[float]] = {}
    for out, mass in zip(outs, low):
        if out in by_matrix:
            by_matrix[out].append(mass)
        else:
            by_matrix[out] = [mass]
    return by_matrix, outs.count(0)


def tabulate_stage(
    network: Network,
    stage: Stage,
    budget: Budget | None = None,
    counters: Counters | None = None,
) -> WeightedStmSet:
    """Pool the connectivity matrix of every stage vector (``_tabulate``)."""
    pooled, discarded = _tabulate(network, stage, budget, counters, {})
    return WeightedStmSet(
        len(stage.source_nodes), len(stage.target_nodes), pooled, discarded
    )


def _tabulate(
    network: Network,
    stage: Stage,
    budget: Budget | None,
    counters: Counters | None,
    walks: dict,
) -> tuple[dict[int, float], float]:
    """Pool the connectivity matrix of every stage vector, by matrix bits.

    Vector ``bits`` weighs ``low[bits & (2^shift - 1)] * high[bits >> shift]``
    (``half_probability_tables``), and the walk splits at that shift. An
    outer walk over the high arcs shift..g-1 meets the high leaves hb in
    increasing order and reads each one's key: the partition its arcs
    induce on the interface, which is the low arcs' endpoints and the
    source and target nodes. The key fixes the matrix of every low
    completion j, so high leaves with equal keys share one inner walk over
    the low arcs, one table from matrix bits to its leaves (``_low_half``)
    kept in a per-stage memo of at most _MEMO_LEAVES leaves (past it, a
    key's low half is walked again).
    Each high leaf adds ``low[j] * high[hb]`` to its matrix for j in
    increasing order, so every pooled mass is the same sum, in the same
    order, as a per-vector sweep over ``range(2^g)``: entries, their
    order, ``discarded`` and the counters are bit-identical to it.

    Stages with fewer than _KEYED_SHIFT low arcs are walked whole, and
    their leaf matrices depend only on the stage's local shape: the node
    count, each arc's local endpoints in stage order and the local source
    and target lists. ``walks`` maps that shape to its leaf matrices and
    their zero count, so a caller that passes one dict for many stages
    (``reliability_qb2`` does, for one solve) walks each shape once and
    redoes only the probability sums for the others. The all-zero matrix
    is dropped and its mass returned as the discarded mass. A budget is
    checked once per arc while the tables are built, then before leaf 0
    and, in a keyed stage, at every high leaf whose first vector index is
    a multiple of _BUDGET_STRIDE (every high leaf, once one spans that
    many vectors), whether or not the shape or key was walked before.
    """
    g = len(stage.arc_ids)
    arcs = [network.arcs[arc_id - 1] for arc_id in stage.arc_ids]
    low, high, shift = half_probability_tables([a.p for a in arcs], budget)
    local = {node: idx for idx, node in enumerate(stage.node_ids)}
    n = len(local)
    arc_u = tuple([local[a.u] for a in arcs])
    arc_v = tuple([local[a.v] for a in arcs])
    sources = tuple([local[s] for s in stage.source_nodes])
    targets = tuple([local[t] for t in stage.target_nodes])
    if budget is not None:  # leaf 0's check, made before any walk
        budget.check()
    # matrix bits -> mass; the all-zero matrix 0 is popped as discarded
    pooled: dict[int, float] = {}
    get = pooled.get

    if shift < _KEYED_SHIFT:
        # too few low leaves per high leaf for a key to pay: walk every
        # arc, once per shape, and pool leaf by leaf
        shape = (n, arc_u, arc_v, sources, targets)
        walk = walks.get(shape)
        if walk is None:
            outs = _walk(list(range(n)), [1] * n, arc_u, arc_v, 0, g, sources, targets)
            walk = walks[shape] = (outs, outs.count(0))
        outs, zeros = walk
        low_mask = (1 << shift) - 1
        for bits, out in enumerate(outs):
            pooled[out] = get(out, 0.0) + low[bits & low_mask] * high[bits >> shift]
    else:
        interface = sorted({*arc_u[:shift], *arc_v[:shift], *sources, *targets})
        keys = _walk(list(range(n)), [1] * n, arc_u, arc_v, shift, g, interface)
        at = {node: i for i, node in enumerate(interface)}
        low_u = [at[x] for x in arc_u[:shift]]
        low_v = [at[x] for x in arc_v[:shift]]
        sources = [at[x] for x in sources]
        targets = [at[x] for x in targets]
        memo: dict[tuple[int, ...], tuple] = {}
        stored = 0
        zeros = 0
        for hb, key in enumerate(keys):
            if budget is not None and hb and (hb << shift) & (_BUDGET_STRIDE - 1) == 0:
                budget.check()
            half = memo.get(key)
            if half is None:
                half = _low_half(key, low_u, low_v, shift, sources, targets, low)
                if stored + (1 << shift) <= _MEMO_LEAVES:
                    memo[key] = half
                    stored += 1 << shift
            by_matrix, half_zeros = half
            zeros += half_zeros
            h = high[hb]
            # one matrix's leaves, added left to right in integer order; a
            # new matrix starts from 0.0 + mass == mass
            for out, lows in by_matrix.items():
                pooled[out] = reduce(add, map(mul, lows, repeat(h)), get(out, 0.0))
    discarded = pooled.pop(0, 0.0)
    if counters is not None:
        counters.multiplications += 1 << g
        counters.summations += (1 << g) - zeros - len(pooled)
    return pooled, discarded


def _fold(acc, stage, stage_shape, plans, counters=None) -> dict[int, float]:
    """Fold one pooled stage into the pooled one-row accumulator, by bits.

    ``acc`` and ``stage`` map matrix bits to mass, the stage's shape is
    (rows, cols), and the accumulator is one row of ``rows`` entries; the
    result maps each nonzero product's bits to its mass. Which pairs give
    which products depends only on the stage's shape and the bits of both
    tables in order, so ``plans`` maps that key to its plan
    (``_fold_plan``) and a caller that passes one dict for many folds
    (``reliability_qb2`` does, for one solve) plans each key once. Every
    fold then visits the pairs accumulator-major in insertion order, skips
    zero products before any probability work and adds
    ``acc_mass * stage_mass`` to each nonzero product's bits: the sums,
    their order and the counters are those of a product-by-product fold.
    """
    key = (stage_shape, tuple(acc), tuple(stage))
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _fold_plan(acc, stage, stage_shape)
    products_by_acc, zeros = plan
    stage_masses = stage.values()
    pooled: dict[int, float] = {}
    get = pooled.get
    for acc_mass, products in zip(acc.values(), products_by_acc):
        for out, mass in zip(products, stage_masses):
            if out:
                pooled[out] = get(out, 0.0) + acc_mass * mass
    if counters is not None:
        pairs = len(acc) * len(stage)
        counters.convolution_products += pairs
        counters.multiplications += pairs - zeros
        counters.summations += pairs - zeros - len(pooled)
    return pooled


def _fold_plan(acc, stage, stage_shape) -> tuple[list, int]:
    """Every product of a fold, by accumulator matrix, and the zero count.

    Returns (products_by_acc, zeros): entry i lists the bits of accumulator
    matrix i's product with each stage matrix in insertion order, or is
    empty when every such product is zero. Each stage matrix's rows are
    unpacked once; the one-row accumulator's product with a stage matrix
    is the OR of the stage rows its bits select, taken for every stage
    matrix at once.
    """
    rows, cols = stage_shape
    mask = (1 << cols) - 1
    # stage_rows[h]: row h of every stage matrix
    stage_rows = [[bits >> h * cols & mask for bits in stage] for h in range(rows)]
    products_by_acc = []
    zeros = 0
    for acc_bits in acc:
        products = None
        for rows_h in stage_rows:
            if acc_bits & 1:
                products = rows_h if products is None else list(map(or_, products, rows_h))
            acc_bits >>= 1
        if products is None:  # the all-zero accumulator selects nothing
            zeros += len(stage)
            products = ()
        else:
            zeros += products.count(0)
        products_by_acc.append(products)
    return products_by_acc, zeros


def convolve_sets(
    acc: WeightedStmSet,
    stage_set: WeightedStmSet,
    counters: Counters | None = None,
) -> WeightedStmSet:
    """Fold one stage into the one-row accumulator (``_fold``).

    Every accumulator/stage pair is convolved; zero products are dropped
    before any probability work, and equal results pool their mass by
    matrix bits. The stage's rows are unpacked once per fold, not once
    per product. Raises ValueError unless the accumulator is one row as
    wide as the stage has rows.
    """
    shape = (stage_set.rows, stage_set.cols)
    if (acc.rows, acc.cols) != (1, stage_set.rows):
        raise ValueError(
            f"cannot convolve {acc.rows}x{acc.cols} with {shape[0]}x{shape[1]}: "
            "the accumulator must be one row as wide as the stage has rows"
        )
    pooled = _fold(acc.pooled, stage_set.pooled, shape, {}, counters)
    return WeightedStmSet(1, stage_set.cols, pooled)


def reliability_qb2(
    network: Network, budget: Budget | None = None
) -> tuple[float, Counters]:
    """Stage tabulation followed by a left-to-right fold.

    Tabulates every stage (``_tabulate``), folds the pooled sets in stage
    order with pooling after each fold (``_fold``), and returns the total
    mass of the surviving final matrices, which are all the 1x1 connected
    matrix. Both steps pool by matrix bits in plain dicts, and each fold
    unpacks its stage matrices' rows once; no matrix object is built.
    The walks of stage shapes and the fold plans are kept in two dicts
    local to this call, so like stages and like folds share them and
    only redo their probability sums.
    Summation order is fixed (stage order, enumeration order within a
    stage, insertion order in folds) so repeated solves are bit-identical.
    A stage wider than DEFAULT_ENUMERATION_CAP arcs raises
    EnumerationCapExceeded before any table is built.
    """
    counters = Counters()
    if network.node_count == 1:
        return 1.0, counters
    stages = decompose(network).stages or ()
    widest = max(stages, key=lambda stage: len(stage.arc_ids))
    width = len(widest.arc_ids)
    if width > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            width,
            f"qb2 stage {widest.index} has {width} arcs, above the cap of "
            f"{DEFAULT_ENUMERATION_CAP}; its 2^{width} vectors are not enumerated",
        )
    walks: dict = {}
    tables = []
    for stage in stages:
        if budget is not None:
            budget.check()
        pooled, _ = _tabulate(network, stage, budget, counters, walks)
        counters.stage_stm_counts.append(len(pooled))
        tables.append(pooled)
    # stage 1 has one source, so the accumulator is one row, and stage s's
    # targets are stage s+1's sources, so its width is the next stage's rows
    acc = tables[0]
    plans: dict = {}
    for stage, pooled in zip(stages[1:], tables[1:]):
        if budget is not None:
            budget.check()
        shape = (len(stage.source_nodes), len(stage.target_nodes))
        acc = _fold(acc, pooled, shape, plans, counters)
        counters.fold_stm_counts.append(len(acc))
    total = 0.0
    for mass in acc.values():
        total += mass
    return total, counters
