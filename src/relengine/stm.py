"""Boundary connectivity matrices and their max-min convolution.

Each stage vector collapses to a small boolean matrix recording which
stage source nodes reach which stage target nodes; equal matrices pool
their probability. Which vectors give which matrix is worked out for
many vectors at once, one bit per vector in Python ints, by relaxing
reach across the arcs (``_slice``). A stage of up to 13 arcs is sliced
whole, every vector at once. A wider stage is tabulated half by half,
split where its probability tables split (``half_probability_tables``):
the partition each high leaf induces on the interface (the low arcs'
endpoints and the boundary nodes) is built by doubling, one merge per
leaf (``_keys``), and every high leaf with the same partition reuses one
slice of the low leaves (``_low_half``). Masses are still added per
vector in integer order, the order a per-vector sweep
(``stm_from_vector`` over ``range(2^g)``) would use, so the tables are
bit-identical to that sweep. Folding consecutive stages is a boolean
max-min matrix product. Stage one has a single source node, so the
accumulator is always one row, as wide as the next stage has rows: a
product is the OR of the stage rows that the accumulator's bits select.
``reliability_qb2`` works on these plain ints and builds no matrix
objects; ``tabulate_stage`` and ``convolve_sets`` wrap the same cores
and return ``WeightedStmSet`` views of their results.

Only tabulation keeps structure across stages. Which leaf gives which
matrix depends only on a stage's local shape, and the arithmetic is the
probability sums. One ``reliability_qb2`` call keeps the slices of the
stages it sliced whole in a local dict keyed by shape, so on a long
chain of like stages each shape is sliced once and every stage redoes
only its sums, in the same order as before. Folds keep nothing: each
product is worked out again from the bits of its pair. Nothing of a
network outlives the call (the arcs' leaf patterns, ``_arc_leaves``,
depend on the arc count alone), and ``tabulate_stage`` starts from an
empty dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import compress, repeat
from operator import add, mul

from .bat import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    half_probability_tables,
)
from .budget import STRIDE, Budget
from .decompose import Stage, decompose
from .network import Network
from .unionfind import find, union

# Below this many low arcs (at most 64 low leaves per high leaf, so at
# most 13 arcs) a key costs more than the low work it saves, so the stage
# is sliced whole; at 14 arcs or more the keys pay.
_KEYED_SHIFT = 7
# Sliced stage shapes one solve keeps: each holds at most 16 selectors of
# at most 8 KiB (13 arcs), so at most 8 MiB in all; past this, a new
# shape is sliced again at each of its stages.
_SHAPES = 64
# Low-half leaves one stage tabulation keeps in its memo (about 8 MiB of
# list slots); past this, a key's low half is worked out again, not stored.
_MEMO_LEAVES = 1 << 20
# The selector bytes of a byte of leaves: leaf k of the byte on byte k.
_SELECTORS = [bytes([(b >> k) & 1 for k in range(8)]) for b in range(256)]


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


def _keys(n, arc_u, arc_v, width) -> list[tuple[int, ...]]:
    """The partition of nodes below width at every leaf of the arcs, in integer order.

    Leaves are built by doubling (the partition update of Carlier and
    Lucet): leaf 0 puts each of the n nodes in its own block, and after
    arc k the list gains leaf j + 2^k for each j < 2^k, which is leaf j's
    labels with arc k's two blocks merged under the smaller label, or leaf
    j's own tuple when they already share one. Each block is thus labelled
    by its smallest node, so the key of a leaf, its first width labels,
    gives each node below width the first such node in its set. Equal
    keys share one tuple, and each leaf's labels are dropped as its key
    replaces them.
    """
    leaves = [tuple(range(n))]
    for u, v in zip(arc_u, arc_v):
        for j in range(len(leaves)):
            labels = leaves[j]
            a, b = labels[u], labels[v]
            if a != b:
                if a > b:
                    a, b = b, a
                labels = tuple([a if x == b else x for x in labels])
            leaves.append(labels)
    keys: dict[tuple[int, ...], tuple[int, ...]] = {}
    for j, labels in enumerate(leaves):
        key = labels[:width]
        leaves[j] = keys.setdefault(key, key)
    return leaves


@cache
def _arc_leaves(shift: int) -> tuple[int, ...]:
    """For each arc i < shift, the 2^shift-bit int of the leaves that set it.

    Leaf j sets arc i when bit i of j is 1: runs of 2^i clear and 2^i
    set bits, doubled out to 2^shift bits. The patterns depend on shift
    alone, so they are built once per shift (at most 15 ints of 4 KiB).
    """
    out = []
    for i in range(shift):
        period = 2 << i
        leaves = ((1 << (1 << i)) - 1) << (1 << i)
        while period < 1 << shift:
            leaves |= leaves << period
            period <<= 1
        out.append(leaves)
    return tuple(out)


def _slice(key, arc_u, arc_v, shift, sources, targets) -> tuple[dict[int, bytes], int]:
    """Group every leaf of arcs 0..shift-1 by its matrix, all leaves at once.

    The key gives each node its block: the position of the first node in
    its set (the identity when no arc is decided outside the slice). Every
    leaf is one bit of a 2^shift-bit int (leaf j on bit j). For each
    source block, reach[b] holds the leaves in which the source block
    reaches block b: the source block starts at every leaf, and each arc
    i between two blocks passes reach across where it is set
    (``_arc_leaves``) until nothing changes. An arc inside one block
    joins nothing and is dropped. Entry (r, c) of a leaf's matrix is its
    bit in reach of source r at the block of target c, and the entries
    split the leaves into groups of equal matrix.

    Returns (selectors, zeros): selectors maps the bits of each matrix,
    in the order of each group's lowest leaf (the order the matrices
    first appear in integer order), to its selector for
    ``itertools.compress``: byte j is 1 when leaf j has that matrix.
    zeros counts the leaves whose matrix is all zero.
    """
    full = (1 << (1 << shift)) - 1
    arcs = []
    for u, v, leaves in zip(arc_u, arc_v, _arc_leaves(shift)):
        if key[u] != key[v]:
            arcs.append((key[u], key[v], leaves))
    reaches: dict[int, list[int]] = {}
    entries = []
    for s in sources:
        reach = reaches.get(key[s])
        if reach is None:
            reach = reaches[key[s]] = [0] * len(key)
            reach[key[s]] = full
            changed = True
            while changed:
                changed = False
                for a, b, leaves in arcs:
                    gain = (reach[a] ^ reach[b]) & leaves
                    if gain:
                        reach[a] |= gain
                        reach[b] |= gain
                        changed = True
        entries.extend([reach[key[t]] for t in targets])
    groups = {0: full}
    for pos, entry in enumerate(entries):
        split = {}
        for out, leaves in groups.items():
            on = leaves & entry
            if on:
                split[out | 1 << pos] = on
            if on != leaves:
                split[out] = leaves ^ on
        groups = split
    selectors = {}
    for out, leaves in sorted(groups.items(), key=lambda group: group[1] & -group[1]):
        if shift <= 3:  # at most 8 leaves: one byte
            selectors[out] = _SELECTORS[leaves]
        else:
            chunks = leaves.to_bytes(1 << (shift - 3), "little")
            selectors[out] = b"".join(map(_SELECTORS.__getitem__, chunks))
    return selectors, groups.get(0, 0).bit_count()


def _low_half(key, low_u, low_v, shift, sources, targets, low) -> tuple[dict, int]:
    """The low half under one key, its leaves grouped by matrix (``_slice``).

    The key is the partition a high leaf induces on the interface nodes.
    Returns (by_matrix, zeros): by_matrix maps the bits of each matrix,
    in the order the matrices first appear in integer order, to the
    low-table entries of its leaves in integer order; zeros counts the
    leaves whose matrix is all zero.
    """
    selectors, zeros = _slice(key, low_u, low_v, shift, sources, targets)
    return {out: list(compress(low, sel)) for out, sel in selectors.items()}, zeros


def tabulate_stage(
    network: Network,
    stage: Stage,
    budget: Budget | None = None,
    counters: Counters | None = None,
) -> WeightedStmSet:
    """Pool the connectivity matrix of every stage vector (``_tabulate``)."""
    pooled, discarded = _tabulate(
        network, stage, budget, counters or Counters(), {}, discard=True
    )
    return WeightedStmSet(
        len(stage.source_nodes), len(stage.target_nodes), pooled, discarded
    )


def _tabulate(
    network: Network,
    stage: Stage,
    budget: Budget | None,
    counters: Counters,
    shapes: dict,
    discard: bool = False,
) -> tuple[dict[int, float], float | None]:
    """Pool the connectivity matrix of every stage vector, by matrix bits.

    Vector ``bits`` weighs ``low[bits & (2^shift - 1)] * high[bits >> shift]``
    (``half_probability_tables``). Every pooled mass is the same sum, in
    the same order, as a per-vector sweep over ``range(2^g)``, so entries,
    their order, ``discarded`` and the counters are bit-identical to it.
    The all-zero matrix is dropped and its mass returned as discarded; a
    stage sliced whole sums that mass only with ``discard``, and returns
    None for it without.

    A stage of fewer than 2 * _KEYED_SHIFT arcs is sliced whole: every
    leaf of its g arcs at once (``_slice``, each node its own block). Its
    leaf matrices depend only on its local shape: the node count, each
    arc's local endpoints in stage order and the local sources and
    targets, a node's local index being its position in the stage's node
    list. ``shapes`` maps the shape to its selectors, so a caller that
    passes one dict for many stages (``reliability_qb2`` does, for one
    solve) slices each shape once, while it holds fewer than _SHAPES,
    and each stage adds up only its own masses: ``low[j & mask] *
    high[j >> shift]`` for every leaf j, each matrix's picked out by its
    selector and added in integer order.

    A wider stage is split at its shift. Every high leaf hb, in
    increasing order, has a key (``_keys``, with the interface numbered
    first): the partition its arcs induce on the interface, which is the
    low arcs' endpoints and the source and target nodes. The key fixes the
    matrix of every low completion j, so high leaves with equal keys
    share one table from matrix bits to their low leaves (``_low_half``),
    kept in a per-stage memo of at most _MEMO_LEAVES leaves. Each high
    leaf adds ``low[j] * high[hb]`` to its matrix for j in increasing
    order. A budget is checked before leaf 0 and, in a keyed stage, at
    every high leaf whose first vector index is a multiple of
    budget.STRIDE, whether or not the shape or key was met before.
    """
    g = len(stage.arc_ids)
    arcs = [network.arcs[arc_id - 1] for arc_id in stage.arc_ids]
    low, high, shift = half_probability_tables([a.p for a in arcs])
    local = stage.node_ids.index  # a node's position in the stage's node list
    n = len(stage.node_ids)
    arc_u = [local(a.u) for a in arcs]
    arc_v = [local(a.v) for a in arcs]
    sources = tuple(map(local, stage.source_nodes))
    targets = tuple(map(local, stage.target_nodes))
    if budget is not None:  # the stage's check, made before any slice or key
        budget.check()

    if shift < _KEYED_SHIFT:
        # too few low leaves per high leaf for a key to pay: slice every
        # arc at once, once per shape
        shape = (n, *arc_u, *arc_v, sources, targets)
        sliced = shapes.get(shape)
        if sliced is None:
            selectors, zeros = _slice(range(n), arc_u, arc_v, g, sources, targets)
            zero = selectors.pop(0, b"")
            # a matrix of one leaf keeps its index, and no selector
            matrices = [
                (out, sel.index(1), sel if sel.count(1) > 1 else None)
                for out, sel in selectors.items()
            ]
            sliced = (matrices, zero, zeros)
            if len(shapes) < _SHAPES:
                shapes[shape] = sliced
        matrices, zero, zeros = sliced
        # low[j] * high[hb] for every vector; without low arcs, just high
        masses = [x * y for y in high for x in low] if shift else high
        pooled = {}
        for out, first, sel in matrices:
            # one matrix's leaves, added left to right in integer order
            if sel is None:
                pooled[out] = masses[first]
            else:
                pooled[out] = reduce(add, compress(masses, sel))
        discarded = reduce(add, compress(masses, zero), 0.0) if discard else None
    else:
        pooled = {}
        get = pooled.get
        interface = sorted({*arc_u[:shift], *arc_v[:shift], *sources, *targets})
        # the interface first, in order: a block's smallest node is then
        # its first interface node
        order = interface + [x for x in range(n) if x not in interface]
        at = {x: i for i, x in enumerate(order)}
        arc_u = [at[x] for x in arc_u]
        arc_v = [at[x] for x in arc_v]
        keys = _keys(n, arc_u[shift:], arc_v[shift:], len(interface))
        low_u, low_v = arc_u[:shift], arc_v[:shift]
        sources = [at[x] for x in sources]
        targets = [at[x] for x in targets]
        memo: dict[tuple[int, ...], tuple] = {}
        zeros = 0
        for hb, key in enumerate(keys):
            if budget is not None and hb and (hb << shift) % STRIDE == 0:
                budget.check()
            half = memo.get(key)
            if half is None:
                half = _low_half(key, low_u, low_v, shift, sources, targets, low)
                if (len(memo) + 1) << shift <= _MEMO_LEAVES:
                    memo[key] = half
            by_matrix, half_zeros = half
            zeros += half_zeros
            h = high[hb]
            # one matrix's leaves, added left to right in integer order; a
            # new matrix starts from 0.0 + mass == mass
            for out, lows in by_matrix.items():
                pooled[out] = reduce(add, map(mul, lows, repeat(h)), get(out, 0.0))
        discarded = pooled.pop(0, 0.0)
    counters.multiplications += 1 << g
    counters.summations += (1 << g) - zeros - len(pooled)
    return pooled, discarded


def _fold(acc, stage, cols, counters) -> dict[int, float]:
    """Fold one pooled stage into the pooled one-row accumulator, by bits.

    ``acc`` and ``stage`` map matrix bits to mass, and the stage matrices
    are ``cols`` wide. Pairs are visited accumulator-major in insertion
    order; each product is the OR of the stage rows that the accumulator's
    bits select. Zero products are skipped before any probability work and
    ``acc_mass * mass`` is added to each nonzero product's bits, so the
    sums, their order and the counters are those of a product-by-product
    fold.
    """
    mask = (1 << cols) - 1
    pooled: dict[int, float] = {}
    get = pooled.get
    nonzero = 0
    for acc_bits, acc_mass in acc.items():
        for bits, mass in stage.items():
            out = 0
            select = acc_bits
            while select:
                if select & 1:
                    out |= bits & mask
                select >>= 1
                bits >>= cols
            if out:
                nonzero += 1
                pooled[out] = get(out, 0.0) + acc_mass * mass
    counters.convolution_products += len(acc) * len(stage)
    counters.multiplications += nonzero
    counters.summations += nonzero - len(pooled)
    return pooled


def convolve_sets(
    acc: WeightedStmSet,
    stage_set: WeightedStmSet,
    counters: Counters | None = None,
) -> WeightedStmSet:
    """Fold one stage into the one-row accumulator (``_fold``).

    Every accumulator/stage pair is convolved; zero products are dropped
    before any probability work, and equal results pool their mass by
    matrix bits. Raises ValueError unless the accumulator is one row as
    wide as the stage has rows.
    """
    if (acc.rows, acc.cols) != (1, stage_set.rows):
        raise ValueError(
            f"cannot convolve {acc.rows}x{acc.cols} with "
            f"{stage_set.rows}x{stage_set.cols}: "
            "the accumulator must be one row as wide as the stage has rows"
        )
    pooled = _fold(acc.pooled, stage_set.pooled, stage_set.cols, counters or Counters())
    return WeightedStmSet(1, stage_set.cols, pooled)


def reliability_qb2(
    network: Network, budget: Budget | None = None
) -> tuple[float, Counters]:
    """Stage tabulation with a left-to-right fold.

    Tabulates each stage in order (``_tabulate``) and folds its pooled set
    into the accumulator, with pooling after each fold (``_fold``); the
    budget is checked once per stage, in ``_tabulate``. Returns the total
    mass of the surviving final matrices, which are all the 1x1 connected
    matrix. Both steps pool by matrix bits in plain dicts; no matrix
    object is built. The slices of stage shapes are kept in a dict local
    to this call, so like stages share them and only redo their
    probability sums; the all-zero matrix's mass is never summed.
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
    shapes: dict = {}
    acc = None
    for stage in stages:
        pooled, _ = _tabulate(network, stage, budget, counters, shapes)
        counters.stage_stm_counts.append(len(pooled))
        if acc is None:  # stage 1 has one source: a one-row accumulator
            acc = pooled
            continue
        acc = _fold(acc, pooled, len(stage.target_nodes), counters)
        counters.fold_stm_counts.append(len(acc))
    total = 0.0
    for mass in acc.values():
        total += mass
    return total, counters
