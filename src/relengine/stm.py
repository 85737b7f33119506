"""Boundary connectivity matrices and their max-min convolution.

Each stage vector collapses to a small boolean matrix recording which
stage source nodes reach which stage target nodes; equal matrices pool
their probability. A stage of up to 13 arcs is sliced whole, one bit per
vector in Python ints (``_slice``), and its masses are added per vector
in integer order, so its tables are bit-identical to a per-vector sweep
over ``range(2^g)`` (the tests' ``stm_from_vector``, in
``tests/vectors.py``, is that definition). A wider stage goes to a
frontier partition DP on byte-string states (``_partitions``), its arcs
in greedy frontier order (``_frontier_order``), not stage order; its
cost follows the frontier's partitions, not 2^g, and its tables agree
with the sweep to rounding. Folding consecutive stages is a boolean
max-min matrix product. Stage one has a single source node, so the
accumulator is always one row, as wide as the next stage has rows: a
product is the OR of the stage rows that the accumulator's bits select,
and with a one-node target boundary it is set exactly when the two share
a bit.
``reliability_qb2`` works on these plain ints and builds no matrix
objects; ``tabulate_stage`` and ``convolve_sets`` wrap the same cores
and return ``WeightedStmSet`` views of their results.

Only slicing keeps structure across stages: one ``reliability_qb2`` call
keeps each stage shape's slice in a local dict (``_tabulate``), so like
stages redo only their sums. Folds keep nothing, and nothing of a
network outlives the call: the arcs' leaf patterns (``_arc_leaves``)
depend on the arc count alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import compress
from operator import add

from .bat import (
    _BYTE,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    _table,
    half_probability_tables,
)
from .budget import STRIDE, Budget
from .decompose import Stage, decompose
from .network import Network

# Stages of up to this many arcs are sliced whole (2^13 leaves a slice);
# a wider one goes to the partition DP, whose states are far fewer.
_SLICED_ARCS = 13
# Sliced stage shapes one solve keeps: each holds at most 16 selectors of
# at most 8 KiB (13 arcs), so at most 8 MiB in all; past this, a new
# shape is sliced again at each of its stages.
_SHAPES = 64
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
    stored. Only stage tabulation (``tabulate_stage``) keeps its mass in
    ``discarded``, so that stored + discarded = 1; a fold
    (``convolve_sets``) drops it and leaves ``discarded`` at 0.0.
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


@cache
def _arc_leaves(shift: int) -> tuple[int, ...]:
    """For each arc i < shift, the 2^shift-bit int of the leaves that set it.

    Leaf j sets arc i when bit i of j is 1: runs of 2^i clear and 2^i
    set bits, doubled out to 2^shift bits. The patterns depend on shift
    alone, so they are built once per shift (at most 13 ints of 1 KiB).
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


def _slice(n, arc_u, arc_v, sources, targets) -> tuple[dict[int, bytes], int]:
    """Group every leaf of the arcs by its matrix, all leaves at once.

    Every leaf of the g arcs is one bit of a 2^g-bit int (leaf j on bit
    j). For each source, reach[x] holds the leaves in which the source
    reaches node x (of nodes 0..n-1): the source starts at every leaf,
    and each arc i passes reach across where it is set (``_arc_leaves``)
    until nothing changes. Entry (r, c) of a leaf's matrix is its bit in
    reach of source r at target c, and the entries split the leaves into
    groups of equal matrix.

    Returns (selectors, zeros): selectors maps the bits of each matrix,
    in the order of each group's lowest leaf (the order the matrices
    first appear in integer order), to its selector for
    ``itertools.compress``: byte j is 1 when leaf j has that matrix.
    zeros counts the leaves whose matrix is all zero.
    """
    g = len(arc_u)
    full = (1 << (1 << g)) - 1
    arcs = list(zip(arc_u, arc_v, _arc_leaves(g)))
    entries = []
    for s in sources:
        reach = [0] * n
        reach[s] = full
        changed = True
        while changed:
            changed = False
            for a, b, leaves in arcs:
                gain = (reach[a] ^ reach[b]) & leaves
                if gain:
                    reach[a] |= gain
                    reach[b] |= gain
                    changed = True
        entries.extend([reach[t] for t in targets])
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
        chunks = leaves.to_bytes(max(1, (1 << g) >> 3), "little")  # 8 leaves a byte
        selectors[out] = b"".join(map(_SELECTORS.__getitem__, chunks))
    return selectors, groups.get(0, 0).bit_count()


def _frontier_order(n, arc_u, arc_v, boundary):
    """The arcs' indices in greedy frontier order, for ``_partitions``.

    Arc order sets a frontier DP's width (Kawahara et al., 2017). Each
    next arc adds the fewest nodes to the frontier net of the non-boundary
    nodes it retires (those it is the last arc left of); ties go to more
    ends already on the frontier, then to the lower index.
    """
    # arcs left at each node; 0 on the boundary, which never leaves
    left = [0 if x in boundary else arc_u.count(x) + arc_v.count(x) for x in range(n)]
    # one end's share of 4 * (nodes added - nodes retired) + nodes added
    costs = [5 - 4 * (c == 1) if c else 0 for c in left]
    rest = list(range(len(arc_u)))
    order = []
    while rest:
        k = min(rest, key=lambda k: costs[arc_u[k]] + costs[arc_v[k]])
        rest.remove(k)
        order.append(k)
        for x in (arc_u[k], arc_v[k]):
            left[x] -= 1
            costs[x] = -4 * (left[x] == 1)
    return order


def _partitions(n, arc_u, arc_v, probs, sources, targets, budget):
    """Pool the matrix of every vector of the arcs by a frontier partition DP.

    The update of Rosenthal (1977) and of Carlier and Lucet (1996), over
    nodes 0..n-1 and the arcs in greedy frontier order
    (``_frontier_order``), which also fixes the summation order. The
    frontier holds the sources and targets throughout, and any other node
    from its first arc to its last. A state is a bytes string: entry i is
    the frontier position of the first node in i's block, a canonical
    labelling; the frontier is never wider than the stage's n nodes, far
    below 256 under the 30-arc cap. Arc k of probability p appends each
    joining node's own position, and sends a state of mass m to itself,
    failed, with m * (1 - p), and merged (one ``bytes.replace``) with
    m * p, kept whole when its ends share a block. Then the nodes whose
    last arc is k leave: a leaving label passes to its block's next
    member, and the entry is dropped. Equal states pool. A final
    state's matrix has entry (i, j) set when source i and target j share
    a block. The budget is checked every STRIDE states of each arc, the
    first time before any. Returns the nonzero matrices' masses by bits,
    the all-zero one's mass, the mass products made and the additions
    into an existing pooled entry.
    """
    order = _frontier_order(n, arc_u, arc_v, {*sources, *targets})
    arc_u, arc_v, probs = ([xs[k] for k in order] for xs in (arc_u, arc_v, probs))
    last = [-1] * n
    for k, (u, v) in enumerate(zip(arc_u, arc_v)):
        last[u] = last[v] = k
    frontier = list(dict.fromkeys((*sources, *targets)))
    for x in frontier:
        last[x] = len(arc_u)  # the boundary stays to the end
    states = {bytes(range(len(frontier))): 1.0}
    products = additions = 0
    for k, (u, v, p) in enumerate(zip(arc_u, arc_v, probs)):
        fresh = [x for x in (u, v) if x not in frontier]
        tail = bytes(range(len(frontier), len(frontier) + len(fresh)))
        frontier += fresh
        iu, iv = frontier.index(u), frontier.index(v)
        gone = [i for i, x in enumerate(frontier) if last[x] == k]
        keep = [i for i, x in enumerate(frontier) if last[x] > k]
        frontier = [frontier[i] for i in keep]
        shift = bytes.maketrans(bytes(keep), bytes(range(len(keep))))
        q = 1.0 - p
        pooled: dict[bytes, float] = {}
        get = pooled.get
        splits = 0
        for j, (labels, mass) in enumerate(states.items()):
            if budget is not None and j % STRIDE == 0:
                budget.check()
            labels += tail
            a, b = labels[iu], labels[iv]
            if a == b:
                branches = ((labels, mass),)
            else:
                splits += 1
                if a > b:
                    a, b = b, a
                branches = ((labels, mass * q), (labels.replace(_BYTE[b], _BYTE[a]), mass * p))
            for key, m in branches:
                if gone:
                    for r in gone:  # a leaving label passes to its block's next member
                        if key[r] == r and (nxt := key.find(_BYTE[r], r + 1)) > 0:
                            key = key.replace(_BYTE[r], _BYTE[nxt])
                    key = key.translate(shift)  # kept labels to their new positions
                    key = bytes([key[i] for i in keep]) if gone[1:] else key[:r] + key[r + 1 :]
                pooled[key] = get(key, 0.0) + m
        products += 2 * splits
        additions += len(states) + splits - len(pooled)
        states = pooled
    pairs = [(frontier.index(s), frontier.index(t)) for s in sources for t in targets]
    pooled = {}
    for labels, mass in states.items():
        out = sum(1 << bit for bit, (i, j) in enumerate(pairs) if labels[i] == labels[j])
        pooled[out] = pooled.get(out, 0.0) + mass
    additions += len(states) - len(pooled)
    return pooled, pooled.pop(0, 0.0), products, additions


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

    Nodes are numbered by their position in the stage's node list, and the
    all-zero matrix's mass is returned as discarded. A stage of more than
    _SLICED_ARCS arcs goes to the byte-state partition DP in greedy arc
    order (``_partitions``), which builds no probability tables and checks
    the budget itself. A smaller one is sliced whole (``_slice``), vector
    ``bits`` weighing ``low[bits & (2^shift - 1)] * high[bits >> shift]``
    (``half_probability_tables``; up to two arcs that product is
    ``bat._table``'s own, so one table is built): its entries, their
    order, ``discarded`` (summed only with ``discard``, else None) and the
    counters are bit-identical to a per-vector sweep over ``range(2^g)``
    (the tests' ``stm_from_vector`` in ``tests/vectors.py``). A slice depends
    only on the stage's local shape (node count, arc endpoints in stage
    order, sources and targets), so a caller that passes one ``shapes`` dict
    for many stages slices each shape once, while it holds fewer than
    _SHAPES, and each stage adds up only its own masses; the shape's slice
    keeps its summation count too. The budget is checked before the slice,
    whether or not the shape was met before.
    """
    arcs = network.arcs
    local = stage.node_ids.index
    arc_u, arc_v, probs = [], [], []
    for arc_id in stage.arc_ids:
        a = arcs[arc_id - 1]
        arc_u.append(local(a.u))
        arc_v.append(local(a.v))
        probs.append(a.p)
    g = len(probs)
    n = len(stage.node_ids)
    sources = tuple(map(local, stage.source_nodes))
    targets = tuple(map(local, stage.target_nodes))
    if g > _SLICED_ARCS:
        pooled, discarded, products, additions = _partitions(
            n, arc_u, arc_v, probs, sources, targets, budget
        )
        counters.multiplications += products
        counters.summations += additions
        return pooled, discarded
    if budget is not None:
        budget.check()
    shape = (n, *arc_u, *arc_v, sources, targets)
    sliced = shapes.get(shape)
    if sliced is None:
        selectors, zeros = _slice(n, arc_u, arc_v, sources, targets)
        zero = selectors.pop(0, b"")
        # a matrix of one leaf keeps its index, and no selector
        matrices = [
            (out, sel.index(1), sel if sel.count(1) > 1 else None)
            for out, sel in selectors.items()
        ]
        # the additions into a pooled mass: each matrix's leaves but one
        sliced = (matrices, zero, (1 << g) - zeros - len(matrices))
        if len(shapes) < _SHAPES:
            shapes[shape] = sliced
    matrices, zero, summations = sliced
    if g > 2:
        # low[j] * high[hb] for every vector
        low, high, _ = half_probability_tables(probs)
        masses = [x * y for y in high for x in low]
    else:  # low has at most two entries, and each product is _table's own
        masses = _table(probs)
    pooled = {}
    for out, first, sel in matrices:
        # one matrix's leaves, added left to right in integer order
        pooled[out] = masses[first] if sel is None else reduce(add, compress(masses, sel))
    discarded = reduce(add, compress(masses, zero), 0.0) if discard else None
    counters.multiplications += 1 << g
    counters.summations += summations
    return pooled, discarded


def _fold(acc, stage, cols, counters) -> dict[int, float]:
    """Fold one pooled stage into the pooled one-row accumulator, by bits.

    ``acc`` and ``stage`` map matrix bits to mass, and the stage matrices
    are ``cols`` wide. Pairs are visited accumulator-major in insertion
    order; each product is the OR of the stage rows that the accumulator's
    bits select: one row is just shifted down, and the start of each of
    several is found once per accumulator entry. With one column the
    only nonzero product is 1, set exactly when ``acc_bits & bits`` is,
    and the products add into one running sum. An accumulator entry of
    0 makes only zero products. Zero products are skipped before any
    probability work and ``acc_mass * mass`` is added to each nonzero
    product's bits, so the sums, their order and the counters are those
    of a product-by-product fold, for any row count.
    """
    if cols == 1:  # a product is set exactly when acc_bits & bits is
        total = 0.0
        nonzero = 0
        for acc_bits, acc_mass in acc.items():
            for bits, mass in stage.items():
                if acc_bits & bits:
                    nonzero += 1
                    total += acc_mass * mass
        pooled = {1: total} if nonzero else {}
    else:
        mask = (1 << cols) - 1
        pooled = {}
        get = pooled.get
        nonzero = 0
        for acc_bits, acc_mass in acc.items():
            if acc_bits & (acc_bits - 1):  # where each selected stage row starts
                shifts = [r * cols for r in range(acc_bits.bit_length()) if acc_bits >> r & 1]
            elif acc_bits:  # one row, shifted down
                shifts, start = None, (acc_bits.bit_length() - 1) * cols
            else:
                continue  # every product is zero
            for bits, mass in stage.items():
                if shifts is None:
                    out = bits >> start & mask
                else:
                    out = 0
                    for shift in shifts:
                        out |= bits >> shift
                    out &= mask
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
    matrix bits. The dropped mass is not summed: the result's
    ``discarded`` is 0.0, since only stage tabulation fills it. Raises
    ValueError unless the accumulator is one row as wide as the stage has
    rows.
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
    budget is checked in ``_tabulate``. Returns the total mass of the
    surviving final matrices, which are all the 1x1 connected matrix.
    Both steps pool by matrix bits in plain dicts; no matrix object is
    built. The slices of stage shapes are kept in a dict local to this
    call, so like stages share them and only redo their probability sums.
    Summation order is fixed (stage order, then enumeration order in a
    sliced stage or greedy arc order and state order in a DP one,
    insertion order in folds), so repeated solves are bit-identical.
    A stage wider than DEFAULT_ENUMERATION_CAP arcs raises
    EnumerationCapExceeded before any table is built.
    """
    counters = Counters()
    if network.node_count == 1:
        return 1.0, counters
    stages = decompose(network).stages
    widest = max(stages, key=lambda stage: len(stage.arc_ids))
    width = len(widest.arc_ids)
    if width > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            width,
            f"qb2 stage {widest.index} has {width} arcs, above the cap of "
            f"{DEFAULT_ENUMERATION_CAP}; refused by qb2's fixed stage cap",
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
