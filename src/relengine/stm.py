"""Boundary connectivity matrices and their max-min convolution.

Each stage vector collapses to a small boolean matrix recording which
stage source nodes reach which stage target nodes; equal matrices pool
their probability. A stage is tabulated by one depth-first walk over
its arcs, most significant arc first and 0-branch first, so its vectors
arrive in integer order and every pooled mass is summed in the order a
per-vector sweep (``stm_from_vector`` over ``range(2^g)``) would use;
the tables are bit-identical to that sweep. Folding consecutive stages
is a boolean max-min matrix product, and because stage one has a single
source node the accumulator is always one row, keeping every product
linear in the boundary width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SourceTargetMatrix:
    """Row-major boolean matrix packed into an int, row 0 at the low bits."""

    rows: int
    cols: int
    bits: int

    def entry(self, row: int, col: int) -> int:
        return (self.bits >> (row * self.cols + col)) & 1

    def row_bits(self, row: int) -> int:
        return (self.bits >> (row * self.cols)) & ((1 << self.cols) - 1)

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(self.entry(r, c)) for c in range(self.cols))
            for r in range(self.rows)
        ) + "]"


class WeightedStmSet:
    """Insertion-ordered map from matrix to pooled probability mass.

    All-zero matrices are never stored; their mass is tracked separately
    so stage tabulations can assert stored + discarded = 1.
    """

    __slots__ = ("entries", "discarded")

    def __init__(self) -> None:
        self.entries: dict[SourceTargetMatrix, float] = {}
        self.discarded = 0.0

    def add(self, stm: SourceTargetMatrix, mass: float) -> None:
        if stm.bits == 0:
            self.discarded += mass
            return
        if stm in self.entries:
            self.entries[stm] += mass
        else:
            self.entries[stm] = mass

    def __len__(self) -> int:
        return len(self.entries)

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


def tabulate_stage(
    network: Network,
    stage: Stage,
    budget: Budget | None = None,
    counters: Counters | None = None,
) -> WeightedStmSet:
    """Pool the connectivity matrix of every stage vector.

    One depth-first walk over the stage's arcs decides arc g-1 first and
    arc 0 last, taking each 0-branch before its 1-branch, so the 2^g
    leaves arrive in integer order: the successor order of the
    enumeration, and the order in which ``stm_from_vector`` over
    ``range(2^g)`` would visit them. A union-find with an undo trail
    carries the merges of the decided arcs down the walk, so each leaf
    only reads the roots of the source and target nodes. Each leaf's mass
    is the same half-table product, added in that same order, so pooled
    masses, ``discarded`` and the counters are bit-identical to a
    per-vector sweep. Equal matrices merge by adding their
    probabilities; the all-zero matrix is dropped with its mass recorded.
    """
    g = len(stage.arc_ids)
    probs = [network.arcs[arc_id - 1].p for arc_id in stage.arc_ids]
    low, high, shift = half_probability_tables(probs, budget)
    low_mask = (1 << shift) - 1
    local = {node: idx for idx, node in enumerate(stage.node_ids)}
    arc_u = [local[network.arcs[arc_id - 1].u] for arc_id in stage.arc_ids]
    arc_v = [local[network.arcs[arc_id - 1].v] for arc_id in stage.arc_ids]
    sources = [local[s] for s in stage.source_nodes]
    targets = [local[t] for t in stage.target_nodes]
    cols = len(targets)

    # Union by size with an undo trail of real merges and no path
    # compression, so backtracking costs O(1) per merge made below a frame.
    parent = list(range(len(local)))
    size = [1] * len(local)
    trail: list[int] = []

    pooled: dict[int, float] = {}
    discarded = 0.0
    sums = 0
    # Frames (k, bits, trail_mark): arcs k..g-1 are decided by bits and
    # arcs below k are still open. Every frame but the root is the
    # 1-branch of arc k, whose merge is made when the frame pops.
    stack = [(g, 0, 0)]
    while stack:
        k, bits, mark = stack.pop()
        if len(trail) > mark:  # most pops have nothing to roll back
            undo(parent, size, trail, mark)
        if k < g:
            merge(parent, size, trail, arc_u[k], arc_v[k])
        # follow the 0-branches down to the leaf, leaving each 1-branch
        # on the stack; open arcs merge nothing, so they share one mark
        mark = len(trail)
        while k:
            k -= 1
            stack.append((k, bits | (1 << k), mark))

        if budget is not None and bits & (_BUDGET_STRIDE - 1) == 0:
            budget.check()
        target_roots = []
        for x in targets:
            while parent[x] != x:
                x = parent[x]
            target_roots.append(x)
        out = 0
        pos = 0
        for x in sources:
            while parent[x] != x:
                x = parent[x]
            for col, rt in enumerate(target_roots):
                if x == rt:
                    out |= 1 << (pos + col)
            pos += cols
        mass = low[bits & low_mask] * high[bits >> shift]
        if out == 0:
            discarded += mass
        elif out in pooled:
            pooled[out] += mass
            sums += 1
        else:
            pooled[out] = mass
    if counters is not None:
        counters.multiplications += 1 << g
        counters.summations += sums
    rows = len(sources)
    result = WeightedStmSet()
    result.entries = {
        SourceTargetMatrix(rows, cols, out): mass for out, mass in pooled.items()
    }
    result.discarded = discarded
    return result


def stm_convolve(
    a: SourceTargetMatrix, b: SourceTargetMatrix
) -> SourceTargetMatrix:
    """Boolean max-min product: out(alpha, beta) = OR over h of a(alpha,h) AND b(h,beta)."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot convolve {a.rows}x{a.cols} with {b.rows}x{b.cols}: "
            "stage chain dimensions do not match"
        )
    col_mask = (1 << b.cols) - 1
    b_rows = [(b.bits >> (h * b.cols)) & col_mask for h in range(b.rows)]
    out = 0
    for r in range(a.rows):
        abits = a.row_bits(r)
        row = 0
        h = 0
        while abits:
            if abits & 1:
                row |= b_rows[h]
            abits >>= 1
            h += 1
        out |= row << (r * b.cols)
    return SourceTargetMatrix(a.rows, b.cols, out)


def convolve_sets(
    acc: WeightedStmSet,
    stage_set: WeightedStmSet,
    counters: Counters | None = None,
) -> WeightedStmSet:
    """Fold one stage into the accumulator.

    Every accumulator/stage pair is convolved; zero products are dropped
    before any probability work, and equal results pool their mass.
    """
    out = WeightedStmSet()
    products = 0
    mults = 0
    sums = 0
    for acc_stm, acc_mass in acc.entries.items():
        for stage_stm, stage_mass in stage_set.entries.items():
            product = stm_convolve(acc_stm, stage_stm)
            products += 1
            if product.bits == 0:
                continue
            mass = acc_mass * stage_mass
            mults += 1
            if product in out.entries:
                sums += 1
            out.add(product, mass)
    if counters is not None:
        counters.convolution_products += products
        counters.multiplications += mults
        counters.summations += sums
    return out


def reliability_qb2(
    network: Network, budget: Budget | None = None
) -> tuple[float, Counters]:
    """Stage tabulation followed by a left-to-right fold.

    Tabulates every stage, folds the pooled sets in stage order with
    pooling after each fold, and returns the total mass of the surviving
    final matrices, which are all the 1x1 connected matrix. Summation
    order is fixed (stage order, enumeration order within a stage,
    insertion order in folds) so repeated runs are bit-identical. A stage
    wider than DEFAULT_ENUMERATION_CAP arcs raises EnumerationCapExceeded
    before any table is built.
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
            DEFAULT_ENUMERATION_CAP,
            f"qb2 stage {widest.index} has {width} arcs, above the cap of "
            f"{DEFAULT_ENUMERATION_CAP}; its 2^{width} vectors are not enumerated",
        )
    pooled = []
    for stage in stages:
        if budget is not None:
            budget.check()
        stage_set = tabulate_stage(network, stage, budget, counters)
        counters.stage_stm_counts.append(len(stage_set))
        pooled.append(stage_set)
    acc = pooled[0]
    for stage_set in pooled[1:]:
        if budget is not None:
            budget.check()
        acc = convolve_sets(acc, stage_set, counters)
        counters.fold_stm_counts.append(len(acc))
    total = 0.0
    for _, mass in acc.items():
        total += mass
    return total, counters
