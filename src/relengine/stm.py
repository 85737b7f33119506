"""Boundary connectivity matrices and their max-min convolution.

Each stage vector collapses to a small boolean matrix recording which
stage source nodes reach which stage target nodes; equal matrices pool
their probability. Folding consecutive stages is a boolean max-min
matrix product, and because stage one has a single source node the
accumulator is always one row, keeping every product linear in the
boundary width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bat import half_probability_tables
from .budget import Budget
from .decompose import Stage, decompose
from .network import Network
from .unionfind import find, union

_BUDGET_STRIDE = 4096


@dataclass(frozen=True)
class SourceTargetMatrix:
    """Row-major boolean matrix packed into an int, row 0 at the low bits."""

    rows: int
    cols: int
    bits: int

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "SourceTargetMatrix":
        height = len(rows)
        width = len(rows[0]) if rows else 0
        bits = 0
        pos = 0
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix rows")
            for cell in row:
                if cell not in (0, 1):
                    raise ValueError(f"matrix entry {cell!r} is not boolean")
                bits |= cell << pos
                pos += 1
        return cls(height, width, bits)

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

    def total_mass(self) -> float:
        return sum(self.entries.values())

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

    Enumerates the 2^g stage vectors in successor order (the first 2^g
    rows of the widest stage's enumeration, restricted to g columns, are
    exactly this sequence) and merges equal matrices by adding their
    probabilities. The all-zero matrix is dropped with its mass recorded.
    """
    g = len(stage.arc_ids)
    probs = [network.arcs[arc_id - 1].p for arc_id in stage.arc_ids]
    low, high, shift = half_probability_tables(probs, budget)
    low_mask = (1 << shift) - 1
    out = WeightedStmSet()
    mults = 0
    sums = 0
    for bits in range(1 << g):
        if budget is not None and bits & (_BUDGET_STRIDE - 1) == 0:
            budget.check()
        stm = stm_from_vector(network, stage, bits)
        mass = low[bits & low_mask] * high[bits >> shift]
        mults += 1
        if stm.bits != 0 and stm in out.entries:
            sums += 1
        out.add(stm, mass)
    if counters is not None:
        counters.multiplications += mults
        counters.summations += sums
    return out


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
    insertion order in folds) so repeated runs are bit-identical.
    """
    counters = Counters()
    if network.node_count == 1:
        return 1.0, counters
    stages = decompose(network).stages or ()
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
