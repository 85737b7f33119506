"""Cooperative wall-clock budgets for long-running computations.

Backends poll a Budget on one stride, so a bench run can abandon an
instance without threads or signals: the oracle at each high leaf that
starts at a multiple of STRIDE vectors (every high leaf from 26 arcs),
qbat every STRIDE search frames, and qb2 once per sliced stage and every
STRIDE states of each arc of a partition-DP stage. Tables (the 30-arc
cap bounds them) and folds do not poll: qb2's boundaries hold at most two
nodes, so a fold makes at most 3 nonzero accumulator entries times 15
stage matrices.
"""

from __future__ import annotations

import time

STRIDE = 4096


class BudgetExceeded(RuntimeError):
    """Raised by Budget.check() once the allotted wall time is spent."""

    def __init__(self, seconds: float):
        super().__init__(f"time budget of {seconds:.3g} s exceeded")
        self.seconds = seconds


class Budget:
    """A wall-clock allowance measured from construction time."""

    __slots__ = ("seconds", "_deadline")

    def __init__(self, seconds: float):
        if not seconds > 0:  # also refuses nan, which would never expire
            raise ValueError("budget must be positive")
        self.seconds = seconds
        self._deadline = time.monotonic() + seconds

    def check(self) -> None:
        if time.monotonic() > self._deadline:
            raise BudgetExceeded(self.seconds)
