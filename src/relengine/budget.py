"""Cooperative wall-clock budgets for long-running computations.

Backends poll a Budget at coarse intervals (every few thousand vectors)
so a bench run can abandon an instance without threads or signals.
"""

from __future__ import annotations

import time


class BudgetExceeded(RuntimeError):
    """Raised by Budget.check() once the allotted wall time is spent."""

    def __init__(self, seconds: float):
        super().__init__(f"time budget of {seconds:.3g} s exceeded")
        self.seconds = seconds


class Budget:
    """A wall-clock allowance measured from construction time."""

    __slots__ = ("seconds", "_deadline")

    def __init__(self, seconds: float):
        if seconds <= 0:
            raise ValueError("budget must be positive")
        self.seconds = seconds
        self._deadline = time.monotonic() + seconds

    def check(self) -> None:
        if time.monotonic() > self._deadline:
            raise BudgetExceeded(self.seconds)
