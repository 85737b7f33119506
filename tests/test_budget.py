import time

import pytest

from relengine.budget import Budget, BudgetExceeded


def test_budget_allows_work_inside_the_window():
    b = Budget(60.0)
    b.check()


def test_budget_expires():
    b = Budget(0.005)
    time.sleep(0.02)
    with pytest.raises(BudgetExceeded) as err:
        b.check()
    assert err.value.seconds == 0.005
    assert "0.005" in str(err.value)


def test_budget_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        Budget(0.0)
    with pytest.raises(ValueError):
        Budget(-1.0)
    # nan compares false against everything, so it would never expire
    with pytest.raises(ValueError):
        Budget(float("nan"))
