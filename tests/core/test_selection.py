"""Unit and property tests for best-fit record selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import normalized_slack, select_record
from repro.core.state import StateRecord

CMAX = np.array([10.0, 10.0])
DEMAND = np.array([2.0, 2.0])


def rec(owner, avail, ts=0.0):
    return StateRecord(owner, np.asarray(avail, float), ts)


def rng():
    return np.random.default_rng(0)


def test_empty_records_returns_none():
    assert select_record([], DEMAND, CMAX, rng()) is None


def test_best_fit_picks_tightest():
    records = [rec(1, [9, 9]), rec(2, [3, 3]), rec(3, [5, 5])]
    pick = select_record(records, DEMAND, CMAX, rng(), "best-fit")
    assert pick.owner == 2


def test_worst_fit_picks_loosest():
    records = [rec(1, [9, 9]), rec(2, [3, 3]), rec(3, [5, 5])]
    pick = select_record(records, DEMAND, CMAX, rng(), "worst-fit")
    assert pick.owner == 1


def test_first_fit_preserves_discovery_order():
    records = [rec(3, [5, 5]), rec(1, [9, 9]), rec(2, [3, 3])]
    pick = select_record(records, DEMAND, CMAX, rng(), "first-fit")
    assert pick.owner == 3


def test_random_fit_picks_member():
    records = [rec(i, [5, 5]) for i in range(5)]
    pick = select_record(records, DEMAND, CMAX, rng(), "random")
    assert pick.owner in range(5)


def test_duplicate_owners_collapse_to_freshest():
    records = [rec(1, [9, 9], ts=0.0), rec(1, [3, 3], ts=10.0)]
    pick = select_record(records, DEMAND, CMAX, rng(), "best-fit")
    assert pick.availability[0] == 3.0  # the fresh record won


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown selection policy"):
        select_record([rec(1, [5, 5])], DEMAND, CMAX, rng(), "mystery")


def test_normalized_slack_zero_for_exact_fit():
    assert normalized_slack(rec(1, DEMAND.copy()), DEMAND, CMAX) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 8, 9, 16, 33])
def test_normalized_slack_is_numpy_mean_bit_for_bit(d):
    """The slack is ``add.reduce / size`` — what ``np.mean`` computes,
    without its wrappers — so a best-fit tie cannot move: above 8
    addends numpy sums pairwise, which a Python loop would not."""
    gen = np.random.default_rng(900 + d)
    cmax = gen.uniform(1.0, 30.0, size=d)
    for _ in range(2000):
        demand = gen.uniform(0.0, 1.0, size=d) * cmax
        avail = demand + gen.uniform(0.0, 1.0, size=d) * (cmax - demand)
        want = float(np.mean((avail - demand) / cmax))
        assert normalized_slack(rec(1, avail), demand, cmax) == want


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=2.0, max_value=10.0),
            st.floats(min_value=2.0, max_value=10.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_best_fit_minimizes_slack_property(avail_list):
    records = [rec(i, list(a)) for i, a in enumerate(avail_list)]
    pick = select_record(records, DEMAND, CMAX, rng(), "best-fit")
    best = min(normalized_slack(r, DEMAND, CMAX) for r in records)
    assert normalized_slack(pick, DEMAND, CMAX) == pytest.approx(best)
