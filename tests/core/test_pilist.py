"""Unit tests for the PIList (positive index list)."""

import numpy as np
import pytest

from repro.core.pilist import PIList


def test_ttl_validation():
    with pytest.raises(ValueError):
        PIList(0.0)


def test_add_and_contains():
    pl = PIList(ttl=100)
    pl.add(5, now=0.0)
    assert pl.entries(now=0.0) == [5]
    assert pl.entries(now=50.0) == [5]


def test_readd_refreshes_timestamp():
    pl = PIList(ttl=100)
    pl.add(5, now=0.0)
    pl.add(5, now=90.0)
    assert pl.entries(now=150.0) == [5]  # refreshed entry survives


def test_expiry():
    pl = PIList(ttl=100)
    pl.add(1, now=0.0)
    pl.add(2, now=60.0)
    assert pl.entries(now=120.0) == [2]


def test_capacity_evicts_stalest():
    pl = PIList(ttl=1000, max_size=3)
    for i, t in enumerate([0.0, 1.0, 2.0, 3.0]):
        pl.add(i, now=t)
    assert pl.entries(now=3.0) == [1, 2, 3]


def test_contains_boundary_is_inclusive_like_purge():
    """An entry stamped exactly ``ttl`` ago is still listed."""
    pl = PIList(ttl=100)
    pl.add(7, now=0.0)
    assert pl.entries(now=100.0) == [7]  # cutoff == added_at: survives (strict <)
    assert pl.entries(now=100.0001) == []


def test_sample_returns_distinct_subset():
    pl = PIList(ttl=1000)
    for i in range(20):
        pl.add(i, now=0.0)
    rng = np.random.default_rng(0)
    sample = pl.sample(5, now=1.0, rng=rng)
    assert len(sample) == 5
    assert len(set(sample)) == 5
    assert all(s in range(20) for s in sample)


def test_sample_small_pool_returns_all():
    pl = PIList(ttl=1000)
    pl.add(1, now=0.0)
    pl.add(2, now=0.0)
    assert sorted(pl.sample(10, now=0.0, rng=np.random.default_rng(0))) == [1, 2]
