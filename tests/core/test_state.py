"""Unit tests for state records and duty-node caches (γ)."""

import numpy as np
import pytest

from repro.core.state import StateCache, StateRecord


def rec(owner, avail, ts=0.0):
    return StateRecord(owner, np.asarray(avail, float), ts)


def test_record_qualification_is_dominance():
    """Inequality (2): a record qualifies when its availability
    dominates the demand, ties included."""
    cache = StateCache(600)
    r = rec(1, [4.0, 4.0])
    cache.put(r)
    assert cache.qualified(np.array([4.0, 3.0]), now=0.0) == [r]
    assert cache.qualified(np.array([4.0, 4.0]), now=0.0) == [r]
    assert cache.qualified(np.array([4.1, 3.0]), now=0.0) == []


def test_ttl_must_be_positive():
    with pytest.raises(ValueError):
        StateCache(0.0)


def test_put_and_len():
    cache = StateCache(600)
    cache.put(rec(1, [1, 1], 0.0))
    cache.put(rec(2, [2, 2], 0.0))
    assert len(cache) == 2


def test_newer_record_replaces_older():
    cache = StateCache(600)
    cache.put(rec(1, [1, 1], ts=10.0))
    cache.put(rec(1, [5, 5], ts=20.0))
    records = cache.records(now=20.0)
    assert len(records) == 1
    assert records[0].availability[0] == 5.0


def test_stale_update_does_not_replace_fresh():
    cache = StateCache(600)
    cache.put(rec(1, [5, 5], ts=20.0))
    cache.put(rec(1, [1, 1], ts=10.0))  # out-of-order arrival
    assert cache.records(now=20.0)[0].availability[0] == 5.0


def test_purge_drops_expired():
    cache = StateCache(ttl=100)
    cache.put(rec(1, [1, 1], ts=0.0))
    cache.put(rec(2, [2, 2], ts=50.0))
    assert cache.non_empty(now=99.0)
    cache.purge(now=120.0)
    assert len(cache) == 1
    assert not cache.non_empty(now=200.0)


def test_qualified_filters_on_demand_and_ttl():
    cache = StateCache(ttl=100)
    cache.put(rec(1, [5, 5], ts=0.0))
    cache.put(rec(2, [10, 10], ts=90.0))
    cache.put(rec(3, [1, 1], ts=90.0))
    out = cache.qualified(np.array([4.0, 4.0]), now=95.0)
    assert {r.owner for r in out} == {1, 2}
    out_late = cache.qualified(np.array([4.0, 4.0]), now=150.0)
    assert {r.owner for r in out_late} == {2}


def test_qualified_respects_limit_and_exclude():
    cache = StateCache(ttl=1000)
    for owner in range(10):
        cache.put(rec(owner, [5, 5], ts=0.0))
    out = cache.qualified(np.array([1.0, 1.0]), now=1.0, limit=3)
    assert len(out) == 3
    out2 = cache.qualified(
        np.array([1.0, 1.0]), now=1.0, exclude={r.owner for r in out}
    )
    assert all(r.owner not in {o.owner for o in out} for r in out2)
