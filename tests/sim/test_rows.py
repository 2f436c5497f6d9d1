"""Keyed row tables are born without arrays: every column of a store that
has held no row is the one shared, read-only zero-length array of its
dtype and width (:func:`repro.sim.rows.empty_column`), and the first
append allocates the store's own."""

import numpy as np
import pytest

from repro.core.cache import RangeCache
from repro.core.state import StateCache, StateRecord
from repro.sim.rows import RowTable, empty_column


def _fresh_stores() -> list[RowTable]:
    return [
        StateCache(600.0), StateCache(600.0),
        RangeCache(1200.0, dims=5), RangeCache(1200.0, 8, policy="lru", dims=5),
    ]


def test_a_fresh_store_owns_no_array():
    stores = _fresh_stores()
    for store in stores:
        twin = stores[0] if isinstance(store, StateCache) else stores[2]
        for name in store._columns():
            column = getattr(store, name)
            assert column.shape[0] == 0 and not column.flags.writeable
            assert column is getattr(twin, name)
    state, _, ranges, _ = stores
    assert state._keys is ranges._keys is empty_column(np.int64)
    assert state._live is ranges._live is empty_column(np.bool_)
    assert state._ts is ranges._added is ranges._last is empty_column(np.float64)
    assert state._matrix is empty_column(np.float64, 0)
    assert ranges._lo is ranges._hi is empty_column(np.float64, 5)


def test_the_shared_empty_columns_are_never_written():
    """Every read and every no-op on an empty store, then whole lives of
    stores through growth, expiry, eviction and compaction: a write to a
    shared column would raise, and each stays zero-length and read-only."""
    shared = [empty_column(np.int64), empty_column(np.bool_),
              empty_column(np.float64), empty_column(np.float64, 0),
              empty_column(np.float64, 5)]
    stores = _fresh_stores()
    for store in stores:
        store.discard(7)
        if isinstance(store, StateCache):
            store.purge(1e9)
            assert not store.non_empty(0.0) and store.records(0.0) == []
            assert store.qualified(np.zeros(5), 0.0) == []
            assert store.merge([]) == 0
        else:
            assert store.entries(1e9) == [] and store.lookup(np.zeros(5), 0.0) is None
    rng = np.random.default_rng(3)
    for step in range(200):
        now = 10.0 * step
        for store in stores:
            key = int(rng.integers(60))
            if isinstance(store, StateCache):
                store.put(StateRecord(key, rng.uniform(0, 10, 5), now))
                store.qualified(rng.uniform(0, 10, 5), now)
                if step % 7 == 0:
                    store.merge([StateRecord(100 + key, rng.uniform(0, 10, 5), now)])
            else:
                lo = rng.uniform(0, 0.5, 5)
                store.add(key, now, lo, lo + 0.5)
                store.lookup(rng.uniform(0, 1, 5), now)
            if step % 5 == 0:
                store.discard(int(rng.integers(60)))
    for store in stores:
        for name in store._columns():
            column = getattr(store, name)
            assert column.flags.writeable and column.shape[0] >= 1
            assert all(column is not empty for empty in shared)
    for empty in shared:
        assert empty.shape[0] == 0 and not empty.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            empty[:0] = 0
