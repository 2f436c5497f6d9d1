"""Property-style equivalence of the vectorized StateCache vs the scalar
reference implementation.

Every test drives the same operation sequence through both caches — the
very StateRecord instances are shared — and asserts the vectorized store
returns the *identical* record objects in the identical order, under
replacement, eviction, TTL expiry, limits, exclusion and lazy compaction.
"""

import numpy as np
import pytest

from repro.core.state import StateCache, StateRecord
from tests.conftest import seeds_and_floors, set_compact_floor
from tests.oracles import ReferenceStateCache


def rec(owner, avail, ts=0.0):
    return StateRecord(owner, np.asarray(avail, float), ts)


class CachePair:
    """Mirror every mutation into both implementations."""

    def __init__(self, ttl: float):
        self.vec = StateCache(ttl)
        self.ref = ReferenceStateCache(ttl)

    def put(self, record: StateRecord) -> None:
        self.vec.put(record)
        self.ref.put(record)

    def purge(self, now: float) -> None:
        self.vec.purge(now)
        self.ref.purge(now)

    def assert_equivalent(self, now, demand, limit=None, exclude=None):
        assert len(self.vec) == len(self.ref)
        v_records = self.vec.records(now)
        r_records = self.ref.records(now)
        assert [id(r) for r in v_records] == [id(r) for r in r_records]
        v_q = self.vec.qualified(demand, now, limit=limit, exclude=exclude)
        r_q = self.ref.qualified(demand, now, limit=limit, exclude=exclude)
        assert [id(r) for r in v_q] == [id(r) for r in r_q]
        assert self.vec.non_empty(now) == self.ref.non_empty(now)


def test_same_objects_same_order_basic():
    pair = CachePair(ttl=100.0)
    for owner in range(10):
        pair.put(rec(owner, [owner / 10, 1 - owner / 10], ts=float(owner)))
    pair.assert_equivalent(now=9.0, demand=np.array([0.2, 0.2]))
    pair.assert_equivalent(now=9.0, demand=np.array([0.2, 0.2]), limit=2)
    pair.assert_equivalent(
        now=9.0, demand=np.array([0.0, 0.0]), exclude={2, 4, 6}
    )


def test_replacement_keeps_insertion_position():
    pair = CachePair(ttl=1000.0)
    for owner in (3, 1, 2):
        pair.put(rec(owner, [0.5, 0.5], ts=0.0))
    pair.put(rec(1, [0.9, 0.9], ts=5.0))  # replaces in place
    pair.put(rec(2, [0.1, 0.1], ts=1.0))
    pair.put(rec(2, [0.8, 0.8], ts=0.5))  # stale update, both must ignore
    pair.assert_equivalent(now=5.0, demand=np.zeros(2))
    owners = [r.owner for r in pair.vec.records(5.0)]
    assert owners == [3, 1, 2]  # original insertion order preserved


def test_ttl_expiry_matches():
    pair = CachePair(ttl=50.0)
    for owner in range(20):
        pair.put(rec(owner, [0.5, 0.5], ts=float(owner)))
    for now in (30.0, 55.0, 60.5, 71.0, 200.0):
        pair.assert_equivalent(now=now, demand=np.zeros(2))


def test_eviction_and_reinsertion_moves_to_end():
    pair = CachePair(ttl=100.0)
    for owner in range(6):
        pair.put(rec(owner, [0.5, 0.5], ts=0.0 if owner == 2 else 50.0))
    pair.purge(120.0)  # expires 2 alone
    pair.put(rec(2, [0.6, 0.6], ts=120.0))  # re-inserted at the end
    pair.assert_equivalent(now=120.0, demand=np.zeros(2))
    assert [r.owner for r in pair.vec.records(120.0)] == [0, 1, 3, 4, 5, 2]


def test_compaction_preserves_order_and_objects():
    pair = CachePair(ttl=100.0)
    for owner in range(200):
        pair.put(rec(owner, [0.5, 0.5], ts=50.0 if owner % 3 == 0 else 0.0))
    # expire two rows in three: enough to force lazy compaction of the
    # SoA arrays
    pair.purge(120.0)
    assert pair.vec._dead == 0 and pair.vec._n == 67
    pair.assert_equivalent(now=120.0, demand=np.zeros(2))
    for owner in range(300, 340):  # append after compaction
        pair.put(rec(owner, [0.7, 0.7], ts=121.0))
    pair.assert_equivalent(now=121.0, demand=np.zeros(2), limit=17)


def test_growth_reallocations_keep_contents():
    pair = CachePair(ttl=1e9)
    for owner in range(1000):  # several capacity doublings
        pair.put(rec(owner, [owner / 1000.0, 0.5, 0.3], ts=float(owner % 7)))
    pair.assert_equivalent(now=10.0, demand=np.array([0.4, 0.1, 0.1]))


@pytest.mark.parametrize("seed, floor", seeds_and_floors(range(4)))
def test_randomized_operation_sequences(seed, floor, monkeypatch):
    """Fuzz puts / purges / queries through both caches."""
    set_compact_floor(monkeypatch, floor)
    rng = np.random.default_rng(seed)
    pair = CachePair(ttl=80.0)
    now = 0.0
    for step in range(1500):
        now += float(rng.exponential(2.0))
        op = rng.uniform()
        owner = int(rng.integers(0, 60))
        if op < 0.55:
            ts = now - float(rng.uniform(0, 30))  # occasional stale arrivals
            pair.put(rec(owner, rng.uniform(0, 1, 3), ts=ts))
        elif op < 0.80:
            pair.purge(now)
        else:
            demand = rng.uniform(0, 1, 3) * float(rng.choice([0.3, 0.6, 0.95]))
            limit = None if rng.uniform() < 0.5 else int(rng.integers(1, 6))
            exclude = (
                None
                if rng.uniform() < 0.5
                else set(rng.integers(0, 60, size=5).tolist())
            )
            pair.assert_equivalent(now, demand, limit=limit, exclude=exclude)
    pair.assert_equivalent(now + 200.0, np.zeros(3))  # everything expired


def test_qualified_returns_put_instances():
    """The vectorized fast path must hand back the stored records, not
    reconstructed copies — selection policies hash them by identity."""
    cache = StateCache(ttl=100.0)
    planted = rec(7, [0.9, 0.9], ts=0.0)
    cache.put(planted)
    out = cache.qualified(np.array([0.5, 0.5]), now=1.0)
    assert out[0] is planted
