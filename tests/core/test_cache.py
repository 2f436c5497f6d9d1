"""Unit tests for the hot-range path cache (docs/caching.md).

The TTL policy is pinned against the verbatim seed PIList
(:class:`tests.oracles.ReferencePIList`) by a randomized lockstep drive;
the other policies get behavioural tests of their eviction orders, and
:class:`PathCacheIndex` gets registry + heat-window coverage.
"""

import numpy as np
import pytest

from repro.core.cache import CACHE_POLICIES, PathCacheIndex, RangeCache
from tests.conftest import seeds_and_floors, set_compact_floor
from tests.oracles import ReferencePIList


def box(lo, hi, dims=2):
    return np.full(dims, lo, dtype=float), np.full(dims, hi, dtype=float)


#: The PIList pins only care about keys and stamps; every entry gets the
#: same one-dimensional dummy box.
DUMMY = box(0.0, 1.0, dims=1)


# ----------------------------------------------------------------------
# randomized lockstep: RangeCache TTL policy == seed PIList
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed, floor", seeds_and_floors(range(4)))
def test_ttl_policy_lockstep_with_reference_pilist(seed, floor, monkeypatch):
    set_compact_floor(monkeypatch, floor)
    rng = np.random.default_rng(seed)
    soa = RangeCache(ttl=50.0, max_size=8, policy="ttl", dims=1)
    ref = ReferencePIList(ttl=50.0, max_size=8)
    now = 0.0
    for _ in range(600):
        now += float(rng.exponential(3.0))
        op = rng.integers(5)
        key = int(rng.integers(24))
        if op <= 2:  # adds dominate, forcing evictions
            soa.add(key, now, *DUMMY)
            ref.add(key, now)
        elif op == 3:
            soa.discard(key)
            ref.discard(key)
        else:
            soa.purge(now)
            ref.purge(now)
        assert soa.entries(now) == ref.entries(now)


def _assert_expiry_bound_holds(cache: RangeCache) -> None:
    """``_oldest`` gates the staleness scan: it must never exceed a live
    entry's insertion stamp, or that entry could outlive its TTL."""
    stamps = [float(cache._added[row]) for row in cache._row_of.values()]
    assert all(cache._oldest <= stamp for stamp in stamps)


@pytest.mark.parametrize("seed, floor", seeds_and_floors(range(3)))
def test_ttl_lockstep_with_time_running_backwards_too(seed, floor, monkeypatch):
    """Callers pass ``now``; nothing makes it monotone.  A stamp below
    the bound must lower it, and a purge at an earlier ``now`` must not
    let the gate skip a later one.  Lookups ride along: a key is found
    exactly while the reference still lists it."""
    set_compact_floor(monkeypatch, floor)
    rng = np.random.default_rng(seed)
    soa = RangeCache(ttl=50.0, max_size=8, policy="ttl", dims=1)
    ref = ReferencePIList(ttl=50.0, max_size=8)
    now = 100.0
    for _ in range(800):
        now = max(0.0, now + float(rng.normal(2.0, 25.0)))
        op = rng.integers(6)
        key = int(rng.integers(24))
        if op <= 2:
            soa.add(key, now, *DUMMY)
            ref.add(key, now)
        elif op == 3:
            soa.discard(key)
            ref.discard(key)
        elif op == 4:
            soa.purge(now)
            ref.purge(now)
        else:
            want = ref.entries(now)
            got = soa.lookup(np.array([0.5]), now)  # every box holds it
            assert (got is None) == (not want) and (got is None or got in want)
        _assert_expiry_bound_holds(soa)
        assert soa.entries(now) == ref.entries(now)
        _assert_expiry_bound_holds(soa)


def test_purge_after_compaction_keeps_the_expiry_bound_a_lower_bound():
    """Compaction moves rows; the bound is about stamps, not rows.  After
    the oldest entries are discarded (bound now too low, which is safe)
    and the store compacts, a purge must still expire exactly the stale
    survivors and leave a bound below every remaining stamp."""
    soa = RangeCache(ttl=100.0, max_size=500, policy="ttl", dims=1)
    ref = ReferencePIList(ttl=100.0, max_size=500)
    for key in range(200):
        soa.add(key, float(key), *DUMMY)
        ref.add(key, float(key))
    for key in range(120):  # dead rows outnumber live ones: compaction
        soa.discard(key)
        ref.discard(key)
    assert soa._n < 200  # it ran
    _assert_expiry_bound_holds(soa)
    for now in (219.0, 250.0, 250.0, 240.0, 299.0, 300.0):
        soa.purge(now)
        ref.purge(now)
        assert sorted(soa._row_of) == ref.entries(now)
        _assert_expiry_bound_holds(soa)
        assert soa.lookup(np.array([0.5]), now) == (max(soa._row_of) if soa._row_of else None)
    assert soa._oldest == np.inf and not soa._row_of


def test_dead_rows_match_no_point_without_a_liveness_mask():
    cache = RangeCache(ttl=100.0, max_size=2, policy="ttl", dims=2)
    lo, hi = box(0.0, 1.0)
    cache.add(1, now=0.0, lo=lo, hi=hi)
    cache.add(2, now=1.0, lo=lo, hi=hi)
    cache.add(3, now=2.0, lo=lo, hi=hi)  # evicts 1, whose row stays in place
    cache.discard(3)
    assert cache._n == 3 and cache._dead == 2
    for point in ([0.5, 0.5], [0.0, 0.0], [1.0, 1.0]):
        assert cache.lookup(np.array(point), now=3.0) == 2
    cache.discard(2)
    assert cache.lookup(np.array([0.5, 0.5]), now=3.0) is None


def test_ttl_eviction_ignores_purgeable_entries_like_seed():
    # The seed evicts by raw insertion stamp without purging first; a
    # stale entry is therefore the preferred victim.
    soa = RangeCache(ttl=10.0, max_size=2, policy="ttl", dims=1)
    ref = ReferencePIList(ttl=10.0, max_size=2)
    for key, now in ((1, 0.0), (2, 100.0), (3, 101.0)):
        soa.add(key, now, *DUMMY)
        ref.add(key, now)  # 3 goes over capacity: stale 1 evicted, not 2
    assert soa.entries(now=101.0) == ref.entries(now=101.0) == [2, 3]


def test_validation():
    with pytest.raises(ValueError):
        RangeCache(ttl=0.0, dims=2)
    with pytest.raises(ValueError):
        RangeCache(ttl=1.0, policy="mru", dims=2)
    with pytest.raises(ValueError):
        RangeCache(ttl=1.0, max_size=0, dims=2)
    assert set(CACHE_POLICIES) == {"ttl", "lru", "lfu", "adaptive"}


# ----------------------------------------------------------------------
# eviction policies
# ----------------------------------------------------------------------
def filled(policy, max_size=3, ttl=1000.0, dims=2):
    cache = RangeCache(ttl=ttl, max_size=max_size, policy=policy, dims=dims)
    for key in range(max_size):
        lo, hi = box(0.1 * key, 0.1 * key + 0.05, dims)
        cache.add(key, now=float(key), lo=lo, hi=hi)
    return cache


def touch(cache, key, now, dims=2):
    point = np.full(dims, 0.1 * key + 0.02)
    assert cache.lookup(point, now) == key


def test_lru_evicts_least_recently_used():
    cache = filled("lru")
    touch(cache, 0, now=10.0)  # 0 becomes most recent; 1 is now LRU
    cache.add(9, now=11.0, lo=box(0.8, 0.9)[0], hi=box(0.8, 0.9)[1])
    assert cache.entries(now=11.0) == [0, 2, 9]


def test_lfu_evicts_least_frequently_used():
    cache = filled("lfu")
    touch(cache, 0, now=10.0)
    touch(cache, 0, now=11.0)
    touch(cache, 1, now=12.0)
    # 2 and the incoming 9 are both hitless — recency breaks the tie, so
    # the older 2 goes and the newcomer is admitted.
    cache.add(9, now=14.0, lo=box(0.8, 0.9)[0], hi=box(0.8, 0.9)[1])
    assert cache.entries(now=14.0) == [0, 1, 9]


def test_lfu_rejects_newcomer_when_incumbents_have_hits():
    # The classic LFU admission property, kept deliberately: eviction is
    # one uniform rule over all entries (the TTL lockstep needs that), so
    # a hitless newcomer loses to an all-hit incumbency.
    cache = filled("lfu")
    for key in range(3):
        touch(cache, key, now=10.0 + key)
    cache.add(9, now=14.0, lo=box(0.8, 0.9)[0], hi=box(0.8, 0.9)[1])
    assert cache.entries(now=14.0) == [0, 1, 2]


def test_adaptive_prefers_frequent_over_merely_recent():
    cache = RangeCache(ttl=1000.0, max_size=2, policy="adaptive", dims=2)
    lo0, hi0 = box(0.0, 0.1)
    cache.add(0, now=0.0, lo=lo0, hi=hi0)
    for t in (1.0, 2.0, 3.0, 4.0):
        touch(cache, 0, now=t)
    lo1, hi1 = box(0.2, 0.3)
    cache.add(1, now=5.0, lo=lo1, hi=hi1)  # recent but never hit
    lo2, hi2 = box(0.4, 0.5)
    cache.add(2, now=6.0, lo=lo2, hi=hi2)
    # utility(0) = 5·exp(-2/τ) >> utility(1) = 1·exp(-1/τ): 1 is evicted.
    assert cache.entries(now=6.0) == [0, 2]


def test_adaptive_decays_stale_frequency():
    cache = RangeCache(ttl=100.0, max_size=2, policy="adaptive", dims=2)
    lo0, hi0 = box(0.0, 0.1)
    cache.add(0, now=0.0, lo=lo0, hi=hi0)
    for t in (1.0, 2.0, 3.0):
        touch(cache, 0, now=t)
    # τ = 50; by t=95 entry 0's burst has decayed: 4·exp(-92/50) ≈ 0.63
    # < 1·exp(0) — the fresh, unhit entry 1 outranks it.
    lo1, hi1 = box(0.2, 0.3)
    cache.add(1, now=95.0, lo=lo1, hi=hi1)
    lo2, hi2 = box(0.4, 0.5)
    cache.add(2, now=95.0, lo=lo2, hi=hi2)
    assert cache.entries(now=95.0) == [1, 2]


def test_refresh_keeps_hit_history():
    cache = filled("lfu")
    touch(cache, 0, now=10.0)
    lo, hi = box(0.0, 0.05)
    cache.add(0, now=11.0, lo=lo, hi=hi)  # re-learn the same route
    row = cache._row_of[0]
    assert cache._hits[row] == 1  # refresh confirms, it doesn't reset
    assert cache._added[row] == 11.0 and cache._last[row] == 11.0


# ----------------------------------------------------------------------
# box-containment lookup
# ----------------------------------------------------------------------
def test_lookup_requires_dims():
    # A box-less cache cannot be built, so every lookup has boxes to test.
    with pytest.raises(ValueError, match="dims"):
        RangeCache(ttl=10.0, dims=0)
    with pytest.raises(TypeError, match="dims"):
        RangeCache(ttl=10.0)


def test_lookup_containment_half_open():
    cache = RangeCache(ttl=100.0, max_size=4, policy="ttl", dims=2)
    cache.add(7, now=0.0, lo=np.array([0.2, 0.2]), hi=np.array([0.4, 0.4]))
    assert cache.lookup(np.array([0.2, 0.3]), now=1.0) == 7  # lo inclusive
    assert cache.lookup(np.array([0.4, 0.3]), now=1.0) is None  # hi exclusive
    assert cache.lookup(np.array([0.1, 0.3]), now=1.0) is None


def test_lookup_top_face_is_closed():
    # Zones touching the top of the unit cube own their upper boundary.
    cache = RangeCache(ttl=100.0, max_size=4, policy="ttl", dims=2)
    cache.add(7, now=0.0, lo=np.array([0.5, 0.5]), hi=np.array([1.0, 1.0]))
    assert cache.lookup(np.array([1.0, 1.0]), now=1.0) == 7


def test_lookup_prefers_freshest_overlap():
    cache = RangeCache(ttl=100.0, max_size=4, policy="ttl", dims=2)
    lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    cache.add(1, now=0.0, lo=lo, hi=hi)
    cache.add(2, now=5.0, lo=lo, hi=hi)  # fresher binding wins
    assert cache.lookup(np.array([0.5, 0.5]), now=6.0) == 2


def test_lookup_expires_entries():
    cache = RangeCache(ttl=10.0, max_size=4, policy="ttl", dims=2)
    cache.add(1, now=0.0, lo=np.zeros(2), hi=np.ones(2))
    assert cache.lookup(np.array([0.5, 0.5]), now=20.0) is None


def test_lookup_bumps_frequency_and_recency():
    cache = RangeCache(ttl=100.0, max_size=4, policy="lfu", dims=2)
    cache.add(1, now=0.0, lo=np.zeros(2), hi=np.ones(2))
    row = cache._row_of[1]
    cache.lookup(np.array([0.5, 0.5]), now=3.0)
    assert cache._hits[row] == 1
    assert cache._last[row] == 3.0


def test_compaction_preserves_entries_and_boxes():
    cache = RangeCache(ttl=1e6, max_size=500, policy="lru", dims=2)
    for key in range(200):
        lo, hi = box(0.0, 1.0)
        cache.add(key, now=float(key), lo=lo, hi=hi)
    for key in range(0, 200, 2):
        cache.discard(key)  # 100 dead rows → lazy compaction kicks in
    assert cache.entries(now=200.0) == list(range(1, 200, 2))
    assert cache.lookup(np.array([0.5, 0.5]), now=200.0) == 199


# ----------------------------------------------------------------------
# PathCacheIndex: registry, invalidation, heat window
# ----------------------------------------------------------------------
def test_index_registry_and_store():
    index = PathCacheIndex("lru", size=8, ttl=100.0)
    index.add_node(1, dims=2)
    index.add_node(2, dims=2)
    lo, hi = np.zeros(2), np.ones(2)
    index.store(1, 9, lo, hi, now=0.0)
    index.store(1, 1, lo, hi, now=0.0)  # self-binding is ignored
    assert index.lookup(1, np.array([0.5, 0.5]), now=1.0) == 9
    assert index.lookup(2, np.array([0.5, 0.5]), now=1.0) is None
    assert index.lookup(99, np.array([0.5, 0.5]), now=1.0) is None  # unknown node
    index.invalidate(1, 9)  # with 9 gone, the self-binding never served
    assert index.lookup(1, np.array([0.5, 0.5]), now=1.0) is None
    index.store(1, 9, lo, hi, now=2.0)
    index.drop_node(1)
    assert index.lookup(1, np.array([0.5, 0.5]), now=3.0) is None
    index.store(1, 9, lo, hi, now=3.0)  # a dropped node caches nothing
    assert index.lookup(1, np.array([0.5, 0.5]), now=3.0) is None


def test_heat_threshold_triggers_once():
    index = PathCacheIndex(
        "lru", replication_threshold=3, replication_window=100.0
    )
    for t in (0.0, 1.0):
        index.record_service(5, t)
    assert not index.take_hot(5, now=2.0)
    index.record_service(5, 3.0)
    assert index.take_hot(5, now=4.0)
    # take_hot consumed the heat: not hot again until re-accumulated.
    assert not index.take_hot(5, now=5.0)
    assert not index.take_hot(99, now=5.0)  # never-serviced node


def test_heat_window_spans_two_buckets():
    index = PathCacheIndex(
        "lru", replication_threshold=4, replication_window=100.0
    )
    for t in (10.0, 20.0):
        index.record_service(5, t)
    # One window later the counts age into the previous bucket but still
    # contribute: 2 (prev) + 2 (cur) crosses the threshold.
    for t in (110.0, 120.0):
        index.record_service(5, t)
    assert index.take_hot(5, now=130.0)


def test_heat_ages_out_after_two_windows():
    index = PathCacheIndex(
        "lru", replication_threshold=3, replication_window=100.0
    )
    for t in (0.0, 1.0, 2.0):
        index.record_service(5, t)
    # >= 2 windows of silence: both buckets expire, the burst is gone.
    assert not index.take_hot(5, now=250.0)
