"""Hot-range path caching (docs/caching.md).

Under Zipf-skewed demand most queries route to a small set of duty nodes —
the ones whose zones enclose the popular resource ranges.  Re-walking the
full INSCAN greedy route for every such query is pure protocol overhead,
so nodes remember ``(duty node, zone box)`` pairs learned from completed
routes and short-circuit later queries whose expectation point falls
inside a cached box.

Two classes implement the mechanism:

:class:`RangeCache`
    One node's expiring, capped entry store.  The TTL policy is *exactly*
    the PIList of §III-B (the reference policy, pinned to the same
    :class:`repro.testing.ReferencePIList` oracle as
    :class:`repro.core.pilist.PIList`); LRU, LFU and an adaptive
    recency+frequency policy (utility-based eviction in the spirit of
    learning-based cache management, arXiv:1902.00795) generalize it.
    Storage is structure-of-arrays per the StateCache/HostEngine
    discipline: keys, stamps and hit counters live in parallel arrays
    beside a ``(capacity, d)`` lo/hi bounds pair, eviction and
    expiry flip a liveness bit, compaction is lazy, and the
    box-containment lookup is a single vectorized comparison.

:class:`PathCacheIndex`
    The per-node cache registry plus the shared hit/miss/staleness
    counters and the sliding-window heat tracker that drives hot-partition
    replica diffusion (``DiffusionEngine.replicate``).

Entries expire ``ttl`` after they were stored (not after their last hit):
a cached duty's zone can drift under churn regardless of how often the
entry is used, so staleness — measured as best-fit regret against the
ground-truth owner — stays TTL-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["RangeCache", "CacheStats", "PathCacheIndex", "CACHE_POLICIES"]

#: Pluggable eviction policies (docs/caching.md):
#: ``ttl``       evict the stalest insertion (the PIList seed semantics);
#: ``lru``       evict the least recently *used* (hits refresh recency);
#: ``lfu``       evict the least frequently used (recency breaks ties);
#: ``adaptive``  evict the lowest utility = (1 + hits) · exp(-age/τ),
#:               τ = ttl/2 — frequency discounted by recency.
CACHE_POLICIES = ("ttl", "lru", "lfu", "adaptive")

#: Initial row capacity of the SoA arrays.
_MIN_CAPACITY = 8

#: Compact once dead rows outnumber both this floor and the live rows.
_COMPACT_FLOOR = 32


class RangeCache:
    """Expiring, capped SoA store of duty-node index entries.

    Every entry carries a ``[lo, hi)`` resource-range box over ``dims``
    dimensions and :meth:`lookup` answers vectorized box-containment
    queries.  ``policy="ttl"`` evicts and purges exactly like the PIList
    of §III-B.
    """

    __slots__ = (
        "ttl", "max_size", "policy", "dims", "_tau", "_row", "_keys",
        "_added", "_last", "_hits", "_live", "_lo", "_hi", "_n", "_dead",
        "_clock", "_oldest",
    )

    def __init__(
        self, ttl: float, max_size: int = 64, policy: str = "ttl", *, dims: int
    ):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"policy must be one of {CACHE_POLICIES}, got {policy!r}"
            )
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.ttl = float(ttl)
        self.max_size = int(max_size)
        self.policy = policy
        self.dims = int(dims)
        #: Recency decay constant of the adaptive utility.
        self._tau = self.ttl / 2.0
        self._row: dict[int, int] = {}  # key -> row index
        self._keys = np.empty(0, dtype=np.int64)
        self._added = np.empty(0, dtype=np.float64)
        self._last = np.empty(0, dtype=np.float64)
        self._hits = np.empty(0, dtype=np.int64)
        self._live = np.empty(0, dtype=bool)
        self._lo = np.empty((0, self.dims), dtype=np.float64)
        self._hi = np.empty((0, self.dims), dtype=np.float64)
        self._n = 0  # rows in use (live + dead holes)
        self._dead = 0  # dead holes among the first _n rows
        #: Latest simulation time observed; ``__len__`` and
        #: ``__contains__`` expire against it so they agree with the most
        #: recent ``entries()`` view (sim time is monotonic).
        self._clock = 0.0
        #: Lower bound on the insertion stamps of live rows: ``purge``
        #: runs on every lookup and scans only once this can be stale.
        self._oldest = np.inf

    # ------------------------------------------------------------------
    # storage management
    # ------------------------------------------------------------------
    def _observe(self, now: float) -> None:
        if now > self._clock:
            self._clock = now

    def _grow(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * self._n)
        keys = np.empty(capacity, dtype=np.int64)
        added = np.empty(capacity, dtype=np.float64)
        last = np.empty(capacity, dtype=np.float64)
        hits = np.zeros(capacity, dtype=np.int64)
        live = np.zeros(capacity, dtype=bool)
        lo = np.empty((capacity, self.dims), dtype=np.float64)
        hi = np.empty((capacity, self.dims), dtype=np.float64)
        if self._n:
            keys[: self._n] = self._keys[: self._n]
            added[: self._n] = self._added[: self._n]
            last[: self._n] = self._last[: self._n]
            hits[: self._n] = self._hits[: self._n]
            live[: self._n] = self._live[: self._n]
            lo[: self._n] = self._lo[: self._n]
            hi[: self._n] = self._hi[: self._n]
        self._keys, self._added, self._last = keys, added, last
        self._hits, self._live = hits, live
        self._lo, self._hi = lo, hi

    def _compact(self) -> None:
        """Squeeze out dead rows, preserving insertion order."""
        keep = np.flatnonzero(self._live[: self._n])
        m = int(keep.size)
        if m:
            self._keys[:m] = self._keys[keep]
            self._added[:m] = self._added[keep]
            self._last[:m] = self._last[keep]
            self._hits[:m] = self._hits[keep]
            self._lo[:m] = self._lo[keep]
            self._hi[:m] = self._hi[keep]
        self._live[:m] = True
        self._live[m : self._n] = False
        self._row = {int(self._keys[row]): row for row in range(m)}
        self._n = m
        self._dead = 0

    def _maybe_compact(self) -> None:
        if self._dead > _COMPACT_FLOOR and self._dead > self._n - self._dead:
            self._compact()

    def _kill_row(self, row: int) -> None:
        self._live[row] = False
        self._lo[row] = np.inf  # contains no point: lookups need no mask
        self._dead += 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: int, now: float, lo: np.ndarray, hi: np.ndarray) -> None:
        """Insert or refresh an entry; evict per policy when over capacity.

        A refresh renews the insertion stamp and the bounds but keeps the
        hit history — re-learning a route confirms the entry, it does not
        make it a stranger.
        """
        self._observe(now)
        row = self._row.get(key)
        if row is None:
            if self._n >= self._keys.shape[0]:
                self._grow()
            row = self._n
            self._keys[row] = key
            self._hits[row] = 0
            self._live[row] = True
            self._row[key] = row
            self._n += 1
        self._added[row] = now
        self._last[row] = now
        if now < self._oldest:
            self._oldest = now
        self._lo[row] = lo
        # A box on the top face of the unit cube is closed there.
        self._hi[row] = np.where(hi >= 1.0, np.inf, hi)
        if len(self._row) > self.max_size:
            self._evict(now)

    def _evict(self, now: float) -> None:
        """Drop the policy's worst live entry (see :data:`CACHE_POLICIES`).

        Stale-but-unpurged entries compete like live ones — the seed
        PIList evicts by raw insertion stamp without purging first, and
        the other policies keep that discipline.  Ties fall to the
        smallest key, matching ``min()`` over ``(score, key)`` pairs.
        """
        n = self._n
        live = self._live[:n]
        if self.policy == "ttl":
            order = (self._added[:n],)
        elif self.policy == "lru":
            order = (self._last[:n],)
        elif self.policy == "lfu":
            order = (self._hits[:n], self._last[:n])
        else:  # adaptive
            utility = (1.0 + self._hits[:n]) * np.exp(
                -(now - self._last[:n]) / self._tau
            )
            order = (utility,)
        rows = np.flatnonzero(live)
        for score in (*order, self._keys[:n]):
            vals = score[rows]
            rows = rows[vals == vals.min()]
            if rows.size == 1:
                break
        victim = int(rows[0])
        del self._row[int(self._keys[victim])]
        self._kill_row(victim)
        self._maybe_compact()

    def discard(self, key: int) -> None:
        row = self._row.pop(key, None)
        if row is not None:
            self._kill_row(row)
            self._maybe_compact()

    def purge(self, now: float) -> None:
        """Drop entries stored strictly longer than ``ttl`` ago."""
        self._observe(now)
        if not self._row:
            return
        cutoff = now - self.ttl
        if cutoff <= self._oldest:
            return  # every live row is at least as fresh as the bound
        n = self._n
        stale = self._live[:n] & (self._added[:n] < cutoff)
        if stale.any():
            for row in stale.nonzero()[0].tolist():
                del self._row[int(self._keys[row])]
                self._kill_row(row)
        self._oldest = (
            float(self._added[:n][self._live[:n]].min()) if self._row else np.inf
        )
        self._maybe_compact()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def entries(self, now: float) -> list[int]:
        self.purge(now)
        return sorted(self._row)

    def lookup(self, point: np.ndarray, now: float) -> Optional[int]:
        """The cached duty whose range box contains ``point``, or None.

        One vectorized containment pass over the stored boxes (half-open
        per zone convention; :meth:`add` opened the top face of the unit
        cube to ``+inf`` and a dead row's ``lo`` is ``+inf``).
        Among multiple matches the freshest insertion wins (largest key
        breaks exact-stamp ties).  A hit bumps the entry's frequency and
        recency — the signal LRU/LFU/adaptive eviction ranks by.
        """
        self.purge(now)
        if not self._row:
            return None
        n = self._n
        point = np.asarray(point, dtype=np.float64)
        rows = ((self._lo[:n] <= point) & (point < self._hi[:n])).all(axis=1).nonzero()[0]
        if rows.size == 0:
            return None
        stamps = self._added[rows]
        rows = rows[stamps == stamps.max()]
        row = int(rows[np.argmax(self._keys[rows])]) if rows.size > 1 else int(rows[0])
        self._hits[row] += 1
        self._last[row] = now
        return int(self._keys[row])

    def __len__(self) -> int:
        """Live entry count as of the latest observed time (stale entries
        are not reported, matching ``entries()``)."""
        self.purge(self._clock)
        return len(self._row)

    def __contains__(self, key: int) -> bool:
        row = self._row.get(key)
        return row is not None and self._added[row] >= self._clock - self.ttl


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`PathCacheIndex` (docs/caching.md).

    ``lookups`` counts requester-side consults (one per cache-on query
    submission); a consult ends as a ``hit`` or a ``miss``; missed
    queries may still truncate mid-route (``relay_hits``).  ``stale_hits``
    counts served lookups whose cached duty disagreed with the
    ground-truth owner of the query point — the best-fit regret
    numerator.  ``replications`` / ``replica_messages`` count
    hot-partition replica rounds and the index-replica sends they cost.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    relay_hits: int = 0
    replications: int = 0
    replica_messages: int = 0


class PathCacheIndex:
    """Per-node :class:`RangeCache` registry + heat tracking.

    The protocol registers caches through ``add_node``/``drop_node``
    alongside the node's other discovery state; the query engine consults
    and populates them; the diffusion layer asks :meth:`take_hot` whether
    a duty node's service rate crossed the replication threshold.

    Heat is a two-bucket sliding window per duty node: counts accumulate
    into the current ``window``-wide bucket and the previous bucket ages
    out wholesale, so the tracked rate spans between one and two windows
    at O(1) state per node.
    """

    def __init__(
        self,
        policy: str,
        size: int = 128,
        ttl: float = 1200.0,
        replication: bool = False,
        replication_threshold: int = 8,
        replication_window: float = 400.0,
    ):
        self.policy = policy
        self.size = int(size)
        self.ttl = float(ttl)
        #: Whether the protocol diffuses replicas from hot duty nodes.
        self.replication = bool(replication)
        self.replication_threshold = int(replication_threshold)
        self.replication_window = float(replication_window)
        self.stats = CacheStats()
        self._caches: dict[int, RangeCache] = {}
        #: duty node -> [window start, previous count, current count]
        self._heat: dict[int, list[float]] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, dims: int) -> None:
        """Register ``node_id`` with an empty cache of ``dims``-dimensional
        boxes (the protocol's overlay dimensionality)."""
        self._caches[node_id] = RangeCache(
            self.ttl, self.size, policy=self.policy, dims=dims
        )

    def drop_node(self, node_id: int) -> None:
        self._caches.pop(node_id, None)
        self._heat.pop(node_id, None)

    def cache_of(self, node_id: int) -> Optional[RangeCache]:
        return self._caches.get(node_id)

    def __len__(self) -> int:
        return len(self._caches)

    # ------------------------------------------------------------------
    # query-path interface
    # ------------------------------------------------------------------
    def lookup(self, node_id: int, point: np.ndarray, now: float) -> Optional[int]:
        cache = self._caches.get(node_id)
        if cache is None:
            return None
        return cache.lookup(point, now)

    def store(
        self, node_id: int, duty: int, lo: np.ndarray, hi: np.ndarray, now: float
    ) -> None:
        """Remember that ``duty`` owns the box ``[lo, hi)``; a node never
        caches itself (its own zone is authoritative)."""
        cache = self._caches.get(node_id)
        if cache is not None and node_id != duty:
            cache.add(duty, now, lo=lo, hi=hi)

    def invalidate(self, node_id: int, duty: int) -> None:
        """Lazy invalidation: the consulting node observed ``duty`` dead."""
        cache = self._caches.get(node_id)
        if cache is not None:
            cache.discard(duty)

    # ------------------------------------------------------------------
    # heat tracking (replica-diffusion trigger)
    # ------------------------------------------------------------------
    def _roll(self, heat: list[float], now: float) -> None:
        elapsed = now - heat[0]
        if elapsed < self.replication_window:
            return
        windows = int(elapsed // self.replication_window)
        heat[0] += windows * self.replication_window
        heat[1] = heat[2] if windows == 1 else 0.0
        heat[2] = 0.0

    def record_service(self, node_id: int, now: float) -> None:
        """A duty-query chain was serviced at ``node_id``."""
        heat = self._heat.get(node_id)
        if heat is None:
            self._heat[node_id] = [now, 0.0, 1.0]
            return
        self._roll(heat, now)
        heat[2] += 1.0

    def take_hot(self, node_id: int, now: float) -> bool:
        """True when the node's windowed service count crossed the
        threshold; consumes the accumulated heat so one hot burst triggers
        exactly one replication round."""
        heat = self._heat.get(node_id)
        if heat is None:
            return False
        self._roll(heat, now)
        if heat[1] + heat[2] >= self.replication_threshold:
            heat[1] = 0.0
            heat[2] = 0.0
            return True
        return False
