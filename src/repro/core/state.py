"""Duty-node state caches (the cache γ of §III-B).

Every node periodically routes its availability record to the duty node
whose zone encloses the normalized availability point; the duty node keeps
the record for the state TTL (600 s in the paper, message cycle 400 s).

The cache is stored structure-of-arrays: availability vectors live in one
contiguous ``(capacity, d)`` float64 matrix with parallel owner/timestamp
arrays, so the dominance check of Inequality (2) — the hottest operation in
the whole reproduction, hit by every index jump, duty-cache probe and all
baselines — is a single vectorized comparison instead of a per-record
Python loop.  Row order is insertion order (a replacing update keeps its
row), eviction and TTL expiry only flip a liveness bit, and the arrays are
compacted lazily once enough dead rows accumulate, which preserves the
exact iteration semantics of the original dict-of-records implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["StateRecord", "StateCache"]

_EPS = 1e-9

#: Initial row capacity of the SoA arrays.
_MIN_CAPACITY = 8

#: Compact once dead rows outnumber both this floor and the live rows.
_COMPACT_FLOOR = 32


@dataclass(frozen=True, slots=True)
class StateRecord:
    """One availability report: ``a_i`` of ``owner`` at ``timestamp``."""

    owner: int
    availability: np.ndarray
    timestamp: float

    def qualifies(self, demand: np.ndarray) -> bool:
        """Inequality (2): the recorded availability dominates ``demand``."""
        return bool(np.all(self.availability >= demand - _EPS))


class StateCache:
    """TTL-bounded per-duty-node record store, keyed by reporting owner.

    A newer record from the same owner replaces the old one (the paper's
    periodic state-update semantics), in place: the owner keeps its
    original insertion position, exactly like a dict value update.
    """

    __slots__ = (
        "ttl", "_pos", "_recs", "_owners", "_ts", "_matrix", "_live",
        "_n", "_dead", "_oldest",
    )

    def __init__(self, ttl: float):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = float(ttl)
        self._pos: dict[int, int] = {}  # owner -> row index
        self._recs: list[Optional[StateRecord]] = []  # row -> record (None = dead)
        self._owners = np.empty(0, dtype=np.int64)
        self._ts = np.empty(0, dtype=np.float64)
        self._matrix: Optional[np.ndarray] = None  # (capacity, d) float64
        self._live = np.empty(0, dtype=bool)
        self._n = 0  # rows in use (live + dead holes)
        self._dead = 0  # dead holes among the first _n rows
        #: Lower bound on the timestamps of live rows: lets ``purge`` skip
        #: the vectorized staleness scan entirely while nothing can have
        #: expired yet (the common case — purge runs on every query).
        self._oldest = np.inf

    # ------------------------------------------------------------------
    # storage management
    # ------------------------------------------------------------------
    def _grow(self, dims: int, extra: int = 1) -> None:
        capacity = max(_MIN_CAPACITY, 2 * self._n, self._n + extra)
        matrix = np.empty((capacity, dims), dtype=np.float64)
        owners = np.empty(capacity, dtype=np.int64)
        ts = np.empty(capacity, dtype=np.float64)
        live = np.zeros(capacity, dtype=bool)
        if self._n:
            matrix[: self._n] = self._matrix[: self._n]
            owners[: self._n] = self._owners[: self._n]
            ts[: self._n] = self._ts[: self._n]
            live[: self._n] = self._live[: self._n]
        self._matrix = matrix
        self._owners = owners
        self._ts = ts
        self._live = live

    def _compact(self) -> None:
        """Squeeze out dead rows, preserving insertion order."""
        keep = np.flatnonzero(self._live[: self._n])
        m = int(keep.size)
        if m:
            self._matrix[:m] = self._matrix[keep]
            self._owners[:m] = self._owners[keep]
            self._ts[:m] = self._ts[keep]
        self._live[:m] = True
        self._live[m : self._n] = False
        recs = [self._recs[i] for i in keep]
        self._recs[:] = recs
        self._pos = {rec.owner: row for row, rec in enumerate(recs)}
        self._n = m
        self._dead = 0

    def _maybe_compact(self) -> None:
        if self._dead > _COMPACT_FLOOR and self._dead > self._n - self._dead:
            self._compact()

    def _kill_row(self, row: int) -> None:
        self._live[row] = False
        self._recs[row] = None
        self._dead += 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def put(self, record: StateRecord) -> None:
        availability = np.asarray(record.availability, dtype=np.float64)
        row = self._pos.get(record.owner)
        if row is not None:
            if self._ts[row] <= record.timestamp:
                self._matrix[row] = availability
                self._ts[row] = record.timestamp
                self._recs[row] = record
            return
        if self._matrix is None or self._n >= self._matrix.shape[0]:
            self._grow(availability.shape[0])
        row = self._n
        self._matrix[row] = availability
        self._owners[row] = record.owner
        self._ts[row] = record.timestamp
        self._live[row] = True
        self._recs.append(record)
        self._pos[record.owner] = row
        self._n += 1
        if record.timestamp < self._oldest:
            self._oldest = record.timestamp

    def merge(self, records: Sequence[StateRecord]) -> int:
        """Reconcile a replica batch into this cache as one array merge.

        The hot-partition replication path (docs/caching.md): a hot duty
        node pushes its γ wholesale to adjacent zones, and the receiver
        folds the batch in with the same newest-timestamp-wins rule as
        :meth:`put` — existing owners update in place (fancy-indexed row
        assignment), unseen owners bulk-append in batch order.  Returns
        the number of records accepted.
        """
        upd_rows: list[int] = []
        upd_recs: list[StateRecord] = []
        new: list[StateRecord] = []
        seen: set[int] = set()
        for rec in records:
            row = self._pos.get(rec.owner)
            if row is None:
                # Replica batches come from an owner-keyed cache, so
                # duplicates are unexpected — but guard anyway (a dup
                # would leave an orphaned live row behind).
                if rec.owner not in seen:
                    seen.add(rec.owner)
                    new.append(rec)
            elif self._ts[row] <= rec.timestamp:
                upd_rows.append(row)
                upd_recs.append(rec)
        if upd_rows:
            rows = np.asarray(upd_rows)
            self._matrix[rows] = np.asarray(
                [rec.availability for rec in upd_recs], dtype=np.float64
            )
            self._ts[rows] = [rec.timestamp for rec in upd_recs]
            for row, rec in zip(upd_rows, upd_recs):
                self._recs[row] = rec
        if new:
            dims = np.asarray(new[0].availability).shape[0]
            if self._matrix is None or self._n + len(new) > self._matrix.shape[0]:
                self._grow(dims, extra=len(new))
            start, stop = self._n, self._n + len(new)
            self._matrix[start:stop] = np.asarray(
                [rec.availability for rec in new], dtype=np.float64
            )
            self._owners[start:stop] = [rec.owner for rec in new]
            self._ts[start:stop] = [rec.timestamp for rec in new]
            self._live[start:stop] = True
            for offset, rec in enumerate(new):
                self._recs.append(rec)
                self._pos[rec.owner] = start + offset
            self._n = stop
            oldest = min(rec.timestamp for rec in new)
            if oldest < self._oldest:
                self._oldest = oldest
        return len(upd_rows) + len(new)

    def evict_owner(self, owner: int) -> None:
        row = self._pos.pop(owner, None)
        if row is not None:
            self._kill_row(row)
            self._maybe_compact()

    def purge(self, now: float) -> None:
        """Drop expired records."""
        if not self._pos:
            return
        cutoff = now - self.ttl
        if cutoff <= self._oldest:
            return  # every live row is at least as fresh as the bound
        live = self._live[: self._n]
        stale = live & (self._ts[: self._n] < cutoff)
        if stale.any():
            for row in stale.nonzero()[0].tolist():
                del self._pos[int(self._owners[row])]
                self._kill_row(row)
            live = self._live[: self._n]
        self._oldest = (
            float(self._ts[: self._n][live].min()) if self._pos else np.inf
        )
        self._maybe_compact()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def non_empty(self, now: float) -> bool:
        """The diffusion trigger of Algorithm 1: any fresh record present?"""
        self.purge(now)
        return bool(self._pos)

    def records(self, now: float) -> list[StateRecord]:
        self.purge(now)
        return [rec for rec in self._recs if rec is not None]

    def qualified(
        self,
        demand: np.ndarray,
        now: float,
        limit: Optional[int] = None,
        exclude: Optional[Iterable[int]] = None,
    ) -> list[StateRecord]:
        """Fresh records dominating ``demand`` (Algorithm 5 line 1), at most
        ``limit``, skipping owners in ``exclude`` (already-found nodes)."""
        self.purge(now)
        if not self._pos:
            return []
        demand = np.asarray(demand, dtype=np.float64)
        mask = (self._matrix[: self._n] >= demand - _EPS).all(axis=1)
        if self._dead:
            mask &= self._live[: self._n]
        rows = mask.nonzero()[0]
        skip = set(exclude) if exclude is not None else ()
        out: list[StateRecord] = []
        for row in rows.tolist():
            rec = self._recs[row]
            if rec.owner in skip:
                continue
            out.append(rec)
            if limit is not None and len(out) >= limit:
                break
        return out

    def __len__(self) -> int:
        return len(self._pos)
