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
exact iteration semantics of the original dict-of-records implementation
— the keyed-row discipline of :class:`repro.sim.rows.RowTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.sim.rows import RowTable, empty_column

__all__ = ["StateRecord", "StateCache"]

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class StateRecord:
    """One availability report: ``a_i`` of ``owner`` at ``timestamp``."""

    owner: int
    availability: np.ndarray
    timestamp: float


class StateCache(RowTable):
    """TTL-bounded per-duty-node record store, keyed by reporting owner.

    A newer record from the same owner replaces the old one (the paper's
    periodic state-update semantics), in place: the owner keeps its
    original insertion position, exactly like a dict value update.
    """

    __slots__ = ("ttl", "_recs", "_ts", "_matrix")

    _COLUMNS = ("_ts", "_matrix")
    _OBJECTS = "_recs"

    def __init__(self, ttl: float):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        super().__init__()
        self.ttl = float(ttl)
        self._recs: list[Optional[StateRecord]] = []  # row -> record (None = dead)
        self._ts = empty_column(np.float64)
        # (capacity, d): width 0 until the first record fixes ``d``
        self._matrix = empty_column(np.float64, 0)

    def _fix_dims(self, dims: int) -> None:
        """The first record fixes the matrix width ``d``."""
        if not self._matrix.shape[1]:
            self._matrix = empty_column(np.float64, dims)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def put(self, record: StateRecord) -> None:
        availability = np.asarray(record.availability, dtype=np.float64)
        row = self._row_of.get(record.owner)
        if row is not None:
            if self._ts[row] <= record.timestamp:
                self._matrix[row] = availability
                self._ts[row] = record.timestamp
                self._recs[row] = record
            return
        self._fix_dims(availability.shape[0])
        row = self._append(record.owner, record)
        self._matrix[row] = availability
        self._ts[row] = record.timestamp
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
            row = self._row_of.get(rec.owner)
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
            self._fix_dims(np.asarray(new[0].availability).shape[0])
            start = self._extend([rec.owner for rec in new], new)
            stop = self._n
            self._matrix[start:stop] = np.asarray(
                [rec.availability for rec in new], dtype=np.float64
            )
            self._ts[start:stop] = [rec.timestamp for rec in new]
            oldest = min(rec.timestamp for rec in new)
            if oldest < self._oldest:
                self._oldest = oldest
        return len(upd_rows) + len(new)

    def purge(self, now: float) -> None:
        """Drop expired records."""
        self._expire(self._ts, now - self.ttl)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def non_empty(self, now: float) -> bool:
        """The diffusion trigger of Algorithm 1: any fresh record present?"""
        self.purge(now)
        return bool(self._row_of)

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
        if not self._row_of:
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
        return len(self._row_of)
