"""SoA zone geometry — the vectorized substrate behind the CAN overlay.

:class:`ZoneStore` mirrors every live zone's ``[lo, hi)`` box in
structure-of-arrays form: one ``(capacity, d)`` float64 matrix per bound
with parallel node-id / liveness arrays, a ``node_id -> row`` map (dict
plus a dense id-indexed lookup array for vectorized gathers), and lazy
compaction — the same storage discipline as
:class:`~repro.core.state.StateCache` and the cloud
:class:`~repro.cloud.engine.HostEngine`.  The geometric predicates of
:mod:`repro.can.zone` are served as batched array operations over
candidate id sets, which is what lets greedy routing evaluate a whole
hop's candidate set in one shot and lets neighbor rebinding classify a
whole candidate neighborhood at once.

Exactness contract
------------------
Zone boundaries are dyadic rationals, so every predicate here is exact —
and, more strongly, **bit-identical** to the scalar reference kept in
:mod:`repro.testing`:

- ``squared_distances`` clips the point into each box and accumulates the
  squared per-dimension gaps *in dimension order* (sequential column
  adds, never a pairwise-tree reduction), reproducing the scalar loop's
  float semantics term by term (adding an in-range dimension's exact
  ``0.0`` is the identity, so skipped-vs-added zero terms cannot
  diverge).
- Routing screens candidates on these squared accumulators, then makes
  the decisive comparisons in the seed's ``acc ** 0.5`` space: the
  square root *merges* accumulators a couple of ulps apart into exact
  ties (lowest id wins), so candidates within a narrow relative window
  of the minimum are re-compared with the identical Python ``** 0.5``
  the scalar loop used — paths and tie-breaks match the seed bit for
  bit, merges included.  ``distances`` returns ``np.sqrt`` values,
  which on some libms may differ from ``acc ** 0.5`` by one ulp; only
  the routing layer needs (and implements) pow-exactness.

``epoch`` increments on every mutation; derived caches (the routing
candidate pools, cached adjacency directions) use it to invalidate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.can.zone import Zone

__all__ = ["ZoneStore"]

#: Initial row capacity of the SoA arrays.
_MIN_CAPACITY = 8

#: Compact once dead rows outnumber both this floor and the live rows.
_COMPACT_FLOOR = 32


def _sequential_row_sums(sq: np.ndarray) -> np.ndarray:
    """Sum ``sq`` over its last axis strictly left-to-right (dimension
    order), matching the scalar accumulation loop bit for bit.  numpy's
    own axis reduction switches to pairwise summation for rows of eight
    or more elements, so the columns are added explicitly."""
    acc = sq[:, 0].copy() if sq.shape[1] == 1 else sq[:, 0] + sq[:, 1]
    for k in range(2, sq.shape[1]):
        np.add(acc, sq[:, k], out=acc)
    return acc


class ZoneStore:
    """All live zones' bounds in ``(N, d)`` matrices, keyed by node id."""

    __slots__ = (
        "dims", "epoch", "_lo", "_hi", "_ids",
        "_live", "_row_of", "_row_by_id", "_n", "_dead",
    )

    def __init__(self, dims: int):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        #: Mutation counter; bumped by add/update/remove (and compaction).
        self.epoch = 0
        self._lo = np.empty((_MIN_CAPACITY, dims), dtype=np.float64)
        self._hi = np.empty((_MIN_CAPACITY, dims), dtype=np.float64)
        self._ids = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._live = np.zeros(_MIN_CAPACITY, dtype=bool)
        self._row_of: dict[int, int] = {}
        #: Dense id -> row lookup (-1 = absent) for vectorized gathers.
        self._row_by_id = np.full(_MIN_CAPACITY, -1, dtype=np.int64)
        self._n = 0  # rows in use (live + dead holes)
        self._dead = 0  # dead holes among the first _n rows

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._row_of

    def node_ids(self) -> list[int]:
        return list(self._row_of)

    # ------------------------------------------------------------------
    # storage management
    # ------------------------------------------------------------------
    def _grow_rows(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * self._n)
        for name in ("_lo", "_hi"):
            arr = np.empty((capacity, self.dims), dtype=np.float64)
            arr[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, arr)
        ids = np.empty(capacity, dtype=np.int64)
        ids[: self._n] = self._ids[: self._n]
        self._ids = ids
        live = np.zeros(capacity, dtype=bool)
        live[: self._n] = self._live[: self._n]
        self._live = live

    def _grow_id_map(self, node_id: int) -> None:
        size = len(self._row_by_id)
        while node_id >= size:
            size *= 2
        grown = np.full(size, -1, dtype=np.int64)
        grown[: len(self._row_by_id)] = self._row_by_id
        self._row_by_id = grown

    def _compact(self) -> None:
        """Squeeze out dead rows, preserving insertion order."""
        keep = np.flatnonzero(self._live[: self._n])
        m = int(keep.size)
        if m:
            self._lo[:m] = self._lo[keep]
            self._hi[:m] = self._hi[keep]
            self._ids[:m] = self._ids[keep]
        self._live[:m] = True
        self._live[m : self._n] = False
        self._row_of = {int(self._ids[row]): row for row in range(m)}
        self._row_by_id[:] = -1
        self._row_by_id[self._ids[:m]] = np.arange(m)
        self._n = m
        self._dead = 0

    def _maybe_compact(self) -> None:
        if self._dead > _COMPACT_FLOOR and self._dead > self._n - self._dead:
            self._compact()

    def footprint_bytes(self) -> int:
        """Bytes held by the SoA arrays (bounds, ids, liveness, dense id
        map — the dominant storage at overlay scale)."""
        return (
            self._lo.nbytes + self._hi.nbytes + self._ids.nbytes
            + self._live.nbytes + self._row_by_id.nbytes
        )

    def trim(self) -> int:
        """Release slack: compact dead rows and shrink the bound/id arrays
        and the dense id map to their live extents.  Returns the number of
        bytes released.  Bumps ``epoch`` only when rows actually moved, so
        derived caches invalidate exactly when geometry layout changed."""
        before = self.footprint_bytes()
        if self._dead:
            self._compact()
            self.epoch += 1
        capacity = max(_MIN_CAPACITY, self._n)
        if self._lo.shape[0] > capacity:
            self._lo = self._lo[:capacity].copy()
            self._hi = self._hi[:capacity].copy()
            self._ids = self._ids[:capacity].copy()
            self._live = self._live[:capacity].copy()
        id_span = _MIN_CAPACITY
        if self._n:
            id_span = max(id_span, int(self._ids[: self._n].max()) + 1)
        size = _MIN_CAPACITY
        while size < id_span:
            size *= 2
        if len(self._row_by_id) > size:
            self._row_by_id = self._row_by_id[:size].copy()
        return before - self.footprint_bytes()

    # ------------------------------------------------------------------
    # mutation (the overlay calls these whenever a leaf binding changes)
    # ------------------------------------------------------------------
    def add(self, node_id: int, zone: Zone) -> None:
        if node_id in self._row_of:
            raise ValueError(f"node {node_id} already in store")
        if zone.dims != self.dims:
            raise ValueError(f"zone dims {zone.dims} != store dims {self.dims}")
        if self._n >= self._lo.shape[0]:
            self._grow_rows()
        if node_id >= len(self._row_by_id):
            self._grow_id_map(node_id)
        row = self._n
        self._lo[row] = zone.lo
        self._hi[row] = zone.hi
        self._ids[row] = node_id
        self._live[row] = True
        self._row_of[node_id] = row
        self._row_by_id[node_id] = row
        self._n += 1
        self.epoch += 1

    def update(self, node_id: int, zone: Zone) -> None:
        """Rewrite ``node_id``'s bounds in place (zone grew/shrank/moved)."""
        row = self._row_of[node_id]
        self._lo[row] = zone.lo
        self._hi[row] = zone.hi
        self.epoch += 1

    def remove(self, node_id: int) -> None:
        row = self._row_of.pop(node_id)
        self._live[row] = False
        self._row_by_id[node_id] = -1
        self._dead += 1
        self.epoch += 1
        self._maybe_compact()

    # ------------------------------------------------------------------
    # row lookup
    # ------------------------------------------------------------------
    def rows_of(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Row index per id, ``-1`` for ids not in the store (stale long
        links, churned-out nodes, ids never seen)."""
        arr = np.asarray(ids, dtype=np.int64)
        rows = np.full(arr.shape, -1, dtype=np.int64)
        in_range = (arr >= 0) & (arr < len(self._row_by_id))
        rows[in_range] = self._row_by_id[arr[in_range]]
        return rows

    def bounds_of(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of ``(lo, hi)`` for one node."""
        row = self._row_of[node_id]
        return self._lo[row].copy(), self._hi[row].copy()

    def gather_bounds(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` matrices for the given store rows."""
        return self._lo[rows], self._hi[rows]

    # ------------------------------------------------------------------
    # batched predicates
    # ------------------------------------------------------------------
    def squared_distances_rows(
        self, points: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Squared box distance per (point row, store row) pair —
        bit-identical to the scalar gap loop (see module docstring).
        ``points`` may be one ``(d,)`` point broadcast over all rows or a
        ``(len(rows), d)`` matrix pairing each row with its own point."""
        lo = self._lo[rows]
        hi = self._hi[rows]
        clipped = np.clip(points, lo, hi)
        np.subtract(clipped, points, out=clipped)
        np.multiply(clipped, clipped, out=clipped)
        return _sequential_row_sums(clipped)

    def squared_distances(
        self, point: np.ndarray, ids: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(acc, present)``: squared distance from ``point`` to each
        candidate's box plus a mask of ids actually in the store (absent
        ids get ``inf``)."""
        rows = self.rows_of(ids)
        present = rows >= 0
        acc = np.full(rows.shape, np.inf)
        if present.any():
            acc[present] = self.squared_distances_rows(
                np.asarray(point, dtype=np.float64), rows[present]
            )
        return acc, present

    def distances(
        self, point: np.ndarray, ids: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean box distances (``sqrt`` of :meth:`squared_distances`)."""
        acc, present = self.squared_distances(point, ids)
        return np.sqrt(acc, out=acc), present

    def contains_mask(
        self, point: np.ndarray, ids: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Half-open containment per candidate (top faces of the unit
        cube closed), ``False`` for absent ids."""
        rows = self.rows_of(ids)
        present = rows >= 0
        out = np.zeros(rows.shape, dtype=bool)
        if not present.any():
            return out
        p = np.asarray(point, dtype=np.float64)
        lo = self._lo[rows[present]]
        hi = self._hi[rows[present]]
        ok_lo = (p >= lo).all(axis=1)
        ok_hi = ((p < hi) | ((p == hi) & (hi == 1.0))).all(axis=1)
        out[present] = ok_lo & ok_hi
        return out

    def touching_mask(
        self, point: np.ndarray, ids: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Closed-box incidence (squared distance exactly zero), ``False``
        for absent ids — the perimeter walk's membership test.

        Computed as the direct closed-interval test ``lo <= p <= hi`` on
        every dimension, which is exactly the zero-distance predicate
        (the clipped gap is zero iff the point is inside the closed box)
        at a fraction of the arithmetic."""
        rows = self.rows_of(ids)
        present = rows >= 0
        out = np.zeros(rows.shape, dtype=bool)
        if present.any():
            p = np.asarray(point, dtype=np.float64)
            rp = rows[present]
            out[present] = (
                (p >= self._lo[rp]) & (p <= self._hi[rp])
            ).all(axis=1)
        return out

    def contains_rows(self, points: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Half-open containment per (point row, store row) pair — the
        row-paired twin of :meth:`contains_mask` (top faces of the unit
        cube closed)."""
        lo = self._lo[rows]
        hi = self._hi[rows]
        p = np.asarray(points, dtype=np.float64)
        ok_lo = (p >= lo).all(axis=1)
        ok_hi = ((p < hi) | ((p == hi) & (hi == 1.0))).all(axis=1)
        return ok_lo & ok_hi

    def adjacency_rows(
        self, a_rows: int | np.ndarray, b_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CAN neighborship per (store row, store row) pair — the
        row-paired kernel behind :meth:`adjacency`.  ``a_rows`` is one
        row tested against every ``b_rows`` entry, or an array pairing
        ``b_rows[i]`` with its own ``a_rows[i]``, which is how the
        overlay classifies both halves of a split zone in one call.
        Returns ``(adjacent, dims, signs)`` as :meth:`adjacency` does."""
        a_lo, a_hi = self._lo[a_rows], self._hi[a_rows]
        b_lo, b_hi = self._lo[b_rows], self._hi[b_rows]
        abut_pos = a_hi == b_lo
        abut_neg = b_hi == a_lo
        abut = abut_pos | abut_neg
        overlap = (a_lo < b_hi) & (b_lo < a_hi)
        adjacent = (abut | overlap).all(axis=1) & (abut.sum(axis=1) == 1)
        face = abut.argmax(axis=1)
        signs = np.where(abut_pos[np.arange(face.shape[0]), face], 1, -1)
        return adjacent, face, signs

    def adjacency(
        self, node_id: int, ids: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched CAN neighborship of ``node_id`` against candidates.

        Returns ``(adjacent, dims, signs)``: a bool mask plus, for rows
        where it is set, the shared-face dimension and the side
        (``+1`` = candidate on the positive side).  ``dims``/``signs``
        are unspecified where ``adjacent`` is false (absent ids
        included).  Exact dyadic comparisons — identical to
        :func:`repro.can.zone.adjacency_direction` per pair."""
        rows = self.rows_of(ids)
        present = rows >= 0
        n = rows.shape[0]
        adjacent = np.zeros(n, dtype=bool)
        dims = np.zeros(n, dtype=np.int64)
        signs = np.ones(n, dtype=np.int64)
        if present.any():
            adjacent[present], dims[present], signs[present] = (
                self.adjacency_rows(self._row_of[node_id], rows[present])
            )
        return adjacent, dims, signs

    def negative_direction_mask(
        self, node_id: int, ids: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """§III-A batched: candidate ``b`` is a negative-direction node of
        ``node_id`` iff ``b.lo < a.hi`` on every dimension (``False`` for
        absent ids)."""
        rows = self.rows_of(ids)
        present = rows >= 0
        out = np.zeros(rows.shape, dtype=bool)
        if present.any():
            a_hi = self._hi[self._row_of[node_id]]
            out[present] = (self._lo[rows[present]] < a_hi).all(axis=1)
        return out

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------
    def check_invariants(self, zones: dict[int, Zone] | None = None) -> None:
        """Structural validation; with ``zones`` given, also assert every
        stored row matches the authoritative zone objects 1:1."""
        assert len(self._row_of) == self._n - self._dead
        assert int(self._live[: self._n].sum()) == len(self._row_of)
        assert not self._live[self._n :].any()
        for node_id, row in self._row_of.items():
            assert self._live[row], f"row of {node_id} marked dead"
            assert int(self._ids[row]) == node_id, f"id mismatch at row {row}"
            assert int(self._row_by_id[node_id]) == row, "dense map stale"
        dense_live = np.flatnonzero(self._row_by_id >= 0)
        assert {int(i) for i in dense_live} == set(self._row_of)
        if zones is not None:
            assert set(zones) == set(self._row_of), "membership drift"
            for node_id, zone in zones.items():
                row = self._row_of[node_id]
                assert np.array_equal(self._lo[row], zone.lo), (
                    f"lo drift for node {node_id}"
                )
                assert np.array_equal(self._hi[row], zone.hi), (
                    f"hi drift for node {node_id}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_zones(cls, dims: int, zones: Iterable[tuple[int, Zone]]) -> "ZoneStore":
        store = cls(dims)
        for node_id, zone in zones:
            store.add(node_id, zone)
        return store
