"""Keyed row tables: the one storage discipline of the SoA stores.

The duty-node state caches γ (:class:`repro.core.state.StateCache`), the
hot-range path caches (:class:`repro.core.cache.RangeCache`) and the host
engine's task rows (:class:`repro.cloud.engine.HostEngine`) keep their
entries as rows of parallel numpy columns addressed by an int key.
:class:`RowTable` is their common base and the only place the rules live:

- **append** — a new key takes the next row, so row order is insertion
  order; ``_row_of`` maps each live key to its row;
- **tombstones** — removing a key only drops the row's liveness bit (and
  empties its slot in the row-aligned object list, if the store keeps
  one);
- **birth** — the base columns and the caches' own start as the one
  shared, read-only zero-length array of their dtype and width
  (:func:`empty_column`), so a cache that never holds a row — most of a
  cell's caches at set-up — owns no array;
- **growth** — capacity doubles when full (:func:`grow_columns`, which
  the engine's host arrays use too); the first append allocates;
- **compaction** — once dead rows outnumber both :attr:`COMPACT_FLOOR`
  and the live rows they are squeezed out, preserving order, so every
  scan sees the live rows in the order a dict of entries would iterate;
- **TTL expiry** — :meth:`RowTable._expire` tombstones the rows stamped
  before a cutoff, skipping the scan while the ``_oldest`` lower bound
  shows nothing can have expired (the two caches purge on every read).

A subclass names its own columns in ``_COLUMNS`` (beside the shared
``_keys`` and ``_live``) and its object list in ``_OBJECTS``, creates
them with capacity 0, and overrides ``_kill`` or ``_compact`` for what
is its own: the range cache's dead-row ``lo = +inf`` and the engine's
remap of host row lists.  Compaction never changes what a store
returns; the lockstep suites run with a floor of 2 to pin that.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Optional

import numpy as np

__all__ = ["RowTable", "empty_column", "grow_columns", "MIN_CAPACITY"]

#: Initial row capacity of every SoA column.
MIN_CAPACITY = 8


@cache
def empty_column(dtype: type, *width: int) -> np.ndarray:
    """The zero-length column of ``dtype`` (``(0,)``, or ``(0, width)``
    for a matrix column): one read-only array per kind, shared by every
    store whose column holds no row yet — :func:`grow_columns` replaces
    it at the first append, and nothing writes it."""
    column = np.empty((0, *width), dtype=dtype)
    column.flags.writeable = False
    return column


def grow_columns(owner: Any, names: tuple[str, ...], n: int, need: int) -> None:
    """Reallocate the columns ``names`` of ``owner`` to hold ``need`` rows
    (at least double the ``n`` in use), keeping the first ``n`` rows."""
    capacity = max(MIN_CAPACITY, 2 * n, need)
    for name in names:
        old = getattr(owner, name)
        fresh = np.empty((capacity, *old.shape[1:]), dtype=old.dtype)
        fresh[:n] = old[:n]
        setattr(owner, name, fresh)


class RowTable:
    """Rows of parallel numpy columns, keyed, tombstoned and compacted
    lazily (see the module docstring)."""

    #: Compact once dead rows outnumber both this floor and the live rows.
    COMPACT_FLOOR = 32

    #: The subclass's own columns, attribute names of row-aligned arrays.
    _COLUMNS: tuple[str, ...] = ()
    #: Attribute name of the row-aligned object list (``None`` = dead
    #: row), or ``None`` when the store keeps no objects.
    _OBJECTS: Optional[str] = None

    __slots__ = ("_row_of", "_keys", "_live", "_n", "_dead", "_oldest")

    def __init__(self) -> None:
        self._row_of: dict[int, int] = {}  # key -> row
        self._keys = empty_column(np.int64)
        self._live = empty_column(np.bool_)
        self._n = 0  # rows in use (live + dead holes)
        self._dead = 0  # dead holes among the first _n rows
        #: Lower bound on the stamps of live rows (:meth:`_expire`).
        self._oldest = np.inf

    def _columns(self) -> tuple[str, ...]:
        return ("_keys", "_live", *self._COLUMNS)

    def _append(self, key: int, obj: Any = None) -> int:
        """A live row for ``key`` (not present yet); returns the row."""
        row = self._n
        if row >= self._live.shape[0]:
            grow_columns(self, self._columns(), row, row + 1)
        self._keys[row] = key
        self._live[row] = True
        self._row_of[key] = row
        if self._OBJECTS is not None:
            getattr(self, self._OBJECTS).append(obj)
        self._n = row + 1
        return row

    def _extend(self, keys: list[int], objs: list) -> int:
        """Live rows for ``keys`` (at least one, distinct, none present
        yet) in order, with their objects; returns the first row."""
        start = self._n
        stop = start + len(keys)
        if stop > self._live.shape[0]:
            grow_columns(self, self._columns(), start, stop)
        self._keys[start:stop] = keys
        self._live[start:stop] = True
        self._row_of.update(zip(keys, range(start, stop)))
        if self._OBJECTS is not None:
            getattr(self, self._OBJECTS).extend(objs)
        self._n = stop
        return start

    def _kill(self, row: int) -> None:
        """Tombstone a live row; compaction is left to the caller."""
        del self._row_of[int(self._keys[row])]
        self._live[row] = False
        if self._OBJECTS is not None:
            getattr(self, self._OBJECTS)[row] = None
        self._dead += 1

    def discard(self, key: int) -> None:
        """Drop ``key``'s row, if it has one."""
        row = self._row_of.get(key)
        if row is not None:
            self._kill(row)
            self._maybe_compact()

    def _expire(self, stamps: np.ndarray, cutoff: float) -> None:
        """Drop every live row whose ``stamps`` entry is below ``cutoff``
        (``stamps`` is one of the subclass's columns)."""
        if not self._row_of or cutoff <= self._oldest:
            return  # every live row is at least as fresh as the bound
        n = self._n
        live = self._live[:n]
        for row in (live & (stamps[:n] < cutoff)).nonzero()[0].tolist():
            self._kill(row)
        self._oldest = float(stamps[:n][live].min()) if self._row_of else np.inf
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._dead > self.COMPACT_FLOOR and self._dead > self._n - self._dead:
            self._compact()

    def _compact(self) -> np.ndarray:
        """Squeeze out dead rows, preserving order; returns the old rows
        kept, in their new order."""
        keep = np.flatnonzero(self._live[: self._n])
        m = int(keep.size)
        for name in self._columns():
            col = getattr(self, name)
            col[:m] = col[keep]
        if self._OBJECTS is not None:
            objs = getattr(self, self._OBJECTS)
            objs[:] = [objs[row] for row in keep.tolist()]
        # Keys enter ``_row_of`` as their rows are appended and leave when
        # they die, so its order is row order: renumber it as it stands.
        self._row_of = dict(zip(self._row_of, range(m)))
        self._n = m
        self._dead = 0
        return keep
