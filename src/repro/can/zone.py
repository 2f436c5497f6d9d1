"""d-dimensional zones of the CAN key space.

Zones are axis-aligned boxes ``[lo, hi)`` inside the unit cube.  All zone
boundaries arise from repeated halving, so coordinates are dyadic rationals
represented exactly in float64 — containment and adjacency tests are exact,
no epsilon needed.

The upper face of the unit cube is closed (a point with coordinate exactly
1.0 belongs to the zone whose ``hi`` is 1.0 on that dimension) so that every
point of ``[0,1]^d`` has an owner; a point outside it, or with a NaN
coordinate, has none.

Terminology from §III-A of the paper:

- two zones are **adjacent neighbors** when they abut on exactly one
  dimension and their ranges overlap (openly) on every other dimension;
- the neighbor on the high side is the **positive neighbor**, the low side
  the **negative neighbor**;
- zone *b* is a **negative-direction node** of *a* when on every dimension
  b's range overlaps a's or lies entirely below it — equivalently
  ``b.lo < a.hi`` on all dimensions.
"""

from __future__ import annotations

import math
import operator
from typing import Optional

import numpy as np

__all__ = ["Zone", "adjacency_direction"]


class Zone:
    """An axis-aligned box ``[lo, hi)`` in the unit cube.

    The bounds are stored once, as the tuples ``_lo``/``_hi`` of plain
    floats that the hot geometric predicates read: on 2-5 element vectors
    float arithmetic beats numpy dispatch by an order of magnitude (the
    scalar routing hop reads them too).  ``lo``/``hi`` are read-only
    numpy copies built on each read, for the few cold readers; the
    overlay's ``bounds`` array is the per-node bounds store routing and
    the query engine read.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-D arrays of equal length")
        if not bool(np.all(lo < hi)):  # also refuses a NaN bound
            raise ValueError(f"degenerate zone lo={lo} hi={hi}")
        self._lo = tuple(lo.tolist())
        self._hi = tuple(hi.tolist())

    # ------------------------------------------------------------------
    @classmethod
    def unit(cls, dims: int) -> "Zone":
        return cls(np.zeros(dims), np.ones(dims))

    @property
    def lo(self) -> np.ndarray:
        """The lower corner as a new read-only array."""
        return _frozen(self._lo)

    @property
    def hi(self) -> np.ndarray:
        """The upper corner as a new read-only array."""
        return _frozen(self._hi)

    @property
    def volume(self) -> float:
        return math.prod(h - l for l, h in zip(self._lo, self._hi))

    # ------------------------------------------------------------------
    # point / box relations
    # ------------------------------------------------------------------
    def contains(self, point: np.ndarray) -> bool:
        """Half-open containment; the unit cube's top faces are closed.
        A NaN coordinate lies in no zone."""
        lo, hi = self._lo, self._hi
        for k in range(len(lo)):
            v = point[k]
            if not lo[k] <= v:
                return False
            if v >= hi[k] and not (v == hi[k] == 1.0):
                return False
        return True

    def overlaps_box(self, lo: np.ndarray, hi: np.ndarray) -> bool:
        """Open-overlap with the box ``[lo, hi)`` on every dimension."""
        return all(map(operator.lt, self._lo, hi)) and all(
            map(operator.lt, lo, self._hi)
        )

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    def split(self, dim: int) -> tuple["Zone", "Zone"]:
        """Halve along ``dim``; returns (low half, high half).

        The halves skip the validating constructor: this zone passed it
        and only coordinate ``dim`` of one bound per half is new, so the
        one check left is that the midpoint lies strictly inside.  The
        unchanged bound shares this zone's tuple."""
        lo, hi = self._lo, self._hi
        mid = (lo[dim] + hi[dim]) / 2.0
        if not lo[dim] < mid < hi[dim]:
            raise ValueError(f"degenerate zone lo={lo} hi={hi}: no midpoint on {dim}")
        low, high = Zone.__new__(Zone), Zone.__new__(Zone)
        low._lo, low._hi = lo, hi[:dim] + (mid,) + hi[dim + 1:]
        high._lo, high._hi = lo[:dim] + (mid,) + lo[dim + 1:], hi
        return low, high

    def merged_with(self, other: "Zone") -> "Zone":
        """The union box; only valid for sibling halves of a split."""
        merged = Zone(
            tuple(map(min, self._lo, other._lo)), tuple(map(max, self._hi, other._hi))
        )
        if not np.isclose(merged.volume, self.volume + other.volume):
            raise ValueError("zones are not complementary halves")
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Zone):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi


def _frozen(bound: tuple[float, ...]) -> np.ndarray:
    array = np.array(bound, dtype=np.float64)
    array.flags.writeable = False
    return array


def adjacency_direction(a: Zone, b: Zone) -> Optional[tuple[int, int]]:
    """If ``b`` is an adjacent neighbor of ``a``, return ``(dim, sign)``
    where ``sign`` is +1 when ``b`` lies on a's positive side of ``dim``
    (b is a's *positive neighbor*) and -1 when on the negative side.

    Returns ``None`` when the zones are not CAN neighbors (including the
    corner-touching case, which abuts on more than one dimension).
    """
    a_lo, a_hi = a._lo, a._hi
    b_lo, b_hi = b._lo, b._hi
    abut_dim: Optional[tuple[int, int]] = None
    for k in range(len(a_lo)):
        if a_hi[k] == b_lo[k]:
            sign = +1
        elif b_hi[k] == a_lo[k]:
            sign = -1
        else:
            # must openly overlap on this dimension
            if a_lo[k] < b_hi[k] and b_lo[k] < a_hi[k]:
                continue
            return None
        if abut_dim is not None:
            return None  # abuts on two dimensions: corner contact only
        abut_dim = (k, sign)
    return abut_dim
