"""d-dimensional zones of the CAN key space.

Zones are axis-aligned boxes ``[lo, hi)`` inside the unit cube.  All zone
boundaries arise from repeated halving, so coordinates are dyadic rationals
represented exactly in float64 — containment and adjacency tests are exact,
no epsilon needed.

The upper face of the unit cube is closed (a point with coordinate exactly
1.0 belongs to the zone whose ``hi`` is 1.0 on that dimension) so that every
point of ``[0,1]^d`` has an owner.

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

from typing import Optional

import numpy as np

__all__ = [
    "Zone",
    "adjacency_direction",
    "is_negative_direction_of",
]


class Zone:
    """An axis-aligned box ``[lo, hi)`` in the unit cube.

    ``lo``/``hi`` are exposed as read-only numpy arrays; the private tuple
    mirrors (``_lo``/``_hi``) serve the hot geometric predicates, where
    plain float arithmetic beats numpy dispatch on 2-5 element vectors by
    an order of magnitude (profiled: routing spends ~30% of a simulation
    in ``distance_to_point`` alone).
    """

    __slots__ = ("lo", "hi", "_lo", "_hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-D arrays of equal length")
        if bool(np.any(hi <= lo)):
            raise ValueError(f"degenerate zone lo={lo} hi={hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lo = lo
        self.hi = hi
        self._lo = tuple(lo.tolist())
        self._hi = tuple(hi.tolist())

    # ------------------------------------------------------------------
    @classmethod
    def unit(cls, dims: int) -> "Zone":
        return cls(np.zeros(dims), np.ones(dims))

    @property
    def dims(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def side(self, dim: int) -> float:
        return float(self.hi[dim] - self.lo[dim])

    # ------------------------------------------------------------------
    # point / box relations
    # ------------------------------------------------------------------
    def contains(self, point: np.ndarray) -> bool:
        """Half-open containment; the unit cube's top faces are closed."""
        lo, hi = self._lo, self._hi
        for k in range(len(lo)):
            v = point[k]
            if v < lo[k]:
                return False
            if v >= hi[k] and not (v == hi[k] == 1.0):
                return False
        return True

    def distance_to_point(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the closest point of the box
        (zero when contained) — the greedy-routing progress measure."""
        lo, hi = self._lo, self._hi
        acc = 0.0
        for k in range(len(lo)):
            v = point[k]
            if v < lo[k]:
                gap = lo[k] - v
            elif v > hi[k]:
                gap = v - hi[k]
            else:
                continue
            acc += gap * gap
        return acc ** 0.5

    def overlaps_box(self, lo: np.ndarray, hi: np.ndarray) -> bool:
        """Open-overlap with the box ``[lo, hi)`` on every dimension."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        return bool(np.all(self.lo < hi) and np.all(lo < self.hi))

    # ------------------------------------------------------------------
    # splitting
    # ------------------------------------------------------------------
    def split(self, dim: int) -> tuple["Zone", "Zone"]:
        """Halve along ``dim``; returns (low half, high half).

        The halves skip the validating constructor: this zone passed it
        and only coordinate ``dim`` of one bound per half is new, so the
        one check left is that the midpoint lies strictly inside.  The
        unchanged bound shares this zone's read-only array and tuple."""
        lo, hi = self._lo, self._hi
        mid = (lo[dim] + hi[dim]) / 2.0
        if not lo[dim] < mid < hi[dim]:
            raise ValueError(
                f"degenerate zone lo={self.lo} hi={self.hi}: no midpoint on {dim}"
            )
        low, high = Zone.__new__(Zone), Zone.__new__(Zone)
        low.lo, low._lo, high.hi, high._hi = self.lo, lo, self.hi, hi
        low.hi, low._hi = _moved(self.hi, hi, dim, mid)
        high.lo, high._lo = _moved(self.lo, lo, dim, mid)
        return low, high

    def merged_with(self, other: "Zone") -> "Zone":
        """The union box; only valid for sibling halves of a split."""
        lo = np.minimum(self.lo, other.lo)
        hi = np.maximum(self.hi, other.hi)
        merged = Zone(lo, hi)
        if not np.isclose(merged.volume, self.volume + other.volume):
            raise ValueError("zones are not complementary halves")
        return merged

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def is_adjacent(self, other: "Zone") -> bool:
        """CAN neighborship: abut on exactly one dim, overlap on the rest."""
        return adjacency_direction(self, other) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Zone):
            return NotImplemented
        return bool(
            np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self) -> int:
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{l:g},{h:g})" for l, h in zip(self.lo, self.hi)
        )
        return f"Zone({parts})"


def _moved(bound: np.ndarray, mirror: tuple, dim: int, mid: float):
    """Read-only copy of ``bound``, and its tuple mirror, with coordinate
    ``dim`` at ``mid``."""
    moved = bound.copy()
    moved[dim] = mid
    moved.flags.writeable = False
    return moved, mirror[:dim] + (mid,) + mirror[dim + 1:]


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


def is_negative_direction_of(b: Zone, a: Zone) -> bool:
    """§III-A: ``b`` is a negative-direction node of ``a`` iff on every
    dimension b's range overlaps a's or lies entirely below it."""
    b_lo, a_hi = b._lo, a._hi
    for k in range(len(b_lo)):
        if b_lo[k] >= a_hi[k]:
            return False
    return True
