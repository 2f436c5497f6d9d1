"""Per-node overlay state: the owned zone and the edge record."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.can.zone import Zone

if TYPE_CHECKING:  # pragma: no cover
    from repro.can.partition_tree import TreeLeaf

__all__ = ["OverlayNode"]


class OverlayNode:
    """One CAN participant: a zone plus its face-adjacent neighbors.

    The zone is read through the partition-tree leaf so that tree repairs
    (merges, relocations) are immediately visible here.

    ``directions`` is the node's one edge record: its keys are the
    neighbor ids, its values each edge's shared-face ``(dim, sign)`` —
    the direction from *this* node's perspective — maintained by the
    overlay at rebind time, so directional lookups (the hot inner step of
    the INSCAN table walks) need no geometry recomputation.  The values
    are the overlay's 2·d interned tuples, not one allocation per edge.

    ``face_buckets`` is the same information grouped for reading: entry
    ``2 * dim + (sign < 0)`` is the ascending tuple of neighbors across
    the ``(dim, sign)`` face.  The overlay sets it to ``None`` wherever
    it changes an edge of this node and
    :meth:`~repro.can.overlay.CANOverlay.directional_neighbors` rebuilds
    it on the next read.  ``check_invariants`` cross-checks both against
    brute force.

    ``edge_stamp`` counts the changes of the node's edges: the overlay
    bumps it wherever it resets ``face_buckets``, and a routing candidate
    block built from this node's neighbors is current while the count it
    recorded still stands.
    """

    __slots__ = ("node_id", "leaf", "directions", "face_buckets", "edge_stamp")

    def __init__(self, node_id: int, leaf: "TreeLeaf"):
        self.node_id = node_id
        self.leaf = leaf
        self.directions: dict[int, tuple[int, int]] = {}
        self.face_buckets: Optional[tuple[tuple[int, ...], ...]] = None
        self.edge_stamp = 0

    @property
    def zone(self) -> Zone:
        return self.leaf.zone
