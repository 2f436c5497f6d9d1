"""Per-node overlay state: the owned zone and the edge record."""

from __future__ import annotations

from repro.can.zone import Zone

__all__ = ["OverlayNode"]


class OverlayNode:
    """One CAN participant: a zone plus its face-adjacent neighbors.

    ``zone`` is the partition tree's zone object for this owner, written
    only by :meth:`~repro.can.overlay.CANOverlay._bind` whenever a join or
    a tree repair (merge, relocation) hands the node a zone; the node
    exists only once it is bound.

    ``directions`` is the node's one edge record: its keys are the
    neighbor ids, its values each edge's shared-face ``(dim, sign)`` —
    the direction from *this* node's perspective — maintained by the
    overlay at rebind time, so directional lookups (the hot inner step of
    the INSCAN table walks) need no geometry recomputation.  The values
    are the overlay's 2·d interned tuples, not one allocation per edge.
    The same information grouped by face for reading lives on the
    overlay, in its id-indexed ``buckets`` list.

    ``edge_stamp`` counts the changes of the node's edges: the overlay
    bumps it wherever it resets the node's ``buckets`` entry, and a
    routing candidate block built from this node's neighbors is current
    while the count it recorded still stands.
    """

    __slots__ = ("node_id", "zone", "directions", "edge_stamp")

    zone: Zone

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.directions: dict[int, tuple[int, int]] = {}
        self.edge_stamp = 0
