"""CAN overlay substrate.

Implements the Content-Addressable Network of Ratnasamy et al. [14] as used
by the paper: a d-dimensional unit key space dynamically partitioned into
per-node zones via a binary partition tree, face-adjacency edge maps,
greedy routing, the binary-partition-tree leave/takeover repair, and the
INSCAN extension (2^k-hop index pointers giving O(log n) routing, §III-A).

The key space is *not* toroidal: the paper's backward index diffusion
propagates "until reaching the edge of the CAN space", so directions are
meaningful and absolute.

Authoritative :class:`Zone` objects sit in the partition tree's
owner-indexed rows; the overlay also keeps every zone's bounds in one
array indexed by node id,
which is what routing gathers its candidate blocks from, and rewires
joins and leaves from cached edge directions alone (see
``docs/can_geometry.md``).
"""

from repro.can.zone import Zone, adjacency_direction
from repro.can.partition_tree import PartitionTree
from repro.can.node import OverlayNode
from repro.can.overlay import CANOverlay
from repro.can.routing import greedy_path, greedy_paths, RoutingError
from repro.can.inscan import (
    IndexPointerTable,
    build_index_table,
    inscan_path,
    inscan_paths,
)

__all__ = [
    "Zone",
    "adjacency_direction",
    "PartitionTree",
    "OverlayNode",
    "CANOverlay",
    "greedy_path",
    "greedy_paths",
    "RoutingError",
    "IndexPointerTable",
    "build_index_table",
    "inscan_path",
    "inscan_paths",
]
