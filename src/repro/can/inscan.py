"""INSCAN: CAN augmented with 2^k-hop index pointers (§III-A).

Every node keeps, per dimension and direction, pointers to sampled nodes at
hop distances 1, 2, 4, ... 2^K reached by a randomized directional walk
through adjacent neighbors (the paper refreshes these "by flooding the
querying messages to its neighbors along the d dimensions until reaching the
edge of the CAN space").  With the pointers as extra greedy-routing links,
lookups take O(log2 n) hops instead of CAN's O(n^(1/d)).

The same tables supply the *negative-index nodes* (NINodes) that the
proactive index diffusion of §III-B sends to: targets at distance 2^k,
k ≥ 1, in the negative direction of a dimension.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.can.overlay import CANOverlay
from repro.can.routing import greedy_path, greedy_paths
from repro.sim.rng import index_draw

__all__ = [
    "IndexPointerTable",
    "build_index_table",
    "inscan_path",
    "inscan_paths",
    "max_pointer_exponent",
]


def max_pointer_exponent(n_nodes: int, dims: int) -> int:
    """``⌊log2 n^(1/d)⌋`` — the paper's bound on the pointer exponent k."""
    if n_nodes < 2:
        return 0
    # 2^k <= n^(1/d)  <=>  2^(k*d) <= n: integers, so exact where the float
    # root falls short (64 ** (1/3) = 3.9999999999999996).
    return (n_nodes.bit_length() - 1) // dims


class IndexPointerTable:
    """Per-node directional long-link table, immutable once built.

    ``all_links`` holds the node ids the walk across each ``(dim, sign)``
    face reached at distances ``2^0, 2^1, ...``, the faces' chains
    concatenated in face order — routing's extra hop candidates as they
    stand.  ``ends`` has ``2 * d + 1`` offsets: the chain of face
    ``c = 2 * dim + (sign < 0)`` is ``all_links[ends[c]:ends[c + 1]]``
    (index within it = exponent k), empty where the node sits on that
    edge of the space.  A table holds at most ``2 * d * (K + 1)`` links
    (64 at d = 16 and 10^6 nodes), so ``ends`` is ``bytes``.  The
    ``(dim, -1)`` chain is the pool of negative-index nodes along
    ``dim``; its k=0 (adjacent) pointer belongs to it: Theorem 1's binary
    decomposition of relay distances (13 = 8 + 4 + 1) needs the 2^0
    link, otherwise odd distances would be unreachable.  Entries may go
    stale under churn; routing skips dead ids and the table is rebuilt
    periodically.
    """

    __slots__ = ("node_id", "all_links", "ends", "build_messages")

    def __init__(
        self, node_id: int, all_links: tuple[int, ...], ends: bytes,
        build_messages: int,
    ):
        self.node_id = node_id
        self.all_links = all_links
        self.ends = ends
        #: directional-walk steps spent building the table (traffic charge)
        self.build_messages = build_messages


def build_index_table(
    overlay: CANOverlay,
    node_id: int,
    rng: np.random.Generator,
    max_exponent: Optional[int] = None,
) -> IndexPointerTable:
    """Build the pointer table for ``node_id``: one randomized walk of
    ``2^max_exponent`` hops per direction, all of them inside one call of
    :meth:`~repro.can.overlay.CANOverlay.pointer_walks` (no call per
    hop), drawing from ``rng`` as ``int(rng.integers(n))`` would; the
    hops walked are charged as ``build_messages``."""
    if max_exponent is None:
        max_exponent = max_pointer_exponent(len(overlay), overlay.dims)
    return IndexPointerTable(
        node_id, *overlay.pointer_walks(node_id, 1 << max_exponent, index_draw(rng))
    )


def inscan_path(
    overlay: CANOverlay,
    tables: dict[int, IndexPointerTable],
    start_id: int,
    point: np.ndarray,
    max_hops: Optional[int] = None,
    memo: bool = True,
) -> list[int]:
    """Greedy routing over neighbors ∪ index pointers — O(log2 n) hops.
    ``memo`` as in :func:`repro.can.routing.greedy_path`."""
    return greedy_path(
        overlay, start_id, point, max_hops=max_hops, link_tables=tables,
        memo=memo,
    )


def inscan_paths(
    overlay: CANOverlay,
    tables: dict[int, IndexPointerTable],
    starts: Sequence[int],
    points: np.ndarray,
    max_hops: Optional[int] = None,
    on_error: str = "raise",
    memo: bool = True,
) -> list[Optional[list[int]]]:
    """Batched :func:`inscan_path` — one lockstep routing pass for a whole
    burst of queries (see :func:`repro.can.routing.greedy_paths`)."""
    return greedy_paths(
        overlay, starts, points,
        max_hops=max_hops, link_tables=tables, on_error=on_error, memo=memo,
    )
