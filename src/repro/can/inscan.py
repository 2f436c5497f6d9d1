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

import itertools
from typing import Optional, Sequence

import numpy as np

from repro.can.overlay import CANOverlay
from repro.can.routing import greedy_path, greedy_paths

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
    """Per-node directional long-link table.

    ``links[(dim, sign)]`` is the list of node ids at walk distances
    ``2^0, 2^1, ...`` (index = exponent k).  Entries may go stale under
    churn; routing skips dead ids and the table is refreshed periodically.
    """

    __slots__ = ("node_id", "links", "build_messages", "_neg_tuples",
                 "_all_links")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.links: dict[tuple[int, int], list[int]] = {}
        #: directional-walk steps spent building the table (traffic charge)
        self.build_messages = 0
        #: lazily-built ``dim -> tuple`` mirrors of the negative pointer
        #: chains (the diffusion engine's NINode pools) and the
        #: concatenation of every chain (routing's extra hop candidates);
        #: a table is immutable once built, so neither goes stale.
        self._neg_tuples: dict[int, tuple[int, ...]] = {}
        self._all_links: Optional[tuple[int, ...]] = None

    def pointers(self, dim: int, sign: int) -> list[int]:
        return self.links.get((dim, sign), [])

    def all_links(self) -> tuple[int, ...]:
        """Every pointer of every chain, in ``links`` order (cached)."""
        out = self._all_links
        if out is None:
            out = self._all_links = tuple(
                itertools.chain.from_iterable(self.links.values())
            )
        return out

    def negative_index_nodes(self, dim: int, min_exponent: int = 0) -> list[int]:
        """NINodes along ``dim``: negative-direction pointers at distances
        2^k, k ≥ ``min_exponent``.

        The k=0 (adjacent) pointer is part of the set: Theorem 1's binary
        decomposition of relay distances (13 = 8 + 4 + 1) requires the
        2^0 link, otherwise odd distances would be unreachable."""
        return self.pointers(dim, -1)[min_exponent:]

    def negative_pool_tuple(self, dim: int) -> tuple[int, ...]:
        """The NINode chain along ``dim`` as a cached tuple of ints, chain
        order preserved — what the diffusion engine filters (avoids the
        per-call list slice of ``negative_index_nodes``)."""
        pool = self._neg_tuples.get(dim)
        if pool is None:
            pool = tuple(self.pointers(dim, -1))
            self._neg_tuples[dim] = pool
        return pool


def build_index_table(
    overlay: CANOverlay,
    node_id: int,
    rng: np.random.Generator,
    max_exponent: Optional[int] = None,
) -> IndexPointerTable:
    """Build the pointer table for ``node_id``: one randomized walk of
    ``2^max_exponent`` hops per direction, all of them inside one call of
    :meth:`~repro.can.overlay.CANOverlay.pointer_walks` (no call per
    hop); the hops walked are charged as ``build_messages``."""
    if max_exponent is None:
        max_exponent = max_pointer_exponent(len(overlay), overlay.dims)
    table = IndexPointerTable(node_id)
    table.links, table.build_messages = overlay.pointer_walks(
        node_id, 1 << max_exponent, rng
    )
    return table


def inscan_path(
    overlay: CANOverlay,
    tables: dict[int, IndexPointerTable],
    start_id: int,
    point: np.ndarray,
    max_hops: Optional[int] = None,
) -> list[int]:
    """Greedy routing over neighbors ∪ index pointers — O(log2 n) hops."""
    return greedy_path(
        overlay, start_id, point, max_hops=max_hops, link_tables=tables
    )


def inscan_paths(
    overlay: CANOverlay,
    tables: dict[int, IndexPointerTable],
    starts: Sequence[int],
    points: np.ndarray,
    max_hops: Optional[int] = None,
    on_error: str = "raise",
) -> list[Optional[list[int]]]:
    """Batched :func:`inscan_path` — one lockstep routing pass for a whole
    burst of queries (see :func:`repro.can.routing.greedy_paths`)."""
    return greedy_paths(
        overlay, starts, points,
        max_hops=max_hops, link_tables=tables, on_error=on_error,
    )
