"""The CAN overlay: membership, zone assignment and neighbor maintenance.

Joins follow CAN [14]: the joiner picks a random point P, the owner of P's
zone halves its zone along the canonical (depth-cycling) dimension and hands
the half containing P to the joiner.  Departures run the partition-tree
takeover (see :mod:`repro.can.partition_tree`).

Neighbor maintenance is *local*: when a zone changes, only nodes that were
adjacent to the affected zones can gain or lose adjacency, because
- a split half is contained in the split zone,
- a merged zone is exactly the union of its two halves, and
- a relocated owner takes over an existing zone verbatim.

So recomputing adjacency over the union of the old neighborhoods is
complete.  ``check_invariants`` cross-checks this against a brute-force
recomputation in the tests.

Geometry lives twice, on purpose: the partition tree keeps the
authoritative :class:`~repro.can.zone.Zone` objects (split history,
takeover), while :class:`~repro.can.geometry.ZoneStore` mirrors every
live zone's bounds in SoA matrices so routing and rebinding evaluate
whole candidate sets as array ops.  Every leaf-binding change syncs the
store row and every edge caches its ``(dim, sign)`` on both endpoints.
A join hands the owner's edges out to the two halves from those cached
directions alone (``docs/can_geometry.md``, "Structural split"); a
leave's takeover classifies the candidate neighborhoods of absorber and
mover with one row-paired adjacency call.  ``directional_neighbors`` and
``pointer_walks`` — the INSCAN table build — read the node's
neighbors bucketed by face, rebuilt lazily after the node's edges
changed ("Face buckets", same document).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.can.geometry import ZoneStore
from repro.can.node import OverlayNode
from repro.can.partition_tree import PartitionTree, TakeoverPlan
from repro.can.zone import adjacency_direction

__all__ = ["CANOverlay"]


class CANOverlay:
    """A complete, consistent CAN overlay over ``[0,1]^dims``.

    ``join`` rewires by structure (:meth:`_split_neighbors`: the cached
    edge directions and two tuple reads per neighbor, no ``ZoneStore``
    query), ``leave`` by geometry (:meth:`_rebind_neighbors`); both leave
    ``neighbors``, ``directions`` and ``face_buckets`` of every node
    they touch consistent."""

    #: Subclasses that recompute adjacency per call (the scalar reference
    #: oracle) set this False so invariants skip the direction cache.
    _caches_directions = True

    def __init__(self, dims: int, rng: np.random.Generator):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self._rng = rng
        self.nodes: dict[int, OverlayNode] = {}
        self.tree: Optional[PartitionTree] = None
        #: SoA mirror of all live zones, kept in sync by join/leave.
        self.geometry = ZoneStore(dims)
        #: Routing candidate pools (managed by :mod:`repro.can.routing`).
        self._route_pools: dict = {}
        #: The 2·d distinct edge directions, interned: entry
        #: ``2 * dim + (sign < 0)`` is ``((dim, sign), (dim, -sign))`` —
        #: the direction an edge has from either endpoint.  Every
        #: ``directions`` value is one of these shared tuples.
        directions = [(dim, sign) for dim in range(dims) for sign in (+1, -1)]
        self._faces = tuple(
            (face, directions[code ^ 1])
            for code, face in enumerate(directions)
        )

    # ------------------------------------------------------------------
    # membership queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def node_ids(self) -> list[int]:
        return list(self.nodes)

    def owner_of(self, point: np.ndarray) -> int:
        """The node whose zone contains ``point``."""
        if self.tree is None:
            raise LookupError("overlay is empty")
        return self.tree.find_leaf(np.asarray(point, dtype=np.float64)).owner

    def directional_neighbors(
        self, node_id: int, dim: int, sign: int
    ) -> tuple[int, ...]:
        """Adjacent neighbors across the ``(dim, sign)`` face in ascending
        id order — a lookup in the node's face buckets, which are rebuilt
        first if an edge of the node changed since they were last read."""
        node = self.nodes[node_id]
        buckets = node.face_buckets
        if buckets is None:
            buckets = node.face_buckets = self._bucket_by_face(node.directions)
        return buckets[2 * dim + (sign < 0)]

    def _bucket_by_face(
        self, directions: dict[int, tuple[int, int]]
    ) -> tuple[tuple[int, ...], ...]:
        """Group a node's edges by face: entry ``2 * dim + (sign < 0)`` is
        the ascending tuple of neighbors across ``(dim, sign)``."""
        by_face: list[list[int]] = [[] for _ in self._faces]
        for m in sorted(directions):
            dim, sign = directions[m]
            by_face[2 * dim + (sign < 0)].append(m)
        return tuple(map(tuple, by_face))

    def pointer_walks(
        self, node_id: int, max_hops: int, rng: np.random.Generator
    ) -> tuple[dict[tuple[int, int], list[int]], int]:
        """One randomized walk from ``node_id`` per direction — a random
        neighbor across the ``(dim, sign)`` face each hop, ``max_hops``
        hops or to the edge of the space: ``({(dim, sign): the nodes
        reached after 1, 2, 4, ... hops}, hops made in all)``.

        Each walk is one loop over the face buckets (a stale one rebuilt
        as ``directional_neighbors`` would), and a hop draws from ``rng``
        only when it has more than one candidate."""
        nodes, links, total = self.nodes, {}, 0
        for code, (face, _) in enumerate(self._faces):
            chain, hops, mark, current = [], 0, 1, node_id
            while hops < max_hops:
                node = nodes[current]
                buckets = node.face_buckets
                if buckets is None:
                    buckets = node.face_buckets = self._bucket_by_face(node.directions)
                candidates = buckets[code]
                if not candidates:
                    break
                n = len(candidates)
                current = candidates[int(rng.integers(n))] if n > 1 else candidates[0]
                hops += 1
                if hops == mark:
                    chain.append(current)
                    mark <<= 1
            if chain:
                links[face] = chain
                total += hops
        return links, total

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def bootstrap(self, node_ids: Iterable[int]) -> None:
        """Build the overlay by sequential random joins — produces the
        realistically skewed zone-size distribution the paper's §I notes
        (records 'intensively stored in only a few small-zone nodes')."""
        for node_id in node_ids:
            self.join(node_id)

    def random_point(self) -> np.ndarray:
        return self._rng.uniform(0.0, 1.0, size=self.dims)

    def join(self, node_id: int, point: Optional[np.ndarray] = None) -> OverlayNode:
        """Add ``node_id``, splitting the zone containing ``point``."""
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already joined")
        if self.tree is None or not self.nodes:
            self.tree = PartitionTree(self.dims, node_id)
            node = OverlayNode(node_id, self.tree.leaf_of(node_id))
            self.nodes[node_id] = node
            self.geometry.add(node_id, node.zone)
            return node

        p = self.random_point() if point is None else np.asarray(point, np.float64)
        owner_leaf = self.tree.find_leaf(p)
        owner_id = owner_leaf.owner
        owner = self.nodes[owner_id]

        kept_leaf, new_leaf = self.tree.split(owner_id, node_id, p)
        owner.leaf = kept_leaf
        new_node = OverlayNode(node_id, new_leaf)
        self.nodes[node_id] = new_node
        self.geometry.update(owner_id, kept_leaf.zone)
        self.geometry.add(node_id, new_leaf.zone)
        self._split_neighbors(owner, new_node)
        return new_node

    def _split_neighbors(self, owner: OverlayNode, joiner: OverlayNode) -> None:
        """Hand the owner's edges out to the two halves of its zone, just
        split along ``k`` at ``mid`` — by structure, no geometry call: a
        neighbor across face ``k`` touches only the half on its side,
        one across any other face each half its ``k``-interval overlaps
        (exact on dyadic bounds), and its direction does not change.  An
        edge the owner keeps is not touched, so that neighbor's face
        buckets stay valid unless it gains the joiner as well."""
        branch = joiner.leaf.parent
        k, joiner_high = branch.dim, branch.high is joiner.leaf
        mid = branch.high.zone._lo[k]
        nodes, owner_id, joiner_id = self.nodes, owner.node_id, joiner.node_id
        for cand_id, face in list(owner.directions.items()):
            cand = nodes[cand_id]
            if face[0] == k:
                low = face[1] < 0
                high = not low
            else:
                zone = cand.leaf.zone
                low, high = zone._lo[k] < mid, zone._hi[k] > mid
            to_joiner, to_owner = (high, low) if joiner_high else (low, high)
            if to_joiner and to_owner:
                cand.directions[joiner_id] = cand.directions[owner_id]
            elif to_joiner:
                cand.directions[joiner_id] = cand.directions.pop(owner_id)
                cand.neighbors.discard(owner_id)
                owner.neighbors.discard(cand_id)
                del owner.directions[cand_id]
            else:
                continue
            cand.neighbors.add(joiner_id)
            cand.face_buckets = None
            joiner.neighbors.add(cand_id)
            joiner.directions[cand_id] = face
        face, back = self._faces[2 * k + (not joiner_high)]
        owner.neighbors.add(joiner_id)
        owner.directions[joiner_id] = face
        owner.face_buckets = None
        joiner.neighbors.add(owner_id)
        joiner.directions[owner_id] = back

    # ------------------------------------------------------------------
    # departure
    # ------------------------------------------------------------------
    def leave(self, node_id: int) -> Optional[TakeoverPlan]:
        """Remove ``node_id`` (graceful or crash — topology repair is the
        same; message loss for crashes is the transport's concern)."""
        node = self.nodes.pop(node_id)
        departed_neighbors = set(node.neighbors)
        for m in departed_neighbors:
            peer = self.nodes[m]
            peer.neighbors.discard(node_id)
            peer.directions.pop(node_id, None)
            peer.face_buckets = None
        self.geometry.remove(node_id)

        assert self.tree is not None
        plan = self.tree.remove(node_id)
        if plan is None:
            self.tree = None
            return None

        absorber = self.nodes[plan.absorber]
        absorber_old = set(absorber.neighbors)
        absorber.leaf = plan.absorber_leaf
        self.geometry.update(plan.absorber, plan.absorber_leaf.zone)

        if plan.mover is None:
            # Sibling merge: absorber's zone grew to cover the departed
            # zone; candidates are both old neighborhoods.
            self._rebind_neighbors(
                (plan.absorber, absorber_old | departed_neighbors)
            )
        else:
            mover = self.nodes[plan.mover]
            mover_old = set(mover.neighbors)
            assert plan.mover_leaf is not None
            mover.leaf = plan.mover_leaf
            self.geometry.update(plan.mover, plan.mover_leaf.zone)
            self._rebind_neighbors(
                # The absorber swallowed the mover's old zone: candidates
                # are its own old neighbors plus the mover's.
                (plan.absorber, absorber_old | mover_old),
                # The mover relocated into the departed zone: candidates
                # are the departed node's neighbors (plus the absorber,
                # which now owns the zone the mover vacated, and its old
                # neighbors for the removal side of rebinding).
                (plan.mover,
                 departed_neighbors | mover_old | {plan.absorber}),
            )
        return plan

    # ------------------------------------------------------------------
    # adjacency maintenance
    # ------------------------------------------------------------------
    def _rebind_neighbors(self, *rebinds: tuple[int, set[int]]) -> None:
        """Recompute each ``(node_id, candidates)`` adjacency and make the
        affected edges (and their cached directions) symmetric;
        candidates not actually adjacent are unlinked.

        All the zones a join or leave changed are already in the store,
        so the rebinds of one operation are classified together: one
        row-paired geometry call over the concatenated (node, candidate)
        rows, then the edge updates rebind by rebind in argument order.
        An edge whose direction did not change is left untouched, which
        also keeps the face buckets of that candidate valid."""
        nodes = self.nodes
        pairs = [
            (nodes[node_id], cand_id)
            for node_id, candidates in rebinds
            for cand_id in candidates
            if cand_id != node_id and cand_id in nodes
        ]
        if not pairs:
            return
        rows = self.geometry.rows_of(
            [node.node_id for node, _ in pairs] + [cand_id for _, cand_id in pairs]
        )
        adjacent, dims, signs = self.geometry.adjacency_rows(
            rows[: len(pairs)], rows[len(pairs) :]
        )
        faces = self._faces
        for (node, cand_id), ok, dim, sign in zip(
            pairs, adjacent.tolist(), dims.tolist(), signs.tolist()
        ):
            if ok:
                face, back = faces[2 * dim + (sign < 0)]
                if node.directions.get(cand_id) == face:
                    continue
                cand = nodes[cand_id]
                node.neighbors.add(cand_id)
                node.directions[cand_id] = face
                cand.neighbors.add(node.node_id)
                cand.directions[node.node_id] = back
            elif cand_id in node.neighbors:
                cand = nodes[cand_id]
                node.neighbors.discard(cand_id)
                del node.directions[cand_id]
                cand.neighbors.discard(node.node_id)
                del cand.directions[node.node_id]
            else:
                continue
            node.face_buckets = cand.face_buckets = None

    # ------------------------------------------------------------------
    # invariants (test support; O(n^2))
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Full structural validation: tree consistency, leaf binding,
        zone-store mirroring, and brute-force adjacency equality
        (including the cached edge directions and the face buckets
        ``directional_neighbors`` serves)."""
        if not self.nodes:
            assert self.tree is None or len(self.tree) == 0
            assert len(self.geometry) == 0
            return
        assert self.tree is not None
        self.tree.check_invariants()
        assert set(self.tree.owners()) == set(self.nodes)
        for node_id, node in self.nodes.items():
            assert self.tree.leaf_of(node_id) is node.leaf, (
                f"node {node_id} leaf binding stale"
            )
        self.geometry.check_invariants(
            {node_id: node.zone for node_id, node in self.nodes.items()}
        )
        ids = sorted(self.nodes)
        for i, a in enumerate(ids):
            za = self.nodes[a].zone
            for b in ids[i + 1 :]:
                zb = self.nodes[b].zone
                direction = adjacency_direction(za, zb)
                adjacent = direction is not None
                linked = b in self.nodes[a].neighbors
                linked_sym = a in self.nodes[b].neighbors
                assert linked == linked_sym, f"asymmetric edge {a}-{b}"
                assert linked == adjacent, (
                    f"edge {a}-{b}: linked={linked} adjacent={adjacent} "
                    f"zones {za} {zb}"
                )
                if self._caches_directions:
                    cached = self.nodes[a].directions.get(b)
                    cached_sym = self.nodes[b].directions.get(a)
                    assert cached == direction, (
                        f"direction cache {a}->{b}: {cached} != {direction}"
                    )
                    expected_sym = (
                        None if direction is None
                        else (direction[0], -direction[1])
                    )
                    assert cached_sym == expected_sym, (
                        f"direction cache {b}->{a}: {cached_sym} != "
                        f"{expected_sym}"
                    )
        if self._caches_directions:
            for node_id, node in self.nodes.items():
                assert set(node.directions) == node.neighbors, (
                    f"direction cache of {node_id} out of sync"
                )
                for face, _ in self._faces:
                    assert self.directional_neighbors(node_id, *face) == tuple(
                        sorted(
                            m for m, d in node.directions.items() if d == face
                        )
                    ), f"face bucket {face} of {node_id} stale"
