"""The CAN overlay: membership, zone assignment and neighbor maintenance.

Joins follow CAN [14]: the joiner picks a random point P, the owner of P's
zone halves its zone along the canonical (depth-cycling) dimension and hands
the half containing P to the joiner.  Departures run the partition-tree
takeover (see :mod:`repro.can.partition_tree`).

Neighbor maintenance is *local* and needs no zone compared with another,
because
- a split half is contained in the split zone,
- a merged zone is exactly the union of its two halves, and
- a relocated owner takes over an existing zone verbatim,

so who touches whom after a join or a leave follows from the tree and
the ``(dim, sign)`` every edge carries on both endpoints, in each node's
``directions`` map — its one edge record: a join hands the owner's edges
out to the two halves at the split coordinate the tree branch stores
(``docs/can_geometry.md``, "Structural split"), a leave lets the
absorber — and the mover, in the handoff case — inherit the edges of the
zone it took over ("Structural takeover").  ``check_invariants``
cross-checks both against a brute-force recomputation in the tests.

Zone bounds are kept once per way they are read: the partition tree has
the authoritative :class:`~repro.can.zone.Zone` objects (split history,
takeover; each a pair of float tuples), and the overlay one
dimension-major ``(2·d, capacity)`` array
``bounds`` whose column ``i`` is node ``i``'s zone — ``lo`` rows over
``hi`` rows — so routing gathers the bounds of a whole candidate set
with one ``take`` ("Bounds rows").  :meth:`CANOverlay._bind` is the only
writer of a node's leaf and the only way to its column (a join batch
writes the columns of the nodes it rebound once, after its last join);
:meth:`CANOverlay.leave` overwrites a departed id's column with
``+inf``, so a stale long link to it loses every distance comparison.
``directional_neighbors`` and ``pointer_walks`` — the INSCAN table
build — read the node's neighbors bucketed by face, rebuilt lazily
after the node's edges changed ("Face buckets", same document).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.can.node import OverlayNode
from repro.can.partition_tree import PartitionTree, TakeoverPlan, TreeLeaf
from repro.can.zone import adjacency_direction

__all__ = ["CANOverlay"]


class CANOverlay:
    """A complete, consistent CAN overlay over ``[0,1]^dims``.

    ``join`` and ``leave`` rewire by structure (:meth:`_split_neighbors`,
    :meth:`_takeover`: the recorded edge directions, no geometry call);
    both leave ``directions`` and ``face_buckets`` of every node they
    touch consistent, and bump the ``edge_stamp`` of every node whose
    edges they change."""

    def __init__(self, dims: int, rng: np.random.Generator):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self._rng = rng
        self.nodes: dict[int, OverlayNode] = {}
        self.tree: Optional[PartitionTree] = None
        #: Zone bounds by node id, dimension-major: column ``i`` is node
        #: ``i``'s zone (rows ``[:dims]`` its ``lo``, rows ``[dims:]`` its
        #: ``hi``), written through :meth:`_bind` only; the column of an id
        #: that is not a member is ``+inf``.
        self.bounds = np.full((2 * dims, 8), np.inf)
        #: The nodes a join batch rebound whose columns are still to be
        #: written (None outside a batch; see :meth:`_bind`).
        self._unwritten: Optional[dict[int, OverlayNode]] = None
        #: Bumped whenever a zone or the membership changes; the routing
        #: pools drop their route memo on any change.
        self.epoch = 0
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
        self, node_id: int, max_hops: int, below: Callable[[int], int]
    ) -> tuple[tuple[tuple[int, ...], ...], int]:
        """One randomized walk from ``node_id`` per direction — a random
        neighbor across the ``(dim, sign)`` face each hop, ``max_hops``
        hops or to the edge of the space: ``(chains, hops made in all)``,
        where ``chains[2 * dim + (sign < 0)]`` holds the nodes reached
        after 1, 2, 4, ... hops across that face.

        Each walk is one loop over the face buckets (a stale one rebuilt
        as ``directional_neighbors`` would), and a hop draws an index
        with ``below`` (``below(n) == int(rng.integers(n))``, see
        :mod:`repro.sim.rng`) only when it has more than one candidate."""
        nodes, chains, total = self.nodes, [], 0
        for code in range(len(self._faces)):
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
                current = candidates[below(n)] if n > 1 else candidates[0]
                hops += 1
                if hops == mark:
                    chain.append(current)
                    mark <<= 1
            chains.append(tuple(chain))
            total += hops
        return tuple(chains), total

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def bootstrap(self, node_ids: Iterable[int]) -> None:
        """Build the overlay by sequential random joins — produces the
        realistically skewed zone-size distribution the paper's §I notes
        (records 'intensively stored in only a few small-zone nodes')."""
        self._join_all(list(node_ids))

    def join(self, node_id: int, point: Optional[np.ndarray] = None) -> OverlayNode:
        """Add ``node_id``, splitting the zone containing ``point`` (a
        random one when None): :meth:`bootstrap` for one node."""
        self._join_all(
            [node_id], None if point is None else np.asarray(point, np.float64)[None]
        )
        return self.nodes[node_id]

    def _join_all(self, ids: list[int], points: Optional[np.ndarray] = None) -> None:
        """Join ``ids`` in order.  Each but the first node of an empty
        overlay splits the zone containing its row of ``points``; when
        None, one ``uniform`` call draws them all, the values a call per
        join would draw.  The bounds columns of the nodes the joins
        rebound are written once, after the last join.  Every check runs
        before the first join: a refused batch changes nothing."""
        for node_id in ids:
            if node_id < 0:
                raise ValueError(f"node id must be >= 0, got {node_id}")
            if node_id in self.nodes:
                raise ValueError(f"node {node_id} already joined")
        if len(set(ids)) != len(ids):
            raise ValueError("a node id repeats in one join batch")
        if points is None:
            drawn = max(len(ids) - (self.tree is None or not self.nodes), 0)
            points = self._rng.uniform(0.0, 1.0, size=(drawn, self.dims))
        elif not ((points >= 0.0) & (points <= 1.0)).all():
            raise ValueError("a join point lies outside the unit cube or is NaN")
        rows = iter(points)
        self._unwritten = {}
        try:
            for node_id in ids:
                if self.tree is None or not self.nodes:
                    self.tree = PartitionTree(self.dims, node_id)
                    leaf = self.tree.leaf_of(node_id)
                    node = self.nodes[node_id] = OverlayNode(node_id, leaf)
                    self._bind(node, leaf)
                    continue
                p = next(rows)
                owner = self.nodes[self.tree.find_leaf(p).owner]
                kept_leaf, new_leaf = self.tree.split(owner.node_id, node_id, p)
                new_node = self.nodes[node_id] = OverlayNode(node_id, new_leaf)
                self._bind(owner, kept_leaf)
                self._bind(new_node, new_leaf)
                self._split_neighbors(owner, new_node)
        finally:
            unwritten, self._unwritten = self._unwritten, None
            self._write_columns(list(unwritten.values()))

    def _bind(self, node: OverlayNode, leaf: TreeLeaf) -> None:
        """Make ``leaf`` the node's zone — the one place ``node.leaf`` is
        written, and the one way to a bounds column: written here, or,
        inside a join batch, once at the batch's end."""
        node.leaf = leaf
        if self._unwritten is not None:
            self._unwritten[node.node_id] = node
        else:
            self._write_columns([node])

    def _write_columns(self, nodes: list[OverlayNode]) -> None:
        """Copy each node's zone into its bounds column (on behalf of
        :meth:`_bind`), growing the array to the largest id."""
        if not nodes:
            return
        top = max(node.node_id for node in nodes)
        capacity = self.bounds.shape[1]
        if top >= capacity:
            old = self.bounds
            while capacity <= top:
                capacity *= 2
            self.bounds = np.full((2 * self.dims, capacity), np.inf)
            self.bounds[:, : old.shape[1]] = old
        bounds = self.bounds
        for node in nodes:
            zone = node.leaf.zone
            bounds[:, node.node_id] = zone._lo + zone._hi
        self.epoch += 1

    def _split_neighbors(self, owner: OverlayNode, joiner: OverlayNode) -> None:
        """Hand the owner's edges out to the two halves of its zone, just
        split along ``k`` at ``mid`` — by structure, no geometry call: a
        neighbor across face ``k`` touches only the half on its side,
        one across any other face each half its ``k``-interval overlaps
        (exact on dyadic bounds), and its direction does not change.  An
        edge the owner keeps is not touched, so that neighbor's face
        buckets stay valid unless it gains the joiner as well."""
        branch = joiner.leaf.parent
        k, mid, joiner_high = branch.dim, branch.mid, branch.high is joiner.leaf
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
                del owner.directions[cand_id]
            else:
                continue
            cand.face_buckets = None
            cand.edge_stamp += 1
            joiner.directions[cand_id] = face
        face, back = self._faces[2 * k + (not joiner_high)]
        owner.directions[joiner_id] = face
        owner.face_buckets = None
        owner.edge_stamp += 1
        joiner.directions[owner_id] = back

    # ------------------------------------------------------------------
    # departure
    # ------------------------------------------------------------------
    def leave(self, node_id: int) -> Optional[TakeoverPlan]:
        """Remove ``node_id`` (graceful or crash — topology repair is the
        same; message loss for crashes is the transport's concern)."""
        departed = self.nodes.pop(node_id)
        self._unlink(departed)
        self.epoch += 1
        self.bounds[:, node_id] = np.inf
        for pool in self._route_pools.values():
            pool.forget(node_id)

        assert self.tree is not None
        plan = self.tree.remove(node_id)
        if plan is None:
            self.tree = None
            return None

        absorber = self.nodes[plan.absorber]
        self._bind(absorber, plan.absorber_leaf)
        mover = None
        if plan.mover is not None:
            assert plan.mover_leaf is not None
            mover = self.nodes[plan.mover]
            self._bind(mover, plan.mover_leaf)
        self._takeover(departed, absorber, mover)
        return plan

    def _unlink(self, node: OverlayNode) -> None:
        """Every peer forgets ``node``; the node keeps its own edge record
        for whoever takes its zone over."""
        node_id, nodes = node.node_id, self.nodes
        for m in node.directions:
            peer = nodes[m]
            del peer.directions[node_id]
            peer.face_buckets = None
            peer.edge_stamp += 1

    def _takeover(
        self, departed: OverlayNode, absorber: OverlayNode,
        mover: Optional[OverlayNode],
    ) -> None:
        """Rewire after a departure — by structure, no geometry call.  A
        zone that grew to the union of two sibling halves touches what
        either half touched, across the same face; a node relocated into
        a zone verbatim touches what its previous owner touched.  Called
        with the leaves already rebound and absorber and mover still
        carrying the edges of their old zones."""
        if mover is None:
            # Sibling merge: the absorber's zone now covers the departed one.
            self._inherit(absorber, departed.directions)
            return
        # Handoff: the absorber's zone covers the one the mover vacated,
        # the mover owns the departed zone — whose neighbor `mover` was,
        # if at all, through the zone that is the absorber's now.
        self._unlink(mover)
        self._inherit(absorber, mover.directions)
        mover.directions.clear()
        mover.face_buckets = None
        mover.edge_stamp += 1
        self._inherit(mover, {
            absorber.node_id if m == mover.node_id else m: face
            for m, face in departed.directions.items()
        })

    def _inherit(
        self, heir: OverlayNode, edges: dict[int, tuple[int, int]]
    ) -> None:
        """Give ``heir`` every edge of ``edges`` it does not have yet, in
        the same direction, linking both endpoints.  An edge it already
        has is not touched, so that neighbor's face buckets stay valid;
        the heir's own were reset, and its edge stamp bumped, when its
        sibling was unlinked."""
        heir_id, nodes, faces = heir.node_id, self.nodes, self._faces
        for cand_id, (dim, sign) in edges.items():
            if cand_id == heir_id or cand_id in heir.directions:
                continue
            face, back = faces[2 * dim + (sign < 0)]
            cand = nodes[cand_id]
            heir.directions[cand_id] = face
            cand.directions[heir_id] = back
            cand.face_buckets = None
            cand.edge_stamp += 1

    # ------------------------------------------------------------------
    # invariants (test support; O(n^2))
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Full structural validation: what routing trusts (a bounds
        column equal to the zone for every member and ``+inf`` for every
        other id, every current candidate block of every routing pool
        equal to a fresh one), tree consistency, leaf binding, and
        brute-force adjacency equality (of the edge directions on both
        endpoints and the face buckets ``directional_neighbors``
        serves)."""
        live = np.zeros(self.bounds.shape[1], dtype=bool)
        for node_id, node in self.nodes.items():
            live[node_id] = True
            zone = node.zone
            assert self.bounds[:, node_id].tolist() == list(zone._lo + zone._hi), (
                f"bounds column of node {node_id} stale"
            )
        assert (self.bounds[:, ~live] == np.inf).all(), (
            "bounds column of a departed id is not +inf"
        )
        for pool in self._route_pools.values():
            pool.check_invariants()
        if not self.nodes:
            assert self.tree is None or len(self.tree) == 0
            return
        assert self.tree is not None
        self.tree.check_invariants()
        assert set(self.tree.owners()) == set(self.nodes)
        for node_id, node in self.nodes.items():
            assert self.tree.leaf_of(node_id) is node.leaf, (
                f"node {node_id} leaf binding stale"
            )
        ids = sorted(self.nodes)
        for i, a in enumerate(ids):
            za = self.nodes[a].zone
            for b in ids[i + 1 :]:
                direction = adjacency_direction(za, self.nodes[b].zone)
                cached = self.nodes[a].directions.get(b)
                cached_sym = self.nodes[b].directions.get(a)
                assert cached == direction, (
                    f"edge {a}->{b}: recorded {cached}, adjacency {direction}"
                )
                expected_sym = (
                    None if direction is None else (direction[0], -direction[1])
                )
                assert cached_sym == expected_sym, (
                    f"edge {b}->{a}: recorded {cached_sym}, adjacency {expected_sym}"
                )
        for node_id, node in self.nodes.items():
            assert node_id not in node.directions and (
                node.directions.keys() <= self.nodes.keys()
            ), f"edge record of {node_id} names itself or a non-member"
            for face, _ in self._faces:
                assert self.directional_neighbors(node_id, *face) == tuple(
                    sorted(m for m, d in node.directions.items() if d == face)
                ), f"face bucket {face} of {node_id} stale"
