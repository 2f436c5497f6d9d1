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
writer of a node's ``zone`` and the only way to its column (a join batch
writes the columns of the nodes it rebound once, after its last join);
:meth:`CANOverlay.leave` overwrites a departed id's column with
``+inf``, so a stale long link to it loses every distance comparison.

``directional_neighbors`` and ``pointer_walks`` — the INSCAN table
build — read a node's neighbors bucketed by face from one list indexed
by node id, ``buckets``, whose entry is one flat tuple: the ``2·d + 1``
face offsets, then the neighbor ids face by face.  A join batch
rebuilds the entries it reset in one pass after its last join (every
member at bootstrap, the joiner, its owner and the neighbors whose
edges moved for a churn join); an entry a leave reset stays ``None``
until its next read ("Face buckets", same document).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Optional

import numpy as np

from repro.can.node import OverlayNode
from repro.can.partition_tree import PartitionTree, TakeoverPlan
from repro.can.zone import Zone, adjacency_direction

__all__ = ["CANOverlay"]


class CANOverlay:
    """A complete, consistent CAN overlay over ``[0,1]^dims``.

    ``join`` and ``leave`` rewire by structure (:meth:`_split_neighbors`,
    :meth:`_takeover`: the recorded edge directions, no geometry call);
    both leave ``directions`` of every node they touch consistent, reset
    the ``buckets`` entry and bump the ``edge_stamp`` of every node whose
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
        #: Face buckets by node id: entry ``i`` is node ``i``'s edges
        #: grouped by face in one flat tuple (see :meth:`_bucket_by_face`),
        #: ``None`` where an edge of the node changed since it was built
        #: or no member lives.
        self.buckets: list[Optional[tuple[int, ...]]] = []
        #: The ids whose entry a join batch made ``None`` — each joiner and
        #: every built entry it reset, once each — rebuilt in one pass at
        #: the batch's end (None outside a batch).
        self._rebucket: Optional[list[int]] = None
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
        return self.tree.find_leaf(np.asarray(point, dtype=np.float64).tolist())

    def directional_neighbors(
        self, node_id: int, dim: int, sign: int
    ) -> tuple[int, ...]:
        """Adjacent neighbors across the ``(dim, sign)`` face in ascending
        id order — a slice of the node's ``buckets`` entry, which is
        rebuilt first if a leave reset it."""
        entry = self.buckets[node_id]
        if entry is None:
            entry = self.buckets[node_id] = self._bucket_by_face(
                self.nodes[node_id].directions
            )
        code = 2 * dim + (sign < 0)
        return entry[entry[code] : entry[code + 1]]

    def _bucket_by_face(
        self, directions: dict[int, tuple[int, int]]
    ) -> tuple[int, ...]:
        """Group a node's edges by face into one flat tuple — the one
        builder of a ``buckets`` entry: ``2 * d + 1`` offsets, then the
        neighbors face by face, so the ascending neighbors across face
        ``c = 2 * dim + (sign < 0)`` are ``entry[entry[c]:entry[c + 1]]``.
        One tuple of ints holds any degree, with no object per face."""
        by_face: list[list[int]] = [[] for _ in self._faces]
        for m in sorted(directions):
            dim, sign = directions[m]
            by_face[2 * dim + (sign < 0)].append(m)
        ends, at = [], len(by_face) + 1
        for ids in by_face:
            ends.append(at)
            at += len(ids)
        ends.append(at)
        return tuple(chain(ends, *by_face))

    def pointer_walks(
        self, node_id: int, max_hops: int, below: Callable[[int], int]
    ) -> tuple[tuple[int, ...], bytes, int]:
        """One randomized walk from ``node_id`` per direction — a random
        neighbor across the ``(dim, sign)`` face each hop, ``max_hops``
        hops or to the edge of the space: ``(links, ends, hops made in
        all)`` in :class:`~repro.can.inscan.IndexPointerTable`'s flat
        form, where ``links[ends[c]:ends[c + 1]]`` holds the nodes reached
        after 1, 2, 4, ... hops across face ``c = 2 * dim + (sign < 0)``.

        Each walk is one loop over the ``buckets`` list (an entry a leave
        reset rebuilt as ``directional_neighbors`` would), a hop indexes
        the entry by its offsets with no slice, and draws an index with
        ``below`` (``below(n) == int(rng.integers(n))``, see
        :mod:`repro.sim.rng`) only when it has more than one candidate.
        A walk keeps at most ``max_hops.bit_length()`` links, so ``bytes``
        holds the offsets."""
        buckets, links, ends, total = self.buckets, [], [0], 0
        for code in range(len(self._faces)):
            hops, mark, current = 0, 1, node_id
            while hops < max_hops:
                entry = buckets[current]
                if entry is None:
                    entry = buckets[current] = self._bucket_by_face(
                        self.nodes[current].directions
                    )
                first = entry[code]
                n = entry[code + 1] - first
                if not n:
                    break
                current = entry[first + below(n)] if n > 1 else entry[first]
                hops += 1
                if hops == mark:
                    links.append(current)
                    mark <<= 1
            ends.append(len(links))
            total += hops
        return tuple(links), bytes(ends), total

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
        rebound are written once, after the last join, and the
        ``buckets`` entries the joins reset are rebuilt in one pass after
        it.  Every check runs before the first join: a refused batch
        changes nothing."""
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
        if ids:
            self.buckets.extend([None] * (max(ids) + 1 - len(self.buckets)))
        rows = iter(points.tolist())  # plain floats: same comparisons, no boxing
        self._unwritten, self._rebucket = {}, []
        try:
            for node_id in ids:
                if self.tree is None or not self.nodes:
                    self.tree = PartitionTree(self.dims, node_id)
                    node = self.nodes[node_id] = OverlayNode(node_id)
                    self._bind(node, self.tree.zones[node_id])
                    self._rebucket.append(node_id)
                    continue
                p = next(rows)
                tree = self.tree
                owner = self.nodes[tree.find_leaf(p)]
                tree.split(owner.node_id, node_id, p)
                new_node = self.nodes[node_id] = OverlayNode(node_id)
                self._bind(owner, tree.zones[owner.node_id])
                self._bind(new_node, tree.zones[node_id])
                self._split_neighbors(owner, new_node)
        finally:
            unwritten, self._unwritten = self._unwritten, None
            self._write_columns(list(unwritten.values()))
            rebucket, self._rebucket = self._rebucket, None
            buckets, nodes = self.buckets, self.nodes
            for node_id in rebucket:
                buckets[node_id] = self._bucket_by_face(nodes[node_id].directions)

    def _bind(self, node: OverlayNode, zone: Zone) -> None:
        """Make ``zone`` the node's — the one place ``node.zone`` is
        written, and the one way to a bounds column: written here, or,
        inside a join batch, once at the batch's end."""
        node.zone = zone
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
        self.bounds[:, [node.node_id for node in nodes]] = np.array(
            [node.zone._lo + node.zone._hi for node in nodes]
        ).T
        self.epoch += 1

    def _split_neighbors(self, owner: OverlayNode, joiner: OverlayNode) -> None:
        """Hand the owner's edges out to the two halves of its zone, just
        split along ``k`` at ``mid`` — by structure, no geometry call: a
        neighbor across face ``k`` touches only the half on its side,
        one across any other face each half its ``k``-interval overlaps
        (exact on dyadic bounds), and its direction does not change.  An
        edge the owner keeps is not touched, so that neighbor's ``buckets``
        entry stays valid unless it gains the joiner as well.  The joiner
        and every built entry reset here are queued for the batch's
        rebuild pass, each once: an entry queued stays ``None`` until the
        pass, and one a leave reset is rebuilt on its next read."""
        tree, nodes, buckets, rebucket = self.tree, self.nodes, self.buckets, self._rebucket
        owner_id, joiner_id = owner.node_id, joiner.node_id
        owner_edges, joiner_edges, zones = owner.directions, joiner.directions, tree.zones
        branch = tree.up[joiner_id]
        k, mid = tree.dim[branch], tree.mid[branch]
        joiner_high = tree.high[branch] == ~joiner_id
        for cand_id, face in list(owner_edges.items()):
            if face[0] == k:
                low = face[1] < 0
                high = not low
            else:
                zone = zones[cand_id]
                low, high = zone._lo[k] < mid, zone._hi[k] > mid
            to_joiner, to_owner = (high, low) if joiner_high else (low, high)
            if not to_joiner:
                continue
            cand = nodes[cand_id]
            if to_owner:
                cand.directions[joiner_id] = cand.directions[owner_id]
            else:
                cand.directions[joiner_id] = cand.directions.pop(owner_id)
                del owner_edges[cand_id]
            if buckets[cand_id] is not None:
                buckets[cand_id] = None
                rebucket.append(cand_id)
            cand.edge_stamp += 1
            joiner_edges[cand_id] = face
        face, back = self._faces[2 * k + (not joiner_high)]
        owner_edges[joiner_id] = face
        if buckets[owner_id] is not None:
            buckets[owner_id] = None
            rebucket.append(owner_id)
        rebucket.append(joiner_id)
        owner.edge_stamp += 1
        joiner_edges[owner_id] = back

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
        self.buckets[node_id] = None
        for pool in self._route_pools.values():
            pool.forget(node_id)

        assert self.tree is not None
        plan = self.tree.remove(node_id)
        if plan is None:
            self.tree = None
            return None

        zones = self.tree.zones
        absorber = self.nodes[plan.absorber]
        self._bind(absorber, zones[plan.absorber])
        mover = None
        if plan.mover is not None:
            mover = self.nodes[plan.mover]
            self._bind(mover, zones[plan.mover])
        self._takeover(departed, absorber, mover)
        return plan

    def _unlink(self, node: OverlayNode) -> None:
        """Every peer forgets ``node``; the node keeps its own edge record
        for whoever takes its zone over."""
        node_id, nodes, buckets = node.node_id, self.nodes, self.buckets
        for m in node.directions:
            peer = nodes[m]
            del peer.directions[node_id]
            buckets[m] = None
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
        self.buckets[mover.node_id] = None
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
        has is not touched, so that neighbor's ``buckets`` entry stays
        valid; the heir's own was reset, and its edge stamp bumped, when
        its sibling was unlinked."""
        heir_id, nodes, faces, buckets = heir.node_id, self.nodes, self._faces, self.buckets
        for cand_id, (dim, sign) in edges.items():
            if cand_id == heir_id or cand_id in heir.directions:
                continue
            face, back = faces[2 * dim + (sign < 0)]
            cand = nodes[cand_id]
            heir.directions[cand_id] = face
            cand.directions[heir_id] = back
            buckets[cand_id] = None
            cand.edge_stamp += 1

    # ------------------------------------------------------------------
    # invariants (test support; O(n^2))
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Full structural validation: what routing trusts (a bounds
        column equal to the zone for every member and ``+inf`` for every
        other id, every current candidate block of every routing pool
        equal to a fresh one), tree consistency, zone binding, and
        brute-force adjacency equality (of the edge directions on both
        endpoints and the face buckets ``directional_neighbors``
        serves, with no entry kept for an id that is not a member)."""
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
            assert self.tree.zones[node_id] is node.zone, (
                f"node {node_id} zone binding stale"
            )
        assert all(
            entry is None for i, entry in enumerate(self.buckets) if i not in self.nodes
        ), "bucket entry kept for a non-member"
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
