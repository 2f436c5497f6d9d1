"""Greedy CAN routing over the overlay's bounds array.

Standard CAN forwarding: each hop moves to the neighbor whose zone is
closest (box distance) to the target point.  Because zones tile the space,
the minimum over neighbors is strictly smaller than the current distance
whenever that distance is positive, so the path terminates in
O(d·n^(1/d)) hops.

A hop's whole candidate set — adjacent neighbors plus, for INSCAN
routing, the node's 2^k long links — is evaluated in **one vectorized
distance computation** instead of a Python loop per candidate.  Per-node
candidate blocks — one small sorted id array each, nothing else — are
cached in a pool and stay valid while the candidate *set* does (same
pointer-table object, neighbor set unchanged); a hop gathers their
bounds with one ``take`` from the overlay's dimension-major ``bounds``
array.  A block holds ~16 candidates, too few for vectorisation to pay
— what a hop costs is its number of numpy calls — so one fused kernel
(:func:`_box_accs`, five calls) serves the single and the batched
router.  Candidates are screened on *squared*
distances; the decisive comparisons happen in the seed's ``acc ** 0.5``
space (near-tied accumulators are re-compared with the identical Python
pow, which merges values a couple of ulps apart into exact ties, lowest
id winning) — see ``docs/can_geometry.md`` for the bit-exactness
contract against the scalar reference
(:func:`repro.testing.reference_greedy_path`).

:func:`greedy_paths` routes a whole batch of queries in lockstep rounds
— all active routes' candidate blocks are concatenated and resolved by
segmented reductions, amortizing the numpy dispatch overhead that bounds
the single-route path.  A round costs the same ~45 numpy calls however
few routes it carries, so once the front is no wider than
``_NARROW_FRONT`` — a small arrival burst from the start, the thin tail
of a wide state round — its routes finish by the scalar hop loop the
single router runs (:func:`_greedy_hops`).  Batched submission
(``submit_bulk`` → ``QueryEngine.submit_burst``) and the routing
benchmarks use it; results are bit-identical to routing each query alone.

Boundary targets need care: Table-I capacities are discrete, so normalized
coordinates like 12.8/25.6 = 0.5 land *exactly* on zone boundaries, where
several zones are at box distance zero but only one owns the half-open box.
Real CAN resolves this with perimeter forwarding around the touching zones;
we walk the zero-distance cluster through face neighbors (``_perimeter_hops``)
which is bounded by the point's incident zones.

Paths are computed in-process from the global overlay view; the simulation
charges one message per hop and sums per-hop network delays, which matches
Peersim-style hop accounting without paying one event per hop.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.can.overlay import CANOverlay
from repro.can.zone import Zone

__all__ = ["greedy_path", "greedy_paths", "RoutingError"]

_INT64_MAX = np.iinfo(np.int64).max

#: Candidates whose squared distances sit within this relative window of
#: the minimum are re-compared in the seed's ``acc ** 0.5`` space: the
#: square root merges accumulators a couple of ulps apart into exact
#: ties (lowest id wins), so deciding purely on squared values would
#: diverge from the scalar path in that window.  2^-40 is astronomically
#: wider than the ~2-ulp merge radius yet never catches genuinely
#: distinct distances, so the slow exact resolve stays rare.
_NEAR_TIE = 1.0 + 2.0 ** -40

#: A lockstep round of :func:`greedy_paths` costs ~45 numpy calls however
#: few routes it carries; at or below this front width the routes finish
#: faster one scalar hop at a time.  The measured break-even — see
#: ``docs/can_geometry.md``, "The width rule" — not a tuning knob.
_NARROW_FRONT = 8


def _probe_pow_half() -> bool:
    """Does ``np.sqrt(x)`` reproduce Python's ``x ** 0.5`` bit for bit?

    The decisive routing comparisons are contractually in the seed's
    scalar ``acc ** 0.5`` space.  numpy's sqrt is the IEEE correctly-
    rounded root; CPython's ``**`` goes through libm ``pow``, which on
    every libm we target (glibc >= 2.28 pow is correctly rounded; before
    that npy/libm still special-case the exponent 0.5) agrees exactly —
    but that is a platform property, so it is *probed once at import*
    over a deterministic sample plus the specials, and the vectorized
    root is only used where the probe passed.  The per-element Python
    pow loop remains as the fallback (and the contract's definition).
    """
    rng = np.random.default_rng(0x5EED_D157)
    xs = np.concatenate([
        rng.uniform(0.0, 4.0, size=4096),
        rng.uniform(0.0, 1e-30, size=256),
        rng.uniform(1e20, 1e30, size=256),
        [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, np.inf],
    ])
    roots = np.sqrt(xs)
    return all(
        r == x ** 0.5 for r, x in zip(roots.tolist(), xs.tolist())
    )


_SQRT_MATCHES_POW = _probe_pow_half()


def _pow_half(accs: np.ndarray) -> np.ndarray:
    """``acc ** 0.5`` per element, vectorized when the platform sqrt is
    bit-equal to the scalar pow (see :func:`_probe_pow_half`)."""
    if _SQRT_MATCHES_POW:
        return np.sqrt(accs)
    return np.array([a ** 0.5 for a in accs.tolist()])


def _pow_space_best(accs: np.ndarray, ids) -> tuple[float, int]:
    """The seed's ``(distance, id)``-lexicographic candidate selection:
    screen on the squared accumulators, resolve near-ties by evaluating
    the scalar path's ``acc ** 0.5`` per tied candidate.  ``ids`` is any
    indexable of candidate ids aligned with ``accs``."""
    i = int(accs.argmin())
    best_acc = accs.item(i)
    near = accs <= best_acc * _NEAR_TIE
    if np.count_nonzero(near) > 1:
        return min(
            (float(accs[j]) ** 0.5, int(ids[j]))
            for j in near.nonzero()[0].tolist()
        )
    return best_acc ** 0.5, int(ids[i])


class RoutingError(RuntimeError):
    """Routing failed to make progress (overlay inconsistency)."""


def _box_accs(lo: np.ndarray, hi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The hop kernel: squared box distance from ``p`` — one ``(d, 1)``
    point, or ``(d, m)`` with a point per column — to every column of the
    dimension-major ``(d, m)`` bounds.  ``add.reduce`` over the *outer*
    axis adds row after row, the scalar loop's left-to-right sum
    (:func:`_squared_distance`) bit for bit; along the contiguous axis it
    would be ``a0 + pairwise(a1…)``.  A lone column is coalesced into
    exactly that, so it takes the running sum instead."""
    gaps = np.maximum(lo, p)
    np.minimum(gaps, hi, out=gaps)
    gaps -= p
    gaps *= gaps
    if gaps.shape[1] == 1:
        return np.add.accumulate(gaps, axis=0)[-1]
    return np.add.reduce(gaps, axis=0)


def _squared_distance(zone: Zone, point: Sequence[float]) -> float:
    """The scalar gap loop of the seed's ``Zone.distance_to_point``,
    without the final square root — the exactness yardstick for the
    vectorized kernel."""
    lo, hi = zone._lo, zone._hi
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
    return acc


# ----------------------------------------------------------------------
# candidate block pool
# ----------------------------------------------------------------------
class _RouteBlockPool:
    """Per-node candidate blocks (sorted ids) and the last-route memo.

    One pool per (overlay, pointer-table dict) pair.  A block is the
    node's own small id array, built lazily on first visit and current
    until the node's pointer table is replaced by a refresh or a join or
    leave changes its neighbor set (``OverlayNode.edge_stamp``); zones
    may change under a block, their bounds are read at every hop.  A
    rebuilt block replaces its predecessor and a departed node's is
    dropped, so the pool never holds more than one block per member.

    The pool also keeps the **last-route memo**: each start's most recent
    successful route, replayed by :meth:`recall` for as long as no zone
    has changed and every hop out of a block rebuilt since still picks
    the recorded node (``docs/can_geometry.md``, "Last-route memo") —
    :func:`_pool_for` empties it when the overlay's epoch moves.
    """

    __slots__ = ("overlay", "tables", "epoch", "index", "routes",
                 "route_hits", "route_misses", "route_repairs", "fills")

    def __init__(self, overlay: CANOverlay, tables):
        self.overlay = overlay
        self.tables = tables
        self.epoch = overlay.epoch
        #: node_id -> (sorted candidate ids, the table object and edge
        #: stamp they were built from, ``fills`` at build time); live
        #: nodes only.
        self.index: dict[int, tuple[np.ndarray, object, int, int]] = {}
        #: start_id -> (point, whole path, greedy length, ``fills`` when
        #: recorded): one entry per start, overwritten by its next route.
        self.routes: dict[int, tuple[array, array, int, int]] = {}
        #: Routes answered from the memo / routed hop by hop (one count
        #: per route that reached the pool), hits that recomputed a hop,
        #: and blocks built: read-only tallies for tests — ``fills`` is
        #: also the serial that orders blocks and recorded routes.
        self.route_hits = self.route_misses = self.route_repairs = self.fills = 0

    def candidates(self, node_id: int, table) -> list[int]:
        """The node's hop candidates, ascending: its neighbors and long
        links, departed ones included — their ``+inf`` bounds lose every
        comparison, and an id that joins again is a candidate again."""
        links = () if table is None else table.all_links()
        return sorted(self.overlay.nodes[node_id].neighbors.union(links))

    def block(self, node_id: int) -> np.ndarray:
        """The node's candidate ids, (re)built first unless its index
        entry is current: built from the node's present table object and
        edge stamp."""
        tables = self.tables
        table = None if tables is None else tables.get(node_id)
        stamp = self.overlay.nodes[node_id].edge_stamp
        entry = self.index.get(node_id)
        if entry is None or entry[1] is not table or entry[2] != stamp:
            ids = np.array(self.candidates(node_id, table), dtype=np.int64)
            entry = self.index[node_id] = (ids, table, stamp, self.fills)
            self.fills += 1
        return entry[0]

    def forget(self, node_id: int) -> None:
        """Drop the node's block, if any — :meth:`CANOverlay.leave` calls
        this for a departed node, whose entry would otherwise pin its
        pointer table for good."""
        self.index.pop(node_id, None)

    def check_invariants(self) -> None:
        """Every block routing would accept as it stands equals a fresh
        candidate list, and only members have one (test support)."""
        nodes, tables = self.overlay.nodes, self.tables
        for node_id, (ids, table, stamp, _) in self.index.items():
            assert node_id in nodes, f"block of departed node {node_id} kept"
            if (
                table is (None if tables is None else tables.get(node_id))
                and stamp == nodes[node_id].edge_stamp
            ):
                assert ids.tolist() == self.candidates(node_id, table), (
                    f"candidate block of node {node_id} stale"
                )

    def hop(self, node_id: int, pcol: np.ndarray) -> Optional[tuple[float, int]]:
        """One greedy hop out of ``node_id`` toward the ``(d, 1)`` point:
        ``(distance, id)`` of the winning candidate, or ``None`` when the
        node has none."""
        ids = self.block(node_id)
        if not ids.size:
            return None
        overlay = self.overlay
        dims = overlay.dims
        block = overlay.bounds.take(ids, axis=1)
        return _pow_space_best(_box_accs(block[:dims], block[dims:], pcol), ids)

    def recall(self, start_id: int, pt: tuple, max_hops: int) -> tuple[list[int], bool]:
        """``(path, True)`` when the start's memoised route answers the
        query, else ``(verified prefix, False)`` for the hop loop to go on
        from its last node — ``[start_id]`` when nothing could be reused.

        The memo must be to ``pt`` (by value; NaN never matches) and fit
        ``max_hops``; then the recorded route is walked hop by hop.  A
        node whose block is the one the route read — still built from its
        current pointer table, and with a fill serial below the one the
        route recorded — is left as recorded.  Any other node's hop is
        computed again, and stands while its winner is the recorded next
        node: a hop reads its own node's block and nothing of the way
        there, so the rest of the route is still what a fresh computation
        would return.  At the first other winner the walk hands back the
        prefix up to that node.  The zones and neighbor sets the start
        distance, the landing test and the perimeter tail read belong to
        the epoch the memo is pinned to.  A repaired route is stamped
        with the current fill serial, so that its next replay recomputes
        nothing."""
        memo = self.routes.get(start_id)
        prefix = [start_id]
        if memo is not None and tuple(memo[0]) == pt and memo[2] <= max_hops:
            path, recorded = memo[1], memo[3]
            index, tables = self.index, self.tables
            pcol = None
            for k in range(memo[2] - 1):
                node_id = path[k]
                entry = index.get(node_id)
                if (
                    entry is not None and entry[3] < recorded
                    and entry[1] is (None if tables is None else tables.get(node_id))
                ):
                    continue
                if pcol is None:
                    pcol = np.array(pt).reshape(-1, 1)
                best = self.hop(node_id, pcol)
                if best is None or best[1] != path[k + 1]:
                    prefix = path[: k + 1].tolist()
                    break
            else:
                if pcol is not None:  # served after a repair
                    self.routes[start_id] = memo[:3] + (self.fills,)
                    self.route_repairs += 1
                self.route_hits += 1
                return path.tolist(), True
        self.route_misses += 1
        return prefix, False

    def remember(self, pt: tuple, path: list[int], greedy_len: int) -> None:
        """Record a successful route: ``path[:greedy_len]`` came out of
        greedy hops, the rest out of the perimeter walk.  Point and path
        are kept as packed arrays — a third less memory per start than
        tuples of boxed numbers, with the same value semantics."""
        self.routes[path[0]] = (
            array("d", pt), array("q", path), greedy_len, self.fills
        )


def _pool_for(overlay: CANOverlay, tables) -> _RouteBlockPool:
    key = "plain" if tables is None else id(tables)
    pool = overlay._route_pools.get(key)
    if pool is None or (tables is not None and pool.tables is not tables):
        if tables is not None:
            # A production overlay routes over one long-lived tables dict;
            # fresh dicts per pass (tests, benches) must not accumulate
            # dead pools — and each pool pins its tables dict alive, so
            # an id() key can never be reused while its pool exists.
            for k in [k for k in overlay._route_pools if k not in ("plain", key)]:
                del overlay._route_pools[k]
        pool = _RouteBlockPool(overlay, tables)
        overlay._route_pools[key] = pool
    if pool.epoch != overlay.epoch:
        # Zones changed, which a memoised route's start distance, landing
        # test and perimeter walk read; the blocks hold ids and live on.
        pool.epoch = overlay.epoch
        pool.routes.clear()
    return pool


# ----------------------------------------------------------------------
# the scalar hop loop
# ----------------------------------------------------------------------
def _greedy_hops(
    pool: _RouteBlockPool, path: list[int], dist: float,
    pcol: np.ndarray, pt: tuple, max_hops: int,
) -> None:
    """Extend ``path`` by greedy hops toward the ``(d, 1)`` point ``pcol``
    (``pt`` by value, for the error texts) until the distance — ``dist``
    at ``path[-1]`` — reaches zero.  The one scalar hop loop: the single
    router runs it from the start, the batched one on a narrow front."""
    current_id = path[-1]
    while dist != 0.0:
        best = pool.hop(current_id, pcol)
        if best is None:
            raise RoutingError(
                f"no progress at node {current_id} toward {pt} "
                f"(dist {dist}, no candidates)"
            )
        best_dist, best_id = best
        # Not ``>=``: a NaN distance (a NaN coordinate) fails here, as it
        # does in a lockstep round, instead of wandering to the hop budget.
        if not best_dist < dist:
            raise RoutingError(
                f"no progress at node {current_id} toward {pt} "
                f"(dist {dist}, best candidate {best_dist})"
            )
        current_id = best_id
        dist = best_dist
        path.append(current_id)
        if len(path) > max_hops:
            raise RoutingError(f"exceeded {max_hops} hops toward {pt}")


# ----------------------------------------------------------------------
# single-route greedy forwarding
# ----------------------------------------------------------------------
def greedy_path(
    overlay: CANOverlay,
    start_id: int,
    point: np.ndarray,
    max_hops: Optional[int] = None,
    link_tables: Optional[dict] = None,
) -> list[int]:
    """Route from ``start_id`` to the owner of ``point``.

    Returns the node-id path including both endpoints (length 1 when the
    start node already owns the point).  ``link_tables`` supplies the
    INSCAN pointer tables whose long links augment each hop's candidates.
    """
    p = np.asarray(point, dtype=np.float64)
    pt = tuple(p.tolist())
    if max_hops is None:
        max_hops = 4 * (len(overlay) + 1)

    pool = _pool_for(overlay, link_tables)
    path, complete = pool.recall(start_id, pt, max_hops)
    if complete:
        return path
    nodes = overlay.nodes
    dist = _squared_distance(nodes[path[-1]].zone, pt) ** 0.5
    _greedy_hops(pool, path, dist, p.reshape(-1, 1), pt, max_hops)
    greedy_len = len(path)
    # Distance hit zero: done if the half-open box owns the point, else
    # walk the zero-distance cluster.
    if not nodes[path[-1]].zone.contains(pt):
        path.extend(_perimeter_hops(overlay, path[-1], p))
    pool.remember(pt, path, greedy_len)
    return path


# ----------------------------------------------------------------------
# batched greedy forwarding
# ----------------------------------------------------------------------
def greedy_paths(
    overlay: CANOverlay,
    starts: Sequence[int],
    points: np.ndarray,
    max_hops: Optional[int] = None,
    link_tables: Optional[dict] = None,
    on_error: str = "raise",
) -> list[Optional[list[int]]]:
    """Route a batch of queries in lockstep, one vectorized round per hop
    front: every active route's candidate block is concatenated and the
    per-route winners come out of two segmented reductions.  A front of
    at most ``_NARROW_FRONT`` routes is finished route by route with
    :func:`_greedy_hops` instead — whether the batch was that small or
    has thinned out to it.  Paths are bit-identical to calling
    :func:`greedy_path` per query, and the two share the pool's
    last-route memo (both consult it, both record).

    ``on_error="none"`` records ``None`` for routes that fail (unknown
    start node, no greedy progress, hop budget exceeded) instead of
    raising — batched query submission uses it so one lost query cannot
    poison the burst.
    """
    if on_error not in ("raise", "none"):
        raise ValueError(f"on_error must be 'raise' or 'none', got {on_error!r}")
    n_routes = len(starts)
    if n_routes == 0:
        return []
    P = np.asarray(points, dtype=np.float64).reshape(n_routes, -1)
    PT = np.ascontiguousarray(P.T)  # dimension-major, like the bounds
    if max_hops is None:
        max_hops = 4 * (len(overlay) + 1)

    paths: list[Optional[list[int]]] = [None] * n_routes
    errors: list[Optional[Exception]] = [None] * n_routes
    cur = np.zeros(n_routes, dtype=np.int64)
    dist = np.zeros(n_routes, dtype=np.float64)
    nhops = np.zeros(n_routes, dtype=np.int64)
    boundary: list[int] = []
    initially_active = []
    known: list[int] = []
    pool = _pool_for(overlay, link_tables)
    pts = list(map(tuple, P.tolist()))
    for r in range(n_routes):
        sid = int(starts[r])
        # Memoised routes leave the front before the first round; one
        # verified in part joins it at the last node of its prefix.
        path, complete = pool.recall(sid, pts[r], max_hops)
        if not complete and sid not in overlay.nodes:
            errors[r] = KeyError(sid)
            continue
        paths[r] = path
        if not complete:
            cur[r] = path[-1]
            nhops[r] = len(path) - 1
            known.append(r)
    dims = overlay.dims
    if known:
        # One start-distance pass through the hop kernel.
        block = overlay.bounds.take(cur[known], axis=1)
        accs = _box_accs(block[:dims], block[dims:], PT.take(known, axis=1))
        for r, d in zip(known, _pow_half(accs).tolist()):
            dist[r] = d
            if d == 0.0:
                boundary.append(r)
            else:
                initially_active.append(r)

    active = np.asarray(initially_active, dtype=np.intp)
    hop_log: list[tuple[np.ndarray, np.ndarray]] = []
    nodes, pool_block = overlay.nodes, pool.block
    while active.size > _NARROW_FRONT:
        # Hot per-route loop; empty blocks contribute nothing to the
        # concatenation, so a starved route only has to leave the front.
        blocks = [pool_block(nid) for nid in cur[active].tolist()]
        cnt = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
        if not cnt.all():
            # Candidate-less routes cannot progress (and would corrupt the
            # segmented reductions): fail them, keep the rest going.
            starved = cnt == 0
            for r in active[starved].tolist():
                errors[r] = RoutingError(
                    f"no progress at node {int(cur[r])} toward {pts[r]} "
                    f"(dist {float(dist[r])}, no candidates)"
                )
            active = active[~starved]
            cnt = cnt[~starved]
            if not active.size:
                break
        n_active = active.size
        offs = np.zeros(n_active, dtype=np.intp)
        np.cumsum(cnt[:-1], out=offs[1:])
        seg = np.repeat(np.arange(n_active, dtype=np.intp), cnt)
        ids_at = np.concatenate(blocks)
        # One gather (route column per candidate) instead of gathering
        # the active routes and re-gathering per segment.
        block = overlay.bounds.take(ids_at, axis=1)
        accs = _box_accs(
            block[:dims], block[dims:], PT.take(active[seg], axis=1)
        )
        best_acc = np.minimum.reduceat(accs, offs)
        near = accs <= best_acc[seg] * _NEAR_TIE
        masked_ids = np.where(near, ids_at, _INT64_MAX)
        best_id = np.minimum.reduceat(masked_ids, offs)
        # The decisive comparisons live in the seed's ``** 0.5`` space;
        # segments with more than one near-tied candidate re-run the
        # scalar (dist, id)-lexicographic selection exactly.
        best_dist = _pow_half(best_acc)
        n_near = np.add.reduceat(near.astype(np.int64), offs)
        for j in (n_near > 1).nonzero()[0].tolist():
            s0 = int(offs[j])
            s1 = s0 + int(cnt[j])
            best_dist[j], best_id[j] = _pow_space_best(accs[s0:s1], ids_at[s0:s1])

        progressed = best_dist < dist[active]
        for j in (~progressed).nonzero()[0].tolist():
            r = int(active[j])
            errors[r] = RoutingError(
                f"no progress at node {int(cur[r])} toward {pts[r]} "
                f"(dist {float(dist[r])}, best candidate {float(best_dist[j])})"
            )
        adv = active[progressed]
        adv_ids = best_id[progressed]
        adv_dist = best_dist[progressed]
        cur[adv] = adv_ids
        dist[adv] = adv_dist
        nhops[adv] += 1
        hop_log.append((adv, adv_ids))
        overflow = nhops[adv] + 1 > max_hops
        for r in adv[overflow].tolist():
            errors[r] = RoutingError(f"exceeded {max_hops} hops toward {pts[r]}")
        finished = adv_dist == 0.0
        boundary.extend(adv[finished & ~overflow].tolist())
        active = adv[~finished & ~overflow]

    for adv, adv_ids in hop_log:
        for r, b in zip(adv.tolist(), adv_ids.tolist()):
            if errors[r] is None:
                paths[r].append(b)
    # A narrow front — a small burst, or the thin tail of a wide batch —
    # finishes route by route; its lockstep hops are on the paths by now.
    for r in active.tolist():
        try:
            _greedy_hops(
                pool, paths[r], dist.item(r), P[r].reshape(-1, 1), pts[r], max_hops
            )
        except RoutingError as err:
            errors[r] = err
        else:
            nhops[r] = len(paths[r]) - 1
            boundary.append(r)
    # Only the (rare) routes that stalled on a zone face walk the
    # perimeter.  Memoize the walks within this batch: Table-I capacities
    # are discrete, so stalled routes repeat the exact same (landing
    # zone, boundary point) pairs — and the overlay is immutable for the
    # duration of the call, so a cached walk is exact, not approximate.
    memo: dict[tuple[int, tuple[float, ...]], list[int]] = {}
    for r in boundary:
        if errors[r] is None and not nodes[paths[r][-1]].zone.contains(pts[r]):
            key = (paths[r][-1], pts[r])
            hops = memo.get(key)
            if hops is None:
                hops = _perimeter_hops(overlay, paths[r][-1], P[r])
                memo[key] = hops
            paths[r].extend(hops)
    greedy_hops = nhops.tolist()
    for r in known:
        if errors[r] is None:
            pool.remember(pts[r], paths[r], greedy_hops[r] + 1)

    if on_error == "raise":
        for err in errors:
            if err is not None:
                raise err
    else:
        for r, err in enumerate(errors):
            if err is not None:
                paths[r] = None
    return paths


# ----------------------------------------------------------------------
# boundary perimeter walk
# ----------------------------------------------------------------------
def _perimeter_hops(
    overlay: CANOverlay, start_id: int, point: np.ndarray
) -> list[int]:
    """BFS through face neighbors whose closed zones touch ``point`` until
    reaching the (unique) half-open owner.  The zero-distance cluster is the
    set of zones incident to the point — at most 2^d for regular corners —
    so this stays local; a global owner lookup backstops pathological
    irregular tilings (one extra charged hop, mirroring CAN's perimeter
    forwarding).  Each BFS node's sorted neighborhood is visited in the
    identical order to the scalar reference."""
    owner_id = overlay.owner_of(point)
    if owner_id == start_id:
        return []
    if owner_id in overlay.nodes[start_id].neighbors:
        # The owner's closed zone contains the point by construction, so
        # it always passes the incidence test: the level-1 BFS scan would
        # return ``[owner_id]`` no matter how its siblings sort.  This is
        # the overwhelmingly common case (state-update points land on a
        # face of the duty zone next door) — skip the scan.
        return [owner_id]
    nodes, pt = overlay.nodes, point.tolist()
    seen = {start_id}
    queue: deque[tuple[int, list[int]]] = deque([(start_id, [])])
    budget = 4 ** overlay.dims  # generous cap on the incident cluster size
    while queue and budget > 0:
        node_id, hops = queue.popleft()
        for m in sorted(nodes[node_id].neighbors):
            if m in seen or _squared_distance(nodes[m].zone, pt) != 0.0:
                continue
            seen.add(m)
            budget -= 1
            if m == owner_id:
                return hops + [m]
            queue.append((m, hops + [m]))
    # Backstop: jump straight to the owner (counts as one hop).
    return [owner_id]
