"""The contention-minimized multi-dimensional range query (§III-C).

Three phases, each driven by its own message handler, mirroring
Algorithms 3-5:

1. **duty-query** — the expectation vector ``v`` is routed over INSCAN to
   the *duty node* whose zone encloses it;
2. **index-agent** — the duty node randomly picks one positive neighbor per
   dimension as *index agents* (the reservoir ι) and forwards to a random
   agent, which samples an *index-jump list* j from its PIList;
3. **index-jump** — the jump message hops index node to index node; each
   checks its cache γ for records dominating ``v`` (Inequality 2), sends
   found records to the requester (FoundList ϕ) and decrements the result
   budget δ; exhausted lists fall back to the next agent, and an exhausted
   agent reservoir ends the query.

The requester accumulates ϕ notifications and finalizes on the explicit
query-end message or a timeout (needed under churn, where a chain can die
with a relaying node); the runtime registry, failsafe scheduling and
exactly-once resolution live in the shared
:mod:`repro.core.lifecycle` layer.  With Slack-on-Submission the first attempt runs on
the slacked vector e′ and a failed attempt retries once with the original
``e`` — the paper's "twice resource query overhead".

Message accounting convention
-----------------------------
``QueryRuntime.messages`` (reported to the requester callback and feeding
the Fig. 6/7 per-query cost metrics) counts **every inter-node send of the
query chain exactly once**, mirroring the TrafficMeter charges for the
chain's message kinds:

- ``duty-query``   — one per forwarded hop of the INSCAN route
  (``len(path) - 1``; zero when the requester is its own duty node);
- ``index-agent``  — one per agent handoff (including the duty node's
  first pick);
- ``index-jump``   — one per jump-list hop;
- ``found-notify`` — one per ϕ notification back to the requester;
- ``query-end``    — one per explicit termination notice.

*Not* counted: the requester's local submission (no message is sent), the
duty node acting as its own index agent (a local call), and retransmission
does not exist in the model.  Messages dropped at a churned-out destination
are still counted — the send happened and the TrafficMeter charged it; a
SoS retry re-runs the chain and keeps accumulating into the same counter
(the paper's "twice resource query overhead").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.can.inscan import IndexPointerTable, inscan_path, inscan_paths
from repro.can.overlay import CANOverlay
from repro.can.routing import RoutingError
from repro.core.cache import PathCacheIndex
from repro.core.context import ProtocolContext
from repro.core.lifecycle import QueryLifecycle, QueryRuntime, submit_batch
from repro.core.pilist import PIList
from repro.core.sos import slack_expectation
from repro.core.state import StateCache, StateRecord

__all__ = ["QueryEngine", "QueryRuntime", "QueryParams", "submit_batch"]


@dataclass(frozen=True, slots=True)
class QueryParams:
    """Query-side knobs (defaults follow §III-C / DESIGN.md §5)."""

    delta: int = 3  # δ: expected number of qualified results
    jump_list_size: int = 5  # |j| sampled from the agent's PIList
    check_duty_cache: bool = True  # also search γ on the duty node itself
    sos: bool = False  # Slack-on-Submission (Formula 3)
    sos_bias: float = 1.0
    vd: bool = False  # extra virtual dimension [27]
    timeout: float = 60.0  # requester-side query timeout (churn safety)
    max_chain_hops: int = 64  # hard cap on one query's message chain


class QueryEngine:
    """Executes Algorithms 3-5 against the live protocol state."""

    def __init__(
        self,
        ctx: ProtocolContext,
        overlay: CANOverlay,
        tables: dict[int, IndexPointerTable],
        caches: dict[int, StateCache],
        pilists: dict[int, PIList],
        params: QueryParams,
        cache: PathCacheIndex | None = None,
    ):
        self.ctx = ctx
        self.overlay = overlay
        self.tables = tables
        self.caches = caches
        self.pilists = pilists
        self.params = params
        #: Hot-range path cache (docs/caching.md); None = cache-off, which
        #: keeps every routing call and RNG draw bit-identical to the
        #: pre-cache protocol.
        self.cache = cache
        # The shared requester-side machinery: runtime registry, failsafe
        # timeouts, exactly-once resolution.  The hook routes a firing
        # failsafe through the SoS retry decision instead of expiring
        # immediately.
        self.lifecycle = QueryLifecycle(
            ctx, params.timeout, on_timeout=self._on_timeout
        )

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def submit(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> int:
        """Start a query for ``demand`` issued by ``requester``.

        ``callback(records, messages)`` fires exactly once with the deduped
        qualified records (possibly empty = failed task).
        """
        rt = self._begin(demand, requester, callback)
        self._launch(rt)
        return rt.qid

    def _begin(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> QueryRuntime:
        rt = self.lifecycle.begin(demand, requester, callback)
        if self.params.sos:
            rt.v = slack_expectation(
                rt.demand, self.ctx.cmax, self.ctx.rng, self.params.sos_bias
            )
            rt.sos_attempted = True
        return rt

    def submit_many(
        self,
        demands: Sequence[np.ndarray],
        requester: int,
        callback: Callable[[list[tuple[list[StateRecord], int]]], None],
    ) -> list[int]:
        """Submit one query per demand vector as a single burst.

        ``callback(results)`` fires exactly once after every query in the
        batch has finalized, with ``results[i] = (records, messages)`` for
        ``demands[i]`` in submission order.  Returns the per-query qids.

        The whole burst launches at the same instant, so the duty-query
        routes are computed in one batched lockstep pass
        (:func:`~repro.can.inscan.inscan_paths`) — routing consumes no
        randomness and per-query RNG draws (SoS slack, VD coordinate)
        happen in submission order first, so every path, message charge
        and delivery event is identical to submitting the queries one by
        one.
        """
        rts: list[QueryRuntime] = []
        points_l: list[np.ndarray] = []

        def start(demand: np.ndarray, cb) -> int:
            # Per-query draws (SoS slack inside _begin, then the VD
            # coordinate) happen here, interleaved per query exactly as a
            # sequential submit loop would interleave them.
            rt = self._begin(demand, requester, cb)
            rts.append(rt)
            points_l.append(self._query_point(rt.v))
            return rt.qid

        qids = submit_batch(start, demands, callback)
        if not rts:
            return qids
        if not self.ctx.is_alive(requester):
            for rt in rts:
                self._resolve(rt, False)
            return qids
        paths = self._route_batch([requester] * len(rts), points_l)
        for rt, path in zip(rts, paths):
            if path is None:
                # Overlay under repair (churn); the query is lost.
                self._resolve(rt, False)
                continue
            rt.messages += max(0, len(path) - 1)
            self.ctx.send_path(
                "duty-query", path, self._on_duty, rt.qid, path[-1]
            )
        return qids

    def submit_burst(
        self,
        items: Sequence[
            tuple[np.ndarray, int, Callable[[list[StateRecord], int], None]]
        ],
    ) -> list[int]:
        """Submit same-instant queries from *different* requesters as one
        batch — the arrival-coalescing twin of :meth:`submit_many`.

        ``items`` holds ``(demand, requester, callback)`` triples in
        arrival order; every path, RNG draw, message charge and delivery
        event is bit-identical to submitting them one by one in that
        order.  The per-query draws (SoS slack inside ``_begin``, then —
        for live requesters only — the VD coordinate) stay per item in
        arrival order, exactly the sequential stream; only routing is
        batched.  Routing (:func:`~repro.can.inscan.inscan_paths`)
        consumes no randomness, and a failed query's resolution invokes
        only the requester callback (no RNG, no sends), so deferring
        dead/unroutable resolutions behind the batch changes nothing
        observable.
        """
        rts: list[QueryRuntime] = []
        live: list[QueryRuntime] = []
        dead: list[QueryRuntime] = []
        points: list[np.ndarray] = []
        for demand, requester, callback in items:
            rt = self._begin(demand, requester, callback)
            rts.append(rt)
            if self.ctx.is_alive(requester):
                live.append(rt)
                points.append(self._query_point(rt.v))
            else:
                dead.append(rt)
        for rt in dead:
            self._resolve(rt, False)
        if live:
            paths = self._route_batch([rt.requester for rt in live], points)
            for rt, path in zip(live, paths):
                if path is None:
                    # Overlay under repair (churn); the query is lost.
                    self._resolve(rt, False)
                    continue
                rt.messages += max(0, len(path) - 1)
                self.ctx.send_path(
                    "duty-query", path, self._on_duty, rt.qid, path[-1]
                )
        return [rt.qid for rt in rts]

    def active_queries(self) -> int:
        return self.lifecycle.active_queries()

    # ------------------------------------------------------------------
    # phase 1: duty-query routing (Algorithm 3)
    # ------------------------------------------------------------------
    def _query_point(self, v: np.ndarray) -> np.ndarray:
        point = self.ctx.normalize(v)
        if self.params.vd:
            # The virtual dimension receives a fresh random coordinate per
            # query, dispersing analogous queries over many duty nodes [27].
            point = np.append(point, self.ctx.rng.uniform())
        return point

    # ------------------------------------------------------------------
    # hot-range path cache (docs/caching.md); all no-ops when cache is off
    # ------------------------------------------------------------------
    def _cache_usable(self, duty: int) -> bool:
        """A cached duty is only worth routing to while it is alive and
        still holds a zone (churn invalidates lazily, at consult time)."""
        return self.ctx.is_alive(duty) and duty in self.overlay.nodes

    def _cache_probe(self, requester: int, point: np.ndarray) -> int | None:
        """Consult the requester's cache; returns a live cached duty node
        for ``point`` or None.  Tracks hit/miss/staleness counters."""
        stats = self.cache.stats
        stats.lookups += 1
        duty = self.cache.lookup(requester, point, self.ctx.sim.now)
        if duty is None:
            stats.misses += 1
            return None
        if not self._cache_usable(duty):
            self.cache.invalidate(requester, duty)
            stats.misses += 1
            return None
        stats.hits += 1
        self._note_regret(duty, point)
        return duty

    def _note_regret(self, duty: int, point: np.ndarray) -> None:
        """Staleness-induced best-fit regret: the cached duty no longer
        matches the ground-truth owner of the query point (its zone split
        or moved since the entry was stored), so the query lands on a
        node whose γ holds looser-fitting records than the true duty's."""
        try:
            owner = self.overlay.owner_of(point)
        except LookupError:
            return
        if duty != owner:
            self.cache.stats.stale_hits += 1

    def _relay_shorten(self, path: list[int], point: np.ndarray) -> list[int]:
        """Let each relay hop of a greedy route consult its own cache and
        truncate the remaining walk when it knows a closer duty node."""
        now = self.ctx.sim.now
        for i in range(1, len(path) - 1):
            duty = self.cache.lookup(path[i], point, now)
            if duty is None:
                continue
            if not self._cache_usable(duty):
                self.cache.invalidate(path[i], duty)
                continue
            short = path[: i + 1] if duty == path[i] else [*path[: i + 1], duty]
            if len(short) < len(path):
                self.cache.stats.relay_hits += 1
                self._note_regret(duty, point)
                return short
        return path

    def _populate_route(self, path: list[int]) -> None:
        """Remember the routed duty node (with its zone box) at the
        requester and every relay hop — the query response travelling the
        return path carries exactly this binding."""
        duty = path[-1]
        node = self.overlay.nodes.get(duty)
        if node is None:
            return
        lo, hi = node.zone.lo, node.zone.hi
        now = self.ctx.sim.now
        for node in path[:-1]:
            self.cache.store(node, duty, lo, hi, now)

    def _finish_route(self, path: list[int], point: np.ndarray) -> list[int]:
        """Post-process a freshly greedy-routed path: relay caches may
        truncate it; a full (untruncated) route is authoritative ground
        truth and populates the caches along it."""
        short = self._relay_shorten(path, point)
        if short is path:
            self._populate_route(path)
        return short

    def _route_batch(
        self, requesters: list[int], points: list[np.ndarray]
    ) -> list[list[int] | None]:
        """Batched duty-query routing with the cache consulted first.

        Cache-off this is exactly the one lockstep
        :func:`~repro.can.inscan.inscan_paths` call of the pre-cache
        protocol.  Cache-on, requester hits short-circuit to their cached
        duty and only the misses go through greedy routing (still one
        batched pass); cache operations consume no RNG, so the miss
        sub-batch routes identically to routing it alone.
        """
        arr = np.asarray(points)
        if self.cache is None:
            return inscan_paths(
                self.overlay, self.tables, requesters, arr, on_error="none"
            )
        paths: list[list[int] | None] = [None] * len(requesters)
        miss: list[int] = []
        for i, requester in enumerate(requesters):
            duty = self._cache_probe(requester, points[i])
            if duty is None:
                miss.append(i)
            else:
                paths[i] = [requester, duty]
        if miss:
            routed = inscan_paths(
                self.overlay, self.tables,
                [requesters[i] for i in miss], arr[miss],
                on_error="none",
            )
            for i, path in zip(miss, routed):
                paths[i] = (
                    self._finish_route(path, points[i])
                    if path is not None
                    else None
                )
        return paths

    def _launch(self, rt: QueryRuntime, timed_out: bool = False) -> None:
        """Start (or re-start, for SoS) the query chain.

        ``timed_out`` records how we got here: a launch that fails
        synchronously during a failsafe-triggered retry resolves through
        :meth:`QueryLifecycle.expire`, keeping the ``query_timeouts``
        attribution honest for the ``+sos`` variants under churn.
        """
        if not self.ctx.is_alive(rt.requester):
            self._resolve(rt, timed_out)
            return
        point = self._query_point(rt.v)
        path: list[int] | None = None
        if self.cache is not None:
            duty = self._cache_probe(rt.requester, point)
            if duty is not None:
                path = [rt.requester, duty]
        if path is None:
            try:
                path = inscan_path(
                    self.overlay, self.tables, rt.requester, point
                )
            except (RoutingError, KeyError):
                # Overlay under repair (churn); the query is lost.
                self._resolve(rt, timed_out)
                return
            if self.cache is not None:
                path = self._finish_route(path, point)
        rt.messages += max(0, len(path) - 1)
        self.ctx.send_path("duty-query", path, self._on_duty, rt.qid, path[-1])

    def _duty_phi(
        self, cache: StateCache, v: np.ndarray, now: float, delta: int
    ) -> list[StateRecord]:
        """The duty node's own qualified records, at most ``delta``.

        Cache-off this is the first-δ scan of the seed (no RNG).  Cache-on
        the duty γ may hold a replicated hot partition far larger than δ;
        always serving its first rows would funnel every hot query onto
        the same few owners, so the pick is a uniform δ-subset instead —
        replication's load spreading, paid for with RNG draws that only
        ever happen cache-on.
        """
        if self.cache is None:
            return cache.qualified(v, now, limit=delta)
        pool = cache.qualified(v, now)
        if len(pool) <= delta:
            return pool
        picked = self.ctx.rng.choice(len(pool), size=delta, replace=False)
        return [pool[i] for i in sorted(picked.tolist())]

    def _on_duty(self, qid: int, duty: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        now = self.ctx.sim.now
        if self.cache is not None:
            # Feed the heat tracker driving hot-partition replication.
            self.cache.record_service(duty, now)
        delta = self.params.delta
        found_owners: set[int] = set()

        # Optional deviation knob (DESIGN.md §5): the duty node's own cache
        # holds the records tightest around v — natural best-fit candidates.
        if self.params.check_duty_cache:
            cache = self.caches.get(duty)
            if cache is not None:
                phi = self._duty_phi(cache, rt.v, now, delta)
                if phi:
                    self._notify_found(duty, rt, phi)
                    delta -= len(phi)
                    found_owners.update(r.owner for r in phi)
        if delta <= 0:
            self._send_end(duty, rt)
            return

        # Algorithm 3 lines 5-7: one random positive neighbor per dimension.
        agents: list[int] = []
        for dim in range(self.overlay.dims):
            if duty not in self.overlay.nodes:
                break
            pos = self.overlay.directional_neighbors(duty, dim, +1)
            pick = self.ctx.choice(pos, exclude=set(agents) | {duty})
            if pick is not None:
                agents.append(pick)
        if not agents:
            # Top-corner duty node with no positive neighbors: act as our
            # own index agent (the PIList here was populated by the same
            # backward diffusion).
            self._on_agent(qid, duty, delta, [], found_owners, 1)
            return
        alpha = agents.pop(int(self.ctx.rng.integers(len(agents))))
        rt.messages += 1
        self.ctx.send(
            "index-agent", duty, alpha,
            self._on_agent, qid, alpha, delta, agents, found_owners, 1,
        )

    # ------------------------------------------------------------------
    # phase 2: index-agent handler (Algorithm 4)
    # ------------------------------------------------------------------
    def _on_agent(
        self,
        qid: int,
        me: int,
        delta: int,
        agents: list[int],
        found_owners: set[int],
        hops: int,
    ) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        if hops > self.params.max_chain_hops:
            self._send_end(me, rt)
            return
        pilist = self.pilists.get(me)
        jumps = (
            pilist.sample(self.params.jump_list_size, self.ctx.sim.now, self.ctx.rng)
            if pilist is not None
            else []
        )
        jumps = [j for j in jumps if j != me and j not in found_owners]
        if jumps:
            beta = jumps.pop(int(self.ctx.rng.integers(len(jumps))))
            rt.messages += 1
            self.ctx.send(
                "index-jump", me, beta,
                self._on_jump, qid, beta, delta, jumps, agents, found_owners,
                hops + 1,
            )
        else:
            self._next_agent(qid, me, delta, agents, found_owners, hops, rt)

    def _next_agent(
        self,
        qid: int,
        me: int,
        delta: int,
        agents: list[int],
        found_owners: set[int],
        hops: int,
        rt: QueryRuntime,
    ) -> None:
        """Algorithm 4 lines 5-8 / Algorithm 5 lines 10-13."""
        if agents:
            alpha = agents.pop(int(self.ctx.rng.integers(len(agents))))
            rt.messages += 1
            self.ctx.send(
                "index-agent", me, alpha,
                self._on_agent, qid, alpha, delta, agents, found_owners, hops + 1,
            )
        else:
            self._send_end(me, rt)

    # ------------------------------------------------------------------
    # phase 3: index-jump handler (Algorithm 5)
    # ------------------------------------------------------------------
    def _on_jump(
        self,
        qid: int,
        me: int,
        delta: int,
        jumps: list[int],
        agents: list[int],
        found_owners: set[int],
        hops: int,
    ) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        if hops > self.params.max_chain_hops:
            self._send_end(me, rt)
            return
        now = self.ctx.sim.now
        cache = self.caches.get(me)
        if cache is not None:
            phi = cache.qualified(rt.v, now, limit=delta, exclude=found_owners)
            if phi:
                # Lines 2-5: notify the requester, decrement δ.
                self._notify_found(me, rt, phi)
                delta -= len(phi)
                found_owners = found_owners | {r.owner for r in phi}
        if delta <= 0:
            self._send_end(me, rt)
            return
        jumps = [j for j in jumps if j not in found_owners]
        if jumps:
            beta = jumps.pop(int(self.ctx.rng.integers(len(jumps))))
            rt.messages += 1
            self.ctx.send(
                "index-jump", me, beta,
                self._on_jump, qid, beta, delta, jumps, agents, found_owners,
                hops + 1,
            )
        else:
            self._next_agent(qid, me, delta, agents, found_owners, hops, rt)

    # ------------------------------------------------------------------
    # requester side
    # ------------------------------------------------------------------
    def _notify_found(self, src: int, rt: QueryRuntime, phi: list[StateRecord]) -> None:
        rt.messages += 1
        self.ctx.send(
            "found-notify", src, rt.requester, self._on_found, rt.qid, list(phi)
        )

    def _send_end(self, src: int, rt: QueryRuntime) -> None:
        """Explicit termination notice back to the requester (counted like
        every other inter-node send of the chain)."""
        rt.messages += 1
        self.ctx.send("query-end", src, rt.requester, self._on_end, rt.qid)

    def _on_found(self, qid: int, phi: list[StateRecord]) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        rt.found.extend(phi)

    def _on_end(self, qid: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        self._maybe_retry_or_finalize(rt, timed_out=False)

    def _on_timeout(self, rt: QueryRuntime) -> None:
        """Lifecycle hook: the failsafe fired while the query is live."""
        self._maybe_retry_or_finalize(rt, timed_out=True)

    def _maybe_retry_or_finalize(self, rt: QueryRuntime, timed_out: bool) -> None:
        if rt.finalized:
            return
        if not rt.found and self.params.sos and rt.sos_attempted:
            # SoS failure path: restore the original expectation vector and
            # re-conduct the search once (§III-C last paragraph).
            rt.sos_attempted = False
            rt.v = rt.demand
            self.lifecycle.restart_timeout(rt)
            self._launch(rt, timed_out)
            return
        self._resolve(rt, timed_out)

    def _resolve(self, rt: QueryRuntime, timed_out: bool) -> None:
        if timed_out:
            self.lifecycle.expire(rt)
        else:
            self.lifecycle.finalize(rt)
