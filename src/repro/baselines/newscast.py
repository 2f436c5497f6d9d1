"""Newscast gossip discovery (reference [26]; §IV-A baseline).

Each node keeps a partial view of ``⌈log2 n⌉`` entries — (peer, availability,
timestamp) — and periodically exchanges views with one random live peer;
both sides keep the freshest entries of the union (plus a fresh self entry),
which is the standard Newscast membership dynamic.

Queries are "completely random over the partial-view cache" (§IV-B): a
random walk of ``⌈log2 n⌉`` hops; every visited node contributes fresh view
entries whose availability dominates the demand, and the walk proceeds to a
random view peer.  This gives the baseline its characteristic behaviour:
good dispersal (entries are uniformly random, so light demands spread over
the whole system) but a poor matching rate for demanding queries (no
structure directs the walk toward qualified records).

Query state (found records, message count, the failsafe timeout that
resolves walks lost to churn) lives in the shared
:class:`~repro.core.lifecycle.QueryLifecycle`; walk messages carry only
the query id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.context import ProtocolContext
from repro.core.lifecycle import QueryLifecycle
from repro.core.protocol import DiscoveryProtocol, PIDCANParams
from repro.core.state import StateRecord
from repro.sim.rng import distinct_draw

__all__ = ["NewscastProtocol", "ViewEntry"]


@dataclass(frozen=True, slots=True)
class ViewEntry:
    """One cache line of a Newscast partial view."""

    peer: int
    availability: np.ndarray
    timestamp: float


class NewscastProtocol(DiscoveryProtocol):
    """Unstructured gossip comparator."""

    name = "newscast"

    def __init__(
        self,
        ctx: ProtocolContext,
        params: PIDCANParams,
        view_size: int | None = None,
        walk_hops: int | None = None,
    ):
        self.ctx = ctx
        self.params = params
        self._view_size = view_size
        self._walk_hops = walk_hops
        self.views: dict[int, list[ViewEntry]] = {}
        self._population = 0
        self.lifecycle = QueryLifecycle(ctx, params.query_timeout)

    # ------------------------------------------------------------------
    # sizing (fan-out limited to log2 n, §IV-A)
    # ------------------------------------------------------------------
    def view_size(self) -> int:
        if self._view_size is not None:
            return self._view_size
        return max(2, int(np.ceil(np.log2(max(self._population, 2)))))

    def walk_hops(self) -> int:
        if self._walk_hops is not None:
            return self._walk_hops
        return max(2, int(np.ceil(np.log2(max(self._population, 2)))))

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def bootstrap(self, node_ids: list[int]) -> None:
        ids = list(node_ids)
        self._population = len(ids)
        now = self.ctx.sim.now
        size = self.view_size()
        k = min(size, len(ids) - 1)
        # A node's peers are ``ids`` without it: pick ``i`` is ``ids[i]``
        # before the node's own position and ``ids[i + 1]`` from it on.
        # The view and phase draws interleave on the ctx stream, so both
        # stay per node.
        for position, node_id in enumerate(ids):
            picked = distinct_draw(self.ctx.rng, len(ids) - 1, k)
            peers = [ids[i] if i < position else ids[i + 1] for i in picked]
            self.views[node_id] = [
                ViewEntry(peer, self.ctx.availability_of(peer), now) for peer in peers
            ]
            self._arm_gossip(node_id)

    def on_join(self, node_id: int) -> None:
        self._population = max(self._population, len(self.views) + 1)
        # A joiner learns an introducer at random — its view seeds from one
        # live node's view, matching Newscast's join-by-contact.
        intro = self.ctx.choice(sorted(self.views))
        self.views[node_id] = list(self.views.get(intro, []))[: self.view_size()]
        self._arm_gossip(node_id)

    def on_leave(self, node_id: int) -> None:
        self.views.pop(node_id, None)
        # Stale entries pointing at the departed node age out of other
        # views through the freshness truncation.

    # ------------------------------------------------------------------
    # gossip cycle
    # ------------------------------------------------------------------
    def _arm_gossip(self, node_id: int) -> None:
        self.ctx.start_periodic(
            self.params.state_period, self._gossip_once, node_id, self.ctx.is_alive
        )

    def _gossip_once(self, node_id: int) -> None:
        view = self.views.get(node_id, [])
        peer_ids = [e.peer for e in view if self.ctx.is_alive(e.peer)]
        target = self.ctx.choice(peer_ids)
        if target is None:
            return
        now = self.ctx.sim.now
        my_view = self._with_self(node_id, view, now)
        # Request + reply are charged; the merge happens at both ends after
        # one round-trip delay.
        self.ctx.send("gossip", node_id, target, self._on_gossip, node_id, target, my_view)

    def _on_gossip(self, src: int, me: int, their_view: list[ViewEntry]) -> None:
        now = self.ctx.sim.now
        my_view = self._with_self(me, self.views.get(me, []), now)
        self.views[me] = self._merge(my_view, their_view)
        # reply with our (pre-merge) view
        self.ctx.send("gossip", me, src, self._on_gossip_reply, src, my_view)

    def _on_gossip_reply(self, me: int, their_view: list[ViewEntry]) -> None:
        # Delivered only while ``me`` is alive, and every live member has a view.
        self.views[me] = self._merge(self.views[me], their_view)

    def _with_self(
        self, node_id: int, view: list[ViewEntry], now: float
    ) -> list[ViewEntry]:
        entry = ViewEntry(node_id, self.ctx.availability_of(node_id), now)
        return [entry] + [e for e in view if e.peer != node_id]

    def _merge(self, a: list[ViewEntry], b: list[ViewEntry]) -> list[ViewEntry]:
        freshest: dict[int, ViewEntry] = {}
        for e in list(a) + list(b):
            old = freshest.get(e.peer)
            if old is None or old.timestamp < e.timestamp:
                freshest[e.peer] = e
        merged = sorted(
            freshest.values(), key=lambda e: (-e.timestamp, e.peer)
        )
        return merged[: self.view_size()]

    # ------------------------------------------------------------------
    # query: random walk over views
    # ------------------------------------------------------------------
    def submit_query(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> None:
        rt = self.lifecycle.begin(demand, requester, callback)
        if not self.ctx.is_alive(requester):
            self.lifecycle.finalize(rt)
            return
        self._walk(rt.qid, requester, self.walk_hops())

    def _walk(self, qid: int, node_id: int, hops_left: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        now = self.ctx.sim.now
        view = self.views.get(node_id, [])
        fresh_cutoff = now - self.params.state_ttl
        for entry in view:
            if entry.timestamp < fresh_cutoff:
                continue
            if bool(np.all(entry.availability >= rt.demand - 1e-9)):
                rt.found.append(
                    StateRecord(entry.peer, entry.availability, entry.timestamp)
                )
        if len({r.owner for r in rt.found}) >= self.params.delta or hops_left <= 0:
            self.lifecycle.finalize(rt)
            return
        nxt = self.ctx.choice(
            [e.peer for e in view if e.timestamp >= fresh_cutoff and self.ctx.is_alive(e.peer)]
        )
        if nxt is None:
            self.lifecycle.finalize(rt)
            return
        rt.messages += 1
        self.ctx.send(
            "walk-query", node_id, nxt, self._walk, qid, nxt, hops_left - 1
        )
