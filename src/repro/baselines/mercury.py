"""Mercury-style attribute-hub range queries (related work [15], §V).

Mercury (Bharambe, Agrawal, Seshan — SIGCOMM 2004) supports multi-attribute
range queries with one *attribute hub* per dimension: an order-preserving
ring of nodes, each owning a contiguous value arc.  Records are replicated
into **every** hub (indexed there by that hub's attribute); a query is sent
to the *most selective* hub only, routed to the arc containing its range
start, and then walks successor arcs collecting records that qualify on all
attributes.

The paper's §V critique, which this implementation lets the benches verify:

- the order-preserving hubs are an *extra* structure to maintain, and every
  state update costs d hub insertions (vs one duty-node route in PID-CAN);
- range-walking the successor arcs makes query cost grow with the range —
  the same N-dependence INSCAN-RQ suffers, softened by the walk budget.

Ring routing uses successor fingers at 2^k arc distances, the standard
Mercury/Chord-style long links, giving O(log n) hops to any value.

Query state (found records, message count, the failsafe timeout that
resolves range walks lost to churn) lives in the shared
:class:`~repro.core.lifecycle.QueryLifecycle`; walk messages carry only
the query id plus the hub/budget coordinates.
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional

import numpy as np

from repro.core.context import ProtocolContext
from repro.core.lifecycle import QueryLifecycle
from repro.core.protocol import DiscoveryProtocol, PIDCANParams
from repro.core.state import StateCache, StateRecord

__all__ = ["MercuryProtocol", "HubRing"]


class HubRing:
    """One attribute hub: an order-preserving ring over ``[0, 1]``.

    Members own half-open arcs ``[position_i, position_{i+1})``; the last
    arc wraps to 1.0 (values ≥ the last position).  Lookups are by binary
    search; hop counts model finger routing: reaching an arc ``k`` steps of
    successor distance away costs ``popcount(k)`` hops via 2^i fingers.
    """

    def __init__(self, attribute: int):
        self.attribute = attribute
        self._positions: list[float] = []
        self._members: list[int] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def members(self) -> list[int]:
        return list(self._members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    def add(self, node_id: int, position: float) -> None:
        """Join at ``position``, splitting the covering arc."""
        if node_id in self._members:
            raise ValueError(f"node {node_id} already in hub {self.attribute}")
        position = float(np.clip(position, 0.0, 1.0))
        idx = bisect.bisect_left(self._positions, position)
        self._positions.insert(idx, position)
        self._members.insert(idx, node_id)

    def remove(self, node_id: int) -> None:
        """Leave; the predecessor arc absorbs the vacated range."""
        idx = self._members.index(node_id)
        del self._members[idx]
        del self._positions[idx]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def owner_index(self, value: float) -> int:
        """Index of the member whose arc contains ``value``."""
        if not self._members:
            raise LookupError("empty hub")
        value = float(np.clip(value, 0.0, 1.0))
        idx = bisect.bisect_right(self._positions, value) - 1
        return idx % len(self._members)  # values below the first arc wrap

    def owner_of(self, value: float) -> int:
        return self._members[self.owner_index(value)]

    def successor(self, node_id: int) -> Optional[int]:
        """The next member in ascending value order (wrapping), or None
        when alone."""
        if len(self._members) <= 1:
            return None
        idx = self._members.index(node_id)
        return self._members[(idx + 1) % len(self._members)]

    def successor_no_wrap(self, node_id: int) -> Optional[int]:
        """Ascending successor, or None at the top of the value range —
        range walks stop here (values below the range start cannot
        qualify)."""
        idx = self._members.index(node_id)
        if idx + 1 >= len(self._members):
            return None
        return self._members[idx + 1]

    def routing_hops(self, src: int, value: float) -> int:
        """Finger-routing hop count from ``src``'s arc to the arc owning
        ``value``: popcount of the successor distance (2^k fingers)."""
        if src not in self._members:
            # entry from outside the hub costs one bootstrap hop to a
            # random member plus in-ring routing from there
            return 1 + int(np.ceil(np.log2(max(len(self._members), 2))))
        src_idx = self._members.index(src)
        dst_idx = self.owner_index(value)
        distance = (dst_idx - src_idx) % max(len(self._members), 1)
        return int(distance).bit_count()


class MercuryProtocol(DiscoveryProtocol):
    """Multi-attribute hub discovery; records replicated to every hub."""

    name = "mercury"

    def __init__(
        self,
        ctx: ProtocolContext,
        params: PIDCANParams,
        walk_budget: int = 12,
    ):
        self.ctx = ctx
        self.params = params
        self.walk_budget = walk_budget
        self.dims = params.resource_dims
        self.hubs = [HubRing(k) for k in range(self.dims)]
        self.hub_of: dict[int, int] = {}
        self.caches: dict[int, StateCache] = {}
        self.lifecycle = QueryLifecycle(ctx, params.query_timeout)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def bootstrap(self, node_ids: list[int]) -> None:
        for node_id in node_ids:
            self._join(node_id)
        for node_id in node_ids:
            self._arm_state_updates(node_id)

    def on_join(self, node_id: int) -> None:
        self._join(node_id)
        self._arm_state_updates(node_id)

    def on_leave(self, node_id: int) -> None:
        hub_idx = self.hub_of.pop(node_id, None)
        if hub_idx is not None:
            self.hubs[hub_idx].remove(node_id)
        self.caches.pop(node_id, None)

    def _join(self, node_id: int) -> None:
        # keep hubs balanced: join the smallest, at a random arc position
        hub = min(self.hubs, key=len)
        hub.add(node_id, float(self.ctx.rng.uniform()))
        self.hub_of[node_id] = hub.attribute
        self.caches[node_id] = StateCache(self.params.state_ttl)

    # ------------------------------------------------------------------
    # state updates: one insertion per hub (Mercury's replication)
    # ------------------------------------------------------------------
    def _arm_state_updates(self, node_id: int) -> None:
        self.ctx.start_periodic(
            self.params.state_period,
            lambda: self._state_update(node_id),
            alive=lambda: self.ctx.is_alive(node_id),
        )

    def _state_update(self, node_id: int) -> None:
        availability = self.ctx.availability_of(node_id)
        record = StateRecord(node_id, availability.copy(), self.ctx.sim.now)
        point = self.ctx.normalize(availability)
        for hub in self.hubs:
            if len(hub) == 0:
                continue
            target = hub.owner_of(point[hub.attribute])
            hops = hub.routing_hops(node_id, point[hub.attribute])
            self.ctx.charge_local("state-update", node_id, max(hops, 1))
            delay = hops * self.ctx.network.delay(node_id, target)
            self.ctx.deliver_after(delay, target, self._deliver_state, target, record)

    def _deliver_state(self, target: int, record: StateRecord) -> None:
        cache = self.caches.get(target)
        if cache is not None:
            cache.put(record)

    # ------------------------------------------------------------------
    # query: route within the most selective hub, walk successors
    # ------------------------------------------------------------------
    def _most_selective_hub(self, point: np.ndarray) -> HubRing:
        """The hub whose attribute has the highest normalized demand —
        fewest records above the range start, so the shortest walk."""
        populated = [hub for hub in self.hubs if len(hub) > 0]
        if not populated:
            raise LookupError("no populated hubs")
        return max(populated, key=lambda hub: point[hub.attribute])

    def submit_query(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> None:
        rt = self.lifecycle.begin(demand, requester, callback)
        point = self.ctx.normalize(rt.demand)
        try:
            hub = self._most_selective_hub(point)
        except LookupError:
            self.lifecycle.finalize(rt)
            return
        value = point[hub.attribute]
        entry = hub.owner_of(value)
        hops = hub.routing_hops(requester, value)
        self.ctx.charge_local("duty-query", requester, max(hops, 1))
        rt.messages += max(hops, 1)
        delay = hops * self.ctx.network.delay(requester, entry)
        self.ctx.deliver_after(
            delay, entry, self._walk, rt.qid, hub.attribute, entry, self.walk_budget
        )

    def _walk(self, qid: int, hub_idx: int, node_id: int, budget: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        hub = self.hubs[hub_idx]
        if self.ctx.is_alive(node_id):
            cache = self.caches.get(node_id)
            if cache is not None and len(cache):
                # one record per owner in ``rt.found`` (owner-keyed caches +
                # exclusion on every scan)
                need = self.params.delta - len(rt.found)
                if need > 0:
                    rt.found.extend(
                        cache.qualified(
                            rt.demand, self.ctx.sim.now, limit=need,
                            exclude={r.owner for r in rt.found},
                        )
                    )
        if budget <= 0 or len(rt.found) >= self.params.delta:
            self.lifecycle.finalize(rt)
            return
        nxt = hub.successor_no_wrap(node_id) if node_id in hub else None
        if nxt is None:
            self.lifecycle.finalize(rt)
            return
        rt.messages += 1
        self.ctx.send(
            "walk-query", node_id, nxt, self._walk, qid, hub_idx, nxt, budget - 1
        )
