"""INSCAN-RQ — the complete-result flooding range query of §III-A.

Routes to the boundary-corner duty node of the demand vector, then floods
every *responsible node* — every node whose zone overlaps the positive box
``[v_norm, 1]^d`` — collecting all qualified records.  The paper proves:

- query delay upper bound ``2·log2 n`` (route + flood depth), and
- per-query traffic ``log2 n + N − 1`` where N is the number of
  responsible nodes,

and uses the heavy N-dependent traffic to motivate PID-CAN's single-message
constraint.  :class:`INSCANRangeQuery` is the standalone engine the §III-A
benchmark drives synchronously; :class:`InscanRQProtocol` (registered as
``inscan-rq``) adapts it to the :class:`~repro.core.protocol.
DiscoveryProtocol` interface — state updates route to duty nodes exactly
as in PID-CAN, a query routes to its duty node and floods from there —
so the flooding baseline can run inside the SOC simulation and the churn
campaigns.  The paper does not evaluate it there; we do, to expose its
N-dependent traffic under the same workloads as every other protocol.

Query state (found records, message count, the failsafe timeout that
resolves queries whose duty route died mid-churn) lives in the shared
:class:`~repro.core.lifecycle.QueryLifecycle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.can_base import CANStateBaseline
from repro.can.inscan import IndexPointerTable, inscan_path
from repro.can.overlay import CANOverlay
from repro.can.routing import RoutingError
from repro.core.context import ProtocolContext
from repro.core.protocol import PIDCANParams
from repro.core.state import StateCache, StateRecord

__all__ = ["INSCANRangeQuery", "InscanRQProtocol", "RangeQueryResult"]


@dataclass(frozen=True, slots=True)
class RangeQueryResult:
    """Outcome of one flooding range query."""

    records: tuple[StateRecord, ...]
    messages: int  # route hops + flood tree edges
    route_hops: int
    flood_depth: int
    responsible_nodes: int  # N of the traffic formula


class INSCANRangeQuery:
    """Complete multi-dimensional range query over INSCAN."""

    def __init__(
        self,
        overlay: CANOverlay,
        tables: dict[int, IndexPointerTable],
        caches: dict[int, StateCache],
    ):
        self.overlay = overlay
        self.tables = tables
        self.caches = caches

    def query(
        self,
        requester: int,
        demand: np.ndarray,
        demand_point: np.ndarray,
        now: float,
    ) -> RangeQueryResult:
        """All records dominating ``demand``; ``demand_point`` is the
        normalized corner of the query box."""
        demand = np.asarray(demand, dtype=np.float64)
        lo = np.asarray(demand_point, dtype=np.float64)
        hi = np.ones_like(lo)

        path = inscan_path(self.overlay, self.tables, requester, lo, memo=False)
        duty = path[-1]
        route_hops = len(path) - 1

        # BFS flood across all zones overlapping [lo, 1]^d.
        records: list[StateRecord] = []
        seen = {duty}
        frontier = [duty]
        depth = 0
        edges = 0
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                cache = self.caches.get(node)
                if cache is not None and len(cache):
                    records.extend(cache.qualified(demand, now))
                for m in sorted(self.overlay.nodes[node].directions):
                    if m in seen:
                        continue
                    zone = self.overlay.nodes[m].zone
                    if not zone.overlaps_box(lo, hi) and not zone.contains(lo):
                        continue
                    seen.add(m)
                    edges += 1
                    nxt.append(m)
            frontier = nxt
            if frontier:
                depth += 1
        return RangeQueryResult(
            records=tuple(records),
            messages=route_hops + edges,
            route_hops=route_hops,
            flood_depth=depth,
            responsible_nodes=len(seen),
        )


class InscanRQProtocol(CANStateBaseline):
    """SOC adapter for the flooding range query (§III-A baseline).

    Complete results at N-dependent cost: the query routes to its duty
    node, the duty node floods every responsible zone in-process (each
    tree edge charged as ``flood-query`` traffic) and sends one
    ``query-end`` back to the requester carrying everything found.
    Membership and the §IV-A state-update regime come from
    :class:`~repro.baselines.can_base.CANStateBaseline`.
    """

    name = "inscan-rq"

    def __init__(self, ctx: ProtocolContext, params: PIDCANParams):
        super().__init__(ctx, params)
        self.engine = INSCANRangeQuery(self.overlay, self.tables, self.caches)

    # ------------------------------------------------------------------
    # query: flood from the duty node the shared submit_query reached
    # ------------------------------------------------------------------
    def _on_duty(self, qid: int, duty: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        point = self.ctx.normalize(rt.v)
        try:
            # The flood starts at the duty node, so its route prefix is
            # empty; every flood-tree edge is charged to the duty node.
            result = self.engine.query(duty, rt.demand, point, self.ctx.sim.now)
        except (RoutingError, KeyError):
            # Overlay mid-repair under churn; the failsafe resolves us.
            return
        self.ctx.charge_local("flood-query", duty, result.messages)
        rt.messages += result.messages
        rt.found.extend(result.records)
        rt.messages += 1
        self.ctx.send("query-end", duty, rt.requester, self._on_end, qid)

    def _on_end(self, qid: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        self.lifecycle.finalize(rt)
