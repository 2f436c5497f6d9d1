"""Shared CAN substrate for the duty-cache baselines.

``randomwalk-can``, ``khdn-can`` and ``inscan-rq`` all keep the same
per-node state as PID-CAN minus the index diffusion: a CAN overlay,
per-node state caches γ, INSCAN pointer tables, and the §IV-A periodic
state updates routed to duty nodes.  All of that — including the timer
plumbing and the state-update action/round — is
:class:`repro.core.protocol.DutyStateProtocol`, shared with PID-CAN; this
base adds the baselines' membership handling, query lifecycle and the
one duty-query launch (:meth:`CANStateBaseline.submit_query`).
Subclasses add their query strategy on top as ``_on_duty(qid, duty)``
and may hook
:meth:`~repro.core.protocol.DutyStateProtocol._on_state_stored` (KHDN's
K-hop replication).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.can.inscan import inscan_path
from repro.can.routing import RoutingError
from repro.core.context import ProtocolContext
from repro.core.lifecycle import QueryLifecycle, QueryRuntime
from repro.core.protocol import DutyStateProtocol, PIDCANParams
from repro.core.state import StateCache, StateRecord

__all__ = ["CANStateBaseline"]


class CANStateBaseline(DutyStateProtocol):
    """Overlay + duty caches + periodic state updates, no diffusion."""

    def __init__(self, ctx: ProtocolContext, params: PIDCANParams):
        super().__init__(ctx, params, params.resource_dims)
        self.lifecycle = QueryLifecycle(ctx, params.query_timeout)

    def bootstrap(self, node_ids: list[int]) -> None:
        self.overlay.bootstrap(node_ids)
        for node_id in node_ids:
            self._init_cache(node_id)
        # Tables are built after the full overlay exists (uncharged, like
        # PID-CAN's bootstrap).
        self._build_tables(node_ids, charge=False)
        self._arm_all(node_ids)

    def on_join(self, node_id: int) -> None:
        self.overlay.join(node_id)
        self._init_cache(node_id)
        self._build_tables([node_id], charge=True)
        self._arm_all([node_id])

    def on_leave(self, node_id: int) -> None:
        if node_id in self.overlay:
            self.overlay.leave(node_id)
        self.caches.pop(node_id, None)
        self.tables.pop(node_id, None)
        self._disarm(node_id)

    def _init_cache(self, node_id: int) -> None:
        self.caches[node_id] = StateCache(self.params.state_ttl)

    # ------------------------------------------------------------------
    # query: route to the duty node, then the subclass's strategy
    # ------------------------------------------------------------------
    def submit_query(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> None:
        """Route ``demand``'s normalized point from ``requester`` to its
        duty node and hand the query to the subclass's ``_on_duty(qid,
        duty)`` there.  A dead requester, or a route lost to an overlay
        under repair, resolves the query at once, empty."""
        rt = self.lifecycle.begin(demand, requester, callback)
        if not self.ctx.is_alive(requester):
            self.lifecycle.finalize(rt)
            return
        try:
            path = inscan_path(
                self.overlay, self.tables, requester,
                self.ctx.normalize(rt.demand), memo=False,
            )
        except (RoutingError, KeyError):
            self.lifecycle.finalize(rt)
            return
        rt.messages += len(path) - 1
        self.ctx.send_path("duty-query", path, self._on_duty, rt.qid, path[-1])

    def _collect(self, rt: QueryRuntime, node: int) -> None:
        """Add ``node``'s qualified records to ``rt.found``, up to δ in
        all (:meth:`~repro.core.lifecycle.QueryRuntime.collect`)."""
        rt.collect(self.caches.get(node), self.ctx.sim.now, self.params.delta)
