"""Shared CAN substrate for the duty-cache baselines.

``randomwalk-can``, ``khdn-can`` and ``inscan-rq`` all keep the same
per-node state as PID-CAN minus the index diffusion: a CAN overlay,
per-node state caches γ, INSCAN pointer tables, and the §IV-A periodic
state updates routed to duty nodes.  All of that — including the timer
plumbing and the state-update action/round — is
:class:`repro.core.protocol.DutyStateProtocol`, shared with PID-CAN; this
base adds the baselines' membership handling and query lifecycle.
Subclasses add their query strategy on top and may hook
:meth:`~repro.core.protocol.DutyStateProtocol._on_state_stored` (KHDN's
K-hop replication).
"""

from __future__ import annotations

from repro.core.context import ProtocolContext
from repro.core.lifecycle import QueryLifecycle
from repro.core.protocol import DutyStateProtocol, PIDCANParams
from repro.core.state import StateCache

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
