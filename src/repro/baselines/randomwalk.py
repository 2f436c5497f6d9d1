"""Random-walk query routing after duty-node location — the §III-A strawman.

"A straightforward solution is using a random-walk query routing method
after locating the boundary-corner node.  However, in the situation with
scarce available resources, random-walk query routing may hardly find
qualified resources, significantly degrading resource matching rate."

State updates route to duty nodes exactly as in PID-CAN, but there is *no*
index diffusion: the query walks randomly through positive-direction
neighbors hoping to stumble on caches holding qualified records.  Kept as
an ablation showing what the proactive index diffusion buys.

Query state (found records, message count, the failsafe timeout that
resolves walks lost to churn) lives in the shared
:class:`~repro.core.lifecycle.QueryLifecycle`; the walk messages carry
only the query id.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.baselines.can_base import CANStateBaseline
from repro.can.inscan import inscan_path
from repro.can.routing import RoutingError
from repro.core.context import ProtocolContext
from repro.core.protocol import PIDCANParams
from repro.core.state import StateRecord

__all__ = ["RandomWalkProtocol"]


class RandomWalkProtocol(CANStateBaseline):
    """Duty-node location + positive-direction random walk."""

    name = "randomwalk-can"

    def __init__(
        self,
        ctx: ProtocolContext,
        params: PIDCANParams,
        walk_hops: int = 12,
    ):
        super().__init__(ctx, params)
        self.walk_hops = walk_hops

    # ------------------------------------------------------------------
    def submit_query(
        self,
        demand: np.ndarray,
        requester: int,
        callback: Callable[[list[StateRecord], int], None],
    ) -> None:
        rt = self.lifecycle.begin(demand, requester, callback)
        try:
            path = inscan_path(
                self.overlay, self.tables, requester, self.ctx.normalize(rt.demand),
                memo=False,
            )
        except (RoutingError, KeyError):
            self.lifecycle.finalize(rt)
            return
        rt.messages += len(path) - 1
        self.ctx.send_path(
            "duty-query", path, self._on_step, rt.qid, path[-1], self.walk_hops
        )

    def _on_step(self, qid: int, me: int, hops_left: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        cache = self.caches.get(me)
        if cache is not None and len(cache):
            # ``rt.found`` holds one record per owner (each cache is
            # owner-keyed and every scan excludes the owners already found).
            need = self.params.delta - len(rt.found)
            if need > 0:
                rt.found.extend(
                    cache.qualified(
                        rt.demand, self.ctx.sim.now, limit=need,
                        exclude={r.owner for r in rt.found},
                    )
                )
        if hops_left <= 0 or len(rt.found) >= self.params.delta:
            self.lifecycle.finalize(rt)
            return
        candidates: list[int] = []
        if me in self.overlay:
            for dim in range(self.overlay.dims):
                candidates.extend(self.overlay.directional_neighbors(me, dim, +1))
        nxt = self.ctx.choice(candidates)
        if nxt is None:
            self.lifecycle.finalize(rt)
            return
        rt.messages += 1
        self.ctx.send(
            "walk-query", me, nxt, self._on_step, qid, nxt, hops_left - 1
        )
