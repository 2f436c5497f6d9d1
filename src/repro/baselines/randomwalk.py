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

from repro.baselines.can_base import CANStateBaseline
from repro.core.context import ProtocolContext
from repro.core.protocol import PIDCANParams

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
    def _on_duty(self, qid: int, duty: int) -> None:
        self._on_step(qid, duty, self.walk_hops)

    def _on_step(self, qid: int, me: int, hops_left: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        self._collect(rt, me)
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
