"""KHDN-CAN — the K-Hop DHT-Neighbor range-query baseline (§IV-A).

The paper describes it as RT-CAN [22] tailor-made for the SOC setting (and
"converted from INSCAN-RQ"): once a state message reaches its duty node it
is *spread to negative CAN neighbors within K hops*, so queries arriving at
the minimal-demand zone can find qualified records by checking the duty node
and a sample of its K-hop positive neighborhood.

Replication trades state-update traffic for query locality — the exact
opposite trade to PID-CAN's constant-ω index diffusion, which is the
comparison §IV draws.  ``replication_fanout`` bounds the per-hop spread so
total traffic can be tuned close to PID-CAN's (the paper tunes K for
traffic parity).

Query state (found records, message count, the failsafe timeout that
resolves probe chains lost to churn) lives in the shared
:class:`~repro.core.lifecycle.QueryLifecycle`; probe messages carry only
the query id plus the remaining probe list.
"""

from __future__ import annotations

from repro.baselines.can_base import CANStateBaseline
from repro.core.context import ProtocolContext
from repro.core.lifecycle import QueryRuntime
from repro.core.protocol import PIDCANParams
from repro.core.state import StateRecord
from repro.sim.rng import distinct_draw

__all__ = ["KHDNProtocol"]


class KHDNProtocol(CANStateBaseline):
    """K-hop negative replication + positive probing on INSCAN."""

    name = "khdn-can"

    def __init__(
        self,
        ctx: ProtocolContext,
        params: PIDCANParams,
        k_hops: int = 2,
        replication_fanout: int = 2,
        max_probes: int = 12,
    ):
        super().__init__(ctx, params)
        self.k_hops = k_hops
        self.replication_fanout = replication_fanout
        self.max_probes = max_probes

    # ------------------------------------------------------------------
    # K-hop negative replication of delivered state
    # ------------------------------------------------------------------
    def _on_state_stored(self, duty: int, record: StateRecord) -> None:
        # Spread to sampled negative neighbors within K hops; each tree edge
        # is one replication message, charged in bulk.
        replicas = self._sampled_frontier(duty, sign=-1)
        if not replicas:
            return
        self.ctx.charge_local("state-replication", duty, len(replicas))
        for replica in replicas:
            target = self.caches.get(replica)
            if target is not None:
                target.put(record)

    def _sampled_frontier(self, start: int, sign: int) -> list[int]:
        """Sampled BFS through ``sign``-direction adjacent neighbors, up to
        ``k_hops`` deep with per-node fanout ``replication_fanout``.
        ``start`` is a live duty node, and neighbours are overlay members."""
        seen = {start}
        frontier = [start]
        out: list[int] = []
        for _ in range(self.k_hops):
            nxt: list[int] = []
            for node in frontier:
                candidates: list[int] = []
                for dim in range(self.overlay.dims):
                    candidates.extend(
                        self.overlay.directional_neighbors(node, dim, sign)
                    )
                candidates = [c for c in candidates if c not in seen]
                if not candidates:
                    continue
                k = min(self.replication_fanout, len(candidates))
                for i in distinct_draw(self.ctx.rng, len(candidates), k):
                    c = candidates[i]
                    seen.add(c)
                    nxt.append(c)
                    out.append(c)
            frontier = nxt
        return out

    # ------------------------------------------------------------------
    # query: duty node + sampled positive probing
    # ------------------------------------------------------------------
    def _on_duty(self, qid: int, duty: int) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        now = self.ctx.sim.now
        cache = self.caches.get(duty)
        if cache is not None:
            rt.found.extend(
                cache.qualified(rt.demand, now, limit=self.params.delta)
            )
        if len(rt.found) >= self.params.delta:
            self.lifecycle.finalize(rt)
            return
        probes = self._sampled_frontier(duty, sign=+1)[: self.max_probes]
        self._probe_chain(rt, duty, probes)

    def _probe_chain(
        self, rt: QueryRuntime, current: int, probes: list[int]
    ) -> None:
        # one record per owner in ``rt.found`` (owner-keyed caches +
        # exclusion)
        if not probes or len(rt.found) >= self.params.delta:
            self.lifecycle.finalize(rt)
            return
        nxt = probes.pop(0)
        rt.messages += 1
        self.ctx.send(
            "probe-query", current, nxt, self._on_probe, rt.qid, nxt, probes
        )

    def _on_probe(self, qid: int, me: int, probes: list[int]) -> None:
        rt = self.lifecycle.get(qid)
        if rt is None:
            return
        self._collect(rt, me)
        self._probe_chain(rt, me, probes)
