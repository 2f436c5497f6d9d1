"""Proactive index diffusion — Algorithms 1 and 2 of the paper (§III-B).

A node whose state cache γ is non-empty periodically diffuses its identifier
*backwards*: an index message ``{ID, dim_NO, dim_TTL}`` travels to randomly
selected negative-index nodes (NINodes — pointer-table entries at distance
2^k, k ≥ 1, in the negative direction).  Receivers append the identifier to
their PIList and relay:

- along the same dimension while the dimension TTL ``q`` lasts, and
- a fresh chain with TTL ``L`` along the next dimension.

Two variants (Fig. 3):

``hid``  *Hopping* Index Diffusion — each relay re-selects the next NINode
         from **its own** pointer table, so distances compound
         (2^a + 2^b + ...) and coverage reaches deep into the negative
         region; Theorem 1 bounds the relay delay by O(log2 n).
``sid``  *Spreading* Index Diffusion — each dimension chain's recipients
         are all chosen by the **chain initiator** from its own table, so
         coverage stays on the initiator's axis tracks (fewer relay hops,
         narrower spread).

Both send exactly ``ω = L + L² + ... + L^d`` messages per trigger when every
hop finds a live NINode (fewer at the space edge).

The tree expansion runs in-process: relays complete within a few network
delays (≪ the diffusion period), so recipients' PILists are updated
immediately while every relay message is charged to its sender.  The
returned :class:`DiffusionResult` records the relay depth for the delay
analysis of Theorem 1.  An HID tree is ~23 messages over pools of 3-5
ids — nothing to vectorise — so it runs as one call-lean loop (explicit
stack, one bulk charge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.can.inscan import IndexPointerTable
from repro.core.context import ProtocolContext
from repro.core.pilist import PIList
from repro.sim.rng import distinct_draw

__all__ = [
    "DiffusionEngine",
    "DiffusionResult",
    "diffusion_message_count",
]


def diffusion_message_count(L: int, d: int) -> int:
    """ω = L·(L^d − 1)/(L − 1) — total index messages per trigger (§III-B).

    The paper's worked example: L=2, d=3 → 14.
    """
    if L < 1 or d < 1:
        raise ValueError("L and d must be >= 1")
    if L == 1:
        return d
    return L * (L**d - 1) // (L - 1)


@dataclass
class DiffusionResult:
    """Outcome of one diffusion trigger."""

    origin: int
    messages: int = 0
    max_depth: int = 0
    recipients: set[int] = field(default_factory=set)


class DiffusionEngine:
    """Executes SID/HID triggers against the live pointer tables/PILists."""

    def __init__(
        self,
        ctx: ProtocolContext,
        tables: dict[int, IndexPointerTable],
        pilists: dict[int, PIList],
        dims: int,
        L: int = 2,
        kind: str = "index-diffusion",
    ):
        if L < 1:
            raise ValueError("L must be >= 1")
        self.ctx = ctx
        self.tables = tables
        self.pilists = pilists
        self.dims = dims
        self.L = L
        self.kind = kind

    # ------------------------------------------------------------------
    def diffuse(self, origin: int, method: str) -> DiffusionResult:
        """Run one Algorithm-1 trigger for ``origin``; returns statistics."""
        result = DiffusionResult(origin)
        if method == "hid":
            self._hid(origin, result)
        elif method == "sid":
            self._sid_chain(origin, origin, 0, result, depth=1)
        else:
            raise ValueError(f"unknown diffusion method {method!r}")
        return result

    def diffuse_round(self, origins: Sequence[int], method: str) -> list[DiffusionResult]:
        """Run one trigger per origin, in order, as one cohort round.

        Deliberately a sequential loop: each trigger is a relay tree
        whose NINode picks depend on the RNG state left by the
        previous chain, so the triggers cannot be fused without changing
        draws.  The round's win is upstream — one heap pop wakes the whole
        cohort instead of one event per origin — while the per-origin
        results stay bit-identical to triggering each origin on its own.
        """
        return [self.diffuse(origin, method) for origin in origins]

    # ------------------------------------------------------------------
    # hot-partition replica diffusion (docs/caching.md)
    # ------------------------------------------------------------------
    def replicate(
        self,
        origin: int,
        caches: dict,
        neighbors: Sequence[int] = (),
        sources: int = 4,
        kind: str = "index-replica",
    ) -> int:
        """One hot-partition replica round for duty node ``origin``.

        Triggered when a duty node's windowed service count crosses the
        replication threshold (docs/caching.md); two legs, both riding
        the pools the index diffusion already maintains:

        1. **Gather** — ``origin`` samples up to ``sources`` index nodes
           from its own PIList (the pool Algorithm 1's backward diffusion
           filled with exactly the record holders its query chains would
           jump to) and each ships its γ partition back as one replica
           batch (request + response, two messages), reconciled via
           :meth:`repro.core.state.StateCache.merge`.  This is what
           collapses the hot node's index-agent/jump chains: the duty
           cache can now satisfy δ locally.
        2. **Push** — ``origin`` forwards its enriched partition to the
           adjacent zones (``neighbors``), which serve the jittered tail
           of the hot range, one replica message each.

        Returns the number of replica messages charged.  Merged records
        keep their original report timestamps, so replication never
        extends a record's lifetime — staleness stays TTL-bounded and
        shows up as best-fit regret, not as immortal state.  Consumes RNG
        from the shared protocol stream; replication only ever runs
        cache-on, so the cache-off stream stays untouched.
        """
        cache = caches.get(origin)
        if cache is None:
            return 0
        now = self.ctx.sim.now
        sent = 0
        pilist = self.pilists.get(origin)
        if pilist is not None:
            for src in pilist.sample(sources, now, self.ctx.rng):
                peer = caches.get(src)
                if peer is None or src == origin:
                    continue
                batch = peer.records(now)
                if not batch:
                    continue
                self.ctx.charge_local(kind, origin)  # the pull request
                self.ctx.charge_local(kind, src)  # the replica batch
                cache.merge(batch)
                sent += 2
        records = cache.records(now)
        if records:
            for target in neighbors:
                peer = caches.get(target)
                if peer is None or target == origin:
                    continue
                self.ctx.charge_local(kind, origin)
                peer.merge(records)
                sent += 1
        return sent

    # ------------------------------------------------------------------
    # HID: Algorithms 1-2 — every relay re-selects from its own table
    # ------------------------------------------------------------------
    def _hid(self, origin: int, result: DiffusionResult) -> None:
        """The relay tree of one trigger as a depth-first loop over a stack
        of pending sends ``(sender, first dim, TTL, depth)``.

        A sender picks one random live NINode along the first dimension at
        or after ``first dim`` that has one: at the negative edge of a
        dimension there is none (the space is not a torus), and moving on
        keeps low-corner origins — where availability records concentrate
        — diffusing.  The receiver stores the index, relays along the same
        dimension while the TTL lasts and opens the next one with a fresh
        TTL; the opening is pushed first, so its NINode is drawn after the
        whole same-dimension subtree, as in the recursion
        (:class:`tests.oracles.ReferenceDiffusionEngine`).  Senders are
        charged as they send, the message kind once per trigger.
        """
        dims, L = self.dims, self.L
        tables, pilists = self.tables, self.pilists
        is_alive = self.ctx.is_alive
        below = self.ctx.below
        now = self.ctx.sim.now
        recipients = result.recipients
        by_node = self.ctx.traffic.by_node
        messages = max_depth = 0
        stack = [(origin, 0, L, 1)]
        while stack:
            node, first_dim, q, depth = stack.pop()
            table = tables.get(node)
            if table is None:
                continue
            links, ends = table.all_links, table.ends
            for dim in range(first_dim, dims):
                pool = [  # the NINodes: the (dim, -1) chain
                    t for t in links[ends[2 * dim + 1] : ends[2 * dim + 2]]
                    if t != origin and t != node and is_alive(t)
                ]
                if pool:
                    break
            else:
                continue
            target = pool[0] if len(pool) == 1 else pool[below(len(pool))]
            by_node[node] += 1
            messages += 1
            pilist = pilists.get(target)
            if pilist is not None:
                pilist.add(origin, now)
            recipients.add(target)
            if depth > max_depth:
                max_depth = depth
            if dim + 1 < dims:
                stack.append((target, dim + 1, L, depth + 1))
            if q > 1:
                stack.append((target, dim, q - 1, depth + 1))
        if messages:  # (a trigger that found no NINode creates no kind)
            self.ctx.traffic.by_kind[self.kind] += messages
        result.messages = messages
        result.max_depth = max_depth

    # ------------------------------------------------------------------
    # SID: the chain initiator picks every recipient from its own table
    # ------------------------------------------------------------------
    def _sid_chain(
        self,
        initiator: int,
        origin: int,
        dim: int,
        result: DiffusionResult,
        depth: int,
    ) -> None:
        # Like HID, skip over dimensions where the initiator sits at the
        # space edge, otherwise the remaining dimensions are lost.
        targets: list[int] = []
        while dim < self.dims:
            targets = self._pick_ninodes(initiator, dim, self.L, exclude=origin)
            if targets:
                break
            dim += 1
        if not targets:
            return
        self.ctx.charge_local(self.kind, initiator, len(targets))
        result.messages += len(targets)
        result.max_depth = max(result.max_depth, depth)
        for target in targets:
            pilist = self.pilists.get(target)
            if pilist is not None:
                pilist.add(origin, self.ctx.sim.now)
            result.recipients.add(target)
            if dim + 1 < self.dims:
                self._sid_chain(target, origin, dim + 1, result, depth + 1)

    def _pick_ninodes(self, node: int, dim: int, k: int, exclude: int) -> list[int]:
        """Up to ``k`` distinct random NINodes of ``node`` along ``dim``:
        the table's negative pointer chain (3-5 entries at realistic n)
        filtered for exclusion and liveness in chain order, draw for draw
        RNG-compatible with the scalar reference
        (:class:`tests.oracles.ReferenceDiffusionEngine`) through
        :func:`repro.sim.rng.distinct_draw`, whose picks are those of
        ``choice(n, size=k, replace=False)`` (``tests/sim/test_rng.py``
        pins the stream identity)."""
        table = self.tables.get(node)
        if table is None:
            return []
        is_alive = self.ctx.is_alive
        ends = table.ends
        pool = [
            t for t in table.all_links[ends[2 * dim + 1] : ends[2 * dim + 2]]
            if t != exclude and t != node and is_alive(t)
        ]
        if len(pool) <= k:
            return pool
        return [pool[i] for i in distinct_draw(self.ctx.rng, len(pool), k)]
