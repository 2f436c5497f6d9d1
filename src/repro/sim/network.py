"""LAN/WAN network model (Table I, rows 7-8 of the paper).

Nodes are grouped into LANs; intra-LAN transfers use the LAN bandwidth
(uniform 5-10 Mbps) and a small local latency, while cross-LAN transfers go
over the WAN (uniform 0.2-2 Mbps per node) with ~200 ms latency — the value
the paper cites for one WAN network delay.  A message's delivery delay is
``latency + size / bottleneck_bandwidth``.

The model is deliberately simple: control messages in the protocols are
small (≈1 KB) so latency dominates, matching the paper's assumption that a
hop costs "about 200 milliseconds on the WAN".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["NetworkParams", "NetworkModel", "CONTROL_MSG_BITS", "STATE_MSG_BITS"]

#: Size of a routing / query / index control message (1 KB).
CONTROL_MSG_BITS = 8 * 1024
#: Size of a state-update record message (512 B — one resource vector + id).
STATE_MSG_BITS = 4 * 1024


@dataclass(frozen=True, slots=True)
class NetworkParams:
    """Physical-network constants (defaults follow the paper's Table I)."""

    lan_size: int = 20
    lan_bw_mbps_lo: float = 5.0
    lan_bw_mbps_hi: float = 10.0
    wan_bw_mbps_lo: float = 0.2
    wan_bw_mbps_hi: float = 2.0
    lan_latency_s: float = 0.005
    wan_latency_s: float = 0.2

    def __post_init__(self) -> None:
        if not self.lan_size >= 1:
            raise ValueError(f"lan_size must be >= 1, got {self.lan_size!r}")
        for name in ("lan_latency_s", "wan_latency_s"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # (also rejects NaN)
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for link in ("lan", "wan"):
            lo_name, hi_name = f"{link}_bw_mbps_lo", f"{link}_bw_mbps_hi"
            lo, hi = getattr(self, lo_name), getattr(self, hi_name)
            if not 0.0 < lo < math.inf:
                raise ValueError(f"{lo_name} must be finite and positive, got {lo!r}")
            if not lo <= hi < math.inf:
                raise ValueError(f"{hi_name} must be finite and >= {lo_name}, got {hi!r}")


class NetworkModel:
    """Assigns nodes to LANs and computes point-to-point transfer delays.

    Node ids are arbitrary hashable ints; joining nodes are assigned to the
    least-populated LAN (keeps LAN sizes near ``lan_size`` under churn).
    Table I's facts have one store, dicts keyed by node (LAN, WAN uplink)
    and by LAN (bandwidth), and every delay reads them hop by hop.
    """

    def __init__(self, params: NetworkParams, rng: np.random.Generator):
        self.params = params
        self._rng = rng
        self._lan_of: dict[int, int] = {}
        self._lan_members: dict[int, int] = {}
        #: ``(member count, lan)`` min-heap behind :meth:`_pick_lan`.
        #: Every count change pushes the LAN's new entry, so each LAN's
        #: current entry is always present; an entry whose count no
        #: longer matches ``_lan_members`` is stale and is dropped when
        #: it surfaces, or by the rebuild that bounds the heap.
        self._lan_heap: list[tuple[int, int]] = []
        self._lan_bw: dict[int, float] = {}
        self._wan_bw: dict[int, float] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(self, node_id: int) -> None:
        """Register a node, assigning it a LAN and a WAN uplink bandwidth."""
        self.add_nodes([node_id])

    def add_nodes(self, node_ids: Iterable[int]) -> None:
        """Register nodes in order, as many :meth:`add_node` calls would:
        each joins the least-populated LAN, a LAN's bandwidth is drawn
        when its first member joins, then the member's WAN uplink — all
        of them in one ``uniform`` call, with per-draw bounds where LAN
        and WAN draws mix; either form computes every value exactly as
        the scalar call does."""
        p = self.params
        lan_pair = (p.lan_bw_mbps_lo, p.lan_bw_mbps_hi)
        wan_pair = (p.wan_bw_mbps_lo, p.wan_bw_mbps_hi)
        lan_of, lan_bw, wan_bw = self._lan_of, self._lan_bw, self._wan_bw
        added: list[int] = []
        lans: list[int] = []
        bounds: list[tuple[float, float]] = []
        for node_id in node_ids:
            if node_id in lan_of:
                continue
            lan = self._pick_lan()
            lan_of[node_id] = lan
            count = self._lan_members.get(lan, 0)
            self._set_lan_count(lan, count + 1)
            if count == 0 and lan not in lan_bw:  # (stored below, after the draw)
                bounds.append(lan_pair)
            bounds.append(wan_pair)
            added.append(node_id)
            lans.append(lan)
        if not added:
            return
        if len(bounds) > len(added):
            lo, hi = zip(*bounds)
            draws = self._rng.uniform(lo, hi)
        else:  # (WAN draws only: one pair of bounds, numpy's cheaper form)
            draws = self._rng.uniform(*wan_pair, size=len(added))
        values = iter(draws.tolist())
        for node_id, lan in zip(added, lans):
            if lan not in lan_bw:
                lan_bw[lan] = next(values)
            wan_bw[node_id] = next(values)

    def remove_node(self, node_id: int) -> None:
        lan = self._lan_of.pop(node_id, None)
        if lan is not None:
            self._set_lan_count(lan, self._lan_members[lan] - 1)
        self._wan_bw.pop(node_id, None)

    def _set_lan_count(self, lan: int, count: int) -> None:
        self._lan_members[lan] = count
        heap = self._lan_heap
        if len(heap) > 2 * len(self._lan_members) + 16:
            # Churn leaves one stale entry per count change; stale entries
            # of full LANs never surface, so drop them all at once.
            heap[:] = [(c, lan_id) for lan_id, c in self._lan_members.items()]
            heapq.heapify(heap)
        else:
            heapq.heappush(heap, (count, lan))

    def _pick_lan(self) -> int:
        """The least-populated LAN, lowest id on ties; a new LAN when
        every existing one is full."""
        heap = self._lan_heap
        members = self._lan_members
        if not heap:
            return 0
        while members[heap[0][1]] != heap[0][0]:
            heapq.heappop(heap)
        count, lan = heap[0]
        # Fill partially-empty LANs first; open a new LAN when all are full.
        if count >= self.params.lan_size:
            return len(members)
        return lan

    def lan_of(self, node_id: int) -> int:
        return self._lan_of[node_id]

    def node_bandwidth_mbps(self, node_id: int) -> float:
        """The node's LAN bandwidth — its network-capacity dimension."""
        return self._lan_bw[self._lan_of[node_id]]

    # ------------------------------------------------------------------
    # delays
    # ------------------------------------------------------------------
    def delay(self, src: int, dst: int, size_bits: float = CONTROL_MSG_BITS) -> float:
        """One-way transfer delay in seconds for ``size_bits`` of payload."""
        if src == dst:
            return 0.0
        p = self.params
        # A removed endpoint has no LAN; ``None == None`` must not take the
        # intra-LAN branch (two churned-out nodes would KeyError on the LAN
        # bandwidth lookup) — in-flight traffic falls back to the WAN path.
        lan_src = self._lan_of.get(src)
        if lan_src is not None and lan_src == self._lan_of.get(dst):
            bw = self._lan_bw[lan_src]
            return p.lan_latency_s + size_bits / (bw * 1e6)
        bw = min(self._wan_bw.get(src, p.wan_bw_mbps_lo), self._wan_bw.get(dst, p.wan_bw_mbps_lo))
        return p.wan_latency_s + size_bits / (bw * 1e6)

    def path_delay(self, path: list[int], size_bits: float = CONTROL_MSG_BITS) -> float:
        """Total delay of forwarding a message hop-by-hop along ``path``:
        :meth:`delay` per hop, written out, summed left to right.  Each
        node's LAN and uplink are looked up once, as the receiver of one
        hop and carried over as the sender of the next."""
        p, lan_of, wan_bw = self.params, self._lan_of, self._wan_bw
        wan_lo = p.wan_bw_mbps_lo
        total = 0.0
        if not path:
            return total
        src = path[0]
        lan_src, wan_src = lan_of.get(src), wan_bw.get(src, wan_lo)
        for dst in path[1:]:
            lan_dst, wan_dst = lan_of.get(dst), wan_bw.get(dst, wan_lo)
            if src == dst:
                hop = 0.0
            elif lan_src is not None and lan_src == lan_dst:
                hop = p.lan_latency_s + size_bits / (self._lan_bw[lan_src] * 1e6)
            else:
                hop = p.wan_latency_s + size_bits / (min(wan_src, wan_dst) * 1e6)
            total += hop
            src, lan_src, wan_src = dst, lan_dst, wan_dst
        return total

    def path_delays(
        self, paths: list[list[int]], size_bits: float = CONTROL_MSG_BITS
    ) -> list[float]:
        """:meth:`path_delay` of each path, in order."""
        return [self.path_delay(path, size_bits) for path in paths]
