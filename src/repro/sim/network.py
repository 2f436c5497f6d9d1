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
        # Dense mirrors of the dicts, indexed by node id / LAN id, so
        # batched delay computation gathers with array indexing instead
        # of per-hop dict lookups.  ``-1`` marks an absent node; absent
        # WAN cells hold the ``wan_bw_mbps_lo`` fallback the scalar path
        # uses for churned-out endpoints.
        self._lan_arr = np.full(0, -1, dtype=np.int64)
        self._wan_arr = np.zeros(0, dtype=np.float64)
        self._lanbw_arr = np.zeros(0, dtype=np.float64)

    def _ensure_capacity(self, node_id: int) -> None:
        n = self._lan_arr.shape[0]
        if node_id < n:
            return
        new = max(node_id + 1, 2 * n, 64)
        lan_arr = np.full(new, -1, dtype=np.int64)
        lan_arr[:n] = self._lan_arr
        self._lan_arr = lan_arr
        wan_arr = np.full(new, self.params.wan_bw_mbps_lo, dtype=np.float64)
        wan_arr[:n] = self._wan_arr
        self._wan_arr = wan_arr

    def _ensure_lan_capacity(self, lan: int) -> None:
        n = self._lanbw_arr.shape[0]
        if lan < n:
            return
        new = max(lan + 1, 2 * n, 16)
        arr = np.ones(new, dtype=np.float64)
        arr[:n] = self._lanbw_arr
        self._lanbw_arr = arr

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
        self._ensure_capacity(max(added))
        lan_arr, wan_arr = self._lan_arr, self._wan_arr
        for node_id, lan in zip(added, lans):
            if lan not in lan_bw:
                lan_bw[lan] = bw = next(values)
                self._ensure_lan_capacity(lan)
                self._lanbw_arr[lan] = bw
            wan_bw[node_id] = wan = next(values)
            if node_id >= 0:
                lan_arr[node_id] = lan
                wan_arr[node_id] = wan

    def remove_node(self, node_id: int) -> None:
        lan = self._lan_of.pop(node_id, None)
        if lan is not None:
            self._set_lan_count(lan, self._lan_members[lan] - 1)
        self._wan_bw.pop(node_id, None)
        if 0 <= node_id < self._lan_arr.shape[0]:
            self._lan_arr[node_id] = -1
            self._wan_arr[node_id] = self.params.wan_bw_mbps_lo

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
        """Total per-path delays for a batch of paths in one vectorized
        pass — value-identical to calling :meth:`path_delay` per path.

        All hops are concatenated, each hop's delay computed with the
        exact elementwise expressions of :meth:`delay`, and each path's
        hops summed left-to-right (matching the scalar accumulation
        order, so not even the float rounding differs).
        """
        hops_src: list[int] = []
        hops_dst: list[int] = []
        counts: list[int] = []
        for path in paths:
            hops_src.extend(path[:-1])
            hops_dst.extend(path[1:])
            counts.append(len(path) - 1)
        if not hops_src:
            return [0.0] * len(paths)
        p = self.params
        n = len(hops_src)
        s = np.asarray(hops_src, dtype=np.int64)
        d = np.asarray(hops_dst, dtype=np.int64)
        if int(min(s.min(), d.min())) < 0:
            # Exotic (negative) ids live only in the dicts — take the
            # scalar path rather than special-casing the dense mirrors.
            return [self.path_delay(list(path), size_bits) for path in paths]
        self._ensure_capacity(int(max(s.max(), d.max())))
        # Gather endpoint attributes from the dense mirrors ...
        lan_s = self._lan_arr[s]
        same_lan = (lan_s >= 0) & (lan_s == self._lan_arr[d])
        if same_lan.any():
            lan_bw = np.where(
                same_lan, self._lanbw_arr[np.where(same_lan, lan_s, 0)], 1.0
            )
        else:
            lan_bw = np.ones(n)
        # ... then one vectorized delay expression per hop.
        lan_val = p.lan_latency_s + size_bits / (lan_bw * 1e6)
        wan_val = p.wan_latency_s + size_bits / (
            np.minimum(self._wan_arr[s], self._wan_arr[d]) * 1e6
        )
        hop = np.where(same_lan, lan_val, wan_val)
        loop = s == d
        if loop.any():
            hop = np.where(loop, 0.0, hop)
        hop_list = hop.tolist()
        out: list[float] = []
        i = 0
        for count in counts:
            total = 0.0
            for j in range(i, i + count):
                total += hop_list[j]
            out.append(total)
            i += count
        return out
