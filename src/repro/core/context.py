"""The services a discovery protocol needs from the simulation harness.

Bundles the simulator, the physical network model, traffic accounting and
host-state lookups behind one object so protocol implementations read like
the paper's pseudo-code: ``ctx.send(...)`` is "send a message", with the
delay model, per-hop charging and dead-destination drops handled here.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.metrics.traffic import TrafficMeter
from repro.sim.delivery import DeliveryCalendar
from repro.sim.engine import SimulationError, Simulator
from repro.sim.network import CONTROL_MSG_BITS, NetworkModel
from repro.sim.rng import index_draw

__all__ = ["ProtocolContext"]


class ProtocolContext:
    """Runtime services shared by every protocol instance.

    Parameters
    ----------
    availability_of:
        ``node_id -> availability vector a_i`` evaluated *now* (§II); the
        runner wires this to the PSM host engine.
    is_alive:
        membership test honoring churn.
    """

    def __init__(
        self,
        sim: Simulator,
        network: NetworkModel,
        traffic: TrafficMeter,
        rng: np.random.Generator,
        cmax: np.ndarray,
        availability_of: Callable[[int], np.ndarray],
        is_alive: Callable[[int], bool],
        availability_matrix_of: Optional[
            Callable[[Sequence[int]], np.ndarray]
        ] = None,
        delivery: Optional[DeliveryCalendar] = None,
    ):
        self.sim = sim
        self.network = network
        self.traffic = traffic
        self.rng = rng
        #: ``below(n) == int(rng.integers(n))``, draw for draw, on the
        #: same stream (:func:`repro.sim.rng.index_draw`).
        self.below = index_draw(rng)
        self.cmax = np.asarray(cmax, dtype=np.float64)
        self.availability_of = availability_of
        self.is_alive = is_alive
        self._availability_matrix_of = availability_matrix_of
        #: Every message delivery goes through this calendar (one heap
        #: event per delivery instant); harnesses that share a calendar
        #: with their own sends pass it in, the default is an exact
        #: (quantum 0) one.
        self.delivery = delivery if delivery is not None else DeliveryCalendar(sim)
        #: :meth:`start_periodic_many`'s re-arm callback, bound once so every
        #: node's chain entries share it.
        self._chain = self._chain_tick

    def availability_matrix(self, node_ids: Sequence[int]) -> np.ndarray:
        """``(k, d)`` availability rows for many nodes in one gather —
        row ``i`` is bitwise-equal to ``availability_of(node_ids[i])``.
        Harnesses may wire a natively-vectorized gather (the runner uses
        :meth:`repro.cloud.engine.HostEngine.availability_matrix`); the
        default stacks the scalar lookups."""
        if len(node_ids) == 0:
            return np.zeros((0, len(self.cmax)))
        if self._availability_matrix_of is not None:
            return np.asarray(self._availability_matrix_of(node_ids), dtype=np.float64)
        return np.stack([self.availability_of(i) for i in node_ids])

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(
        self,
        kind: str,
        src: int,
        dst: int,
        handler: Callable[..., None],
        *args,
        size_bits: float = CONTROL_MSG_BITS,
    ) -> None:
        """Deliver ``handler(*args)`` at ``dst`` after the transfer delay.

        One message is charged to ``src``.  If the destination has churned
        out by delivery time the message is silently dropped (the paper's
        crash model; requesters recover via query timeouts).
        """
        traffic = self.traffic
        traffic.by_kind[kind] += 1
        traffic.by_node[src] += 1
        self.delivery.deliver(
            self.network.delay(src, dst, size_bits), self._deliver, dst, handler, args
        )

    def send_path(
        self,
        kind: str,
        path: Sequence[int],
        handler: Callable[..., None],
        *args,
        size_bits: float = CONTROL_MSG_BITS,
    ) -> None:
        """Deliver at ``path[-1]`` after the summed per-hop delay, charging
        one message to every forwarding node on the path.

        This is the in-process multi-hop shortcut: identical traffic and
        latency accounting to per-hop events, at one event per route.
        """
        hops = len(path) - 1
        if hops < 0:
            raise ValueError("empty path")
        if hops:  # (a zero-hop path creates no kind entry)
            traffic = self.traffic
            traffic.by_kind[kind] += hops
            by_node = traffic.by_node
            for sender in path[:-1]:
                by_node[sender] += 1
        self.delivery.deliver(
            self.network.path_delay(path, size_bits), self._deliver, path[-1],
            handler, args,
        )

    def send_path_batch(
        self,
        kind: str,
        paths: Sequence[Sequence[int]],
        handler: Callable[..., None],
        args_list: Sequence[tuple],
        size_bits: float = CONTROL_MSG_BITS,
    ) -> None:
        """:meth:`send_path` for each route of a batch, in path order:
        identical traffic charges, delays and delivery events, with the
        delays priced by one :meth:`NetworkModel.path_delays` call."""
        if len(paths) != len(args_list):
            raise ValueError("paths and args_list must align")
        by_kind, by_node = self.traffic.by_kind, self.traffic.by_node
        deliver = self.delivery.deliver
        delays = self.network.path_delays(paths, size_bits)
        for path, delay, args in zip(paths, delays, args_list):
            hops = len(path) - 1
            if hops < 0:
                raise ValueError("empty path")
            if hops:  # (a zero-hop path creates no kind entry)
                by_kind[kind] += hops
                for sender in path[:-1]:
                    by_node[sender] += 1
            deliver(delay, self._deliver, path[-1], handler, args)

    def deliver_after(
        self, delay: float, dst: int, handler: Callable[..., None], *args
    ) -> None:
        """Deliver ``handler(*args)`` at ``dst`` after ``delay`` with the
        shared dead-destination drop semantics, but without charging any
        send-side traffic — for protocols that account hop charges
        themselves (e.g. Mercury's hub forwarding) yet must not bypass
        delivery accounting or coalescing."""
        self.delivery.deliver(delay, self._deliver, dst, handler, args)

    def charge_local(self, kind: str, node_id: int, n: int = 1) -> None:
        """Charge messages without scheduling delivery (in-process bursts
        such as the diffusion tree expansion or a query flood)."""
        self.traffic.charge(kind, node_id, n)

    def _deliver(self, dst: int, handler: Callable[..., None], args: tuple) -> None:
        if not self.is_alive(dst):
            self.traffic.charge("dropped", dst)
            return
        handler(*args)

    # ------------------------------------------------------------------
    # periodic activities
    # ------------------------------------------------------------------
    def start_periodic(
        self,
        period: float,
        tick: Callable[[int], None],
        node_id: int,
        alive: Callable[[int], bool],
    ) -> None:
        """Arm one self-chaining periodic ``tick(node_id)``:
        :meth:`start_periodic_many` for one node and one activity."""
        self.start_periodic_many([node_id], [(period, tick)], alive)

    def start_periodic_many(
        self,
        node_ids: Sequence[int],
        ticks: Sequence[tuple[float, Callable[[int], None]]],
        alive: Callable[[int], bool],
    ) -> None:
        """Arm a self-chaining periodic ``tick(node_id)`` for every node
        and every ``(period, tick)`` of ``ticks``, node by node, each with
        a randomized phase drawn uniformly from ``[0, period)`` — the
        shared form of the periodic-start boilerplate every protocol used
        to duplicate.

        The phase draws happen *at call time* on the ctx RNG stream, in
        that order and one call: ``uniform(0, period)`` computes ``0 +
        period · u`` from the stream's next double ``u``, which is the
        rounded product ``period · u`` this method takes of ``random``'s
        doubles, bit for bit.  The chains are posted in the same order.
        A chain is one heap entry at a time whose callback is this
        context's shared re-arm method and whose arguments carry
        ``period``, ``tick``, ``node_id`` and ``alive`` — no closure per
        node.  It dies when ``alive(node_id)`` turns false, so it needs
        no cancellation handle.
        """
        periods = [period for period, _ in ticks]
        for period in periods:
            if not period > 0:  # (also rejects NaN)
                raise SimulationError(f"non-positive period {period!r}")
        draws = self.rng.random(len(node_ids) * len(periods))
        phases = iter((np.tile(periods, len(node_ids)) * draws).tolist())
        post, chain = self.sim.post, self._chain
        for node_id in node_ids:
            for period, tick in ticks:
                post(next(phases), chain, period, tick, node_id, alive)

    def _chain_tick(
        self,
        period: float,
        tick: Callable[[int], None],
        node_id: int,
        alive: Callable[[int], bool],
    ) -> None:
        if not alive(node_id):
            return
        tick(node_id)
        self.sim.post(period, self._chain, period, tick, node_id, alive)

    # ------------------------------------------------------------------
    # coordinate mapping
    # ------------------------------------------------------------------
    def normalize(self, vector: np.ndarray) -> np.ndarray:
        """Map a resource vector into the CAN key space ``[0,1]^d``
        (``np.clip``'s values, NaN included, without its wrapper)."""
        key = np.asarray(vector, dtype=np.float64) / self.cmax
        np.maximum(key, 0.0, out=key)
        return np.minimum(key, 1.0, out=key)

    # ------------------------------------------------------------------
    def choice(self, items: Sequence, exclude: Optional[set] = None):
        """Uniform random pick (deterministic under the ctx stream), or
        ``None`` when nothing is eligible."""
        pool = [x for x in items if not exclude or x not in exclude]
        if not pool:
            return None
        return pool[self.below(len(pool))]
