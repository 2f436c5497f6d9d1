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
from repro.sim.engine import Simulator
from repro.sim.network import CONTROL_MSG_BITS, NetworkModel

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
        self.cmax = np.asarray(cmax, dtype=np.float64)
        self.availability_of = availability_of
        self.is_alive = is_alive
        self._availability_matrix_of = availability_matrix_of
        #: Every message delivery goes through this calendar (one heap
        #: event per delivery instant); harnesses that share a calendar
        #: with their own sends pass it in, the default is an exact
        #: (quantum 0) one.
        self.delivery = delivery if delivery is not None else DeliveryCalendar(sim)

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
        self.traffic.charge(kind, src)
        delay = self.network.delay(src, dst, size_bits)
        self.delivery.deliver(delay, self._deliver, dst, handler, args)

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
        if len(path) < 1:
            raise ValueError("empty path")
        for sender in path[:-1]:
            self.traffic.charge(kind, sender)
        delay = self.network.path_delay(list(path), size_bits)
        self.delivery.deliver(delay, self._deliver, path[-1], handler, args)

    def send_path_batch(
        self,
        kind: str,
        paths: Sequence[Sequence[int]],
        handler: Callable[..., None],
        args_list: Sequence[tuple],
        size_bits: float = CONTROL_MSG_BITS,
    ) -> None:
        """:meth:`send_path` for a whole batch of routes in path order —
        identical traffic charges, delays (vectorized but bit-equal, see
        :meth:`NetworkModel.path_delays`) and delivery event ordering to
        the sequential calls.  One delivery event per path."""
        if len(paths) != len(args_list):
            raise ValueError("paths and args_list must align")
        charge = self.traffic.by_node
        total_hops = 0
        for path in paths:
            if len(path) < 1:
                raise ValueError("empty path")
            total_hops += len(path) - 1
            for sender in path[:-1]:
                charge[sender] += 1
        if total_hops:
            # (guarded so an all-single-hop batch does not materialize a
            # zero-count kind the sequential path would never create)
            self.traffic.by_kind[kind] += total_hops
        delays = self.network.path_delays([list(p) for p in paths], size_bits)
        deliver = self.delivery.deliver
        for path, delay, args in zip(paths, delays, args_list):
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
        tick: Callable[[], None],
        *,
        alive: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Arm a self-chaining periodic ``tick`` with a randomized phase
        drawn uniformly from ``[0, period)`` — the shared form of the
        periodic-start boilerplate every baseline used to duplicate.

        The phase draw happens *at call time* on the ctx RNG stream
        (identical stream position to the inlined pattern it replaces).
        The chain dies when ``alive()`` turns false, so it needs no
        cancellation handle.
        """
        def chain() -> None:
            if alive is not None and not alive():
                return
            tick()
            self.sim.schedule(period, chain)

        self.sim.schedule(self.rng.uniform(0, period), chain)

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
        return pool[int(self.rng.integers(len(pool)))]
