"""Delivery-event coalescing: one heap entry per delivery instant.

Every message of a run — protocol traffic and task placements — reaches
its handler through one :class:`DeliveryCalendar`.  Scheduled one by
one, each state update, walk hop and placement message would cost a heap
push, a heap pop and a Python callback, and at 10⁵ nodes those per-
*message* heap events are the next bottleneck after cohort ticking (see
``docs/coalescing.md``) — even though whole cohorts send at the same
instant and their messages land at instants that collide once delays are
quantized.

:class:`DeliveryCalendar` batches same-instant deliveries the way
:class:`~repro.sim.engine.CohortTimer` batches same-instant cycles: the
first message bound for an instant posts **one** flush event
(:meth:`~repro.sim.engine.Simulator.post_at`: no handle, the calendar
never cancels one); later messages for the same instant append to its
batch.  The flush replays the batch in enqueue order and charges
``len(batch) - 1`` extra event units
(:meth:`~repro.sim.engine.Simulator.charge_events`), so
``events_processed`` counts exactly what per-message scheduling would
have counted.  Un-quantized, almost
every batch holds one message, so the flush takes that case first.

Ordering contract: within a batch, deliveries run in enqueue order —
which is exactly the order per-message scheduling would have used,
because the event heap breaks time ties by scheduling sequence.  With
``quantum == 0`` instants coalesce only when delay sums collide at the
float level (rare but possible — e.g. LAN-local hops with equal
bandwidth draws), and the whole transform is *bit-identical* to
per-message scheduling.  A ``quantum > 0`` rounds each delivery instant
**up** onto the quantum grid (never into the past), trading bounded
added latency for real batches; results remain deterministic but are no
longer identical to the un-quantized run — the same contract stance as
``arrival_quantum``.

The per-message discipline lives on only as the oracle
:class:`tests.oracles.ReferenceDeliveryCalendar`, and the equivalence
suites (``tests/sim/test_delivery.py``,
``tests/experiments/test_coalescing.py``) pin the identity end to end.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator, ceil_to_grid

__all__ = ["DeliveryCalendar"]


class DeliveryCalendar:
    """Coalesces same-instant message deliveries into single heap events.

    Drop-in for the ``sim.post(delay, fn, *args)`` delivery idiom::

        calendar = DeliveryCalendar(sim, quantum=0.1)
        calendar.deliver(delay, handler, payload)   # relative, like post
        calendar.deliver_at(when, handler, payload) # absolute, like post_at

    Like a posted event, a delivery has no handle and cannot be cancelled.
    """

    __slots__ = ("sim", "quantum", "_batches", "deliveries", "flushes")

    def __init__(self, sim: Simulator, quantum: float = 0.0):
        if quantum < 0:
            raise ValueError(f"quantum must be >= 0, got {quantum!r}")
        self.sim = sim
        self.quantum = float(quantum)
        #: Absolute delivery instant -> [(fn, args), ...] in enqueue order.
        self._batches: dict[float, list[tuple[Callable, tuple[Any, ...]]]] = {}
        #: Messages delivered (one per enqueued message).
        self.deliveries = 0
        #: Heap events spent delivering them (one per distinct instant).
        self.flushes = 0

    def deliver(self, delay: float, fn: Callable, *args: Any) -> None:
        """Deliver ``fn(*args)`` after ``delay`` simulated seconds."""
        # (deliver_at written out: this is the per-message path)
        when = self.sim.now + delay
        if self.quantum > 0.0:
            when = ceil_to_grid(when, self.quantum)
        batch = self._batches.get(when)
        if batch is None:
            self.sim.post_at(when, self._flush, when)
            self._batches[when] = [(fn, args)]
        else:
            batch.append((fn, args))

    def deliver_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Deliver ``fn(*args)`` at absolute instant ``when`` (possibly
        rounded up onto the quantum grid)."""
        if self.quantum > 0.0:
            # Round *up*: a delivery may arrive later than its un-quantized
            # instant but never earlier, and never before ``now`` (the
            # un-quantized instant is >= now).  Same rounding as the
            # workload's arrival quantum.
            when = ceil_to_grid(when, self.quantum)
        batch = self._batches.get(when)
        if batch is None:
            # Post first: an instant it rejects (past, NaN) opens no batch.
            self.sim.post_at(when, self._flush, when)
            self._batches[when] = [(fn, args)]
        else:
            batch.append((fn, args))

    def _flush(self, when: float) -> None:
        # Pop *before* delivering: a delivery that sends again for this
        # same instant must open a fresh batch (and a fresh heap event,
        # scheduled at ``now``) — exactly like per-message scheduling,
        # where such a send lands behind every already-queued event.
        batch = self._batches.pop(when)
        self.flushes += 1
        if len(batch) == 1:
            self.deliveries += 1
            fn, args = batch[0]
            fn(*args)
            return
        self.sim.charge_events(len(batch) - 1)
        self.deliveries += len(batch)
        for fn, args in batch:
            fn(*args)
