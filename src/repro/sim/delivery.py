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
first message bound for an instant schedules **one** flush event; later
messages for the same instant append to its batch.  The flush replays
the batch in enqueue order and charges ``len(batch) - 1`` extra event
units (:meth:`~repro.sim.engine.Simulator.charge_events`), so
``events_processed`` and ``run(max_events=...)`` budgets count exactly
what per-message scheduling would have counted.

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
:class:`repro.testing.ReferenceDeliveryCalendar`, and the equivalence
suites (``tests/sim/test_delivery.py``,
``tests/experiments/test_coalescing.py``) pin the identity end to end.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.sim.engine import Simulator

__all__ = ["DeliveryCalendar"]


class DeliveryCalendar:
    """Coalesces same-instant message deliveries into single heap events.

    Drop-in for the ``sim.schedule(delay, fn, *args)`` delivery idiom::

        calendar = DeliveryCalendar(sim, quantum=0.1)
        calendar.deliver(delay, handler, payload)   # relative, like schedule
        calendar.deliver_at(when, handler, payload) # absolute, like schedule_at
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
        self.deliver_at(self.sim.now + delay, fn, *args)

    def deliver_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Deliver ``fn(*args)`` at absolute instant ``when`` (possibly
        rounded up onto the quantum grid)."""
        if self.quantum > 0.0:
            # Round *up*: a delivery may arrive later than its un-quantized
            # instant but never earlier, and never before ``now`` (the
            # un-quantized instant is >= now, and ceil only moves it
            # forward).  Same idiom as the workload's arrival quantum.
            when = math.ceil(when / self.quantum) * self.quantum
        batch = self._batches.get(when)
        if batch is None:
            self._batches[when] = [(fn, args)]
            self.sim.schedule_at(when, self._flush, when)
        else:
            batch.append((fn, args))

    def _flush(self, when: float) -> None:
        # Pop *before* delivering: a delivery that sends again for this
        # same instant must open a fresh batch (and a fresh heap event,
        # scheduled at ``now``) — exactly like per-message scheduling,
        # where such a send lands behind every already-queued event.
        batch = self._batches.pop(when)
        if len(batch) > 1:
            self.sim.charge_events(len(batch) - 1)
        self.flushes += 1
        self.deliveries += len(batch)
        for fn, args in batch:
            fn(*args)
