"""The discrete-event simulator core.

Single-threaded binary-heap scheduler with deterministic total event
ordering, O(1) lazy cancellation and periodic timers.  The API mirrors the
handful of Peersim facilities the paper's evaluation relies on: an event
clock, per-protocol periodic cycles, and message delivery callbacks.

Two ways to put a callback on the heap:

- :meth:`Simulator.post` / :meth:`Simulator.post_at` are fire-and-forget:
  no record is allocated.  Message flushes, periodic ticks (self-chaining
  ones, :meth:`Simulator.periodic` and cohort timers), workload arrivals
  and churn use them.
- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return the
  entry's :class:`~repro.sim.events.Event`, whose ``cancel()`` drops it —
  for timeouts, the completion calendar and cohort stragglers.

Heap entries are 4-tuples ``(time, seq, fn, args)``.  A posted entry
carries the callback and its argument tuple; a cancellable entry carries
its :class:`~repro.sim.events.Event` in the ``fn`` slot and ``None`` in
the ``args`` slot, and a cancelled one is dropped when it surfaces
without being counted.  The order is the tuples' own lexicographic order,
compared in C by ``heapq``.  ``seq`` comes from one counter shared by
both kinds and is unique per push, so a comparison never reaches the
third element, callbacks or arguments need not be orderable, and the
dispatch order does not depend on which kind an entry is.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Hashable, Optional

from repro.sim.events import Event

__all__ = [
    "Simulator",
    "CohortTimer",
    "SimulationError",
    "next_grid_index",
    "ceil_to_grid",
]


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (e.g. scheduling into the past)."""


def next_grid_index(epoch: float, interval: float, now: float) -> int:
    """Smallest integer ``k >= 0`` with ``epoch + k * interval >= now``.

    Grid instants are always computed multiplicatively (``epoch + k *
    interval``, never by repeated addition), so a timer armed late joins
    the exact float instants of one armed at the epoch — the property the
    cohort timer and its per-member reference scheduler both rely on to stay
    tick-for-tick identical.
    """
    if not interval > 0:  # (also rejects NaN)
        raise SimulationError(f"non-positive interval {interval!r}")
    if now <= epoch:
        return 0
    k = math.ceil((now - epoch) / interval)
    # Guard the float division in both directions.
    while k > 0 and epoch + (k - 1) * interval >= now:
        k -= 1
    while epoch + k * interval < now:
        k += 1
    return k


def ceil_to_grid(x: float, quantum: float) -> float:
    """``x`` rounded up onto the grid ``k * quantum``: the float product
    ``ceil(x / quantum) * quantum`` where it is ``>= x``, one grid point
    on where the division rounded it below ``x`` (``0.9000000000000001``
    at quantum 0.1 names 0.9).  Never earlier than ``x``."""
    k = math.ceil(x / quantum)
    when = k * quantum
    return when if when >= x else (k + 1) * quantum


class CohortTimer:
    """One heap entry shared by a whole cohort of periodic members.

    Created via :meth:`Simulator.periodic_cohort`.  The timer fires at the
    grid instants ``epoch + k * interval`` and delivers the tuple of
    current member ids (insertion order) to a single callback — one heap
    pop per round instead of one per member.  Membership changes are O(1)
    dict operations:

    - :meth:`add` during the creating event (e.g. a protocol bootstrap)
      inserts the member directly: it is part of the very next batch.
    - :meth:`add` from any later event schedules a one-shot *straggler*
      delivery ``fn((member,))`` at the timer's pending fire instant and
      merges the member into the batch afterwards.  This reproduces the
      exact event ordering of a per-member timer armed at the add time
      (the straggler's heap sequence number is allocated at the same
      moment a per-member chain's first event would be), so cohort and
      per-member scheduling stay interleaving-identical even for members
      that join mid-round.
    - :meth:`discard` removes a member (and cancels its pending
      straggler, if any) without touching the heap.

    Each batched fire counts ``len(members)`` event units in
    ``Simulator.events_processed`` via :meth:`Simulator.charge_events`
    (an empty fire counts as one unit — the tick itself); stragglers are
    ordinary single-unit events.  The timer keeps firing while empty, for
    the rest of the run.
    """

    __slots__ = (
        "_sim", "interval", "epoch", "_fn", "_members", "_pending", "_k",
        "_fire_count", "_created_serial",
    )

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        fn: Callable[[tuple], Any],
        epoch: float = 0.0,
    ):
        if not interval > 0:  # (also rejects NaN)
            raise SimulationError(f"non-positive interval {interval!r}")
        self._sim = sim
        self.interval = float(interval)
        self.epoch = float(epoch)
        self._fn = fn
        self._members: dict[Hashable, None] = {}
        self._pending: dict[Hashable, Event] = {}
        self._k = next_grid_index(self.epoch, self.interval, sim.now)
        self._fire_count = 0
        self._created_serial = sim.event_serial
        sim.post_at(self.next_fire_time, self._tick)

    # ------------------------------------------------------------------
    @property
    def next_fire_time(self) -> float:
        """Absolute time of the pending batched fire."""
        return self.epoch + self._k * self.interval

    # ------------------------------------------------------------------
    def add(self, member: Hashable) -> None:
        """Register ``member`` for periodic delivery (O(1))."""
        if member in self._members or member in self._pending:
            return
        if self._fire_count == 0 and self._created_serial == self._sim.event_serial:
            # Same event (or same pre-run setup phase) as the timer's
            # creation: the member is a founder and rides the first batch.
            self._members[member] = None
            return
        self._pending[member] = self._sim.schedule_at(
            self.next_fire_time, self._straggle, member
        )

    def discard(self, member: Hashable) -> None:
        """Remove ``member`` if present (O(1); no heap traffic)."""
        self._members.pop(member, None)
        event = self._pending.pop(member, None)
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    def _straggle(self, member: Hashable) -> None:
        self._pending.pop(member, None)
        # Merge first so a discard() from inside ``fn`` sticks.
        self._members[member] = None
        self._fn((member,))

    def _tick(self) -> None:
        self._fire_count += 1
        batch = tuple(self._members)
        if len(batch) > 1:
            self._sim.charge_events(len(batch) - 1)
        self._fn(batch)
        self._k += 1
        self._sim.post_at(self.next_fire_time, self._tick)


class Simulator:
    """Deterministic discrete-event loop.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(5.0, out.append, "a")
    >>> _ = sim.schedule(1.0, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    """

    def __init__(self):
        self._now = 0.0
        #: ``(time, seq, fn, args)`` entries; see the module docstring.
        self._heap: list[tuple[float, int, Any, Optional[tuple]]] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0
        self._extra_units = 0
        self._event_serial = 0
        #: :meth:`periodic`'s re-arm callback, bound once so every chain's
        #: heap entries share it.
        self._repeat = self._repeat_tick

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_serial(self) -> int:
        """Serial number of the currently-executing event (0 before the
        first event runs).  Unlike ``events_processed`` it is not
        weighted by :meth:`charge_events`, so two distinct events never
        share a serial — the cohort timer uses it to detect same-event
        founder adds."""
        return self._event_serial

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``when``; the returned
        event's ``cancel()`` drops it."""
        if not when >= self._now:  # (also rejects NaN)
            raise SimulationError(
                f"cannot schedule at {when} < now {self._now}"
            )
        event = Event(fn, args)
        heapq.heappush(self._heap, (when, self._seq, event, None))
        self._seq += 1
        return event

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now, with no record:
        the entry cannot be cancelled.

        Orders exactly like :meth:`schedule` — the same ``now + delay``
        instant and the next number of the one sequence counter."""
        if not delay >= 0.0:
            raise SimulationError(f"negative delay {delay!r}")
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, args))
        self._seq += 1

    def post_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`post` at absolute time ``when``."""
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at {when} < now {self._now}"
            )
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def periodic(self, interval: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` every ``interval`` seconds from ``now +
        interval`` to the end of the run — a post chain, like
        :meth:`~repro.core.context.ProtocolContext.start_periodic`: one
        heap entry whose callback is the simulator's shared re-arm
        method and whose arguments carry ``interval``, ``fn`` and
        ``args``, so a chain allocates no closure."""
        if not interval > 0:  # (also rejects NaN)
            raise SimulationError(f"non-positive interval {interval!r}")
        self.post(interval, self._repeat, interval, fn, args)

    def _repeat_tick(self, interval: float, fn: Callable[..., Any], args: tuple) -> None:
        fn(*args)
        self.post(interval, self._repeat, interval, fn, args)

    def periodic_cohort(
        self, interval: float, fn: Callable[[tuple], Any], epoch: float = 0.0
    ) -> CohortTimer:
        """One shared periodic timer for a whole cohort of members.

        Fires ``fn(members_tuple)`` at every grid instant ``epoch + k *
        interval`` (the first being the smallest such instant ``>= now``),
        keeping exactly one heap entry regardless of cohort size.  See
        :class:`CohortTimer` for the membership API, the straggler rule
        for late joiners, and the ordering/accounting contract
        (``docs/coalescing.md``).
        """
        return CohortTimer(self, interval, fn, epoch=epoch)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def charge_events(self, extra: int) -> None:
        """Count ``extra`` additional event units for the event currently
        executing.

        A coalesced cohort tick performs the work of many per-member
        events in one callback; charging its member count keeps
        ``events_processed`` comparable across cohort sizes instead of
        silently deflating by the batch size.  Outside of event execution
        the charge is a no-op (the unit bookkeeping resets when the next
        event starts).
        """
        if extra < 0:
            raise SimulationError(f"negative event charge {extra!r}")
        self._extra_units += extra

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue is empty or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so periodic metric
        samplers observe a consistent end-of-run timestamp.  ``until``
        may equal ``now``; a NaN or an earlier one is refused (the heap
        check ``time > nan`` never holds, so a NaN horizon would never
        stop a run whose sampler keeps the heap non-empty).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and not until >= self._now:
            raise SimulationError(f"cannot run until {until} < now {self._now}")
        self._running = True
        try:
            heap = self._heap
            pop = heapq.heappop
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                when, _, fn, args = pop(heap)
                if args is None:  # a cancellable entry: ``fn`` is its Event
                    if fn.cancelled:
                        continue
                    args = fn.args
                    fn = fn.fn
                self._now = when
                self._event_serial += 1
                self._extra_units = 0
                fn(*args)
                self.events_processed += 1 + self._extra_units
                self._extra_units = 0
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
