"""The discrete-event simulator core.

Single-threaded binary-heap scheduler with deterministic total event
ordering, O(1) lazy cancellation and periodic timers.  The API mirrors the
handful of Peersim facilities the paper's evaluation relies on: an event
clock, per-protocol periodic cycles, and message delivery callbacks.

Heap entries are ``(time, priority, seq, event)`` tuples: the order is
the tuples' own lexicographic order, compared in C by ``heapq``.  ``seq``
is unique per push, so a comparison never reaches the fourth element and
callbacks or arguments need not be orderable.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Hashable, Optional

from repro.sim.events import Event, PRIORITY_DEFAULT

__all__ = [
    "Simulator",
    "EventHandle",
    "CohortTimer",
    "SimulationError",
    "next_grid_index",
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
    if interval <= 0:
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


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Keeps a reference to the heap entry's :class:`Event` record so the
    caller can cancel it without the engine scanning the heap.
    """

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: "Simulator"):
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Mark the event as cancelled; it is skipped when popped."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if not event.done:
                self._sim._pending -= 1


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

    Each batched fire charges ``len(members)`` event units against
    ``Simulator.run(max_events=...)`` budgets via
    :meth:`Simulator.charge_events` (an empty fire counts as one unit —
    the tick itself); stragglers are ordinary single-unit events.  The
    timer keeps firing while empty until :meth:`cancel` is called.
    """

    __slots__ = (
        "_sim", "interval", "epoch", "_fn", "_priority", "_members",
        "_pending", "_handle", "_cancelled", "_k", "_fire_count",
        "_created_serial",
    )

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        fn: Callable[[tuple], Any],
        epoch: float = 0.0,
        priority: int = PRIORITY_DEFAULT,
    ):
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        self._sim = sim
        self.interval = float(interval)
        self.epoch = float(epoch)
        self._fn = fn
        self._priority = priority
        self._members: dict[Hashable, None] = {}
        self._pending: dict[Hashable, EventHandle] = {}
        self._cancelled = False
        self._k = next_grid_index(self.epoch, self.interval, sim.now)
        self._fire_count = 0
        self._created_serial = sim.event_serial
        self._handle = sim.schedule_at(
            self.next_fire_time, self._tick, priority=priority
        )

    # ------------------------------------------------------------------
    @property
    def next_fire_time(self) -> float:
        """Absolute time of the pending batched fire."""
        return self.epoch + self._k * self.interval

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __len__(self) -> int:
        return len(self._members) + len(self._pending)

    def __contains__(self, member: Hashable) -> bool:
        return member in self._members or member in self._pending

    def members(self) -> tuple:
        """Current batch members in insertion order (pending stragglers
        are excluded until their solo delivery merges them)."""
        return tuple(self._members)

    # ------------------------------------------------------------------
    def add(self, member: Hashable) -> None:
        """Register ``member`` for periodic delivery (O(1))."""
        if self._cancelled:
            raise SimulationError("cohort timer is cancelled")
        if member in self._members or member in self._pending:
            return
        if self._fire_count == 0 and self._created_serial == self._sim.event_serial:
            # Same event (or same pre-run setup phase) as the timer's
            # creation: the member is a founder and rides the first batch.
            self._members[member] = None
            return
        self._pending[member] = self._sim.schedule_at(
            self.next_fire_time, self._straggle, member, priority=self._priority
        )

    def discard(self, member: Hashable) -> None:
        """Remove ``member`` if present (O(1); no heap traffic)."""
        self._members.pop(member, None)
        handle = self._pending.pop(member, None)
        if handle is not None:
            handle.cancel()

    def cancel(self) -> None:
        """Stop the timer permanently (pending stragglers included)."""
        self._cancelled = True
        self._handle.cancel()
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()

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
        if self._cancelled:
            return
        self._k += 1
        self._handle = self._sim.schedule_at(
            self.next_fire_time, self._tick, priority=self._priority
        )


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

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: ``(time, priority, seq, event)`` entries; see the module docstring.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._pending = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self._extra_units = 0
        self._event_serial = 0

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

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): a live-event counter maintained on push, pop and cancel —
        monitoring code polls this at paper scale, where scanning the whole
        heap per poll would be quadratic.
        """
        return self._pending

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        when: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} < now {self._now}"
            )
        event = Event(when, fn, args)
        heapq.heappush(self._heap, (when, priority, self._seq, event))
        self._seq += 1
        self._pending += 1
        return EventHandle(event, self)

    def periodic(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first_at: Optional[float] = None,
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Run ``fn(*args)`` every ``interval`` seconds, starting at
        ``first_at`` (defaults to ``now + interval``).

        The returned handle is rebound internally on every re-arm, so
        cancelling it stops the periodic task permanently — including when
        ``cancel()`` is called from inside ``fn`` itself (the cancellation
        is checked before the timer re-arms).
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        start = self._now + interval if first_at is None else first_at

        # A small indirection: the handle's underlying event is swapped on
        # every re-arm so handle.cancel() always hits the live entry.
        handle_box: list[EventHandle] = []

        def tick() -> None:
            fn(*args)
            # ``fn`` may have cancelled the handle (whose event is the one
            # firing right now); re-arming would silently resurrect the
            # timer by rebinding the handle to a fresh, uncancelled event.
            if handle_box and handle_box[0]._event.cancelled:
                return
            nxt = self.schedule(interval, tick, priority=priority)
            if handle_box:
                handle_box[0]._event = nxt._event

        first = self.schedule_at(start, tick, priority=priority)
        handle_box.append(first)
        return first

    def periodic_cohort(
        self,
        interval: float,
        fn: Callable[[tuple], Any],
        epoch: float = 0.0,
        priority: int = PRIORITY_DEFAULT,
    ) -> CohortTimer:
        """One shared periodic timer for a whole cohort of members.

        Fires ``fn(members_tuple)`` at every grid instant ``epoch + k *
        interval`` (the first being the smallest such instant ``>= now``),
        keeping exactly one heap entry regardless of cohort size.  See
        :class:`CohortTimer` for the membership API, the straggler rule
        for late joiners, and the ordering/accounting contract
        (``docs/coalescing.md``).
        """
        return CohortTimer(self, interval, fn, epoch=epoch, priority=priority)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def charge_events(self, extra: int) -> None:
        """Count ``extra`` additional event units for the event currently
        executing.

        A coalesced cohort tick performs the work of many per-member
        events in one callback; charging its member count keeps
        ``events_processed`` and ``run(max_events=...)`` budgets
        comparable across cohort sizes instead of silently deflating by the
        batch size.  Outside of event execution the charge is a no-op
        (the unit bookkeeping resets when the next event starts).
        """
        if extra < 0:
            raise SimulationError(f"negative event charge {extra!r}")
        self._extra_units += extra

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue is empty, ``until`` is reached, or
        at least ``max_events`` event units have been processed.

        Event units are 1 per event plus whatever the event charged via
        :meth:`charge_events` (a coalesced cohort tick charges its member
        count), so budgets keep their meaning at any cohort size.  The
        budget check runs after each event: a batched tick may overshoot
        the bound by its batch size, never split mid-batch.

        When ``until`` is given the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so periodic metric
        samplers observe a consistent end-of-run timestamp.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        processed_here = 0
        try:
            heap = self._heap
            while heap and not self._stopped:
                when, _, _, event = heap[0]
                if until is not None and when > until:
                    break
                heapq.heappop(heap)
                if event.cancelled:
                    continue
                event.done = True
                self._pending -= 1
                self._now = when
                self._event_serial += 1
                self._extra_units = 0
                event.fn(*event.args)
                units = 1 + self._extra_units
                self._extra_units = 0
                self.events_processed += units
                processed_here += units
                if max_events is not None and processed_here >= max_events:
                    break
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
