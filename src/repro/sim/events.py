"""Event records for the discrete-event engine.

Events fire in ``(time, priority, seq)`` order.  The monotonically
increasing sequence number makes ordering total and deterministic even when
many events share a timestamp — crucial for reproducibility of the
simulation, since protocol behaviour (e.g. which of two simultaneous task
placements lands first) must not depend on heap tie-breaking accidents.

The ordering itself lives in the heap entry, not here:
:class:`~repro.sim.engine.Simulator` pushes ``(time, priority, seq,
event)`` tuples, so every comparison a push or pop makes is a C-level
tuple comparison that is decided by ``seq`` at the latest and never
reaches the :class:`Event`.  The record only carries what the engine
needs once the entry surfaces: the callback and the two lazy flags.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Event", "PRIORITY_HIGH", "PRIORITY_DEFAULT", "PRIORITY_LOW"]

#: Runs before same-time default events (e.g. overlay repair before routing).
PRIORITY_HIGH = 0
PRIORITY_DEFAULT = 5
#: Runs after same-time default events (e.g. metric sampling).
PRIORITY_LOW = 9


class Event:
    """A scheduled callback.

    ``cancelled`` is checked at pop time; cancellation is O(1) and lazy
    (the entry stays in the heap until its timestamp).  ``done`` is set
    once the event has been popped for execution — a late ``cancel()`` on
    an already-fired event must not touch the live-event counter.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "done")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple = ()):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.done = False
