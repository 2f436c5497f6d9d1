"""Event records for the discrete-event engine.

Events fire in ``(time, seq)`` order.  The monotonically increasing
sequence number makes ordering total and deterministic even when many
events share a timestamp — crucial for reproducibility of the
simulation, since protocol behaviour (e.g. which of two simultaneous task
placements lands first) must not depend on heap tie-breaking accidents.

The ordering itself lives in the heap entry, not here:
:class:`~repro.sim.engine.Simulator` pushes ``(time, seq, fn, args)``
tuples, so every comparison a push or pop makes is a C-level tuple
comparison that is decided by ``seq`` at the latest and never reaches
the callback.  Only a cancellable entry (``Simulator.schedule``) has an
:class:`Event` record, in the entry's ``fn`` slot: it carries what the
engine needs once the entry surfaces — the callback, its arguments and
the lazy ``cancelled`` flag.  Posted entries (``Simulator.post``) have
none.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Event"]


class Event:
    """A cancellable scheduled callback, returned by
    :meth:`~repro.sim.engine.Simulator.schedule`.

    ``cancelled`` is checked at pop time; cancellation is O(1) and lazy
    (the entry stays in the heap until its timestamp).
    """

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable[..., Any], args: tuple = ()):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it is skipped when popped."""
        self.cancelled = True
