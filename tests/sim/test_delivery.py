"""DeliveryCalendar: batching, ordering, accounting, quantum rounding.

The contract under test (``src/repro/sim/delivery.py``): coalescing
same-instant deliveries into one flush event is a pure event-batching
transform — same delivery order, same ``events_processed`` accounting —
and a positive quantum only moves instants *up* onto the grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.delivery import DeliveryCalendar
from repro.sim.engine import Simulator
from tests.oracles import ReferenceDeliveryCalendar


def test_negative_quantum_rejected():
    with pytest.raises(ValueError):
        DeliveryCalendar(Simulator(), quantum=-0.5)


def test_same_instant_batch_runs_in_enqueue_order():
    sim = Simulator()
    cal = DeliveryCalendar(sim)
    out: list[str] = []
    for tag in ("a", "b", "c"):
        cal.deliver(5.0, out.append, tag)
    cal.deliver(7.0, out.append, "late")
    sim.run()
    assert out == ["a", "b", "c", "late"]
    assert cal.deliveries == 4
    assert cal.flushes == 2  # one heap event per distinct instant


def test_charges_match_per_message_accounting():
    """events_processed counts what per-message scheduling would have."""

    # 3 instants: 4 + 1 + 2 deliveries
    load = [
        (5.0, "a"), (5.0, "b"), (5.0, "c"), (5.0, "d"),
        (6.0, "e"),
        (9.0, "f"), (9.0, "g"),
    ]

    ref_sim = Simulator()
    ref_out: list[str] = []
    for delay, tag in load:
        ref_sim.schedule(delay, ref_out.append, tag)
    ref_sim.run()

    sim = Simulator()
    cal = DeliveryCalendar(sim)
    out: list[str] = []
    for delay, tag in load:
        cal.deliver(delay, out.append, tag)
    sim.run()

    assert out == ref_out
    assert sim.events_processed == ref_sim.events_processed == 7
    assert cal.flushes == 3


def test_reentrant_same_instant_send_opens_fresh_batch():
    """A delivery that sends again for the *current* instant must land in
    a fresh batch behind every already-queued event — exactly where
    per-message scheduling would put it."""
    sim = Simulator()
    cal = DeliveryCalendar(sim)
    out: list[str] = []

    def first():
        out.append("first")
        cal.deliver_at(sim.now, out.append, "reentrant")

    cal.deliver(3.0, first)
    cal.deliver(3.0, out.append, "second")
    sim.schedule(3.0, out.append, "plain-event")
    sim.run()
    # The reentrant send runs after the plain event queued before it.
    assert out == ["first", "second", "plain-event", "reentrant"]
    assert cal.flushes == 2


def test_quantum_rounds_up_onto_grid():
    sim = Simulator()
    cal = DeliveryCalendar(sim, quantum=0.5)
    seen: list[float] = []
    cal.deliver(1.01, lambda: seen.append(sim.now))
    cal.deliver(1.26, lambda: seen.append(sim.now))  # same 1.5 slot
    cal.deliver(1.75, lambda: seen.append(sim.now))  # exact grid point stays
    sim.run()
    assert seen == [1.5, 1.5, 2.0]
    assert cal.flushes == 2
    assert cal.deliveries == 3


def test_quantum_never_moves_delivery_before_now():
    sim = Simulator()
    cal = DeliveryCalendar(sim, quantum=10.0)

    def at_now():
        # now == 10.0 sits on the grid; a zero-delay send must not round
        # into the past.
        cal.deliver(0.0, lambda: None)

    cal.deliver(3.0, at_now)
    sim.run()
    assert sim.now == 10.0
    assert cal.deliveries == 2


#: ``ceil(x / 0.1) * 0.1`` of this ``x`` is 0.9: the float division
#: lands on 9.0 exactly, so the plain idiom rounds one ulp *down*.
ULP_ABOVE_GRID = 0.9000000000000001


def test_deliver_at_never_rounds_below_the_instant():
    sim = Simulator()
    cal = DeliveryCalendar(sim, quantum=0.1)
    seen: list[float] = []
    cal.deliver_at(ULP_ABOVE_GRID, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0]


def test_zero_delay_deliver_just_above_a_grid_point():
    sim = Simulator()
    cal = DeliveryCalendar(sim, quantum=0.1)
    seen: list[float] = []
    sim.post_at(ULP_ABOVE_GRID, cal.deliver, 0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0]


def test_randomized_lockstep_matches_per_message_reference():
    """Random workload with engineered instant collisions: the calendar
    and the per-message reference must deliver in the same order at the
    same times with the same event accounting."""
    rng = np.random.default_rng(0xC0FFEE)
    # Draw delays from a small grid so instants genuinely collide.
    delays = (rng.integers(1, 40, size=300) * 0.25).tolist()

    def drive(sim, calendar):
        trace: list[tuple[float, int]] = []

        def receive(tag, hops_left):
            trace.append((sim.now, tag))
            if hops_left > 0:
                # Forward with a deterministic per-tag delay, including
                # zero-delay (same-instant) hops.
                delay = (tag % 3) * 0.25
                calendar.deliver(delay, receive, tag + 1000, hops_left - 1)

        for tag, delay in enumerate(delays):
            calendar.deliver(delay, receive, tag, tag % 2)
        sim.run()
        return trace

    ref_sim = Simulator()
    ref_trace = drive(ref_sim, ReferenceDeliveryCalendar(ref_sim))

    sim = Simulator()
    cal = DeliveryCalendar(sim)
    trace = drive(sim, cal)

    assert trace == ref_trace
    assert sim.events_processed == ref_sim.events_processed
    assert cal.deliveries == len(trace)
    assert cal.flushes < cal.deliveries  # collisions actually coalesced
