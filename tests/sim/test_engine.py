"""Unit tests for the discrete-event engine."""

import heapq

import pytest

from repro.sim.engine import SimulationError, Simulator
from tests.conftest import live_events


def test_events_run_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(5.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(3.0, out.append, "mid")
    sim.run()
    assert out == ["early", "mid", "late"]


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(1.0, out.append, i)
    sim.run()
    assert out == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(10.0, out.append, "b")
    sim.run(until=5.0)
    assert out == ["a"]
    assert sim.now == 5.0  # clock lands exactly on `until`
    sim.run()
    assert out == ["a", "b"]


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_cancellation_skips_event():
    sim = Simulator()
    out = []
    handle = sim.schedule(1.0, out.append, "cancelled")
    sim.schedule(2.0, out.append, "kept")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert out == ["kept"]


def test_pending_counts_live_events_only():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert live_events(sim) == 2
    h1.cancel()
    assert live_events(sim) == 1


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.run(until=10.0)
    sim.run(until=10.0)  # a horizon at ``now`` is legal, an earlier one not
    with pytest.raises(SimulationError):
        sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_at(5.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post(-1.0, lambda: None)


def test_nan_instants_are_rejected():
    """``nan < now`` is False: a NaN instant must not slip past the
    past-check, run between finite events and leave the clock at NaN
    (after which no past-check could fail again).  Nor may a NaN
    horizon: ``time > nan`` never holds, so it would stop no run."""
    from repro.sim.delivery import DeliveryCalendar

    nan = float("nan")
    sim = Simulator()
    calendar = DeliveryCalendar(sim)
    for push in (
        lambda: sim.schedule(nan, lambda: None),
        lambda: sim.schedule_at(nan, lambda: None),
        lambda: sim.post(nan, lambda: None),
        lambda: sim.post_at(nan, lambda: None),
        lambda: calendar.deliver(nan, lambda: None),
        lambda: calendar.deliver_at(nan, lambda: None),
        lambda: sim.run(until=nan),
    ):
        with pytest.raises(SimulationError):
            push()
    assert live_events(sim) == 0 and not sim._heap and not calendar._batches
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0


def test_posted_and_scheduled_entries_share_one_order():
    """``post_at`` and ``schedule_at`` entries at an equal time fire in
    the order they were pushed, and a cancelled event among them is
    skipped without being counted."""
    sim = Simulator()
    out = []
    sim.post_at(1.0, out.append, "p0")
    doomed = sim.schedule_at(1.0, out.append, "s-cancelled")
    sim.schedule_at(1.0, out.append, "s1")
    sim.post(1.0, out.append, "p2")
    sim.schedule(1.0, out.append, "s3")
    sim.post_at(1.0, out.append, "p4")
    sim.schedule_at(0.5, out.append, "early")
    doomed.cancel()
    assert live_events(sim) == 6
    sim.run()
    assert out == ["early", "p0", "s1", "p2", "s3", "p4"]
    assert sim.events_processed == 6 and sim.event_serial == 6
    assert live_events(sim) == 0


def test_events_scheduled_from_callbacks_run():
    sim = Simulator()
    out = []

    def first():
        out.append("first")
        sim.schedule(1.0, out.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert out == ["first", "second"]
    assert sim.now == 2.0


def test_periodic_fires_on_schedule():
    sim = Simulator()
    times = []
    sim.periodic(10.0, lambda: times.append(sim.now))
    sim.run(until=35.0)
    assert times == [10.0, 20.0, 30.0]


def test_periodic_rejects_bad_interval():
    sim = Simulator()
    for interval in (0.0, -1.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.periodic(interval, lambda: None)
        with pytest.raises(SimulationError):
            sim.periodic_cohort(interval, lambda batch: None)
    assert not sim._heap


def test_periodic_chains_share_one_callback():
    """A periodic chain is one heap entry at a time whose callback is the
    simulator's shared re-arm method, the function and its args riding
    in the entry: no closure per chain."""
    sim = Simulator()
    out = []
    sim.periodic(3.0, out.append, "a")
    sim.periodic(5.0, out.append, "b")
    sim.run(until=10.0)
    assert out == ["a", "b", "a", "a", "b"]  # at 3, 5, 6, 9, 10
    assert [(fn, args[0]) for _, _, fn, args in sorted(sim._heap)] == [
        (sim._repeat, 3.0), (sim._repeat, 5.0),
    ]
    assert sim._heap[0][2] is sim._heap[1][2]


def test_stop_halts_run():
    """A run halts where its bound says — ``until`` — and the next
    ``run()`` resumes from the first unprocessed entry."""
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    sim.schedule(3.0, out.append, "c")
    sim.run(until=1.5)
    assert out == ["a"] and sim.now == 1.5
    sim.run()
    assert out == ["a", "b", "c"]


def test_run_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7


# ----------------------------------------------------------------------
# live entries under push / pop / cancel
# ----------------------------------------------------------------------
def test_pending_is_constant_time_counter_not_heap_scan():
    """What is pending is what the heap holds live: after an arbitrary
    push/post/cancel workload, a run dispatches exactly the live entries,
    each counted once, and skips every cancelled one uncounted."""
    sim = Simulator()
    rng = __import__("random").Random(5)
    handles = []
    for step in range(200):
        roll = rng.random()
        if roll < 0.45:
            handles.append(sim.schedule(rng.uniform(0.1, 50.0), lambda: None))
        elif roll < 0.6:
            sim.post(rng.uniform(0.1, 50.0), lambda: None)
        elif handles:
            handles.pop(rng.randrange(len(handles))).cancel()
    live = live_events(sim)
    assert 0 < live < len(sim._heap)
    sim.run()
    assert sim.events_processed == live and not sim._heap


def test_double_cancel_decrements_once():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()
    assert live_events(sim) == 1


def test_cancel_after_fire_is_noop():
    """A handle cancelled after its event already ran (the failsafe
    pattern: on_result cancels the failsafe that invoked it) must not
    corrupt the live-event counter."""
    sim = Simulator()
    box = {}

    def fire():
        box["handle"].cancel()

    box["handle"] = sim.schedule(1.0, fire)
    keeper = sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert live_events(sim) == 1
    keeper.cancel()
    assert live_events(sim) == 0


def test_pending_counts_fired_events_down():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(until=2.5)
    assert live_events(sim) == 2


# ----------------------------------------------------------------------
# cohort timers (docs/coalescing.md)
# ----------------------------------------------------------------------
def test_cohort_delivers_founders_in_insertion_order():
    sim = Simulator()
    out = []
    timer = sim.periodic_cohort(10.0, out.append)
    for member in (3, 1, 2):
        timer.add(member)
    sim.run(until=25.0)
    assert out == [(3, 1, 2), (3, 1, 2), (3, 1, 2)]  # t=0, 10, 20


def test_cohort_epoch_sets_the_grid():
    sim = Simulator()
    times = []
    timer = sim.periodic_cohort(10.0, lambda batch: times.append(sim.now), epoch=4.0)
    timer.add("a")
    sim.run(until=35.0)
    assert times == [4.0, 14.0, 24.0, 34.0]


def test_cohort_first_fire_is_next_grid_instant_not_epoch():
    sim = Simulator()
    sim.schedule(17.0, lambda: None)
    sim.run()
    assert sim.now == 17.0
    times = []
    timer = sim.periodic_cohort(5.0, lambda batch: times.append(sim.now), epoch=1.0)
    timer.add("a")
    sim.run(until=32.0)
    assert times == [21.0, 26.0, 31.0]


def test_cohort_late_joiner_straggles_once_then_merges():
    sim = Simulator()
    out = []
    timer = sim.periodic_cohort(10.0, out.append)
    timer.add("a")
    # Joining from a later event (off-grid) gets a one-shot solo delivery
    # at the pending fire instant, then rides the shared batch.
    sim.schedule(5.0, timer.add, "b")
    sim.run(until=25.0)
    # t=0: batch; t=10: batch then straggler (the batch's heap entry is
    # older, exactly like a per-member chain armed at t=5); t=20: merged.
    assert out == [("a",), ("a",), ("b",), ("a", "b")]


def test_cohort_discard_cancels_pending_straggler():
    sim = Simulator()
    out = []
    timer = sim.periodic_cohort(10.0, out.append)
    timer.add("a")
    sim.schedule(5.0, timer.add, "b")
    sim.schedule(7.0, timer.discard, "b")
    sim.run(until=15.0)
    assert out == [("a",), ("a",)]
    assert "b" not in timer._members and "b" not in timer._pending


def test_cohort_discard_from_inside_callback_sticks():
    sim = Simulator()
    out = []

    def fn(batch):
        out.append(batch)
        timer.discard("b")

    timer = sim.periodic_cohort(10.0, fn)
    timer.add("a")
    timer.add("b")
    sim.run(until=25.0)
    assert out == [("a", "b"), ("a",), ("a",)]


def test_cohort_cancel_stops_everything():
    """Discarding every member stops every delivery, a pending straggler's
    included; the timer itself keeps ticking, empty."""
    sim = Simulator()
    out = []
    timer = sim.periodic_cohort(10.0, out.append)
    timer.add("a")
    sim.schedule(5.0, timer.add, "b")     # straggler pending at t=10
    sim.schedule(6.0, timer.discard, "a")
    sim.schedule(6.0, timer.discard, "b")
    sim.run(until=40.0)
    assert out == [("a",), (), (), (), ()]  # the t=0 fire, then empty ticks
    assert not timer._members and not timer._pending


def test_cohort_add_is_idempotent():
    sim = Simulator()
    out = []
    timer = sim.periodic_cohort(10.0, out.append)
    timer.add("a")
    timer.add("a")
    sim.run(until=5.0)
    assert out == [("a",)]


def test_cohort_empty_timer_keeps_ticking():
    sim = Simulator()
    out = []
    timer = sim.periodic_cohort(10.0, out.append)
    sim.run(until=25.0)
    assert out == [(), (), ()]


def test_cohort_tick_charges_one_unit_per_member():
    """A batched fire counts as len(batch) event units, so
    ``events_processed`` stays comparable across tick modes."""
    sim = Simulator()
    out = []
    timer = sim.periodic_cohort(10.0, out.append)
    for member in ("a", "b", "c"):
        timer.add(member)
    sim.run(until=5.0)
    # One tick fires; the accounting records all three member
    # callbacks, not one heap pop.
    assert out == [("a", "b", "c")]
    assert sim.events_processed == 3


def test_cohort_empty_fire_counts_one_unit():
    sim = Simulator()
    sim.periodic_cohort(10.0, lambda batch: None)
    sim.run(until=5.0)
    assert sim.events_processed == 1


def test_charge_events_rejects_negative():
    sim = Simulator()

    def bad():
        sim.charge_events(-1)

    sim.schedule(1.0, bad)
    with pytest.raises(SimulationError):
        sim.run()


def test_cohort_matches_per_member_reference_under_churn():
    """Global delivery log of one cohort timer == N per-member grid
    chains, including members that join/leave mid-run (off-grid)."""
    from tests.oracles import ReferenceCohortScheduler

    def drive(make_timer):
        sim = Simulator()
        log = []

        def fn(batch):
            for member in batch:
                log.append((sim.now, member))

        timer = make_timer(sim, fn)
        timer.add(0)
        timer.add(1)
        sim.schedule(3.5, timer.add, 2)
        sim.schedule(12.5, timer.discard, 1)
        sim.schedule(26.5, timer.add, 3)
        sim.schedule(26.5, timer.discard, 0)
        sim.run(until=45.0)
        return log

    cohort_log = drive(lambda sim, fn: sim.periodic_cohort(10.0, fn))
    ref_log = drive(lambda sim, fn: ReferenceCohortScheduler(sim, 10.0, fn))
    assert cohort_log == ref_log
    assert cohort_log  # non-trivial


# ----------------------------------------------------------------------
# heap entries are (time, seq, fn, args) tuples compared in C
# ----------------------------------------------------------------------
def test_unorderable_callbacks_and_arguments_never_compared():
    """Ties on time are settled by the unique seq: neither the event nor
    its fn/args ever take part in a comparison."""

    class Opaque:
        __slots__ = ("out",)

        def __init__(self, out):
            self.out = out

        def __call__(self, payload):
            self.out.append(payload)

        def __lt__(self, other):  # pragma: no cover - must stay unreached
            raise AssertionError("heap compared a callback")

    sim = Simulator()
    out = []
    payloads = [{"k": i} for i in range(40)]  # dicts do not order either
    for payload in payloads:
        sim.schedule(1.0, Opaque(out), payload)
    sim.run()
    assert out == payloads


def test_seq_strictly_increases_across_every_push_site(monkeypatch):
    """schedule / schedule_at / post / post_at / periodic re-arms /
    cohort ticks and stragglers / calendar flushes all draw from the one
    sequence."""
    from repro.sim.delivery import DeliveryCalendar

    sim = Simulator()
    seqs = []
    push = heapq.heappush

    def spy(heap, entry):
        if heap is sim._heap:
            seqs.append(entry[1])
        push(heap, entry)

    calendar = DeliveryCalendar(sim)
    timer_box = []

    def setup():
        sim.schedule(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.post(2.0, lambda: None)
        sim.post_at(2.5, lambda: None)
        sim.periodic(3.0, lambda: None)
        timer_box.append(sim.periodic_cohort(4.0, lambda batch: None))
        timer_box[0].add("founder")
        sim.schedule(5.0, lambda: timer_box[0].add("straggler"))
        calendar.deliver(6.0, lambda: None)
        calendar.deliver(6.0, lambda: None)  # same instant: no second push
        calendar.deliver_at(7.0, lambda: None)

    monkeypatch.setattr(heapq, "heappush", spy)  # the engine calls heapq.heappush
    setup()
    n_setup = len(seqs)
    sim.run(until=20.0)
    assert n_setup == 9  # 1 + 1 + 2 posts + 1 + cohort tick + straggler arm + 2 flushes
    assert len(seqs) > n_setup  # periodic and cohort re-arms, the straggler
    assert seqs == list(range(len(seqs)))


def test_run_until_leaves_the_next_entry_on_the_heap():
    sim = Simulator()
    out = []
    sim.schedule_at(1.0, out.append, "a")
    late = sim.schedule_at(5.0, out.append, "b")
    sim.run(until=4.0)
    assert out == ["a"]
    assert sim.now == 4.0
    assert live_events(sim) == 1
    (entry,) = sim._heap
    assert entry[0] == 5.0 and entry[2] is late
    sim.run(until=5.0)  # the boundary instant itself is processed
    assert out == ["a", "b"] and live_events(sim) == 0 and not sim._heap


def test_cancelled_entries_stay_queued_until_their_time():
    sim = Simulator()
    out = []
    doomed = sim.schedule(2.0, out.append, "doomed")
    sim.schedule(3.0, out.append, "kept")
    doomed.cancel()
    assert doomed.cancelled
    assert live_events(sim) == 1 and len(sim._heap) == 2  # lazy: still queued
    sim.run(until=2.5)
    assert len(sim._heap) == 1 and out == []  # dropped at pop, not fired
    assert sim.events_processed == 0
    sim.run()
    assert out == ["kept"] and sim.events_processed == 1
