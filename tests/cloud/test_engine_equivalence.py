"""HostEngine vs the scalar reference path — behavioural equivalence.

The vectorized engine must be indistinguishable from one
:class:`tests.oracles.ReferenceNodeExecutor` per host: identical
completion order (host and task ids exact, times within 1e-9) and
identical availabilities, across randomized place / remove / complete /
churn schedules and across full SOC scenario runs.
"""

import numpy as np
import pytest

from repro.cloud.engine import HostEngine
from repro.cloud.psm import DEFAULT_OVERHEAD, VMOverhead
from repro.cloud.tasks import TaskFactory
from tests.conftest import seeds_and_floors, set_compact_floor
from tests.oracles import ReferenceHostEngine, assert_engines_equivalent


@pytest.mark.parametrize("seed, floor", seeds_and_floors(range(8)))
def test_randomized_schedules_agree(seed, floor, monkeypatch):
    set_compact_floor(monkeypatch, floor)
    stats = assert_engines_equivalent(seed, n_hosts=12, steps=400)
    # the schedule must exercise every operation class, not trivially pass
    assert stats["placed"] > 50
    assert stats["completed"] > 30
    assert stats["removed"] > 0
    assert stats["evicted"] > 0
    assert stats["joined"] > 0


def test_randomized_schedule_without_churn():
    stats = assert_engines_equivalent(99, n_hosts=8, steps=250, churn=False)
    assert stats["evicted"] == 0 and stats["joined"] == 0


def test_compaction_preserves_equivalence(monkeypatch):
    """Force aggressive compaction so every schedule crosses the lazy
    row-squeeze path many times."""
    set_compact_floor(monkeypatch, 2)
    assert_engines_equivalent(7, n_hosts=6, steps=200)


def _make_pair(n_hosts=4, seed=3):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(5.0, 50.0, size=(n_hosts, 5))
    vec, ref = HostEngine(), ReferenceHostEngine()
    ids = list(range(n_hosts))
    vec.add_hosts(ids, caps)
    ref.add_hosts(ids, caps)
    fa = TaskFactory(0.5, np.random.default_rng(seed + 1))
    fb = TaskFactory(0.5, np.random.default_rng(seed + 1))
    return vec, ref, fa, fb


def test_empty_engines_agree():
    vec, ref, _, _ = _make_pair()
    assert vec.peek() is None and ref.peek() is None
    for h in range(4):
        assert np.array_equal(vec.availability(h), ref.availability(h))


def test_calendar_head_tracks_rescheduling():
    """Placing a second task stretches shares, so the head moves; both
    calendars must lazily invalidate the stale entry the same way."""
    vec, ref, fa, fb = _make_pair()
    vec.place(0, fa.create(0, 0.0), 0.0)
    ref.place(0, fb.create(0, 0.0), 0.0)
    first_vec, first_ref = vec.peek(), ref.peek()
    assert first_vec[1:] == first_ref[1:]
    vec.place(0, fa.create(0, 10.0), 10.0)
    ref.place(0, fb.create(0, 10.0), 10.0)
    head_vec, head_ref = vec.peek(), ref.peek()
    assert head_vec[1:] == head_ref[1:]
    assert head_vec[0] == pytest.approx(head_ref[0], abs=1e-9)


def test_availability_matrix_matches_per_host_reads():
    vec, ref, fa, fb = _make_pair()
    for h in range(4):
        vec.place(h, fa.create(h, 0.0), 0.0)
        ref.place(h, fb.create(h, 0.0), 0.0)
    ids = [2, 0, 3]
    mat = vec.availability_matrix(ids)
    assert np.allclose(mat, ref.availability_matrix(ids), atol=1e-9, rtol=0.0)
    for row, h in enumerate(ids):
        assert np.array_equal(mat[row], vec.availability(h))


def test_running_tasks_sync_remaining_work():
    """Engine-side progress must be visible on the Task objects that
    checkpointing snapshots."""
    vec, ref, fa, fb = _make_pair()
    ta, tb = fa.create(0, 0.0), fb.create(0, 0.0)
    vec.place(0, ta, 0.0)
    ref.place(0, tb, 0.0)
    vec.advance_all(100.0)
    ref.advance_all(100.0)
    (synced,) = vec.running_tasks(0)
    assert synced is ta
    assert np.allclose(ta.remaining_work, tb.remaining_work, atol=1e-9, rtol=0.0)
    assert np.all(ta.remaining_work < ta.work)  # progress actually happened


def test_busy_host_ids_tracks_residency():
    vec, ref, fa, fb = _make_pair()
    assert list(vec.busy_host_ids()) == list(ref.busy_host_ids()) == []
    for h in (2, 0):
        vec.place(h, fa.create(h, 0.0), 0.0)
        ref.place(h, fb.create(h, 0.0), 0.0)
    assert list(vec.busy_host_ids()) == list(ref.busy_host_ids())
    assert set(vec.busy_host_ids()) == {0, 2}
    for task in vec.evict_all(0, 1.0):
        ref.remove(0, task.task_id, 1.0)
    assert list(vec.busy_host_ids()) == list(ref.busy_host_ids()) == [2]


def test_add_hosts_batch_matches_incremental():
    rng = np.random.default_rng(8)
    caps = rng.uniform(5.0, 50.0, size=(40, 5))
    batch, single = HostEngine(), HostEngine()
    batch.add_hosts(list(range(40)), caps)
    for h in range(40):
        single.add_host(h, caps[h])
    for h in range(40):
        assert np.array_equal(batch.availability(h), single.availability(h))
    for engine in (batch, single):
        with pytest.raises(KeyError):
            engine.availability(40)


def test_add_hosts_rejects_shape_mismatch_and_duplicates():
    eng = HostEngine()
    with pytest.raises(ValueError, match="capacity matrix"):
        eng.add_hosts([0, 1], np.ones((3, 5)))
    with pytest.raises(ValueError, match="duplicate host ids"):
        eng.add_hosts([0, 0], np.ones((2, 5)))
    eng.add_hosts([0, 1], np.ones((2, 5)))
    with pytest.raises(ValueError, match="already registered"):
        eng.add_hosts([2, 1], np.ones((2, 5)))
    # the failed batches must not have partially registered any host
    with pytest.raises(KeyError):
        eng.availability(2)


#: A light VM overhead, so hot hosts keep a CPU share at 40+ residents and
#: complete tasks; the paper's 5 % per VM stalls every task past 20.
LIGHT_OVERHEAD = VMOverhead(fractions=(0.005, 0.01, 0.005, 0.0, 0.0),
                            flat=(0.0, 0.0, 0.0, 0.0, 5.0))


@pytest.mark.parametrize("overhead", [LIGHT_OVERHEAD, DEFAULT_OVERHEAD],
                         ids=["light", "paper"])
def test_hot_hosts_agree_at_high_residency(overhead):
    """The randomized schedules above keep a handful of tasks per host;
    skewed demand piles dozens onto a few hot hosts (36 per placement on
    average in the hot-range bench cell).  Drive three hot hosts past 32
    residents and keep placing, completing, removing and evicting there,
    in lockstep with the scalar oracle: completion order exact, times,
    availabilities and evicted progress within 1e-9.  Under the paper's
    overhead the same schedule drives the stalled-task branch instead."""
    rng = np.random.default_rng(31)
    caps = np.random.default_rng(32).uniform(20.0, 200.0, size=(8, 5))
    vec, ref = HostEngine(overhead), ReferenceHostEngine(overhead)
    ids = list(range(8))
    vec.add_hosts(ids, caps)
    ref.add_hosts(ids, caps)
    fa = TaskFactory(0.1, np.random.default_rng(33))
    fb = TaskFactory(0.1, np.random.default_rng(33))
    hot = [1, 4, 6]
    resident: dict[int, int] = {}
    hot_ops = {"place": 0, "complete": 0, "remove": 0, "evict_all": 0}
    now = 0.0

    def is_hot(host_id):
        return vec.n_running(host_id) >= 32

    def agree(host_id):
        assert vec.n_running(host_id) == ref.n_running(host_id)
        assert np.allclose(vec.availability(host_id), ref.availability(host_id),
                           atol=1e-9, rtol=0.0)

    for _ in range(1500):
        now += float(rng.exponential(5.0))
        op = rng.random()
        if op < 0.6:
            host_id = hot[int(rng.integers(3))] if rng.random() < 0.9 else ids[
                int(rng.integers(8))]
            hot_ops["place"] += is_hot(host_id)
            vec.place(host_id, fa.create(host_id, now), now)
            task = fb.create(host_id, now)
            ref.place(host_id, task, now)
            resident[task.task_id] = host_id
        elif op < 0.8:
            head_vec, head_ref = vec.peek(), ref.peek()
            assert (head_vec is None) == (head_ref is None)
            if head_vec is None:
                continue
            assert head_vec[1:] == head_ref[1:]
            assert abs(head_vec[0] - head_ref[0]) <= 1e-9
            when, host_id, task_id = head_vec
            now = max(now, when)
            hot_ops["complete"] += is_hot(host_id)
            vec.complete(host_id, task_id, now)
            ref.complete(host_id, task_id, now)
            del resident[task_id]
        elif op < 0.9 and resident:
            task_id = sorted(resident)[int(rng.integers(len(resident)))]
            host_id = resident.pop(task_id)
            hot_ops["remove"] += is_hot(host_id)
            out_vec = vec.remove(host_id, task_id, now)
            out_ref = ref.remove(host_id, task_id, now)
            assert np.allclose(out_vec.remaining_work, out_ref.remaining_work,
                               atol=1e-9, rtol=0.0)
        elif op >= 0.99:
            host_id = hot[int(rng.integers(3))]
            hot_ops["evict_all"] += is_hot(host_id)
            out_vec = vec.evict_all(host_id, now)
            out_ref = ref.evict_all(host_id, now)
            assert [t.task_id for t in out_vec] == [t.task_id for t in out_ref]
            for a, b in zip(out_vec, out_ref):
                assert np.allclose(a.remaining_work, b.remaining_work,
                                   atol=1e-9, rtol=0.0)
                del resident[a.task_id]
        for host_id in ids:
            agree(host_id)

    # Past 20 residents the paper's overhead leaves no CPU share, so a hot
    # host's tasks all stall and only the light overhead completes any.
    if overhead is DEFAULT_OVERHEAD:
        assert hot_ops.pop("complete") == 0
    assert all(count > 0 for count in hot_ops.values()), hot_ops
