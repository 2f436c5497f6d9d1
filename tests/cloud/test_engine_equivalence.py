"""HostEngine vs the scalar reference path — behavioural equivalence.

The vectorized engine must be indistinguishable from one
:class:`repro.testing.ReferenceNodeExecutor` per host: identical
completion order (host and task ids exact, times within 1e-9) and
identical availabilities, across randomized place / remove / complete /
churn schedules and across full SOC scenario runs.
"""

import numpy as np
import pytest

from repro.cloud.engine import HostEngine
from repro.cloud.tasks import TaskFactory
from repro.testing import ReferenceHostEngine, assert_engines_equivalent


@pytest.mark.parametrize("seed", range(8))
def test_randomized_schedules_agree(seed):
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
    monkeypatch.setattr("repro.cloud.engine._COMPACT_FLOOR", 2)
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
