"""Tests for checkpoint/restart fault tolerance (§VI future work)."""

import numpy as np

from repro.cloud.checkpoint import CheckpointStore
from repro.cloud.resources import ResourceVector
from repro.cloud.tasks import Task
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation


def make_task(task_id=0, nominal=100.0):
    return Task(
        task_id=task_id,
        origin=0,
        demand=ResourceVector([2.0, 10.0, 1.0, 10.0, 100.0]),
        nominal_time=nominal,
        submit_time=0.0,
    )


# ----------------------------------------------------------------------
# store semantics
# ----------------------------------------------------------------------
def test_take_and_peek():
    store = CheckpointStore()
    task = make_task()
    task.remaining_work = np.array([100.0, 500.0, 50.0])
    snap = store.take(task, now=10.0)
    assert snap.taken_at == 10.0
    assert np.allclose(snap.remaining_work, [100.0, 500.0, 50.0])
    task.remaining_work = np.zeros(3)
    assert store.restore(task)  # the snapshot is on file
    assert np.allclose(task.remaining_work, [100.0, 500.0, 50.0])


def test_snapshot_is_isolated_from_task_progress():
    store = CheckpointStore()
    task = make_task()
    store.take(task, now=0.0)
    before = task.remaining_work.copy()
    task.remaining_work -= 50.0  # progress after the snapshot
    store.restore(task)
    assert np.allclose(task.remaining_work, before)


def test_restore_rolls_back_to_snapshot():
    store = CheckpointStore()
    task = make_task()
    full = task.work.copy()
    task.remaining_work = full * 0.5
    store.take(task, now=100.0)
    task.remaining_work = full * 0.1  # more progress, then crash
    task.placed_node = 7
    task.start_time = 0.0
    assert store.restore(task)
    assert np.allclose(task.remaining_work, full * 0.5)  # post-snapshot work lost
    assert task.placed_node is None
    assert task.start_time is None
    assert store.restored == 1


def test_restore_without_snapshot_restarts_from_zero_progress():
    store = CheckpointStore()
    task = make_task()
    task.remaining_work = task.work * 0.2
    assert not store.restore(task)
    assert np.allclose(task.remaining_work, task.work)


def test_newer_snapshot_replaces_older():
    store = CheckpointStore()
    task = make_task()
    store.take(task, now=0.0)
    task.remaining_work = task.work * 0.3
    store.take(task, now=50.0)
    store.restore(task)
    assert np.allclose(task.remaining_work, task.work * 0.3)
    assert store.taken == 2


def test_forget_reclaims_archive():
    store = CheckpointStore()
    one, two = make_task(1), make_task(2)
    store.take(one, now=0.0)
    store.take(two, now=0.0)
    store.forget(1)
    store.forget(99)  # no-op
    assert not store.restore(one)
    assert store.restore(two)


# ----------------------------------------------------------------------
# end-to-end: recovery under killing churn
# ----------------------------------------------------------------------
CHURN_KILL = dict(
    n_nodes=60,
    duration=6000.0,
    demand_ratio=0.4,
    seed=9,
    churn_degree=0.5,
    churn_kills_tasks=True,
    protocol="hid-can",
)


def test_checkpointing_recovers_killed_tasks():
    with_cp = SOCSimulation(
        ExperimentConfig(**CHURN_KILL, checkpoint_enabled=True)
    ).run()
    assert with_cp.evicted > 0, "churn never killed a task; test is vacuous"
    assert with_cp.recovered > 0
    assert with_cp.traffic_by_kind.get("checkpoint", 0) > 0


def test_checkpointing_improves_throughput_under_killing_churn():
    without = SOCSimulation(ExperimentConfig(**CHURN_KILL)).run()
    with_cp = SOCSimulation(
        ExperimentConfig(**CHURN_KILL, checkpoint_enabled=True)
    ).run()
    assert without.recovered == 0
    # recovery must not lose tasks, and should finish at least as many
    assert with_cp.finished >= without.finished


def test_checkpointing_off_by_default():
    res = SOCSimulation(
        ExperimentConfig(n_nodes=30, duration=2000.0, seed=3)
    ).run()
    assert res.recovered == 0
    assert "checkpoint" not in res.traffic_by_kind
