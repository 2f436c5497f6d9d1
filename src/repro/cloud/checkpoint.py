"""Checkpoint-based execution fault tolerance (the paper's §VI future work).

    "For the future work, we plan to study the PSM based execution
    fault-tolerance issues using check-pointing technologies on top of
    the HID-CAN protocol."

This module implements that plan: running tasks periodically snapshot
their remaining work vector to their *origin* node (one checkpoint message
per task per period).  When a host crashes out with the
``churn_kills_tasks`` model, each resident task can be **recovered**: its
remaining work is rolled back to the last snapshot (work done since the
snapshot is lost) and the origin re-runs the discovery query to place it
on a fresh host.

The store is deliberately simulation-agnostic: the runner drives it with
timestamps and charges the checkpoint traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.tasks import Task

__all__ = ["CheckpointSnapshot", "CheckpointStore"]


@dataclass(frozen=True, slots=True)
class CheckpointSnapshot:
    """Remaining work of one task at snapshot time."""

    task_id: int
    remaining_work: np.ndarray
    taken_at: float


class CheckpointStore:
    """Latest snapshot per task (the origin node's checkpoint archive)."""

    def __init__(self) -> None:
        self._snapshots: dict[int, CheckpointSnapshot] = {}
        self.taken = 0
        self.restored = 0

    # ------------------------------------------------------------------
    def take(self, task: Task, now: float) -> CheckpointSnapshot:
        """Snapshot ``task``'s progress; replaces any older snapshot."""
        snap = CheckpointSnapshot(
            task_id=task.task_id,
            remaining_work=task.remaining_work.copy(),
            taken_at=now,
        )
        self._snapshots[task.task_id] = snap
        self.taken += 1
        return snap

    # ------------------------------------------------------------------
    def restore(self, task: Task) -> bool:
        """Roll ``task`` back to its last snapshot (or to a fresh start if
        none was ever taken).  Returns True when a snapshot was applied.

        Progress made after the snapshot is lost — the defining cost of
        checkpoint/restart — but work completed *before* it is preserved,
        so the recovered task never restarts from zero once one checkpoint
        exists.
        """
        snap = self._snapshots.get(task.task_id)
        task.placed_node = None
        task.start_time = None
        if snap is None:
            task.remaining_work = task.work.copy()
            return False
        task.remaining_work = snap.remaining_work.copy()
        self.restored += 1
        return True

    def forget(self, task_id: int) -> None:
        """Drop the snapshot (task finished; archive space reclaimed)."""
        self._snapshots.pop(task_id, None)
