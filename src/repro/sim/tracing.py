"""Structured task-lifecycle tracing.

When enabled (``ExperimentConfig(trace_tasks=True)``) the SOC runner emits
one event per lifecycle transition:

    generated → query-ok / query-failed → admitted / rejected
              → completed | evicted [→ recovered → ...]

Traces serve two purposes: downstream users debug protocol behaviour task
by task, and the integration tests validate global invariants ("every
generated task reaches a terminal state", "no admission without a
preceding query-ok") that aggregate counters cannot express.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["TraceEvent", "Tracer", "LIFECYCLE_KINDS"]

#: Every lifecycle kind the runner emits, in no particular order.
LIFECYCLE_KINDS = (
    "generated",
    "query-ok",
    "query-failed",
    "admitted",
    "rejected",
    "completed",
    "evicted",
    "recovered",
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One lifecycle transition of one task."""

    time: float
    kind: str
    task_id: int
    node: Optional[int] = None
    detail: dict = field(default_factory=dict)


class Tracer:
    """Append-only event log, indexed by task for :meth:`validate`."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self._by_task: defaultdict[int, list[TraceEvent]] = defaultdict(list)

    # ------------------------------------------------------------------
    def emit(
        self,
        time: float,
        kind: str,
        task_id: int,
        node: Optional[int] = None,
        **detail,
    ) -> None:
        if not self.enabled:
            return
        if kind not in LIFECYCLE_KINDS:
            raise ValueError(f"unknown trace kind {kind!r}")
        event = TraceEvent(time, kind, task_id, node, detail)
        self.events.append(event)
        self._by_task[task_id].append(event)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self, task_ids: Optional[Iterable[int]] = None) -> None:
        """Assert per-task causal ordering.

        - the first event is ``generated``;
        - ``admitted`` is preceded by a ``query-ok`` (or ``recovered``);
        - ``completed`` is preceded by ``admitted``;
        - timestamps are non-decreasing.
        """
        ids = sorted(self._by_task) if task_ids is None else task_ids
        for task_id in ids:
            events = self._by_task.get(task_id, [])
            assert events, f"task {task_id} has no events"
            assert events[0].kind == "generated", (
                f"task {task_id} starts with {events[0].kind}"
            )
            times = [e.time for e in events]
            assert times == sorted(times), f"task {task_id} time disorder"
            seen: set[str] = set()
            for event in events:
                if event.kind == "admitted":
                    assert "query-ok" in seen or "recovered" in seen, (
                        f"task {task_id} admitted without query-ok"
                    )
                if event.kind == "completed":
                    assert "admitted" in seen, (
                        f"task {task_id} completed without admission"
                    )
                seen.add(event.kind)
