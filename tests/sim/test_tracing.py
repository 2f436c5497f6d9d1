"""Tests for task-lifecycle tracing, including full-run trace validation."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from repro.sim.tracing import Tracer


def _count(tracer: Tracer, kind: str) -> int:
    return sum(e.kind == kind for e in tracer.events)


def test_emit_and_views():
    tr = Tracer()
    tr.emit(1.0, "generated", 7, node=3)
    tr.emit(2.0, "query-ok", 7, candidates=2)
    tr.emit(1.5, "generated", 8)
    assert [(e.kind, e.task_id) for e in tr.events] == [
        ("generated", 7), ("query-ok", 7), ("generated", 8),
    ]
    assert _count(tr, "generated") == 2


def test_unknown_kind_rejected():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.emit(0.0, "teleported", 1)


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    tr.emit(0.0, "generated", 1)
    assert tr.events == []


def test_timeline_readable():
    """An event keeps what was emitted: time, kind, node and detail."""
    tr = Tracer()
    tr.emit(10.0, "generated", 1, node=2)
    tr.emit(20.0, "query-ok", 1, candidates=3)
    first, second = tr.events
    assert (first.time, first.kind, first.node, first.detail) == (10.0, "generated", 2, {})
    assert (second.node, second.detail) == (None, {"candidates": 3})


def test_terminal_kind():
    """Every terminal path is a causally valid trace: completion, query
    failure, rejection, and eviction then recovery then completion."""
    tr = Tracer()
    for task_id, kinds in enumerate([
        ("generated", "query-ok", "admitted", "completed"),
        ("generated", "query-failed"),
        ("generated", "query-ok", "rejected"),
        ("generated", "query-ok", "admitted", "evicted", "recovered",
         "admitted", "completed"),
    ]):
        for step, kind in enumerate(kinds):
            tr.emit(float(step), kind, task_id)
    tr.validate()
    tr.emit(9.0, "completed", 1)  # completed without ever being admitted
    with pytest.raises(AssertionError, match="without admission"):
        tr.validate([1])


def test_validate_catches_admission_without_query():
    tr = Tracer()
    tr.emit(0.0, "generated", 1)
    tr.emit(1.0, "admitted", 1)
    with pytest.raises(AssertionError, match="without query-ok"):
        tr.validate()


def test_validate_catches_missing_generation():
    tr = Tracer()
    tr.emit(0.0, "query-ok", 1)
    with pytest.raises(AssertionError, match="starts with"):
        tr.validate()


# ----------------------------------------------------------------------
# full-run validation: every task's trace is causally consistent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["hid-can", "newscast"])
def test_full_run_traces_are_consistent(protocol):
    cfg = ExperimentConfig(
        n_nodes=40, duration=5000.0, demand_ratio=0.4, seed=17,
        protocol=protocol, trace_tasks=True,
    )
    sim = SOCSimulation(cfg)
    res = sim.run()
    sim.tracer.validate()
    assert _count(sim.tracer, "generated") == res.generated
    assert _count(sim.tracer, "completed") == res.finished
    failures = _count(sim.tracer, "query-failed") + _count(sim.tracer, "rejected")
    assert failures == res.failed


def test_full_run_traces_with_checkpointed_churn():
    cfg = ExperimentConfig(
        n_nodes=40, duration=5000.0, demand_ratio=0.4, seed=18,
        churn_degree=0.5, churn_kills_tasks=True, checkpoint_enabled=True,
        trace_tasks=True,
    )
    sim = SOCSimulation(cfg)
    res = sim.run()
    sim.tracer.validate()
    assert _count(sim.tracer, "recovered") == res.recovered


def test_tracing_disabled_by_default():
    cfg = ExperimentConfig(n_nodes=25, duration=1500.0, seed=3)
    sim = SOCSimulation(cfg)
    sim.run()
    assert sim.tracer.events == []
