"""Unit tests for the event-driven PSM execution semantics.

Parametrized over both implementations: the scalar
:class:`tests.oracles.ReferenceNodeExecutor` oracle and the vectorized
:class:`repro.cloud.engine.HostEngine` behind a single-host adapter — the
same behavioural contract must hold for either.
"""

import numpy as np
import pytest

from repro.cloud.engine import HostEngine
from repro.cloud.psm import VMOverhead
from repro.cloud.resources import ResourceVector
from repro.cloud.tasks import Task
from tests.oracles import ReferenceNodeExecutor

#: Zero overhead isolates the PSM arithmetic in timing tests.
NO_OVERHEAD = VMOverhead(fractions=(0, 0, 0, 0, 0), flat=(0, 0, 0, 0, 0))


class SingleHostEngine:
    """The one-host slice of :class:`HostEngine`, shaped like the scalar
    per-node executor so the same unit suite drives both."""

    def __init__(self, capacity, overhead):
        self._engine = HostEngine(overhead)
        self._engine.add_host(0, capacity)

    @property
    def n_running(self):
        return self._engine.n_running(0)

    def running_tasks(self):
        return self._engine.running_tasks(0)

    def availability(self, now):
        return self._engine.availability(0)

    def is_overloaded(self):
        return self._engine.is_overloaded(0)

    def advance(self, now):
        self._engine.advance_all(now)

    def place(self, task, now):
        self._engine.place(0, task, now)

    def remove(self, task_id, now):
        return self._engine.remove(0, task_id, now)

    def complete(self, task_id, now):
        return self._engine.complete(0, task_id, now)

    def next_completion(self):
        """``(time, task)`` of the calendar head: with one host, the
        host's earliest predicted completion."""
        head = self._engine.peek()
        if head is None:
            return None
        when, _, task_id = head
        return when, self._engine._tasks[self._engine._row_of[task_id]]


IMPLEMENTATIONS = {
    "reference": ReferenceNodeExecutor,
    "engine": SingleHostEngine,
}


@pytest.fixture(params=sorted(IMPLEMENTATIONS), ids=sorted(IMPLEMENTATIONS))
def impl(request):
    return IMPLEMENTATIONS[request.param]


def make_task(task_id, cpu=2.0, io=10.0, net=1.0, nominal=100.0):
    return Task(
        task_id=task_id,
        origin=0,
        demand=ResourceVector([cpu, io, net, 10.0, 100.0]),
        nominal_time=nominal,
        submit_time=0.0,
    )


def make_executor(impl, cpu=10.0, io=100.0, net=10.0, overhead=NO_OVERHEAD):
    return impl(np.array([cpu, io, net, 100.0, 1000.0]), overhead)


def test_single_task_alone_runs_faster_than_nominal(impl):
    # PSM grants the full capacity to a lone task: speedup = capacity/demand.
    ex = make_executor(impl, cpu=4.0, io=20.0, net=2.0)
    task = make_task(0, cpu=2.0, io=10.0, net=1.0, nominal=100.0)
    ex.place(task, 0.0)
    when, t = ex.next_completion()
    assert t is task
    assert when == pytest.approx(50.0)  # 2× speedup on every dim
    done = ex.complete(0, when)
    assert done.finish_time == pytest.approx(50.0)


def test_task_at_exact_capacity_finishes_at_nominal(impl):
    ex = make_executor(impl, cpu=2.0, io=10.0, net=1.0)
    task = make_task(0, cpu=2.0, io=10.0, net=1.0, nominal=100.0)
    ex.place(task, 0.0)
    when, _ = ex.next_completion()
    assert when == pytest.approx(100.0)


def test_oversubscription_stretches_completion(impl):
    ex = make_executor(impl, cpu=2.0, io=10.0, net=1.0)
    a = make_task(0, nominal=100.0)
    b = make_task(1, nominal=100.0)
    ex.place(a, 0.0)
    ex.place(b, 0.0)
    assert ex.is_overloaded()
    when, _ = ex.next_completion()
    # two identical tasks share capacity equal to one task's demand → 2×
    assert when == pytest.approx(200.0)


def test_shares_rescale_when_task_leaves(impl):
    ex = make_executor(impl, cpu=2.0, io=10.0, net=1.0)
    a = make_task(0, nominal=100.0)
    b = make_task(1, nominal=100.0)
    ex.place(a, 0.0)
    ex.place(b, 0.0)
    # at t=100 both are half done; remove b → a gets full capacity again
    ex.remove(1, 100.0)
    when, t = ex.next_completion()
    assert t is a
    assert when == pytest.approx(150.0)  # 50 units of work left at rate 1×


def test_availability_is_capacity_minus_load(impl):
    ex = make_executor(impl, cpu=10.0, io=100.0, net=10.0)
    task = make_task(0, cpu=2.0, io=10.0, net=1.0)
    ex.place(task, 0.0)
    avail = ex.availability(0.0)
    assert avail[0] == pytest.approx(8.0)
    assert avail[1] == pytest.approx(90.0)


def test_availability_accounts_for_vm_overhead(impl):
    overhead = VMOverhead(fractions=(0.05, 0.10, 0.05, 0.0, 0.0), flat=(0, 0, 0, 0, 5.0))
    ex = make_executor(impl, cpu=10.0, io=100.0, net=10.0, overhead=overhead)
    task = make_task(0, cpu=2.0, io=10.0, net=1.0)
    ex.place(task, 0.0)
    avail = ex.availability(0.0)
    assert avail[0] == pytest.approx(10.0 * 0.95 - 2.0)
    assert avail[1] == pytest.approx(100.0 * 0.90 - 10.0)
    assert avail[4] == pytest.approx(1000.0 - 5.0 - 100.0)


def test_availability_clamps_at_zero_when_overloaded(impl):
    ex = make_executor(impl, cpu=2.0, io=10.0, net=1.0)
    ex.place(make_task(0), 0.0)
    ex.place(make_task(1), 0.0)
    assert np.all(ex.availability(0.0) >= 0.0)


def test_progress_integrates_across_share_changes(impl):
    ex = make_executor(impl, cpu=4.0, io=20.0, net=2.0)
    a = make_task(0, nominal=100.0)  # alone: 2× speed
    ex.place(a, 0.0)
    b = make_task(1, nominal=100.0)
    ex.place(b, 25.0)  # a is half done; now they share at exactly 1×
    when, t = ex.next_completion()
    assert t is a
    assert when == pytest.approx(75.0)  # 50 work units left at rate 1.0
    ex.complete(0, when)
    when_b, t_b = ex.next_completion()
    assert t_b is b
    # b did 50 units by t=75, then runs at 2× → 25 more seconds
    assert when_b == pytest.approx(100.0)


def test_complete_rejects_unfinished_task(impl):
    ex = make_executor(impl)
    ex.place(make_task(0, nominal=1000.0), 0.0)
    with pytest.raises(RuntimeError, match="work left"):
        ex.complete(0, 1.0)


def test_double_place_rejected(impl):
    ex = make_executor(impl)
    ex.place(make_task(0), 0.0)
    with pytest.raises(ValueError):
        ex.place(make_task(0), 1.0)


def test_time_cannot_go_backwards(impl):
    ex = make_executor(impl)
    ex.place(make_task(0), 10.0)
    with pytest.raises(ValueError):
        ex.advance(5.0)


def test_stalled_task_has_no_completion(impl):
    # 20 VMs × 5% CPU overhead → zero effective CPU: the task stalls.
    overhead = VMOverhead(fractions=(0.05, 0, 0, 0, 0), flat=(0, 0, 0, 0, 0))
    ex = make_executor(impl, cpu=2.0, io=1000.0, net=100.0, overhead=overhead)
    for i in range(20):
        ex.place(make_task(i, cpu=0.1, io=1.0, net=0.1), 0.0)
    assert ex.next_completion() is None


def test_empty_executor(impl):
    ex = make_executor(impl)
    assert ex.next_completion() is None
    assert ex.n_running == 0
    assert not ex.is_overloaded()
    # nothing resident: no load, the whole capacity is available
    assert np.allclose(ex.availability(0.0), [10.0, 100.0, 10.0, 100.0, 1000.0])
