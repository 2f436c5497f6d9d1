"""Stateful property test: the PSM execution substrate under arbitrary
operation sequences conserves work and never violates share
proportionality.

The machine drives the scalar :class:`ReferenceNodeExecutor` and a
single-host :class:`HostEngine` in lockstep (each gets its own copy of
every task): the PSM invariants are asserted on the scalar oracle, and an
extra invariant asserts the vectorized engine never drifts from it.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cloud.engine import HostEngine
from repro.cloud.psm import VMOverhead
from repro.cloud.resources import ResourceVector
from repro.cloud.tasks import Task
from tests.oracles import ReferenceNodeExecutor

NO_OVERHEAD = VMOverhead(fractions=(0, 0, 0, 0, 0), flat=(0, 0, 0, 0, 0))

HOST = 0


class ExecutorMachine(RuleBasedStateMachine):
    """Random interleavings of place/advance/remove/complete."""

    @initialize()
    def setup(self) -> None:
        self.capacity = np.array([10.0, 50.0, 5.0, 100.0, 1000.0])
        self.ex = ReferenceNodeExecutor(self.capacity, NO_OVERHEAD)
        self.engine = HostEngine(NO_OVERHEAD)
        self.engine.add_host(HOST, self.capacity)
        self.now = 0.0
        self.next_id = 0
        self.total_work_injected = np.zeros(3)

    def _make_task(self, cpu, io, net, nominal) -> Task:
        task = Task(
            task_id=self.next_id,
            origin=0,
            demand=ResourceVector([cpu, io, net, 1.0, 10.0]),
            nominal_time=nominal,
            submit_time=self.now,
        )
        return task

    # ------------------------------------------------------------------
    @rule(
        cpu=st.floats(min_value=0.5, max_value=8.0),
        io=st.floats(min_value=1.0, max_value=40.0),
        net=st.floats(min_value=0.1, max_value=4.0),
        nominal=st.floats(min_value=10.0, max_value=500.0),
    )
    def place(self, cpu, io, net, nominal):
        task = self._make_task(cpu, io, net, nominal)
        twin = self._make_task(cpu, io, net, nominal)
        self.next_id += 1
        self.total_work_injected += task.work
        self.ex.place(task, self.now)
        self.engine.place(HOST, twin, self.now)

    @rule(dt=st.floats(min_value=0.1, max_value=200.0))
    def advance(self, dt):
        self.now += dt
        self.ex.advance(self.now)
        self.engine.advance_all(self.now)

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def remove_one(self, pick):
        running = self.ex.running_tasks()
        if not running:
            return
        task = running[pick % len(running)]
        self.ex.remove(task.task_id, self.now)
        self.engine.remove(HOST, task.task_id, self.now)

    @rule()
    def complete_next(self):
        nxt = self.ex.next_completion()
        if nxt is None:
            return
        when, task = nxt
        eng_when, _, eng_task_id = self.engine.peek()  # one host: its head
        if when > self.now:
            # Prediction ahead of the clock: both paths must agree exactly.
            assert eng_task_id == task.task_id
            assert abs(eng_when - when) <= 1e-9
        else:
            # The advance rule overshot the completion (the runner's event
            # discipline never does): the reference re-derives "due now"
            # while the engine's calendar kept the true earlier time — both
            # must agree the head is due, and completing the reference's
            # pick on both re-synchronizes the calendars.
            assert eng_when <= self.now + 1e-9
        when = max(when, self.now)
        self.now = when
        done = self.ex.complete(task.task_id, when)
        twin = self.engine.complete(HOST, task.task_id, when)
        assert done.finish_time == when
        assert twin.finish_time == when

    # ------------------------------------------------------------------
    @invariant()
    def remaining_work_nonnegative(self):
        if not hasattr(self, "ex"):
            return
        for task in self.ex.running_tasks():
            assert np.all(task.remaining_work >= -1e-9)

    @invariant()
    def remaining_never_exceeds_injected(self):
        if not hasattr(self, "ex"):
            return
        for task in self.ex.running_tasks():
            assert np.all(task.remaining_work <= task.work + 1e-6)

    @invariant()
    def shares_proportional_to_expectations(self):
        if not hasattr(self, "ex") or self.ex.n_running == 0:
            return
        self.ex._reshare()
        rates = {
            rt.task.task_id: rt.rates for rt in self.ex._running.values()
        }
        expectations = {
            rt.task.task_id: rt.task.expectation[:3]
            for rt in self.ex._running.values()
        }
        # r_j / e_j identical across tasks per dimension (Eq. 1)
        ratios = np.stack(
            [rates[tid] / expectations[tid] for tid in rates]
        )
        assert np.allclose(ratios, ratios[0], rtol=1e-9, atol=1e-12)

    @invariant()
    def allocation_never_exceeds_capacity(self):
        if not hasattr(self, "ex") or self.ex.n_running == 0:
            return
        total_rates = np.sum(
            [rt.rates for rt in self.ex._running.values()], axis=0
        )
        assert np.all(total_rates <= self.capacity[:3] + 1e-9)

    @invariant()
    def engine_matches_reference(self):
        if not hasattr(self, "ex"):
            return
        assert self.engine.n_running(HOST) == self.ex.n_running
        avail_ref = np.maximum(
            self.ex.effective_capacity() - self.ex.load(), 0.0
        )
        assert np.allclose(
            self.engine.availability(HOST), avail_ref, atol=1e-9, rtol=0.0
        )
        ref_rem = {
            t.task_id: t.remaining_work.copy() for t in self.ex.running_tasks()
        }
        for task in self.engine.running_tasks(HOST):
            assert np.allclose(
                task.remaining_work, ref_rem[task.task_id], atol=1e-6, rtol=1e-9
            )


TestExecutorStateful = ExecutorMachine.TestCase
TestExecutorStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
