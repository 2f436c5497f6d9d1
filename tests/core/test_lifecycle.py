"""Tests for the shared requester-side query lifecycle."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.lifecycle import QueryLifecycle
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SOCSimulation
from tests.core.helpers import Harness


def make_lifecycle(timeout=30.0, **kwargs):
    h = Harness(n=8, dims=2, seed=0)
    return h, QueryLifecycle(h.ctx, timeout, **kwargs)


def test_begin_registers_and_assigns_increasing_qids():
    h, lc = make_lifecycle()
    a = lc.begin(np.array([0.1, 0.2]), 0, lambda r, m: None)
    b = lc.begin(np.array([0.3, 0.4]), 1, lambda r, m: None)
    assert b.qid == a.qid + 1
    assert lc.active_queries() == 2
    assert lc.get(a.qid) is a
    assert a.v is a.demand  # default query vector is the demand itself


def test_finalize_fires_callback_exactly_once():
    h, lc = make_lifecycle()
    calls = []
    rt = lc.begin(np.array([0.1, 0.2]), 0, lambda r, m: calls.append((r, m)))
    rt.messages = 7
    lc.finalize(rt)
    lc.finalize(rt)  # idempotent
    assert calls == [([], 7)]
    assert lc.get(rt.qid) is None
    assert lc.active_queries() == 0
    assert lc.completed == 1
    assert lc.timeouts == 0


def test_timeout_expires_live_query_with_partial_results():
    h, lc = make_lifecycle(timeout=10.0)
    calls = []
    rt = lc.begin(np.array([0.5, 0.5]), 0, lambda r, m: calls.append((r, m)))
    rec = h.plant_record(0, owner=3, availability=[0.9, 0.9])
    rt.found.append(rec)
    rt.messages = 2
    h.sim.run(until=100.0)
    assert calls == [([rec], 2)]
    assert rt.timed_out
    assert (lc.started, lc.completed, lc.timeouts) == (1, 0, 1)


def test_timeout_counted_exactly_once_even_with_long_run():
    h, lc = make_lifecycle(timeout=10.0)
    calls = []
    expired = []
    lc.on_expire = expired.append
    lc.begin(np.array([0.5, 0.5]), 0, lambda r, m: calls.append(m))
    h.sim.run(until=1000.0)
    assert len(calls) == 1
    assert len(expired) == 1
    assert lc.timeouts == 1


def test_finalized_query_never_times_out():
    h, lc = make_lifecycle(timeout=10.0)
    calls = []
    rt = lc.begin(np.array([0.5, 0.5]), 0, lambda r, m: calls.append(m))
    lc.finalize(rt)
    h.sim.run(until=100.0)
    assert len(calls) == 1
    assert lc.timeouts == 0


def test_restart_timeout_postpones_expiry():
    h, lc = make_lifecycle(timeout=10.0)
    calls = []
    rt = lc.begin(np.array([0.5, 0.5]), 0, lambda r, m: calls.append(m))
    h.sim.run(until=8.0)
    lc.restart_timeout(rt)
    h.sim.run(until=15.0)  # past the original deadline, before the new one
    assert calls == []
    h.sim.run(until=100.0)
    assert len(calls) == 1


def test_on_timeout_hook_overrides_default_expiry():
    h = Harness(n=8, dims=2, seed=0)
    retried = []

    def hook(rt):
        if not retried:
            retried.append(rt.qid)
            lc.restart_timeout(rt)  # first deadline: retry
        else:
            lc.expire(rt)  # second deadline: give up

    lc = QueryLifecycle(h.ctx, 10.0, on_timeout=hook)
    calls = []
    lc.begin(np.array([0.5, 0.5]), 0, lambda r, m: calls.append(m))
    h.sim.run(until=1000.0)
    assert retried  # the hook intervened once
    assert len(calls) == 1
    assert lc.timeouts == 1


def test_rejects_non_positive_timeout():
    h = Harness(n=4, dims=2, seed=0)
    with pytest.raises(ValueError, match="timeout"):
        QueryLifecycle(h.ctx, 0.0)


# ----------------------------------------------------------------------
# batched fan-in (QueryEngine.submit_many)
# ----------------------------------------------------------------------
def _stub_burst(monkeypatch):
    """A query engine whose burst records each query's callback instead of
    routing, so a test resolves the queries in any order it likes."""
    from tests.core.test_query_accounting import make_engine

    engine = make_engine(Harness(n=16, dims=2, seed=5))
    callbacks = []

    def submit_burst(items):
        callbacks.extend(callback for _, _, callback in items)
        return list(range(len(items)))

    monkeypatch.setattr(engine, "submit_burst", submit_burst)
    return engine, callbacks


def test_submit_batch_orders_results_by_submission(monkeypatch):
    engine, done = _stub_burst(monkeypatch)
    results = []
    ids = engine.submit_many([np.array([1.0, 1.0]), np.array([2.0, 2.0])], 0, results.append)
    assert ids == [0, 1]
    done[1]([], 5)  # resolve out of order: the fan-in still orders by index
    assert results == []  # not complete yet
    done[0]([], 3)
    assert results == [[([], 3), ([], 5)]]


def test_submit_batch_empty_fires_immediately(monkeypatch):
    engine, done = _stub_burst(monkeypatch)
    results = []
    assert engine.submit_many([], 0, results.append) == []
    assert results == [[]] and done == []  # no burst for an empty batch


@pytest.mark.parametrize("timeout", [0.3, 0.8])
@pytest.mark.parametrize(
    "protocol", ["hid-can", "newscast", "khdn-can", "randomwalk-can", "mercury", "inscan-rq"]
)
def test_chain_messages_that_outlive_their_query_fall_on_the_floor(monkeypatch, protocol, timeout):
    """A failsafe shorter than a chain resolves queries while their
    messages are still in flight.  Each later delivery finds no live
    runtime and is dropped by its handler, so every query still resolves
    exactly once.  The two timeouts catch chains at different depths:
    0.3 s before most duty nodes, 0.8 s inside PID-CAN's agent and jump
    hops and before its ``query-end``."""
    late, finished = [], []
    get, finish = QueryLifecycle.get, QueryLifecycle._finish

    def counted_get(self, qid):
        rt = get(self, qid)
        if rt is None:
            late.append(qid)
        return rt

    def counted_finish(self, rt):
        finished.append(rt.qid)
        finish(self, rt)

    monkeypatch.setattr(QueryLifecycle, "get", counted_get)
    monkeypatch.setattr(QueryLifecycle, "_finish", counted_finish)
    base = ExperimentConfig(protocol=protocol, n_nodes=40, duration=1800.0, seed=1,
                            demand_ratio=0.5)
    result = SOCSimulation(replace(base, pidcan=replace(base.pidcan, query_timeout=timeout))).run()
    assert result.query_timeouts > 0
    assert late and set(late) <= set(finished)
    assert len(finished) == len(set(finished))
