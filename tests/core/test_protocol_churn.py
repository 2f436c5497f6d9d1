"""Churn-hardening regression: the ROADMAP hang repro.

Before the shared query lifecycle, the timeout-less baselines
(randomwalk/khdn/mercury) could hang a batch of queries forever when a
chain message landed on a churned node: the per-query callback never
fired.  These tests drive every registered protocol through exactly that
situation and assert every query of a ``submit_bulk`` batch resolves —
by chain completion or by explicit timeout failure, never a silent hang —
and that a timed-out query is counted exactly once.
"""

import numpy as np
import pytest

from repro.core.protocol import PIDCANParams, PROTOCOL_NAMES, make_protocol
from tests.core.helpers import Harness

TIMEOUT = 30.0


def build(name, n=32, seed=0):
    h = Harness(n=n, dims=2, seed=seed)
    params = PIDCANParams(resource_dims=2, query_timeout=TIMEOUT)
    proto = make_protocol(name, h.ctx, params)
    rng = np.random.default_rng(seed + 50)
    for i in range(n):
        h.availability[i] = rng.uniform(0.3, 1.0, 2)
    proto.bootstrap(list(range(n)))
    return h, proto


def churn_out(h, proto, node_id):
    h.dead.add(node_id)
    proto.on_leave(node_id)


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_submit_many_resolves_under_aggressive_churn(name):
    n = 32
    h, proto = build(name, n=n, seed=sum(map(ord, name)))
    h.sim.run(until=900.0)  # state updates + diffusion populate caches
    demands = [
        np.array([0.35, 0.35]),
        np.array([0.6, 0.5]),
        np.array([0.95, 0.95]),
        np.array([0.2, 0.8]),
    ]
    results = {}
    proto.submit_bulk([
        (demand, 0, lambda r, m, _i=i: results.setdefault(_i, []).append((r, m)))
        for i, demand in enumerate(demands)
    ])
    # Churn out most of the population while the chains are in flight, so
    # in-flight messages land on dead nodes and are dropped.
    for k, victim in enumerate(range(2, n - 2)):
        h.sim.schedule(0.002 * (k + 1), churn_out, h, proto, victim)
    h.sim.run(until=900.0 + 20 * TIMEOUT)
    assert sorted(results) == list(range(len(demands))), f"{name}: a query never resolved"
    for calls in results.values():
        ((records, messages),) = calls  # exactly once
        assert messages >= 0
        assert isinstance(records, list)
    lc = proto.lifecycle
    assert lc.started == len(demands)
    assert lc.completed + lc.timeouts == len(demands)
    assert lc.active_queries() == 0


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_dead_requester_resolves_at_once_empty_and_sends_nothing(name):
    """A query whose requester is dead (still in the overlay, not yet
    churned out) resolves inside ``submit_query``: the callback fires
    once, with no records and no messages, and no traffic is charged."""
    h, proto = build(name, seed=5)
    h.sim.run(until=900.0)
    h.dead.add(0)
    before = h.traffic.kind_snapshot()
    calls = []
    proto.submit_query(np.array([0.9, 0.9]), 0, lambda r, m: calls.append((r, m)))
    assert calls == [([], 0)]
    assert h.traffic.kind_snapshot() == before
    lc = proto.lifecycle
    assert (lc.started, lc.completed, lc.active_queries()) == (1, 1, 0)


def test_timed_out_query_counts_exactly_once():
    """Kill a walk's duty node mid-flight: the callback fires once (via
    the failsafe), the expiry is observed once, and late stragglers of
    the dead chain cannot double-fire."""
    h, proto = build("randomwalk-can", seed=7)
    h.sim.run(until=900.0)
    demand = np.array([0.9, 0.9])
    # the protocol builds its own overlay; locate the duty node there
    duty = proto.overlay.owner_of(demand)
    requester = next(i for i in range(32) if i != duty)
    calls = []
    expired = []
    proto.lifecycle.on_expire = expired.append
    proto.submit_query(demand, requester, lambda r, m: calls.append((r, m)))
    churn_out(h, proto, duty)  # the in-flight duty-query is now doomed
    h.sim.run(until=900.0 + 10 * TIMEOUT)
    assert len(calls) == 1
    assert len(expired) == 1
    lc = proto.lifecycle
    assert (lc.started, lc.completed, lc.timeouts) == (1, 0, 1)
    # the route hops were charged before the drop and still reach the
    # callback exactly once
    _, messages = calls[0]
    assert messages >= 1


def test_sos_retry_failing_after_timeout_counts_as_timeout():
    """+sos variants: when the failsafe fires and the one-shot retry
    cannot even launch (requester churned out while waiting), the
    resolution is attributed to the timeout path, not counted as a chain
    completion."""
    h, proto = build("hid-can+sos", seed=11)
    h.sim.run(until=900.0)
    calls = []
    proto.submit_query(np.array([0.9, 0.9]), 0, lambda r, m: calls.append((r, m)))
    h.dead.add(0)  # requester churns out with the chain in flight
    h.sim.run(until=900.0 + 10 * TIMEOUT)
    assert len(calls) == 1
    assert proto.lifecycle.timeouts == 1
    assert proto.lifecycle.completed == 0


def test_every_protocol_reports_query_stats():
    for name in PROTOCOL_NAMES:
        h, proto = build(name, n=16, seed=3)
        lc = proto.lifecycle
        assert (lc.started, lc.completed, lc.timeouts) == (0, 0, 0)
