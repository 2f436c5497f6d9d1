"""Edge-case tests for the query engine beyond the happy paths."""

import numpy as np

from repro.core.query import QueryEngine, QueryParams
from repro.testing import ProtocolSandbox


def make_engine(sb: ProtocolSandbox, **overrides) -> QueryEngine:
    return QueryEngine(
        sb.ctx, sb.overlay, sb.tables, sb.caches, sb.pilists,
        QueryParams(**overrides),
    )


def drive(sb: ProtocolSandbox, engine, demand, requester=0, horizon=600.0):
    out = {}
    engine.submit(
        np.asarray(demand, float), requester,
        lambda r, m: out.update(records=r, messages=m),
    )
    sb.sim.run(until=sb.sim.now + horizon)
    return out


def test_dead_requester_fails_immediately():
    sb = ProtocolSandbox(n=16, dims=2, seed=1)
    engine = make_engine(sb)
    sb.dead.add(0)
    out = drive(sb, engine, [0.5, 0.5], requester=0)
    assert out["records"] == []


def test_max_chain_hops_terminates_runaway_chains():
    sb = ProtocolSandbox(n=64, dims=2, seed=2)
    engine = make_engine(sb, max_chain_hops=2, check_duty_cache=False)
    # densely populate PILists so chains would run long without the cap
    for node, pilist in sb.pilists.items():
        for other in list(sb.pilists)[:20]:
            if other != node:
                pilist.add(other, now=0.0)
    out = drive(sb, engine, [0.2, 0.2])
    assert "records" in out  # terminated despite dense lists
    assert out["messages"] <= 32


def test_expired_records_not_matched():
    sb = ProtocolSandbox(n=32, dims=2, seed=3, state_ttl=100.0)
    engine = make_engine(sb)
    demand = np.array([0.3, 0.3])
    duty = sb.duty_of(demand)
    sb.plant_record(duty, owner=5, availability=[0.9, 0.9], ts=0.0)
    # advance well past the TTL before querying
    sb.sim.schedule(300.0, lambda: None)
    sb.sim.run(until=300.0)
    out = drive(sb, engine, demand)
    assert out["records"] == []


def test_concurrent_queries_do_not_interfere():
    sb = ProtocolSandbox(n=32, dims=2, seed=4)
    engine = make_engine(sb)
    d1 = np.array([0.2, 0.2])
    d2 = np.array([0.6, 0.6])
    sb.plant_record(sb.duty_of(d1), owner=101, availability=[0.25, 0.25])
    sb.plant_record(sb.duty_of(d2), owner=202, availability=[0.7, 0.7])
    results = {}
    engine.submit(d1, 0, lambda r, m: results.update(q1={x.owner for x in r}))
    engine.submit(d2, 1, lambda r, m: results.update(q2={x.owner for x in r}))
    sb.sim.run(until=600.0)
    assert 101 in results["q1"] and 202 not in results["q1"]
    assert 202 in results["q2"] and 101 not in results["q2"]


def test_requester_dies_mid_query_without_leak():
    sb = ProtocolSandbox(n=32, dims=2, seed=5)
    engine = make_engine(sb, timeout=30.0)
    fired = []
    engine.submit(np.array([0.4, 0.4]), 0, lambda r, m: fired.append(1))
    sb.dead.add(0)  # found-notify / query-end to the requester now drop
    sb.sim.run(until=120.0)
    # the timeout still finalizes the runtime exactly once
    assert len(fired) == 1
    assert engine.lifecycle.active_queries() == 0


def test_delta_one_returns_single_owner():
    sb = ProtocolSandbox(n=32, dims=2, seed=6)
    engine = make_engine(sb, delta=1)
    demand = np.array([0.2, 0.2])
    duty = sb.duty_of(demand)
    for owner in (50, 51, 52):
        sb.plant_record(duty, owner=owner, availability=[0.5, 0.5])
    out = drive(sb, engine, demand)
    assert len({r.owner for r in out["records"]}) == 1


def test_zero_demand_matches_anything_fresh():
    sb = ProtocolSandbox(n=32, dims=2, seed=7)
    engine = make_engine(sb)
    demand = np.zeros(2)
    duty = sb.duty_of(demand)
    sb.plant_record(duty, owner=9, availability=[0.01, 0.01])
    out = drive(sb, engine, demand)
    assert {r.owner for r in out["records"]} == {9}


def test_messages_counted_monotonically():
    sb = ProtocolSandbox(n=64, dims=2, seed=8)
    engine = make_engine(sb)
    out = drive(sb, engine, [0.3, 0.3])
    assert out["messages"] >= 0
    # the traffic meter saw at least as many protocol messages
    protocol_kinds = ("duty-query", "index-agent", "index-jump", "found-notify")
    total = sum(sb.traffic.by_kind.get(k, 0) for k in protocol_kinds)
    assert total >= out["messages"] - 1
