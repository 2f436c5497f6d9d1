"""End-to-end tests for the three-phase query (Algorithms 3-5)."""

import numpy as np

from repro.core.query import QueryEngine, QueryParams
from tests.core.helpers import Harness


def make_engine(h: Harness, **param_overrides) -> QueryEngine:
    params = QueryParams(**param_overrides)
    return QueryEngine(h.ctx, h.overlay, h.tables, h.caches, h.pilists, params)


def run_query(h: Harness, engine: QueryEngine, demand, requester=0):
    """Submit and drive the simulator until the callback fires."""
    out = {}

    def callback(records, messages):
        out["records"] = records
        out["messages"] = messages

    engine.submit(np.asarray(demand, float), requester, callback)
    h.sim.run(until=600.0)
    assert "records" in out, "query never finalized"
    return out["records"], out["messages"]


def test_duty_cache_hit_resolves_query():
    h = Harness(n=32, dims=2, seed=1)
    engine = make_engine(h)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)  # cmax is ones → point == demand
    h.plant_record(duty, owner=99, availability=[0.35, 0.35])
    records, messages = run_query(h, engine, demand)
    assert [r.owner for r in records] == [99]
    assert messages >= 0


def test_unqualified_records_not_returned():
    h = Harness(n=32, dims=2, seed=2)
    engine = make_engine(h)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    h.plant_record(duty, owner=99, availability=[0.25, 0.9])  # fails dim 0
    records, _ = run_query(h, engine, demand)
    assert all(r.owner != 99 for r in records)


def test_jump_phase_finds_records_via_pilist():
    h = Harness(n=32, dims=2, seed=3)
    engine = make_engine(h, check_duty_cache=False)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    # plant a qualified record at an index node positive of the duty zone
    holder = next(
        n.node_id
        for n in h.overlay.nodes.values()
        if np.all(n.zone.lo >= h.overlay.nodes[duty].zone.hi - 1e-12)
    )
    h.plant_record(holder, owner=77, availability=[0.9, 0.9])
    # make every agent's PIList point at the holder
    for dim in range(2):
        for agent in h.overlay.directional_neighbors(duty, dim, +1):
            h.pilists[agent].add(holder, now=0.0)
    records, _ = run_query(h, engine, demand)
    assert 77 in {r.owner for r in records}


def test_delta_bounds_result_count():
    h = Harness(n=32, dims=2, seed=4)
    engine = make_engine(h, delta=2)
    demand = np.array([0.2, 0.2])
    duty = h.duty_of(demand)
    for owner in range(50, 60):
        h.plant_record(duty, owner=owner, availability=[0.5, 0.5])
    records, _ = run_query(h, engine, demand)
    owners = {r.owner for r in records}
    assert 1 <= len(owners) <= 2


def test_empty_system_fails_query():
    h = Harness(n=32, dims=2, seed=5)
    engine = make_engine(h)
    records, _ = run_query(h, engine, [0.5, 0.5])
    assert records == []


def test_callback_fires_exactly_once():
    h = Harness(n=32, dims=2, seed=6)
    engine = make_engine(h)
    calls = []
    engine.submit(np.array([0.4, 0.4]), 0, lambda r, m: calls.append(r))
    h.sim.run(until=600.0)
    assert len(calls) == 1
    assert engine.lifecycle.active_queries() == 0


def test_timeout_finalizes_query_when_chain_dies():
    h = Harness(n=32, dims=2, seed=7)
    engine = make_engine(h, timeout=30.0, check_duty_cache=False)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    # the chain will go to an agent that is dead → message dropped
    for dim in range(2):
        for agent in h.overlay.directional_neighbors(duty, dim, +1):
            h.dead.add(agent)
    out = {}
    engine.submit(demand, 0, lambda r, m: out.setdefault("records", r))
    h.sim.run(until=29.0)
    assert "records" not in out  # still waiting
    h.sim.run(until=120.0)
    assert out["records"] == []
    assert engine.lifecycle.active_queries() == 0


def test_sos_retries_with_original_on_failure():
    h = Harness(n=32, dims=2, seed=8)
    engine = make_engine(h, sos=True, check_duty_cache=True)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    # Only a barely-qualified record exists: the slacked vector e' ≻ e will
    # miss it, but the retry with the original e must find it.
    h.plant_record(duty, owner=42, availability=[0.31, 0.31])
    records, _ = run_query(h, engine, demand)
    assert {r.owner for r in records} == {42}


def test_sos_first_attempt_uses_slacked_vector():
    h = Harness(n=32, dims=2, seed=9)
    engine = make_engine(h, sos=True)
    seen_vectors = []
    original_launch = engine._launch

    def spy(rt, timed_out=False):
        seen_vectors.append(rt.v.copy())
        original_launch(rt, timed_out)

    engine._launch = spy
    run_query(h, engine, [0.2, 0.2])
    assert len(seen_vectors) >= 1
    assert np.all(seen_vectors[0] >= 0.2 - 1e-12)  # Formula 3 lower bound
    if len(seen_vectors) == 2:  # retry restored the original
        assert np.allclose(seen_vectors[1], [0.2, 0.2])


def test_duty_cache_check_can_be_disabled():
    h = Harness(n=32, dims=2, seed=10)
    engine = make_engine(h, check_duty_cache=False)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    h.plant_record(duty, owner=99, availability=[0.9, 0.9])
    records, _ = run_query(h, engine, demand)
    # the record sits only in the duty cache, which is not consulted
    assert all(r.owner != 99 for r in records)


def test_vd_query_routes_in_padded_space():
    h = Harness(n=32, dims=3, seed=11, cmax=np.ones(2))
    # overlay has 3 dims = 2 resource dims + 1 virtual
    engine = make_engine(h, vd=True)
    records, messages = run_query(h, engine, [0.4, 0.4])
    assert records == []  # nothing planted; just exercising the path
    assert messages >= 0


def test_requester_is_duty_node():
    h = Harness(n=32, dims=2, seed=12)
    engine = make_engine(h)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    h.plant_record(duty, owner=5, availability=[0.5, 0.5])
    records, _ = run_query(h, engine, demand, requester=duty)
    assert {r.owner for r in records} == {5}


def test_query_traffic_is_charged():
    h = Harness(n=32, dims=2, seed=13)
    engine = make_engine(h)
    run_query(h, engine, [0.3, 0.3])
    kinds = h.traffic.kind_snapshot()
    assert kinds.get("duty-query", 0) + kinds.get("query-end", 0) > 0
