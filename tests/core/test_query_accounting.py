"""Message accounting of the query chain and the batched submission API.

The accounting convention (see ``repro.core.query``): ``rt.messages``
counts every inter-node send of a query chain exactly once — duty-query
route hops, index-agent handoffs, index-jump hops, found-notify and
query-end — mirroring the TrafficMeter charges for those kinds.
"""

import numpy as np

from repro.core.cache import PathCacheIndex
from repro.core.query import QueryEngine, QueryParams
from tests.core.helpers import Harness

CHAIN_KINDS = (
    "duty-query", "index-agent", "index-jump", "found-notify", "query-end",
)


def make_engine(h: Harness, **overrides) -> QueryEngine:
    return QueryEngine(
        h.ctx, h.overlay, h.tables, h.caches, h.pilists, QueryParams(**overrides)
    )


def chain_traffic(h: Harness) -> int:
    kinds = h.traffic.kind_snapshot()
    return sum(kinds.get(k, 0) for k in CHAIN_KINDS)


def run_query(h, engine, demand, requester=0):
    out = {}
    engine.submit(
        np.asarray(demand, float), requester,
        lambda r, m: out.update(records=r, messages=m),
    )
    h.sim.run(until=600.0)
    assert "records" in out
    return out["records"], out["messages"]


def test_three_phase_walk_counts_every_send_once():
    """Deterministic duty → agent → jump → notify → end chain: the callback
    message count equals the traffic meter's chain charges exactly."""
    h = Harness(n=32, dims=2, seed=3)
    engine = make_engine(h, check_duty_cache=False, delta=1)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    holder = next(
        n.node_id
        for n in h.overlay.nodes.values()
        if np.all(n.zone.lo >= h.overlay.nodes[duty].zone.hi - 1e-12)
    )
    h.plant_record(holder, owner=77, availability=[0.9, 0.9])
    for dim in range(2):
        for agent in h.overlay.directional_neighbors(duty, dim, +1):
            h.pilists[agent].add(holder, now=0.0)

    records, messages = run_query(h, engine, demand)
    assert [r.owner for r in records] == [77]

    kinds = h.traffic.kind_snapshot()
    # all three phases actually ran, then found-notify and query-end
    assert kinds.get("index-agent", 0) >= 1
    assert kinds.get("index-jump", 0) >= 1
    assert kinds.get("found-notify", 0) == 1
    assert kinds.get("query-end", 0) == 1
    assert messages == chain_traffic(h)


def test_duty_cache_hit_chain_is_fully_counted():
    """Regression for the uncounted first index-agent send: even the
    shortest successful chain must match the meter exactly."""
    h = Harness(n=32, dims=2, seed=1)
    engine = make_engine(h, delta=1)
    demand = np.array([0.3, 0.3])
    duty = h.duty_of(demand)
    h.plant_record(duty, owner=99, availability=[0.35, 0.35])
    records, messages = run_query(h, engine, demand)
    assert [r.owner for r in records] == [99]
    assert messages == chain_traffic(h)


def test_failed_query_chain_is_fully_counted():
    """An empty system still routes, walks agents and ends explicitly."""
    h = Harness(n=64, dims=2, seed=8)
    engine = make_engine(h)
    records, messages = run_query(h, engine, [0.3, 0.3])
    assert records == []
    assert messages == chain_traffic(h)
    assert h.traffic.kind_snapshot().get("query-end", 0) == 1


def test_first_index_agent_send_is_counted():
    """The duty node's very first agent handoff (the historic undercount)
    shows up in the callback count."""
    h = Harness(n=32, dims=2, seed=6)
    engine = make_engine(h, check_duty_cache=False)
    run_query(h, engine, [0.3, 0.3])
    kinds = h.traffic.kind_snapshot()
    assert kinds.get("index-agent", 0) >= 1  # at least the first handoff


# ----------------------------------------------------------------------
# batched submission
# ----------------------------------------------------------------------
def test_submit_many_fires_once_with_ordered_results():
    h = Harness(n=32, dims=2, seed=4)
    engine = make_engine(h)
    d1 = np.array([0.2, 0.2])
    d2 = np.array([0.6, 0.6])
    h.plant_record(h.duty_of(d1), owner=101, availability=[0.25, 0.25])
    h.plant_record(h.duty_of(d2), owner=202, availability=[0.7, 0.7])
    calls = []
    qids = engine.submit_many([d1, d2], 0, calls.append)
    assert len(qids) == 2
    h.sim.run(until=600.0)
    assert len(calls) == 1
    results = calls[0]
    assert len(results) == 2
    owners_0 = {r.owner for r in results[0][0]}
    owners_1 = {r.owner for r in results[1][0]}
    assert 101 in owners_0 and 202 not in owners_0
    assert 202 in owners_1 and 101 not in owners_1
    assert all(messages >= 0 for _, messages in results)


def test_submit_many_empty_batch_completes_immediately():
    h = Harness(n=16, dims=2, seed=5)
    engine = make_engine(h)
    calls = []
    assert engine.submit_many([], 0, calls.append) == []
    assert calls == [[]]


def test_submit_many_batched_routing_matches_sequential():
    """submit_many routes the whole burst in one lockstep pass; every
    observable — per-query records, message counts, traffic by kind, the
    simulated clock of the fan-in — must equal submitting one by one on a
    twin harness (same seeds), for plain, SoS and VD engines."""
    for overrides in (
        {}, {"sos": True}, {"vd": True}, {"sos": True, "vd": True}
    ):
        # VD pads the overlay by one virtual dimension (2 resource + 1)
        dims = 3 if overrides.get("vd") else 2
        h_batch = Harness(n=48, dims=dims, seed=21, cmax=np.ones(2))
        h_seq = Harness(n=48, dims=dims, seed=21, cmax=np.ones(2))
        eng_batch = make_engine(h_batch, **overrides)
        eng_seq = make_engine(h_seq, **overrides)
        demands = [
            np.array([0.2, 0.3]), np.array([0.6, 0.6]), np.array([0.5, 0.25]),
            np.array([0.5, 0.5]),  # boundary-exact duty point
        ]
        if dims == 2:
            for h in (h_batch, h_seq):
                h.plant_record(h.duty_of([0.25, 0.35]), 301, [0.3, 0.4])
                h.plant_record(h.duty_of([0.7, 0.7]), 302, [0.75, 0.75])
        batch_calls = []
        seq_results = [None] * len(demands)
        eng_batch.submit_many(demands, 0, batch_calls.append)
        for i, d in enumerate(demands):
            # pin each callback to its submission slot (callbacks fire in
            # completion order, the batch reports in submission order)
            eng_seq.submit(
                d, 0, lambda r, m, i=i: seq_results.__setitem__(i, (r, m))
            )
        h_batch.sim.run(until=600.0)
        h_seq.sim.run(until=600.0)
        assert len(batch_calls) == 1 and None not in seq_results
        got = [
            ([r.owner for r in records], messages)
            for records, messages in batch_calls[0]
        ]
        want = [
            ([r.owner for r in records], messages)
            for records, messages in seq_results
        ]
        assert got == want, f"burst diverged from sequential ({overrides})"
        assert (
            h_batch.traffic.kind_snapshot() == h_seq.traffic.kind_snapshot()
        ), f"traffic diverged ({overrides})"


def test_lone_query_through_submit_equals_a_burst_of_one():
    """``submit`` and ``submit_burst([item])`` share one launch, cache-on
    and with SoS too: twin engines fed the same queries at the same
    instants — one of them relaunched by the failsafe after the duty node
    of its first, slacked attempt died — end with equal records, message
    counts, traffic by kind, path-cache stats and protocol RNG state."""
    queries = [  # (instant, demand, requester)
        (0.0, [0.2, 0.3], 0), (5.0, [0.2, 0.3], 0), (10.0, [0.6, 0.6], 7),
        (15.0, [0.5, 0.5], 3), (20.0, [0.6, 0.6], 7), (25.0, [0.3, 0.7], 11),
        (30.0, [0.85, 0.1], 5), (35.0, [0.2, 0.3], 0),
    ]
    victim, timeout = 6, 40.0  # the victim's first duty dies at once

    def run(burst):
        h = Harness(n=48, dims=2, seed=31)
        cache = PathCacheIndex("lru", size=8, ttl=1000.0)
        for node in h.overlay.node_ids():
            cache.add_node(node, h.overlay.dims)
        engine = QueryEngine(
            h.ctx, h.overlay, h.tables, h.caches, h.pilists,
            QueryParams(sos=True, timeout=timeout), cache=cache,
        )
        h.plant_record(h.duty_of([0.25, 0.35]), 401, [0.3, 0.4])
        h.plant_record(h.duty_of([0.7, 0.7]), 402, [0.75, 0.75])
        h.plant_record(h.duty_of([0.55, 0.55]), 403, [0.6, 0.9])
        results = []

        def submit(i, demand, requester):
            demand = np.array(demand)
            callback = (
                lambda r, m: results.append((i, h.sim.now, [x.owner for x in r], m))
            )
            if burst:
                (qid,) = engine.submit_burst([(demand, requester, callback)])
            else:
                qid = engine.submit(demand, requester, callback)
            if i == victim:
                h.dead.add(h.duty_of(engine.lifecycle.get(qid).v))

        for i, (t, demand, requester) in enumerate(queries):
            h.sim.schedule(t, submit, i, demand, requester)
        h.sim.run(until=600.0)
        return (
            results, h.traffic.kind_snapshot(), vars(cache.stats),
            h.ctx.rng.bit_generator.state, engine.lifecycle.timeouts,
        )

    lone, burst = run(False), run(True)
    assert lone == burst
    results, kinds, stats, _, timeouts = lone
    assert sorted(i for i, *_ in results) == list(range(len(queries)))
    # The victim resolved after its failsafe fired, through the chain of
    # the relaunch, not by expiry.
    (resolved_at,) = [now for i, now, *_ in results if i == victim]
    assert resolved_at > queries[victim][0] + timeout
    assert timeouts == 0 and kinds["dropped"] == 1
    assert stats["hits"] > 0


def test_submit_many_dead_requester_resolves_all_queries():
    h = Harness(n=24, dims=2, seed=22)
    engine = make_engine(h)
    h.dead.add(0)
    calls = []
    engine.submit_many(
        [np.array([0.4, 0.4]), np.array([0.6, 0.2])], 0, calls.append
    )
    h.sim.run(until=600.0)
    assert len(calls) == 1
    assert all(records == [] for records, _ in calls[0])


def test_submit_many_dead_requester_draws_what_submit_draws():
    """A dead requester's queries resolve before any VD coordinate is
    drawn, batched or one by one: after ``submit_many`` the protocol
    stream stands where the same ``submit`` calls leave it."""
    demands = [np.array([0.4, 0.4]), np.array([0.6, 0.2])]
    for overrides in ({"vd": True}, {"sos": True, "vd": True}):
        states = []
        for batched in (True, False):
            h = Harness(n=24, dims=3, seed=22, cmax=np.ones(2))
            engine = make_engine(h, **overrides)
            h.dead.add(0)
            if batched:
                engine.submit_many(demands, 0, lambda results: None)
            else:
                for d in demands:
                    engine.submit(d, 0, lambda r, m: None)
            states.append(h.ctx.rng.bit_generator.state)
        assert states[0] == states[1], f"stream diverged ({overrides})"


def test_protocol_submit_many_default_fans_out():
    """Baselines inherit the DiscoveryProtocol ``submit_bulk`` default,
    which fans a same-instant batch out to plain submit_query
    (RandomWalkProtocol does not override it): every query resolves once."""
    from repro.baselines.randomwalk import RandomWalkProtocol
    from repro.core.protocol import PIDCANParams

    h = Harness(n=32, dims=2, seed=9)
    protocol = RandomWalkProtocol(h.ctx, PIDCANParams(resource_dims=2))
    protocol.bootstrap(sorted(h.overlay.node_ids()))
    calls = []
    demands = [np.array([0.4, 0.4]), np.array([0.5, 0.5]), np.array([0.3, 0.3])]
    protocol.submit_bulk([
        (demand, 0, lambda r, m, _i=i: calls.append((_i, m)))
        for i, demand in enumerate(demands)
    ])
    h.sim.run(until=600.0)
    assert sorted(i for i, _ in calls) == [0, 1, 2]
    assert all(isinstance(m, int) and m >= 0 for _, m in calls)
