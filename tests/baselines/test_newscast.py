"""Tests for the Newscast gossip baseline."""

import numpy as np

from repro.baselines.newscast import NewscastProtocol, ViewEntry
from repro.core.protocol import PIDCANParams
from tests.core.helpers import Harness


def make_newscast(n=32, seed=0, **kwargs):
    h = Harness(n=n, dims=2, seed=seed)
    for i in h.overlay.node_ids():
        h.availability[i] = np.array([0.5, 0.5])
    proto = NewscastProtocol(h.ctx, PIDCANParams(), **kwargs)
    proto.bootstrap(h.overlay.node_ids())
    return h, proto


def test_view_size_is_log2_population():
    h, proto = make_newscast(n=32)
    assert proto.view_size() == 5
    for view in proto.views.values():
        assert len(view) <= 5


def test_views_reference_other_nodes():
    h, proto = make_newscast()
    for node_id, view in proto.views.items():
        assert all(e.peer != node_id for e in view)


def test_gossip_refreshes_views():
    h, proto = make_newscast()
    h.sim.run(until=2000.0)
    assert h.traffic.by_kind["gossip"] > 0
    newest = max(
        (e.timestamp for view in proto.views.values() for e in view), default=0
    )
    assert newest > 1000.0


def test_merge_keeps_freshest_entries():
    h, proto = make_newscast()
    a = [ViewEntry(1, np.ones(2), 10.0), ViewEntry(2, np.ones(2), 5.0)]
    b = [ViewEntry(1, np.zeros(2), 20.0), ViewEntry(3, np.ones(2), 1.0)]
    merged = proto._merge(a, b)
    by_peer = {e.peer: e for e in merged}
    assert by_peer[1].timestamp == 20.0  # fresher copy of peer 1 won
    assert by_peer[1].availability[0] == 0.0


def test_query_finds_qualified_view_entry():
    h, proto = make_newscast(seed=3)
    h.sim.run(until=800.0)  # let gossip populate fresh entries
    out = {}
    proto.submit_query(
        np.array([0.4, 0.4]), 0, lambda r, m: out.setdefault("records", r)
    )
    h.sim.run(until=1000.0)
    assert out["records"], "uniform availability 0.5 ⪰ demand 0.4 must be found"
    for rec in out["records"]:
        assert np.all(rec.availability >= 0.4)


def test_query_fails_when_nothing_qualifies():
    h, proto = make_newscast(seed=4)
    h.sim.run(until=800.0)
    out = {}
    proto.submit_query(
        np.array([0.9, 0.9]), 0, lambda r, m: out.setdefault("records", r)
    )
    h.sim.run(until=1000.0)
    assert out["records"] == []


def test_walk_respects_delta():
    h, proto = make_newscast(seed=5)
    h.sim.run(until=800.0)
    out = {}
    proto.submit_query(
        np.array([0.1, 0.1]), 0, lambda r, m: out.setdefault("records", r)
    )
    h.sim.run(until=1000.0)
    owners = {r.owner for r in out["records"]}
    assert len(owners) >= proto.params.delta  # stops once delta distinct found


def test_join_seeds_view_from_introducer():
    h, proto = make_newscast()
    h.availability[999] = np.array([0.5, 0.5])
    proto.on_join(999)
    assert 999 in proto.views


def test_leave_drops_view():
    h, proto = make_newscast()
    proto.on_leave(3)
    assert 3 not in proto.views


def test_view_size_override():
    h = Harness(n=16, dims=2, seed=6)
    proto = NewscastProtocol(h.ctx, PIDCANParams(), view_size=3, walk_hops=2)
    proto.bootstrap(h.overlay.node_ids())
    assert proto.view_size() == 3
    assert proto.walk_hops() == 2
