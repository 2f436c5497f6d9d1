"""Tests for the Mercury attribute-hub baseline (related work [15])."""

import numpy as np
import pytest

from repro.baselines.mercury import HubRing, MercuryProtocol
from repro.core.protocol import PIDCANParams, make_protocol
from repro.testing import ProtocolSandbox


# ----------------------------------------------------------------------
# HubRing substrate
# ----------------------------------------------------------------------
def make_ring(positions):
    ring = HubRing(0)
    for node_id, pos in enumerate(positions):
        ring.add(node_id, pos)
    return ring


def test_ring_orders_members_by_position():
    ring = make_ring([0.7, 0.2, 0.5])
    # ascending by position: 1 (0.2), 2 (0.5), 0 (0.7)
    assert [ring.owner_of(v) for v in (0.2, 0.5, 0.7)] == [1, 2, 0]
    assert ring.successor_no_wrap(1) == 2 and ring.successor_no_wrap(2) == 0


def test_owner_lookup_by_arc():
    ring = make_ring([0.0, 0.5])
    assert ring.owner_of(0.25) == 0
    assert ring.owner_of(0.5) == 1
    assert ring.owner_of(0.99) == 1


def test_values_below_first_arc_wrap_to_last():
    ring = make_ring([0.3, 0.6])
    assert ring.owner_of(0.1) == 1  # wraps to the topmost arc


def test_duplicate_member_rejected():
    ring = make_ring([0.3])
    with pytest.raises(ValueError):
        ring.add(0, 0.9)


def test_remove_merges_arc_into_predecessor():
    ring = make_ring([0.0, 0.5])
    ring.remove(1)
    assert ring.owner_of(0.9) == 0
    assert len(ring) == 1


def test_empty_ring_lookup_raises():
    with pytest.raises(LookupError):
        HubRing(0).owner_of(0.5)


def test_successor_orders():
    ring = make_ring([0.0, 0.5, 0.8])
    assert ring.successor_no_wrap(2) is None  # no wrap at the top
    assert ring.successor_no_wrap(0) == 1


def test_routing_hops_popcount():
    ring = make_ring([i / 16 for i in range(16)])
    # distance 5 = 0b101 → 2 finger hops
    src = 0  # the arc starting at 0
    value = 5 / 16 + 0.01
    assert ring.routing_hops(src, value) == 2
    # self arc → 0 hops
    assert ring.routing_hops(src, 0.001) == 0


def test_routing_from_outside_charges_bootstrap():
    ring = make_ring([0.0, 0.5])
    assert ring.routing_hops(999, 0.7) >= 1


# ----------------------------------------------------------------------
# protocol behaviour
# ----------------------------------------------------------------------
def make_mercury(n=40, seed=0, dims=2, **kwargs):
    sb = ProtocolSandbox(n=n, dims=dims, seed=seed)
    proto = MercuryProtocol(sb.ctx, PIDCANParams(resource_dims=dims), **kwargs)
    proto.bootstrap(list(range(n)))
    rng = np.random.default_rng(seed + 50)
    for i in range(n):
        sb.availability[i] = rng.uniform(0.3, 1.0, dims)
    return sb, proto


def test_hubs_are_balanced():
    _, proto = make_mercury(n=40, dims=2)
    sizes = [len(hub) for hub in proto.hubs]
    assert sum(sizes) == 40
    assert max(sizes) - min(sizes) <= 1


def test_state_updates_replicate_to_every_hub():
    sb, proto = make_mercury(seed=1)
    sb.sim.run(until=900.0)
    total = sum(len(c) for c in proto.caches.values())
    # ~every node's record lands once per hub (d=2 replicas each)
    assert total >= 40 * 2 * 0.7
    assert sb.traffic.by_kind["state-update"] > 0


def test_query_finds_qualified_records():
    sb, proto = make_mercury(seed=2)
    sb.sim.run(until=900.0)
    out = {}
    proto.submit_query(
        np.array([0.35, 0.35]), 0, lambda r, m: out.setdefault("records", r)
    )
    sb.sim.run(until=1100.0)
    assert out["records"]
    for rec in out["records"]:
        assert np.all(rec.availability >= 0.35)


def test_query_fails_cleanly_when_unsatisfiable():
    sb, proto = make_mercury(seed=3)
    sb.sim.run(until=900.0)
    out = {}
    proto.submit_query(
        np.array([1.5, 1.5]), 0, lambda r, m: out.setdefault("records", r)
    )
    sb.sim.run(until=1200.0)
    assert out["records"] == []


def test_most_selective_hub_picks_highest_demand():
    sb, proto = make_mercury(seed=4)
    hub = proto._most_selective_hub(np.array([0.2, 0.9]))
    assert hub.attribute == 1


def test_walk_budget_bounds_traffic():
    sb, proto = make_mercury(seed=5, walk_budget=3)
    sb.sim.run(until=900.0)
    before = sb.traffic.by_kind.get("walk-query", 0)
    out = {}
    proto.submit_query(
        np.array([0.95, 0.95]), 0, lambda r, m: out.setdefault("records", r)
    )
    sb.sim.run(until=1200.0)
    assert sb.traffic.by_kind.get("walk-query", 0) - before <= 3


def test_churn_hooks():
    sb, proto = make_mercury(seed=6)
    hub_idx = proto.hub_of[3]
    proto.on_leave(3)
    assert 3 not in proto.hub_of
    assert 3 not in proto.hubs[hub_idx]
    sb.availability[777] = np.array([0.5, 0.5])
    proto.on_join(777)
    assert 777 in proto.hub_of


def test_factory_builds_mercury():
    sb = ProtocolSandbox(n=10, dims=5, seed=7)
    proto = make_protocol("mercury", sb.ctx)
    assert proto.name == "mercury"


def test_full_soc_run_with_mercury():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import SOCSimulation

    cfg = ExperimentConfig(
        n_nodes=40, duration=4000.0, demand_ratio=0.4, seed=11,
        protocol="mercury",
    )
    res = SOCSimulation(cfg).run()
    assert res.generated > 0
    assert res.finished + res.failed <= res.generated
    assert res.traffic_total > 0
