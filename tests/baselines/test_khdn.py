"""Tests for the KHDN-CAN baseline."""

import numpy as np

from repro.baselines.khdn import KHDNProtocol
from repro.core.protocol import PIDCANParams
from repro.core.state import StateRecord
from tests.core.helpers import Harness


def make_khdn(n=48, seed=0, **kwargs):
    h = Harness(n=n, dims=2, seed=seed)
    proto = KHDNProtocol(h.ctx, PIDCANParams(resource_dims=2), **kwargs)
    proto.bootstrap(list(range(n)))
    # overwrite harness availability with 2-dim vectors in [0,1]
    for i in range(n):
        h.availability[i] = np.array([0.6, 0.6])
    return h, proto


def test_bootstrap_builds_overlay_and_caches():
    h, proto = make_khdn()
    assert len(proto.overlay) == 48
    assert set(proto.caches) == set(range(48))
    proto.overlay.check_invariants()


def test_state_replication_reaches_negative_nodes():
    from tests.conftest import is_negative_direction_of

    h, proto = make_khdn(seed=1)
    # pick a duty node in the interior and deliver a record there
    duty = next(
        n.node_id for n in proto.overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    record = StateRecord(777, np.array([0.9, 0.9]), 0.0)
    proto._deliver_state(duty, record)
    holders = [i for i, c in proto.caches.items() if len(c) > 0]
    assert duty in holders
    replicas = [i for i in holders if i != duty]
    assert replicas, "K-hop replication produced no copies"
    duty_zone = proto.overlay.nodes[duty].zone
    for r in replicas:
        assert is_negative_direction_of(proto.overlay.nodes[r].zone, duty_zone)
    assert h.traffic.by_kind["state-replication"] == len(replicas)


def test_query_finds_replicated_record():
    h, proto = make_khdn(seed=2)
    h.sim.run(until=900.0)  # state updates + replication run
    out = {}
    proto.submit_query(
        np.array([0.5, 0.5]), 0, lambda r, m: out.setdefault("records", r)
    )
    h.sim.run(until=1100.0)
    assert out["records"]
    for rec in out["records"]:
        assert np.all(rec.availability >= 0.5)


def test_query_fails_cleanly_when_unsatisfiable():
    h, proto = make_khdn(seed=3)
    h.sim.run(until=900.0)
    out = {}
    proto.submit_query(
        np.array([0.95, 0.95]), 0, lambda r, m: out.setdefault("records", r)
    )
    h.sim.run(until=1100.0)
    assert out["records"] == []


def test_probe_budget_bounds_query_traffic():
    h, proto = make_khdn(seed=4, max_probes=3)
    h.sim.run(until=900.0)
    before = h.traffic.by_kind.get("probe-query", 0)
    out = {}
    proto.submit_query(
        np.array([0.94, 0.94]), 0, lambda r, m: out.setdefault("m", m)
    )
    h.sim.run(until=1100.0)
    probes = h.traffic.by_kind.get("probe-query", 0) - before
    assert probes <= 3


def test_churn_hooks():
    h, proto = make_khdn(seed=5)
    proto.on_leave(7)
    assert 7 not in proto.overlay
    assert 7 not in proto.caches
    h.availability[999] = np.array([0.5, 0.5])
    proto.on_join(999)
    assert 999 in proto.overlay
    proto.overlay.check_invariants()
