"""Tests for the INSCAN-RQ flooding range query — §III-A's completeness
and traffic/delay claims."""

import numpy as np

from repro.baselines.inscan_rq import INSCANRangeQuery
from tests.core.helpers import Harness


def make_rq(n=64, seed=0):
    h = Harness(n=n, dims=2, seed=seed)
    rq = INSCANRangeQuery(h.overlay, h.tables, h.caches)
    return h, rq


def plant_everywhere(h: Harness, rng):
    """One record per node, stored at the duty node of its availability."""
    owners = {}
    for owner in h.overlay.node_ids():
        avail = rng.uniform(0, 1, 2)
        duty = h.duty_of(avail)
        h.plant_record(duty, owner=1000 + owner, availability=avail)
        owners[1000 + owner] = avail
    return owners


def test_flooding_finds_all_qualified_records():
    h, rq = make_rq(seed=1)
    rng = np.random.default_rng(2)
    owners = plant_everywhere(h, rng)
    demand = np.array([0.6, 0.6])
    result = rq.query(0, demand, demand, now=0.0)
    expected = {o for o, a in owners.items() if np.all(a >= demand)}
    assert {r.owner for r in result.records} == expected


def test_responsible_nodes_cover_query_box():
    h, rq = make_rq(seed=3)
    demand = np.array([0.5, 0.5])
    result = rq.query(0, demand, demand, now=0.0)
    overlap = [
        n.node_id
        for n in h.overlay.nodes.values()
        if n.zone.overlaps_box(demand, np.ones(2)) or n.zone.contains(demand)
    ]
    assert result.responsible_nodes == len(overlap)


def test_traffic_formula():
    # §III-A: traffic per query is route hops + (N − 1) flood edges.
    h, rq = make_rq(seed=4)
    demand = np.array([0.4, 0.4])
    result = rq.query(5, demand, demand, now=0.0)
    assert result.messages == result.route_hops + result.responsible_nodes - 1


def test_wider_ranges_touch_more_nodes():
    h, rq = make_rq(seed=5)
    narrow = rq.query(0, np.array([0.8, 0.8]), np.array([0.8, 0.8]), now=0.0)
    wide = rq.query(0, np.array([0.1, 0.1]), np.array([0.1, 0.1]), now=0.0)
    assert wide.responsible_nodes > narrow.responsible_nodes
    assert wide.messages > narrow.messages
    # Fig.-1-style motivation: flood traffic grows with every widening,
    # and the widest query floods the better part of the network
    sweep = [
        rq.query(0, np.array([c, c]), np.array([c, c]), now=0.0)
        for c in (0.9, 0.7, 0.5, 0.3, 0.1)
    ]
    messages = [result.messages for result in sweep]
    assert messages == sorted(messages)
    assert sweep[-1].responsible_nodes > len(h.overlay.node_ids()) / 2
    assert all(r.messages >= r.responsible_nodes - 1 for r in sweep)


def test_flood_depth_bounded_by_network_diameter():
    h, rq = make_rq(n=128, seed=6)
    demand = np.array([0.05, 0.05])  # floods nearly the whole space
    result = rq.query(0, demand, demand, now=0.0)
    # depth ≤ O(√N) for 2-D CAN; wildly smaller than N
    assert result.flood_depth <= 4 * int(np.sqrt(result.responsible_nodes)) + 4
    # §III-A query delay (route + flood depth) within a soft 2·log2(n)
    # bound (constants differ off the torus), at any range width
    rng = np.random.default_rng(9)
    delays = [result.route_hops + result.flood_depth]
    for corner in rng.uniform(0.2, 0.9, 25):
        demand = np.array([corner, corner])
        r = rq.query(0, demand, demand, now=0.0)
        delays.append(r.route_hops + r.flood_depth)
    assert max(delays) <= 4 * np.log2(128)


def test_empty_caches_return_no_records():
    h, rq = make_rq(seed=7)
    result = rq.query(0, np.array([0.3, 0.3]), np.array([0.3, 0.3]), now=0.0)
    assert result.records == ()
    assert result.responsible_nodes >= 1
