"""Unit tests for the LAN/WAN network model."""

import numpy as np
import pytest

from repro.sim.network import CONTROL_MSG_BITS, NetworkModel, NetworkParams


@pytest.fixture
def net():
    model = NetworkModel(NetworkParams(lan_size=4), np.random.default_rng(0))
    for node in range(10):
        model.add_node(node)
    return model


def test_lans_fill_to_capacity(net):
    lans = [net.lan_of(i) for i in range(10)]
    sizes = {lan: lans.count(lan) for lan in set(lans)}
    assert all(size <= 4 for size in sizes.values())
    # 10 nodes at LAN size 4 need exactly 3 LANs
    assert len(sizes) == 3


def test_same_lan_delay_uses_lan_latency(net):
    params = net.params
    a, b = [n for n in range(10) if net.lan_of(n) == net.lan_of(0)][:2]
    d = net.delay(a, b)
    assert params.lan_latency_s <= d < params.wan_latency_s


def test_cross_lan_delay_uses_wan_latency(net):
    pairs = [
        (a, b)
        for a in range(10)
        for b in range(10)
        if a != b and net.lan_of(a) != net.lan_of(b)
    ]
    a, b = pairs[0]
    assert net.delay(a, b) >= net.params.wan_latency_s


def test_delay_to_self_is_zero(net):
    assert net.delay(3, 3) == 0.0


def test_delay_is_symmetric(net):
    for a, b in [(0, 5), (2, 9), (1, 3)]:
        assert net.delay(a, b) == pytest.approx(net.delay(b, a))


def test_bigger_messages_take_longer(net):
    small = net.delay(0, 9, CONTROL_MSG_BITS)
    big = net.delay(0, 9, CONTROL_MSG_BITS * 100)
    assert big > small


def test_path_delay_sums_hops(net):
    path = [0, 5, 9]
    expected = net.delay(0, 5) + net.delay(5, 9)
    assert net.path_delay(path) == pytest.approx(expected)


def test_path_delay_single_node_is_zero(net):
    assert net.path_delay([4]) == 0.0


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_path_delay_is_the_float_path_delays_returns(net, length):
    """A requester that is its own duty prices a one-node path: ``0.0``,
    a float like every longer path's sum, in both forms."""
    path = [4, 5, 9, 0][:length]  # a LAN hop, then two WAN hops
    one = net.path_delay(path)
    (many,) = net.path_delays([path])
    assert (type(one), one) == (type(many), many) == (float, many)
    assert (one == 0.0) == (length == 1)


def test_node_bandwidth_in_lan_range(net):
    for n in range(10):
        bw = net.node_bandwidth_mbps(n)
        assert net.params.lan_bw_mbps_lo <= bw <= net.params.lan_bw_mbps_hi


def test_nodes_in_same_lan_share_bandwidth(net):
    groups = {}
    for n in range(10):
        groups.setdefault(net.lan_of(n), set()).add(net.node_bandwidth_mbps(n))
    assert all(len(bws) == 1 for bws in groups.values())


def test_remove_node_frees_lan_slot():
    # Fill 12 nodes into exactly 3 LANs of 4 each; removing one node must
    # make its LAN the reuse target instead of opening a fourth LAN.
    model = NetworkModel(NetworkParams(lan_size=4), np.random.default_rng(0))
    for node in range(12):
        model.add_node(node)
    assert len({model.lan_of(n) for n in range(12)}) == 3
    lan = model.lan_of(5)
    model.remove_node(5)
    model.add_node(100)
    assert model.lan_of(100) == lan


def test_add_node_idempotent(net):
    lan = net.lan_of(0)
    net.add_node(0)
    assert net.lan_of(0) == lan


def test_delay_between_removed_nodes_takes_wan_path(net):
    """Churn regression: two departed endpoints both resolve to no LAN
    (``None == None``) and used to take the intra-LAN branch, crashing on
    the LAN bandwidth lookup.  In-flight messages between churned-out
    nodes must instead pay the WAN fallback price."""
    net.remove_node(0)
    net.remove_node(1)
    d = net.delay(0, 1, CONTROL_MSG_BITS)
    assert d >= net.params.wan_latency_s


def test_delay_with_one_removed_endpoint_is_wan(net):
    """A live node messaging a departed one cannot share a LAN with it."""
    peer = next(n for n in range(1, 10) if net.lan_of(n) == net.lan_of(0))
    net.remove_node(0)
    assert net.delay(peer, 0) >= net.params.wan_latency_s
    assert net.delay(0, peer) >= net.params.wan_latency_s


def test_removed_node_delay_under_churn_traffic():
    """End-to-end churn shape: keep routing among a mix of removed and
    live nodes; every pair must produce a finite positive delay."""
    model = NetworkModel(NetworkParams(lan_size=4), np.random.default_rng(2))
    for node in range(12):
        model.add_node(node)
    for node in (0, 3, 7):
        model.remove_node(node)
    for a in range(12):
        for b in range(12):
            if a != b:
                assert model.delay(a, b) > 0.0
