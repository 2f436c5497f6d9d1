"""Greedy-routing correctness, including the boundary-target perimeter walk."""

import numpy as np
import pytest

from repro.can.routing import RoutingError, greedy_path
from tests.conftest import make_overlay


def test_routes_reach_owner_from_every_start():
    overlay = make_overlay(32, 2, seed=1)
    rng = np.random.default_rng(2)
    for start in overlay.node_ids():
        p = rng.uniform(0, 1, 2)
        path = greedy_path(overlay, start, p)
        assert path[0] == start
        assert overlay.nodes[path[-1]].zone.contains(p)


def test_route_to_own_zone_is_trivial():
    overlay = make_overlay(16, 2, seed=1)
    node = overlay.nodes[3]
    path = greedy_path(overlay, 3, node.zone.center)
    assert path == [3]


def test_path_has_no_repeated_nodes():
    overlay = make_overlay(64, 3, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        start = int(rng.integers(64))
        p = rng.uniform(0, 1, 3)
        path = greedy_path(overlay, start, p)
        assert len(path) == len(set(path))


def test_consecutive_path_nodes_are_neighbors_or_perimeter():
    overlay = make_overlay(32, 2, seed=1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        start = int(rng.integers(32))
        p = rng.uniform(0, 1, 2)
        path = greedy_path(overlay, start, p)
        for a, b in zip(path[:-1], path[1:]):
            assert b in overlay.nodes[a].neighbors


def test_boundary_targets_resolve():
    # Dyadic coordinates land exactly on zone boundaries (real case: a
    # 12.8/25.6-capacity node reports availability 0.5).
    overlay = make_overlay(64, 2, seed=7)
    targets = [
        np.array([0.5, 0.5]),
        np.array([0.25, 0.75]),
        np.array([0.5, 0.0]),
        np.array([1.0, 0.5]),
        np.array([1.0, 1.0]),
        np.array([0.0, 0.0]),
    ]
    for start in (0, 17, 40):
        for p in targets:
            path = greedy_path(overlay, start, p)
            assert overlay.nodes[path[-1]].zone.contains(p)


def test_boundary_targets_resolve_5d():
    overlay = make_overlay(64, 5, seed=7)
    p = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    for start in overlay.node_ids()[:10]:
        path = greedy_path(overlay, start, p)
        assert overlay.nodes[path[-1]].zone.contains(p)


def test_hop_count_scales_as_root_n():
    # O(d·n^(1/d)) for plain CAN: 2-D path lengths grow roughly like √n.
    rng = np.random.default_rng(0)

    def mean_hops(n):
        overlay = make_overlay(n, 2, seed=13)
        hops = []
        for _ in range(150):
            start = int(rng.integers(n))
            p = rng.uniform(0, 1, 2)
            hops.append(len(greedy_path(overlay, start, p)) - 1)
        return np.mean(hops)

    small, large = mean_hops(16), mean_hops(256)
    assert large > small  # more nodes, longer routes
    assert large < small * 8  # but sublinear (16× nodes ≤ ~4× hops + slack)


def test_max_hops_enforced():
    overlay = make_overlay(64, 2, seed=1)
    with pytest.raises(RoutingError):
        greedy_path(overlay, 0, np.array([0.99, 0.99]), max_hops=1)
