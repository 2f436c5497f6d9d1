"""Structural tests for the CAN overlay, including a hypothesis-driven
churn soak that cross-checks local neighbor maintenance against the
O(n²) brute-force recomputation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.overlay import CANOverlay
from tests.conftest import make_overlay


@pytest.mark.parametrize("n,dims", [(1, 2), (2, 2), (16, 2), (40, 3), (64, 5)])
def test_bootstrap_invariants(n, dims):
    overlay = make_overlay(n, dims)
    overlay.check_invariants()
    assert len(overlay) == n


def test_every_point_has_an_owner(overlay_2d):
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = rng.uniform(0, 1, 2)
        owner = overlay_2d.owner_of(p)
        assert overlay_2d.nodes[owner].zone.contains(p)


def test_corner_points_have_owners(overlay_2d):
    for p in ([0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]):
        owner = overlay_2d.owner_of(np.array(p))
        assert overlay_2d.nodes[owner].zone.contains(np.array(p))


def test_join_duplicate_id_rejected(overlay_2d):
    with pytest.raises(ValueError):
        overlay_2d.join(0)


def test_join_negative_id_rejected_before_touching_state(overlay_2d):
    """Bounds rows are indexed by node id: a negative id would alias a
    row from the end of the arrays (another node's, sooner or later)."""
    epoch, members = overlay_2d.epoch, set(overlay_2d.nodes)
    with pytest.raises(ValueError, match=">= 0"):
        overlay_2d.join(-1)
    assert (overlay_2d.epoch, set(overlay_2d.nodes)) == (epoch, members)
    overlay_2d.check_invariants()
    with pytest.raises(ValueError, match=">= 0"):
        CANOverlay(2, np.random.default_rng(0)).join(-1)  # as first node too


def test_neighbors_nonempty_for_multinodes(overlay_2d):
    for node in overlay_2d.nodes.values():
        assert node.neighbors, f"node {node.node_id} is isolated"


def test_directional_neighbors_partition_neighbor_set(overlay_2d):
    for node_id, node in overlay_2d.nodes.items():
        directional = set()
        for dim in range(2):
            for sign in (+1, -1):
                directional.update(
                    overlay_2d.directional_neighbors(node_id, dim, sign)
                )
        assert directional == node.neighbors


def test_directional_neighbors_are_immutable_sorted_and_track_churn():
    """Face buckets: a tuple per face in ascending id order, equal to the
    filter over ``directions`` they replaced, and never served stale —
    every face is read (buckets built) before each mutation."""
    overlay = make_overlay(30, 3, seed=21)
    rng = np.random.default_rng(22)

    def read_all_faces():
        for node_id, node in overlay.nodes.items():
            for dim in range(3):
                for sign in (+1, -1):
                    got = overlay.directional_neighbors(node_id, dim, sign)
                    assert isinstance(got, tuple)
                    assert got == tuple(sorted(
                        m for m, d in node.directions.items()
                        if d == (dim, sign)
                    ))

    read_all_faces()
    for step in range(25):
        ids = sorted(overlay.nodes)
        overlay.leave(ids[int(rng.integers(len(ids)))])
        read_all_faces()
        overlay.join(1000 + step)
        read_all_faces()
    overlay.check_invariants()


def test_edge_directions_are_interned():
    """Every ``directions`` value is one of the overlay's 2·d shared
    tuples, so the face buckets do not cost an allocation per edge."""
    overlay = make_overlay(64, 5, seed=2)
    for victim in overlay.node_ids()[:10]:
        overlay.leave(victim)
    distinct = {
        id(d) for node in overlay.nodes.values()
        for d in node.directions.values()
    }
    assert len(distinct) <= 2 * overlay.dims


def test_leave_until_one_node():
    overlay = make_overlay(12, 2, seed=3)
    ids = overlay.node_ids()
    for node_id in ids[:-1]:
        overlay.leave(node_id)
        overlay.check_invariants()
    last = overlay.node_ids()[0]
    assert overlay.nodes[last].zone.volume == pytest.approx(1.0)
    overlay.leave(last)
    assert len(overlay) == 0
    # fresh join after total drain restarts cleanly
    overlay.join(999)
    overlay.check_invariants()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
        min_size=5,
        max_size=40,
    ),
    st.integers(min_value=2, max_value=4),
)
def test_random_churn_preserves_invariants(ops, dims):
    """The central overlay property test: arbitrary join/leave interleavings
    keep (a) zones a partition of the cube, (b) the tree 1:1, and
    (c) the incrementally-maintained neighbor sets exactly equal to the
    brute-force adjacency relation."""
    overlay = CANOverlay(dims, np.random.default_rng(0))
    overlay.bootstrap(range(4))
    next_id = 4
    for is_join, selector in ops:
        if is_join or len(overlay) <= 2:
            overlay.join(next_id)
            next_id += 1
        else:
            ids = overlay.node_ids()
            overlay.leave(ids[selector % len(ids)])
        overlay.check_invariants()


def test_churned_overlay_still_routes():
    from repro.can.routing import greedy_path

    overlay = make_overlay(48, 3, seed=5)
    rng = np.random.default_rng(9)
    for step in range(30):
        ids = overlay.node_ids()
        overlay.leave(ids[int(rng.integers(len(ids)))])
        overlay.join(1000 + step)
    overlay.check_invariants()
    ids = overlay.node_ids()
    for _ in range(50):
        start = ids[int(rng.integers(len(ids)))]
        p = rng.uniform(0, 1, 3)
        path = greedy_path(overlay, start, p)
        assert overlay.nodes[path[-1]].zone.contains(p)


def test_zone_sizes_are_skewed_by_random_joins():
    # §I: records may be "intensively stored in only a few small-zone
    # nodes" — random joins must produce heterogeneous zone volumes.
    overlay = make_overlay(128, 2, seed=11)
    volumes = sorted(n.zone.volume for n in overlay.nodes.values())
    assert volumes[-1] / volumes[0] >= 4.0
