"""``CANOverlay.join`` hands the owner's edges out to the two halves of
its zone from the cached edge directions alone.  These tests pin that
rule to the geometric classification it replaced — both halves rebound
over {owner, joiner} ∪ the old neighborhood with
``ZoneStore.adjacency_rows`` — on schedules whose join points land on
split planes and on faces of the cube, and pin what the rule must not
do: query the zone store, or touch an edge the owner keeps."""

import numpy as np
import pytest

from repro.can.geometry import ZoneStore
from repro.can.overlay import CANOverlay
from repro.testing import ReferenceCANOverlay

#: Join coordinates: every one a split plane or a cube face at depth <= 2.
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


class GeometricJoinOverlay(CANOverlay):
    """A join classified the way ``leave`` still is, by geometry: the
    reference overlay's rebind of both halves, here through the
    vectorized ``_rebind_neighbors`` (so ``directions`` are kept too)."""

    _split_neighbors = ReferenceCANOverlay._split_neighbors


def assert_same_wiring(structural: CANOverlay, geometric: CANOverlay) -> None:
    assert set(structural.nodes) == set(geometric.nodes)
    for node_id, node in structural.nodes.items():
        twin = geometric.nodes[node_id]
        assert node.zone == twin.zone
        assert node.neighbors == twin.neighbors, f"neighbors of {node_id}"
        assert node.directions == twin.directions, f"directions of {node_id}"
        for dim in range(structural.dims):
            for sign in (+1, -1):
                assert structural.directional_neighbors(
                    node_id, dim, sign
                ) == geometric.directional_neighbors(node_id, dim, sign)


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_join_matches_the_geometric_classification(dims, seed):
    schedule = np.random.default_rng(100 * dims + seed)
    structural = CANOverlay(dims, np.random.default_rng(seed))
    geometric = GeometricJoinOverlay(dims, np.random.default_rng(seed))
    next_id = 0
    for _ in range(48):
        if len(structural) > 3 and schedule.random() < 0.25:
            ids = sorted(structural.nodes)
            victim = ids[int(schedule.integers(len(ids)))]
            structural.leave(victim)
            geometric.leave(victim)
            continue
        kind = schedule.random()
        if kind < 0.5:  # on split planes and cube faces
            point = schedule.choice(GRID, size=dims)
        elif kind < 0.75:  # some coordinates on a plane, the rest inside
            point = np.where(
                schedule.random(dims) < 0.5,
                schedule.choice(GRID, size=dims),
                schedule.uniform(0, 1, dims),
            )
        else:
            point = None  # the overlay's own draw
        structural.join(next_id, point)
        geometric.join(next_id, point)
        next_id += 1
        assert_same_wiring(structural, geometric)
        structural.check_invariants()


def test_bootstrap_makes_no_zone_store_query(monkeypatch):
    calls = {"rows_of": 0, "adjacency_rows": 0}

    def counted(name):
        original = getattr(ZoneStore, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ZoneStore, name, counted(name))
    overlay = CANOverlay(5, np.random.default_rng(3))
    overlay.bootstrap(range(500))
    assert calls == {"rows_of": 0, "adjacency_rows": 0}
    overlay.leave(17)  # the takeover still classifies by geometry
    assert calls["rows_of"] >= 1 and calls["adjacency_rows"] >= 1


def test_kept_edge_leaves_the_neighbor_buckets_alone_moved_edge_resets_them():
    overlay = CANOverlay(2, np.random.default_rng(0))
    overlay.join(0)
    overlay.join(1, np.array([0.75, 0.5]))   # 1: x in [.5, 1)
    overlay.join(2, np.array([0.25, 0.75]))  # 0: y in [0, .5), 2: y in [.5, 1)
    for node_id in overlay.nodes:
        overlay.directional_neighbors(node_id, 0, +1)  # fill every bucket
    kept = overlay.nodes[0].face_buckets
    assert kept is not None and overlay.nodes[2].face_buckets is not None

    overlay.join(3, np.array([0.8, 0.8]))    # splits 1 along y at .5
    assert overlay.nodes[1].neighbors == {0, 3}
    assert overlay.nodes[3].neighbors == {1, 2}
    assert overlay.nodes[0].face_buckets is kept      # edge 0-1 stayed with 1
    assert overlay.nodes[2].face_buckets is None      # edge 2-1 moved to 3
    assert overlay.nodes[1].face_buckets is None      # gained the joiner
    overlay.check_invariants()
