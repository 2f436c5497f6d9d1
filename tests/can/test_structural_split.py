"""``CANOverlay`` rewires a join and a leave from the cached edge
directions alone: ``_split_neighbors`` hands the owner's edges out to the
two halves of its zone, ``_takeover`` lets the absorber (and the mover)
inherit the edges of the zone it took over.  These tests pin both rules
to the geometric classification they replaced — ``ReferenceCANOverlay``
rebinding the old neighborhoods with the scalar predicate — on schedules
whose join points land on split planes and on faces of the cube, pin
what the rules must not do (compare zones, touch an edge that stays),
and pin the id-indexed bounds columns ``_bind`` writes and ``leave``
erases."""

import numpy as np
import pytest

from repro.can.overlay import CANOverlay
from repro.testing import ReferenceCANOverlay

#: Join coordinates: every one a split plane or a cube face at depth <= 2.
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def assert_same_wiring(structural: CANOverlay, geometric: CANOverlay) -> None:
    assert set(structural.nodes) == set(geometric.nodes)
    for node_id, node in structural.nodes.items():
        twin = geometric.nodes[node_id]
        assert node.zone == twin.zone
        assert node.neighbors == twin.neighbors, f"neighbors of {node_id}"
        for dim in range(structural.dims):
            for sign in (+1, -1):
                assert structural.directional_neighbors(
                    node_id, dim, sign
                ) == geometric.directional_neighbors(node_id, dim, sign)


def run_in_lockstep(dims, seed, steps, leave_share):
    """Drive a structural and a geometric overlay through one schedule,
    comparing the wiring and running ``check_invariants()`` (brute-force
    directions, buckets, rows) after every operation.  Returns how many
    leaves were sibling merges and how many handoffs."""
    schedule = np.random.default_rng(100 * dims + seed)
    structural = CANOverlay(dims, np.random.default_rng(seed))
    geometric = ReferenceCANOverlay(dims, np.random.default_rng(seed))
    next_id = merges = handoffs = 0
    for _ in range(steps):
        if len(structural) > 3 and schedule.random() < leave_share:
            ids = sorted(structural.nodes)
            victim = ids[int(schedule.integers(len(ids)))]
            plan, twin = structural.leave(victim), geometric.leave(victim)
            assert (plan.absorber, plan.mover) == (twin.absorber, twin.mover)
            merges += plan.mover is None
            handoffs += plan.mover is not None
        else:
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
    return merges, handoffs


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_join_matches_the_geometric_classification(dims, seed):
    run_in_lockstep(dims, seed, steps=48, leave_share=0.25)


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
def test_every_takeover_matches_the_geometric_classification(dims):
    merges, handoffs = run_in_lockstep(dims, seed=2, steps=160, leave_share=0.4)
    assert merges >= 10 and handoffs >= 10


def test_rewiring_compares_no_zones(monkeypatch):
    assert not hasattr(CANOverlay, "_rebind_neighbors")
    calls = []
    monkeypatch.setattr(
        "repro.can.overlay.adjacency_direction",
        lambda a, b: calls.append((a, b)),
    )
    overlay = CANOverlay(5, np.random.default_rng(3))
    overlay.bootstrap(range(500))
    kinds = {overlay.leave(victim).mover is None for victim in range(17, 57)}
    assert kinds == {True, False}
    assert not calls


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


def test_edge_the_absorber_had_keeps_the_neighbor_buckets_inherited_one_resets():
    overlay = CANOverlay(2, np.random.default_rng(0))
    overlay.join(0)
    overlay.join(1, np.array([0.75, 0.5]))   # 0: x in [0, .5), 1: x in [.5, 1)
    overlay.join(2, np.array([0.75, 0.75]))  # 1: y in [0, .5), 2: y in [.5, 1)
    overlay.join(3, np.array([0.25, 0.75]))  # 0: y in [0, .5), 3: y in [.5, 1)
    assert overlay.nodes[1].neighbors == {0, 2}
    assert overlay.nodes[2].neighbors == {1, 3}
    for node_id in overlay.nodes:
        overlay.directional_neighbors(node_id, 0, +1)  # fill every bucket
    had = overlay.nodes[0].face_buckets

    plan = overlay.leave(2)                  # 1 grows back to x in [.5, 1)
    assert (plan.absorber, plan.mover) == (1, None)
    assert overlay.nodes[1].neighbors == {0, 3}
    assert overlay.nodes[0].face_buckets is had       # edge 1-0 was there
    assert overlay.nodes[3].face_buckets is None      # edge 1-3 inherited from 2
    overlay.check_invariants()


def test_bounds_rows_follow_the_node_ids():
    """One (2·d, capacity) array, column i = node i's zone: lo rows over
    hi rows, ``+inf`` wherever no member lives."""
    overlay = CANOverlay(3, np.random.default_rng(4))
    rows, capacity = overlay.bounds.shape
    assert rows == 6 and np.isposinf(overlay.bounds).all()
    overlay.bootstrap(range(3 * capacity))   # growth past the first capacity
    assert overlay.bounds.shape[0] == 6 and overlay.bounds.shape[1] >= 3 * capacity
    assert overlay.bounds.flags.c_contiguous  # a take(ids, axis=1) copies m columns
    assert np.isposinf(overlay.bounds[:, 3 * capacity:]).all()
    overlay.check_invariants()

    def column(node_id):
        return overlay.bounds[:3, node_id], overlay.bounds[3:, node_id]

    before = [half.copy() for half in column(5)]
    assert np.array_equal(before[0], overlay.nodes[5].zone.lo)
    overlay.leave(5)
    assert 5 not in overlay.nodes            # erased, and never NaN:
    assert np.isposinf(overlay.bounds[:, 5]).all()  # NaN would win an argmin
    overlay.check_invariants()
    overlay.join(5, np.array([0.9, 0.1, 0.9]))
    zone = overlay.nodes[5].zone
    assert np.array_equal(column(5)[0], zone.lo)
    assert np.array_equal(column(5)[1], zone.hi)
    assert not (np.array_equal(before[0], zone.lo) and np.array_equal(before[1], zone.hi))
    overlay.check_invariants()

    overlay.join(1000)                       # a sparse id grows the columns too
    assert np.array_equal(column(1000)[1], overlay.nodes[1000].zone.hi)
    assert np.isposinf(overlay.bounds[:, 3 * capacity:1000]).all()

    for node_id in overlay.node_ids():       # down to nobody, then a fresh start
        overlay.leave(node_id)
    assert np.isposinf(overlay.bounds).all()
    overlay.check_invariants()
    epoch = overlay.epoch
    overlay.join(7)
    assert overlay.epoch > epoch
    assert np.array_equal(column(7)[0], np.zeros(3))
    assert np.array_equal(column(7)[1], np.ones(3))
    overlay.check_invariants()
