"""Scalar-vs-vectorized overlay equivalence under randomized schedules.

The vectorized :class:`CANOverlay` (one id-indexed bounds array, cached edge
directions, batched routing) and the verbatim seed oracle
(:class:`tests.oracles.ReferenceCANOverlay` + ``reference_greedy_path``)
must stay indistinguishable: identical adjacency, identical routing
paths hop for hop (not just owners), identical diffusion recipients.
"""

import numpy as np
import pytest

from repro.can.inscan import build_index_table, inscan_path, inscan_paths
from repro.can.routing import RoutingError, greedy_path, greedy_paths
from tests.conftest import make_overlay
from tests.oracles import (
    ReferenceCANOverlay,
    assert_overlays_equivalent,
    reference_greedy_path,
    reference_inscan_path,
)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_schedules_stay_equivalent(seed):
    stats = assert_overlays_equivalent(seed=seed, n=24, dims=3, steps=40)
    assert stats["routes"] > 0 and stats["diffusions"] > 0
    assert stats["joined"] > 0 and stats["left"] > 0


def test_randomized_schedule_5d_paper_dims():
    stats = assert_overlays_equivalent(seed=7, n=32, dims=5, steps=25)
    assert stats["boundary_routes"] > 0


def make_reference_overlay(n, dims, seed=0):
    overlay = ReferenceCANOverlay(dims, np.random.default_rng(seed))
    overlay.bootstrap(range(n))
    return overlay


def test_paths_bit_identical_on_static_overlay():
    """Paths — not just final owners — must match hop for hop, including
    exact-boundary targets that trigger the perimeter walk."""
    vec = make_overlay(96, 3, seed=5)
    ref = make_reference_overlay(96, 3, seed=5)
    rng = np.random.default_rng(6)
    points = rng.uniform(0, 1, (60, 3))
    points[:10] = np.round(points[:10] * 8) / 8  # boundary-exact targets
    starts = rng.integers(0, 96, 60)
    for s, p in zip(starts, points):
        assert greedy_path(vec, int(s), p) == reference_greedy_path(
            ref, int(s), p
        )


def test_inscan_paths_bit_identical_with_twin_tables():
    vec = make_overlay(128, 2, seed=8)
    ref = make_reference_overlay(128, 2, seed=8)
    vec_tables = {
        i: build_index_table(vec, i, np.random.default_rng(100 + i))
        for i in vec.node_ids()
    }
    ref_tables = {
        i: build_index_table(ref, i, np.random.default_rng(100 + i))
        for i in ref.node_ids()
    }
    for i in vec.node_ids():
        assert vec_tables[i].ends == ref_tables[i].ends
        assert vec_tables[i].all_links == ref_tables[i].all_links
        assert vec_tables[i].build_messages == ref_tables[i].build_messages
    rng = np.random.default_rng(9)
    for _ in range(60):
        s = int(rng.integers(128))
        p = rng.uniform(0, 1, 2)
        assert inscan_path(vec, vec_tables, s, p) == reference_inscan_path(
            ref, ref_tables, s, p
        )


def test_batched_routing_equals_single_route():
    overlay = make_overlay(64, 3, seed=10)
    tables = {
        i: build_index_table(overlay, i, np.random.default_rng(i))
        for i in overlay.node_ids()
    }
    rng = np.random.default_rng(11)
    points = rng.uniform(0, 1, (40, 3))
    points[:6] = np.round(points[:6] * 4) / 4
    starts = [int(s) for s in rng.integers(0, 64, 40)]
    assert greedy_paths(overlay, starts, points) == [
        greedy_path(overlay, s, p) for s, p in zip(starts, points)
    ]
    assert inscan_paths(overlay, tables, starts, points) == [
        inscan_path(overlay, tables, s, p) for s, p in zip(starts, points)
    ]


def test_batched_routing_after_churn_matches_single():
    overlay = make_overlay(48, 2, seed=12)
    rng = np.random.default_rng(13)
    for step in range(20):
        ids = overlay.node_ids()
        overlay.leave(ids[int(rng.integers(len(ids)))])
        overlay.join(2000 + step)
    points = rng.uniform(0, 1, (30, 2))
    ids = overlay.node_ids()
    starts = [ids[int(rng.integers(len(ids)))] for _ in range(30)]
    assert greedy_paths(overlay, starts, points) == [
        greedy_path(overlay, s, p) for s, p in zip(starts, points)
    ]


def test_batched_routing_error_modes():
    overlay = make_overlay(32, 2, seed=14)
    good = overlay.node_ids()[0]
    points = np.array([[0.9, 0.9], [0.1, 0.1]])
    with pytest.raises(KeyError):
        greedy_paths(overlay, [good, 99999], points)
    paths = greedy_paths(overlay, [good, 99999], points, on_error="none")
    assert paths[1] is None
    assert paths[0] == greedy_path(overlay, good, points[0])
    with pytest.raises(RoutingError):
        greedy_paths(overlay, [good], points[:1], max_hops=1)
    assert greedy_paths(
        overlay, [good], points[:1], max_hops=1, on_error="none"
    ) == [None]
    with pytest.raises(ValueError):
        greedy_paths(overlay, [good], points[:1], on_error="bogus")
    assert greedy_paths(overlay, [], np.empty((0, 2))) == []


def test_pow_space_near_tie_matches_seed_selection():
    """The square root merges accumulators one ulp apart into exact ties
    (lowest id must then win, as in the seed's ``(dist, id)`` scan);
    pure squared-space comparison would pick the strictly-smaller
    accumulator instead.  This fires on real workloads — structured
    availability coordinates produce such pairs at ~1e-4 per route."""
    from repro.can.routing import _pow_space_best

    lo_acc = float.fromhex("0x1.1bbd2db962545p-2")
    hi_acc = float.fromhex("0x1.1bbd2db962546p-2")
    assert lo_acc < hi_acc and lo_acc ** 0.5 == hi_acc ** 0.5

    def seed_scan(accs, ids):
        best_id, best_dist = -1, np.inf
        for cand_id, acc in zip(ids, accs):
            d = acc ** 0.5
            if d < best_dist or (d == best_dist and cand_id < best_id):
                best_dist, best_id = d, cand_id
        return best_dist, best_id

    cases = [
        # merged tie, lower id on the strictly-larger accumulator
        ([hi_acc, lo_acc, 0.9], [3, 7, 1]),
        ([lo_acc, hi_acc, 0.9], [7, 3, 1]),
        # exact tie
        ([0.25, 0.25, 0.5], [9, 2, 1]),
        # no tie at all
        ([0.3, 0.2, 0.9], [1, 5, 2]),
        # zero distance present
        ([0.0, lo_acc], [4, 2]),
    ]
    for accs, ids in cases:
        got = _pow_space_best(np.asarray(accs), ids)
        want = seed_scan(accs, ids)
        assert got == want, f"{accs} {ids}: {got} != {want}"


def test_single_node_overlay_routes_trivially():
    overlay = make_overlay(1, 2, seed=0)
    p = np.array([0.3, 0.7])
    assert greedy_path(overlay, 0, p) == [0]
    assert greedy_paths(overlay, [0], p[None, :]) == [[0]]


def test_directional_neighbors_match_reference_after_churn():
    vec = make_overlay(40, 3, seed=15)
    ref = make_reference_overlay(40, 3, seed=15)
    rng = np.random.default_rng(16)
    join_points = rng.uniform(0, 1, (15, 3))
    victims = []
    for step in range(15):
        ids = sorted(vec.nodes)
        victim = ids[int(rng.integers(len(ids)))]
        victims.append(victim)
        vec.leave(victim)
        ref.leave(victim)
        vec.join(3000 + step, join_points[step])
        ref.join(3000 + step, join_points[step])
    for node_id in vec.nodes:
        assert vec.nodes[node_id].directions == ref.nodes[node_id].directions
        for dim in range(3):
            for sign in (+1, -1):
                assert vec.directional_neighbors(
                    node_id, dim, sign
                ) == ref.directional_neighbors(node_id, dim, sign)
    vec.check_invariants()  # includes the direction-cache cross-check
