"""Tests for INSCAN 2^k index pointers and O(log n) routing (§III-A)."""

import numpy as np
import pytest

from repro.can.inscan import (
    build_index_table,
    inscan_path,
    max_pointer_exponent,
)
from repro.can.routing import greedy_path
from repro.can.zone import adjacency_direction
from repro.testing import ReferenceCANOverlay
from tests.conftest import make_overlay


def build_all_tables(overlay, seed=0):
    rng = np.random.default_rng(seed)
    return {i: build_index_table(overlay, i, rng) for i in overlay.node_ids()}


def test_max_pointer_exponent_formula():
    assert max_pointer_exponent(1, 2) == 0
    assert max_pointer_exponent(16, 2) == 2  # 16^(1/2)=4 → log2=2
    assert max_pointer_exponent(256, 2) == 4
    assert max_pointer_exponent(2000, 5) == 2  # 2000^0.2 ≈ 4.6 → ⌊log2⌋ = 2


def test_pointer_chain_lengths_bounded_by_exponent():
    overlay = make_overlay(256, 2, seed=1)
    table = build_index_table(overlay, 0, np.random.default_rng(0))
    k_max = max_pointer_exponent(256, 2)
    for (dim, sign), chain in table.links.items():
        assert 1 <= len(chain) <= k_max + 1


def test_first_pointer_is_adjacent_neighbor():
    overlay = make_overlay(64, 2, seed=2)
    for node_id in overlay.node_ids()[:10]:
        table = build_index_table(overlay, node_id, np.random.default_rng(1))
        for (dim, sign), chain in table.links.items():
            first = overlay.nodes[chain[0]]
            direction = adjacency_direction(
                overlay.nodes[node_id].zone, first.zone
            )
            assert direction == (dim, sign)


def test_pointers_follow_requested_direction():
    overlay = make_overlay(128, 2, seed=3)
    for node_id in overlay.node_ids()[:20]:
        table = build_index_table(overlay, node_id, np.random.default_rng(2))
        me = overlay.nodes[node_id].zone
        for (dim, sign), chain in table.links.items():
            for target in chain:
                z = overlay.nodes[target].zone
                if sign > 0:
                    assert z.center[dim] > me.lo[dim]
                else:
                    assert z.center[dim] < me.hi[dim]


def test_edge_nodes_lack_outward_pointers():
    overlay = make_overlay(64, 2, seed=4)
    # a node whose zone touches lo=0 on dim 0 has no (0,-1) chain
    for node in overlay.nodes.values():
        if node.zone.lo[0] == 0.0:
            table = build_index_table(overlay, node.node_id, np.random.default_rng(3))
            assert (0, -1) not in table.links
            break
    else:
        pytest.fail("no edge node found")


def test_negative_index_nodes_include_k0():
    # Theorem 1's binary decomposition needs the 2^0 link.
    overlay = make_overlay(256, 2, seed=5)
    inner = next(
        n.node_id
        for n in overlay.nodes.values()
        if n.zone.lo[0] > 0.25 and n.zone.hi[0] < 0.75
    )
    table = build_index_table(overlay, inner, np.random.default_rng(4))
    ninodes = table.negative_index_nodes(0)
    assert ninodes  # non-edge nodes always have at least the adjacent link
    assert ninodes == table.pointers(0, -1)


def test_inscan_routing_reaches_owner():
    overlay = make_overlay(128, 3, seed=6)
    tables = build_all_tables(overlay)
    rng = np.random.default_rng(7)
    for _ in range(100):
        start = int(rng.integers(128))
        p = rng.uniform(0, 1, 3)
        path = inscan_path(overlay, tables, start, p)
        assert overlay.nodes[path[-1]].zone.contains(p)


def test_inscan_routing_beats_plain_can_on_average():
    overlay = make_overlay(256, 2, seed=8)
    tables = build_all_tables(overlay)
    rng = np.random.default_rng(9)
    plain, idx = [], []
    for _ in range(200):
        start = int(rng.integers(256))
        p = rng.uniform(0, 1, 2)
        plain.append(len(greedy_path(overlay, start, p)) - 1)
        idx.append(len(inscan_path(overlay, tables, start, p)) - 1)
    assert np.mean(idx) < np.mean(plain) * 0.8


def test_inscan_hops_scale_logarithmically():
    rng = np.random.default_rng(10)

    def mean_hops(n):
        overlay = make_overlay(n, 2, seed=11)
        tables = build_all_tables(overlay, seed=12)
        hops = []
        for _ in range(150):
            start = int(rng.integers(n))
            p = rng.uniform(0, 1, 2)
            hops.append(len(inscan_path(overlay, tables, start, p)) - 1)
        return np.mean(hops)

    h64, h512 = mean_hops(64), mean_hops(512)
    # 8× the nodes should cost ~log(8)≈3 extra hops, not √8×.
    assert h512 - h64 < 4.0


def test_routing_with_stale_tables_survives_churn():
    overlay = make_overlay(64, 2, seed=13)
    tables = build_all_tables(overlay)
    rng = np.random.default_rng(14)
    # churn out a quarter of the nodes without refreshing tables
    for node_id in overlay.node_ids()[:16]:
        overlay.leave(node_id)
        tables.pop(node_id, None)
    for _ in range(50):
        ids = overlay.node_ids()
        start = ids[int(rng.integers(len(ids)))]
        p = rng.uniform(0, 1, 2)
        path = inscan_path(overlay, tables, start, p)
        assert overlay.nodes[path[-1]].zone.contains(p)


def test_build_messages_charged():
    overlay = make_overlay(64, 2, seed=15)
    table = build_index_table(overlay, overlay.node_ids()[5], np.random.default_rng(0))
    walked = sum(len(c) for c in table.links.values())
    assert table.build_messages >= walked  # walks at least as far as chains


@pytest.mark.parametrize("dims", range(1, 9))
def test_max_pointer_exponent_is_exact_on_perfect_powers(dims):
    """k = ⌊log2 n^(1/d)⌋ is the largest k with (2^k)^d <= n; the float
    root fell one short at 64 ** (1/3) = 3.9999999999999996."""
    for k in range(1, 8):
        n = (2 ** k) ** dims
        assert max_pointer_exponent(n, dims) == k
        assert max_pointer_exponent(n - 1, dims) == k - 1


def test_loop_local_walk_equals_the_per_step_walk_draw_for_draw():
    """Tables built by ``CANOverlay.pointer_walks`` against the seed's
    one-call-per-hop walk on the scalar reference overlay: same links,
    same charge, and the generator left at the same stream position —
    on a fresh overlay and after churn has left face buckets stale."""
    vec = make_overlay(500, 5, seed=21)
    ref = ReferenceCANOverlay(5, np.random.default_rng(21))
    ref.bootstrap(range(500))
    churn = np.random.default_rng(22)

    def compare_tables(seed):
        vec_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for node_id in sorted(vec.nodes):
            got = build_index_table(vec, node_id, vec_rng)
            want = build_index_table(ref, node_id, ref_rng)
            assert list(got.links.items()) == list(want.links.items())
            assert got.build_messages == want.build_messages
        assert vec_rng.integers(1 << 62) == ref_rng.integers(1 << 62)

    compare_tables(23)
    for step in range(60):
        ids = sorted(vec.nodes)
        victim = ids[int(churn.integers(len(ids)))]
        point = churn.uniform(0, 1, 5)
        for overlay in (vec, ref):
            overlay.leave(victim)
            overlay.join(500 + step, point)
    stale = sum(node.face_buckets is None for node in vec.nodes.values())
    assert stale > 60  # rebuilt mid-walk below
    compare_tables(24)
    assert all(node.face_buckets is not None for node in vec.nodes.values())
