"""ZoneStore: SoA bookkeeping, compaction, and bit-exact equivalence of
every batched predicate against the verbatim scalar oracles in
``repro.testing``."""

import numpy as np
import pytest

from repro.can.geometry import ZoneStore
from repro.can.zone import Zone, adjacency_direction, is_negative_direction_of
from repro.testing import (
    ReferenceZone,
    reference_adjacency_direction,
    reference_distance_to_point,
    reference_is_negative_direction_of,
)
from tests.conftest import make_overlay


def random_boxes(rng, count, dims, dyadic_every=3):
    """A mix of arbitrary-float and exactly-dyadic boxes."""
    out = []
    for i in range(count):
        lo = rng.uniform(0.0, 0.6, dims)
        hi = lo + rng.uniform(0.05, 0.4, dims)
        if i % dyadic_every == 0:
            lo = np.floor(lo * 8) / 8
            hi = lo + np.maximum(np.ceil((hi - lo) * 8), 1) / 8
        out.append(Zone(lo, hi))
    return out


def store_from(zones):
    store = ZoneStore(zones[0].dims)
    for i, z in enumerate(zones):
        store.add(i, z)
    return store


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [1, 2, 3, 5, 6])
def test_squared_distances_bit_identical_to_scalar(dims):
    rng = np.random.default_rng(dims)
    zones = random_boxes(rng, 40, dims)
    store = store_from(zones)
    ids = list(range(len(zones)))
    for trial in range(30):
        p = rng.uniform(-0.2, 1.2, dims)
        if trial % 3 == 0:
            # exact boundary coordinate: the tie-heavy regime
            z = zones[int(rng.integers(len(zones)))]
            k = int(rng.integers(dims))
            p[k] = z.lo[k] if rng.random() < 0.5 else z.hi[k]
        acc, present = store.squared_distances(p, ids)
        assert present.all()
        pt = tuple(float(x) for x in p)
        for i, z in enumerate(zones):
            ref = ReferenceZone(z.lo, z.hi)
            d = reference_distance_to_point(ref, pt)
            assert (float(acc[i]) == 0.0) == (d == 0.0)
            # the decisive property: squared accumulators match the
            # scalar gap loop term for term (routing screens on these
            # and resolves near-ties in the seed's ``** 0.5`` space —
            # np.sqrt may differ from Python pow by an ulp on some libms)
            scalar_acc = 0.0
            for k in range(dims):
                v = pt[k]
                if v < ref._lo[k]:
                    gap = ref._lo[k] - v
                elif v > ref._hi[k]:
                    gap = v - ref._hi[k]
                else:
                    continue
                scalar_acc += gap * gap
            assert float(acc[i]) == scalar_acc


def test_distances_and_absent_ids():
    rng = np.random.default_rng(0)
    zones = random_boxes(rng, 10, 3)
    store = store_from(zones)
    p = rng.uniform(0, 1, 3)
    acc, present = store.squared_distances(p, [0, 99999, 5, -3])
    assert present.tolist() == [True, False, True, False]
    assert np.isinf(acc[1]) and np.isinf(acc[3])
    dist, present2 = store.distances(p, [0, 99999, 5])
    assert present2.tolist() == [True, False, True]
    assert dist[0] == np.sqrt(acc[0])


def test_contains_mask_matches_zone_contains():
    overlay = make_overlay(32, 3, seed=2)
    store = overlay.geometry
    ids = overlay.node_ids()
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 1, (20, 3)).tolist()
    points += [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    for p in points:
        p = np.asarray(p)
        mask = store.contains_mask(p, ids)
        for node_id, got in zip(ids, mask.tolist()):
            assert got == overlay.nodes[node_id].zone.contains(p)
        assert mask.sum() == 1  # zones tile the cube: unique owner


def test_touching_mask_is_zero_distance():
    overlay = make_overlay(64, 2, seed=4)
    store = overlay.geometry
    ids = overlay.node_ids()
    p = np.array([0.5, 0.5])
    mask = store.touching_mask(p, ids)
    for node_id, got in zip(ids, mask.tolist()):
        want = overlay.nodes[node_id].zone.distance_to_point(p) == 0.0
        assert got == want
    assert mask.sum() >= 2  # an interior corner touches several zones


# ----------------------------------------------------------------------
# adjacency / negative direction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [2, 3, 5])
def test_adjacency_matches_scalar_on_real_overlay(dims):
    overlay = make_overlay(48, dims, seed=dims)
    store = overlay.geometry
    ids = overlay.node_ids()
    for a in ids[:16]:
        mask, dims_arr, signs = store.adjacency(a, ids)
        za = overlay.nodes[a].zone
        for b, ok, dim, sign in zip(
            ids, mask.tolist(), dims_arr.tolist(), signs.tolist()
        ):
            want = adjacency_direction(za, overlay.nodes[b].zone)
            ref = reference_adjacency_direction(za, overlay.nodes[b].zone)
            assert want == ref  # production predicate vs verbatim oracle
            if b == a:
                assert want is None
            if want is None:
                assert not ok
            else:
                assert ok and (dim, sign) == want


def test_adjacency_rows_pairs_each_candidate_with_its_own_node():
    """The row-paired kernel (the fused join rebind's one call) gives, per
    pair, what the one-node call and the scalar predicate give."""
    overlay = make_overlay(48, 3, seed=4)
    store = overlay.geometry
    ids = overlay.node_ids()
    rng = np.random.default_rng(5)
    lhs = [ids[int(i)] for i in rng.integers(len(ids), size=200)]
    rhs = [ids[int(i)] for i in rng.integers(len(ids), size=200)]
    mask, dims_arr, signs = store.adjacency_rows(
        store.rows_of(lhs), store.rows_of(rhs)
    )
    for a, b, ok, dim, sign in zip(
        lhs, rhs, mask.tolist(), dims_arr.tolist(), signs.tolist()
    ):
        want = adjacency_direction(overlay.nodes[a].zone, overlay.nodes[b].zone)
        assert ok == (want is not None)
        if ok:
            assert (dim, sign) == want
            one_mask, one_dim, one_sign = store.adjacency(a, [b])
            assert (bool(one_mask[0]), one_dim[0], one_sign[0]) == (True, dim, sign)
    assert mask.any() and not mask.all()


def test_adjacency_handles_absent_and_corner_contact():
    # two unit-quarter zones touching only at a corner are NOT neighbors
    z00 = Zone(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    z11 = Zone(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    z10 = Zone(np.array([0.5, 0.0]), np.array([1.0, 0.5]))
    store = ZoneStore(2)
    store.add(0, z00)
    store.add(1, z11)
    store.add(2, z10)
    mask, dims_arr, signs = store.adjacency(0, [1, 2, 777])
    assert mask.tolist() == [False, True, False]
    assert (dims_arr[1], signs[1]) == (0, 1)
    mask2, d2, s2 = store.adjacency(2, [0, 1])
    assert mask2.tolist() == [True, True]
    assert (d2[0], s2[0]) == (0, -1)
    assert (d2[1], s2[1]) == (1, 1)


def test_negative_direction_mask_matches_scalar():
    overlay = make_overlay(40, 3, seed=9)
    store = overlay.geometry
    ids = overlay.node_ids()
    for a in ids[:12]:
        mask = store.negative_direction_mask(a, ids + [12345])
        za = overlay.nodes[a].zone
        for b, got in zip(ids, mask.tolist()):
            zb = overlay.nodes[b].zone
            assert got == is_negative_direction_of(zb, za)
            assert got == reference_is_negative_direction_of(zb, za)
        assert not mask[-1]  # absent id


# ----------------------------------------------------------------------
# mutation, compaction, id map
# ----------------------------------------------------------------------
def test_add_update_remove_and_epoch():
    store = ZoneStore(2)
    z = Zone(np.array([0.0, 0.0]), np.array([0.5, 1.0]))
    e0 = store.epoch
    store.add(7, z)
    assert store.epoch > e0 and 7 in store and len(store) == 1
    lo, hi = store.bounds_of(7)
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [0.5, 1.0]
    with pytest.raises(ValueError):
        store.add(7, z)
    z2 = Zone(np.array([0.5, 0.0]), np.array([1.0, 1.0]))
    e1 = store.epoch
    store.update(7, z2)
    assert store.epoch > e1
    assert store.bounds_of(7)[0].tolist() == [0.5, 0.0]
    store.remove(7)
    assert 7 not in store and len(store) == 0
    assert store.rows_of([7]).tolist() == [-1]
    with pytest.raises(KeyError):
        store.remove(7)


def test_large_ids_grow_the_dense_map():
    store = ZoneStore(2)
    z = Zone(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    store.add(100_000, z)
    assert store.rows_of([100_000, 5]).tolist() == [0, -1]
    acc, present = store.squared_distances(np.array([2.0, 0.5]), [100_000])
    assert present.tolist() == [True]
    assert acc[0] == 1.0


def test_compaction_preserves_semantics():
    rng = np.random.default_rng(11)
    store = ZoneStore(2)
    zones = {}
    for i in range(120):
        lo = rng.uniform(0, 0.5, 2)
        z = Zone(lo, lo + 0.25)
        store.add(i, z)
        zones[i] = z
    # kill enough rows to force a compaction
    for i in range(0, 120, 2):
        store.remove(i)
        del zones[i]
    store.check_invariants(zones)
    assert len(store) == 60
    p = np.array([0.9, 0.9])
    ids = sorted(zones)
    acc, present = store.squared_distances(p, ids)
    assert present.all()
    for node_id, a in zip(ids, acc.tolist()):
        d = zones[node_id].distance_to_point(p)
        assert np.sqrt(a) == pytest.approx(d, rel=1e-15, abs=0.0)
    # rows are reusable after compaction
    z = Zone(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    store.add(500, z)
    store.check_invariants({**zones, 500: z})


def test_from_zones_roundtrip():
    overlay = make_overlay(16, 2, seed=1)
    store = ZoneStore.from_zones(
        2, ((i, n.zone) for i, n in overlay.nodes.items())
    )
    store.check_invariants({i: n.zone for i, n in overlay.nodes.items()})
