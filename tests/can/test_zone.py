"""Unit tests for zone geometry and the §III-A adjacency definitions."""

import numpy as np
import pytest

from repro.can.routing import _squared_distance
from repro.can.zone import Zone, adjacency_direction
from tests.conftest import is_negative_direction_of


def zone(lo, hi):
    return Zone(np.array(lo, dtype=float), np.array(hi, dtype=float))


def test_degenerate_zone_rejected():
    with pytest.raises(ValueError):
        zone([0.0, 0.0], [0.0, 1.0])


def test_contains_is_half_open():
    z = zone([0.0, 0.0], [0.5, 0.5])
    assert z.contains(np.array([0.0, 0.0]))
    assert z.contains(np.array([0.49, 0.25]))
    assert not z.contains(np.array([0.5, 0.25]))  # hi face excluded
    assert not z.contains(np.array([0.25, 0.5]))


def test_contains_refuses_a_nan_coordinate_and_keeps_every_finite_answer():
    """NaN compares false both ways, so a ``v < lo``/``v >= hi`` test lets
    it in; containment must not.  For finite values the answer is the
    half-open box with the unit cube's top faces closed."""
    z = zone([0.25, 0.5], [0.5, 1.0])
    for coords in ([np.nan, 0.75], [0.3, np.nan], [np.nan, np.nan]):
        assert not z.contains(np.array(coords))
        assert not Zone.unit(2).contains(coords)
    grid = (-0.25, 0.0, 0.25, 0.3, 0.5, 0.75, 1.0, 1.25)
    for x in grid:
        for y in grid:
            want = 0.25 <= x < 0.5 and (0.5 <= y < 1.0 or y == 1.0)
            assert z.contains(np.array([x, y])) is want, (x, y)


def test_nan_bound_rejected():
    with pytest.raises(ValueError, match="degenerate zone"):
        zone([0.0, np.nan], [0.5, 1.0])


def test_unit_top_faces_are_closed():
    z = zone([0.5, 0.5], [1.0, 1.0])
    assert z.contains(np.array([1.0, 1.0]))
    assert z.contains(np.array([0.5, 1.0]))


def test_every_point_has_exactly_one_owner_among_split_halves():
    parent = Zone.unit(2)
    low, high = parent.split(0)
    for p in np.random.default_rng(0).uniform(0, 1, size=(200, 2)):
        assert low.contains(p) != high.contains(p)
    boundary = np.array([0.5, 0.3])
    assert high.contains(boundary) and not low.contains(boundary)


def test_split_halves_tile_parent():
    z = zone([0.25, 0.5], [0.5, 1.0])
    low, high = z.split(1)
    assert low.volume + high.volume == pytest.approx(z.volume)
    assert low.merged_with(high) == z
    assert high.merged_with(low) == z


def test_merge_rejects_non_siblings():
    a = zone([0.0, 0.0], [0.5, 0.5])
    b = zone([0.5, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        a.merged_with(b)


def test_distance_to_point():
    """The greedy-routing progress measure: squared distance from a point
    to the closest point of the box."""
    z = zone([0.0, 0.0], [0.5, 0.5])
    assert _squared_distance(z, np.array([0.25, 0.25])) == 0.0
    assert _squared_distance(z, np.array([1.0, 0.25])) == pytest.approx(0.5**2)
    assert _squared_distance(z, np.array([1.0, 1.0])) == pytest.approx(0.5**2 + 0.5**2)
    # boundary contact counts as distance zero (closed-box distance)
    assert _squared_distance(z, np.array([0.5, 0.25])) == 0.0


def test_face_adjacency_positive_and_negative():
    left = zone([0.0, 0.0], [0.5, 1.0])
    right = zone([0.5, 0.0], [1.0, 1.0])
    assert adjacency_direction(left, right) == (0, +1)  # right is positive
    assert adjacency_direction(right, left) == (0, -1)


def test_partial_face_overlap_is_adjacent():
    a = zone([0.0, 0.0], [0.5, 1.0])
    b = zone([0.5, 0.25], [1.0, 0.75])
    assert adjacency_direction(a, b) == (0, +1)


def test_corner_contact_is_not_adjacent():
    a = zone([0.0, 0.0], [0.5, 0.5])
    b = zone([0.5, 0.5], [1.0, 1.0])
    assert adjacency_direction(a, b) is None


def test_touching_edges_without_overlap_not_adjacent():
    # abut on dim 0 but ranges on dim 1 merely touch (no open overlap)
    a = zone([0.0, 0.0], [0.5, 0.5])
    b = zone([0.5, 0.5], [1.0, 0.75])
    assert adjacency_direction(a, b) is None


def test_disjoint_zones_not_adjacent():
    a = zone([0.0, 0.0], [0.25, 0.25])
    b = zone([0.75, 0.75], [1.0, 1.0])
    assert adjacency_direction(a, b) is None


def test_overlapping_zones_not_adjacent():
    a = zone([0.0, 0.0], [0.6, 1.0])
    b = zone([0.4, 0.0], [1.0, 1.0])
    assert adjacency_direction(a, b) is None


def test_negative_direction_definition():
    # §III-A example: Node 22 is Node 13's negative-direction node.
    upper = zone([0.5, 0.5], [1.0, 1.0])
    lower = zone([0.0, 0.0], [0.25, 0.25])
    overlap_low = zone([0.25, 0.0], [0.75, 0.5])
    assert is_negative_direction_of(lower, upper)
    assert not is_negative_direction_of(upper, lower)
    assert is_negative_direction_of(overlap_low, upper)


def test_negative_direction_includes_overlapping_ranges():
    a = zone([0.0, 0.0], [1.0, 1.0])
    b = zone([0.25, 0.25], [0.75, 0.75])
    assert is_negative_direction_of(a, b)
    assert is_negative_direction_of(b, a)


def test_overlaps_box():
    z = zone([0.25, 0.25], [0.5, 0.5])
    assert z.overlaps_box(np.array([0.0, 0.0]), np.array([0.3, 0.3]))
    assert not z.overlaps_box(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    assert not z.overlaps_box(np.array([0.0, 0.6]), np.array([1.0, 1.0]))


def test_overlaps_box_accepts_plain_sequences():
    # Regression: both operands are normalized — the original coerced
    # ``lo`` but compared the raw ``hi`` argument.
    z = zone([0.25, 0.25], [0.5, 0.5])
    assert z.overlaps_box([0.0, 0.0], [0.3, 0.3])
    assert not z.overlaps_box([0.5, 0.5], [1.0, 1.0])
    assert not z.overlaps_box((0.0, 0.6), (1.0, 1.0))
    assert z.overlaps_box([0, 0], [1, 1])  # integer entries coerce too


def test_center_volume_side():
    z = zone([0.0, 0.5], [0.5, 1.0])
    assert z.volume == pytest.approx(0.25)
    assert Zone.unit(3).volume == 1.0


def test_zone_equality_and_hash():
    a = zone([0.0, 0.0], [0.5, 1.0])
    b = zone([0.0, 0.0], [0.5, 1.0])
    c = zone([0.0, 0.0], [0.25, 1.0])
    assert a == b
    assert a != c


# ----------------------------------------------------------------------
# split builds its halves without the validating constructor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [1, 2, 3, 5, 6])
def test_split_halves_equal_validated_construction_field_by_field(dims):
    rng = np.random.default_rng(dims)
    parent = Zone.unit(dims)
    for _ in range(40):  # a random dyadic zone per step, 40 levels deep
        dim = int(rng.integers(dims))
        mid = (parent.lo[dim] + parent.hi[dim]) / 2.0
        low_hi, high_lo = parent.hi.copy(), parent.lo.copy()
        low_hi[dim] = high_lo[dim] = mid
        halves = parent.split(dim)
        for got, want in zip(
            halves, (Zone(parent.lo, low_hi), Zone(high_lo, parent.hi))
        ):
            for name in ("lo", "hi"):
                field = getattr(got, name)
                assert field.dtype == np.float64 and not field.flags.writeable
                assert field.tolist() == getattr(want, name).tolist()
                with pytest.raises(ValueError):
                    field[0] = 0.5
            assert got._lo == want._lo and got._hi == want._hi
            assert all(type(v) is float for v in got._lo + got._hi)
            assert got == want
        # the bound a half did not move is the parent's own
        assert halves[0]._lo is parent._lo
        assert halves[1]._hi is parent._hi
        parent = halves[int(rng.integers(2))]


def test_split_of_a_zone_one_ulp_wide_is_refused():
    lo = np.array([0.25, 0.5])
    hi = np.array([0.5, np.nextafter(0.5, 1.0)])
    thin = Zone(lo, hi)
    assert thin.split(0)[0].hi[0] == 0.375  # the wide dimension still halves
    with pytest.raises(ValueError, match="degenerate zone"):
        thin.split(1)
