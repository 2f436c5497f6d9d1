"""The width rule of ``greedy_paths``: a front of at most
``_NARROW_FRONT`` routes finishes by scalar hops, a wider one advances
in lockstep rounds until it narrows (``docs/can_geometry.md``, "The
width rule").  Which side of the rule a route lands on must be
unobservable: the same paths and the same memo as routing every query
alone, at every batch width around the constant, in the dimensions
where the kernel's summation order matters (d >= 8).
"""

import numpy as np
import pytest

from repro.can import routing
from repro.can.inscan import build_index_table
from repro.can.routing import _NARROW_FRONT, _pool_for, greedy_path, greedy_paths
from tests.conftest import make_overlay, zone_center
from tests.oracles import reference_greedy_path, reference_inscan_path

N_NODES = 96


def _rig(d, with_tables):
    """A fresh overlay, the pointer tables (or ``None``) and the scalar
    reference bound to them; two rigs of one ``d`` are identical."""
    overlay = make_overlay(N_NODES, d, seed=d)
    if not with_tables:
        return overlay, None, lambda s, p: reference_greedy_path(overlay, s, p)
    rng = np.random.default_rng(50 + d)
    tables = {n: build_index_table(overlay, n, rng) for n in sorted(overlay.nodes)}
    return overlay, tables, lambda s, p: reference_inscan_path(overlay, tables, s, p)


def _memo(overlay, tables):
    """The recorded routes by value; the fill serial a route is stamped
    with depends on the order blocks were built in, which nothing reads."""
    routes = _pool_for(overlay, tables).routes
    return {s: (tuple(m[0]), m[1].tolist(), m[2]) for s, m in routes.items()}


@pytest.mark.parametrize("with_tables", [False, True], ids=["plain", "inscan"])
@pytest.mark.parametrize("d", [5, 8, 9, 16])
def test_every_width_around_the_constant_routes_like_the_single_router(d, with_tables):
    rng = np.random.default_rng(700 + d)
    for width in range(1, _NARROW_FRONT + 3):
        batched, tables, reference = _rig(d, with_tables)
        single, single_tables, _ = _rig(d, with_tables)
        starts = rng.choice(N_NODES, size=width, replace=False).tolist()
        cold = rng.random((width, d))
        cold[0] = 0.5  # a boundary target: the perimeter tail
        # Warm: every other route repeats (a replay leaves the front
        # before round one, so the front is narrower than the batch).
        warm = cold.copy()
        warm[1::2] = rng.random((len(warm[1::2]), d))
        for points in (cold, warm):
            got = greedy_paths(batched, starts, points, link_tables=tables)
            assert got == [
                greedy_path(single, s, p, link_tables=single_tables)
                for s, p in zip(starts, points)
            ]
            assert got == [reference(s, p) for s, p in zip(starts, points)]
            assert _memo(batched, tables) == _memo(single, single_tables)
        pools = _pool_for(batched, tables), _pool_for(single, single_tables)
        assert len({(p.route_hits, p.route_misses, p.fills) for p in pools}) == 1
        assert pools[0].route_hits == (width + 1) // 2


@pytest.mark.parametrize("with_tables", [False, True], ids=["plain", "inscan"])
def test_a_front_that_narrows_mid_route_returns_lockstep_hops_then_scalar_hops(
    routing_spy, with_tables
):
    """Routes of a wide batch advance in rounds while more than
    ``_NARROW_FRONT`` of them are under way and by scalar hops after: the
    hops of the rounds sit in the hop log until the front narrows, and
    must be on a path before its scalar hops are."""
    overlay, tables, reference = _rig(5, with_tables)
    rng = np.random.default_rng(3)
    width = 4 * _NARROW_FRONT
    starts = rng.choice(N_NODES, size=width, replace=False).tolist()
    points = rng.random((width, 5))
    got = greedy_paths(overlay, starts, points, link_tables=tables)
    routes = _pool_for(overlay, tables).routes
    greedy_hops = sum(routes[s][2] - 1 for s in starts)
    # One start-distance pass, rounds while the front was wide, and some
    # — not all — of the hops one by one; a route the narrow front took
    # over had hopped before, so its first scalar hop left no start.
    spy = routing_spy
    rounds = spy.kernel - 1 - len(spy.hops)
    assert rounds >= 1 and 0 < len(spy.hops) < greedy_hops
    assert any(spy.hops[0] in path[1:-1] for path in got)
    assert got == [reference(s, p) for s, p in zip(starts, points)]


@pytest.mark.parametrize("width", [1, _NARROW_FRONT + 1])
def test_a_nan_distance_fails_at_once_on_either_side_of_the_rule(width):
    """A NaN coordinate makes every candidate distance NaN, which is
    below nothing: no progress — in a round and in the scalar loop alike,
    not a walk that ends at the hop budget."""
    overlay, tables, _ = _rig(5, with_tables=True)
    rng = np.random.default_rng(4)
    starts = rng.choice(N_NODES, size=width, replace=False).tolist()
    points = rng.random((width, 5))
    points[0] = 1.0 - zone_center(overlay.nodes[starts[0]].zone)  # outside its zone
    points[0, 2] = np.nan
    with pytest.raises(routing.RoutingError) as caught:
        greedy_paths(overlay, starts, points, link_tables=tables)
    assert str(caught.value) == (
        f"no progress at node {starts[0]} toward {tuple(points[0].tolist())} "
        "(dist nan, best candidate nan)"
    )
    with pytest.raises(routing.RoutingError, match=f"no progress at node {starts[0]} "):
        greedy_path(overlay, starts[0], points[0], link_tables=tables)
    got = greedy_paths(overlay, starts, points, link_tables=tables, on_error="none")
    assert got[0] is None and None not in got[1:]
