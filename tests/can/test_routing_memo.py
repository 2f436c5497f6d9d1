"""Lockstep and edge tests for the last-route memo of the routing pool.

``_RouteBlockPool`` replays a start's previous route when the query
point is value-equal, walking it hop by hop: a hop out of the block the
route read is taken as recorded, a hop out of a block rebuilt since is
computed again and must pick the recorded node
(``docs/can_geometry.md``, "Last-route memo").
A replay must be indistinguishable from routing afresh, so the machine
below changes everything a route depends on — membership (joins,
leaves, a departed id joining again somewhere else), pointer tables
(of nodes on memoised routes by preference, and of one node over and
over), routes batches on both sides of the width rule — and after every
step re-routes remembered ``(start, point)``
pairs through all four public entry points against the scalar
references.  The repair
tests after it count hop-kernel calls; the candidate
blocks under the memo outlive joins and leaves, and the edge tests at
the end pin what that rests on (``docs/can_geometry.md``, "Routing:
candidate pools").
"""

import copy

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from repro.can import routing
from repro.can.inscan import build_index_table, inscan_path, inscan_paths
from repro.can.overlay import CANOverlay
from repro.can.routing import (
    _NARROW_FRONT, RoutingError, _pool_for, _squared_distance, greedy_path, greedy_paths,
)
from repro.testing import reference_greedy_path, reference_inscan_path
from tests.conftest import assert_no_dead_storage

DIMS = 3
START_N = 12
UNKNOWN_ID = 10**6
#: Pairs re-routed after every step.
REPLAYED = 5

#: Table-I style coordinates: exact dyadic boundaries first, so zone
#: faces (and the space's closed top face, 1.0) are hit on purpose.
coordinate = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
point_lists = st.lists(coordinate, min_size=DIMS, max_size=DIMS)
picks = st.integers(min_value=0, max_value=10_000)


def _reference(fn, *args):
    """The reference's path, or None where it fails the way batched
    ``on_error="none"`` routing reports a failure."""
    try:
        return fn(*args)
    except (KeyError, RoutingError):
        return None


class RouteMemoLockstepMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.rng = np.random.default_rng(11)
        self.overlay = CANOverlay(DIMS, np.random.default_rng(7))
        self.overlay.bootstrap(range(START_N))
        self.tables = {
            n: build_index_table(self.overlay, n, self.rng) for n in range(START_N)
        }
        self.next_id = START_N
        self.departed: list[int] = []
        self.history: list[tuple[int, tuple[float, ...]]] = []

    def _alive(self, pick: int) -> int:
        ids = sorted(self.overlay.nodes)
        return ids[pick % len(ids)]

    def _admit(self, node_id: int, coords) -> None:
        self.overlay.join(node_id, np.asarray(coords))
        self.tables[node_id] = build_index_table(self.overlay, node_id, self.rng)

    # ------------------------------------------------------------------
    # everything a memoised route depends on, changed under its feet
    # ------------------------------------------------------------------
    @rule(coords=point_lists)
    def join(self, coords):
        self._admit(self.next_id, coords)
        self.next_id += 1

    @rule(pick=picks)
    def leave(self, pick):
        if len(self.overlay) <= 3:
            return
        node_id = self._alive(pick)
        self.overlay.leave(node_id)
        # Other nodes keep their (now stale) long links to the leaver.
        del self.tables[node_id]
        self.departed.append(node_id)

    @rule(pick=picks, coords=point_lists)
    def rejoin_departed_id(self, pick, coords):
        if not self.departed:
            return
        self._admit(self.departed.pop(pick % len(self.departed)), coords)

    @rule(pick=picks, on_route=st.booleans(), rebuild=st.booleans(), point=point_lists)
    def replace_pointer_table(self, pick, on_route, rebuild, point):
        """A refresh alone leaves the node's block stale; routing from the
        node rebuilds it, newer than any route memoised across it.  Either
        way the next replay across the node recomputes its hop — aimed at
        a node some memoised route left, when there is one."""
        node_id = self._alive(pick)
        routes = _pool_for(self.overlay, self.tables).routes
        left = sorted({n for memo in routes.values() for n in memo[1][: memo[2] - 1]})
        if on_route and left:
            node_id = left[pick % len(left)]
        self.tables[node_id] = build_index_table(self.overlay, node_id, self.rng)
        if rebuild:
            inscan_path(self.overlay, self.tables, node_id, point)

    @rule(pick=picks, times=st.integers(min_value=1, max_value=8), point=point_lists)
    def refill_one_block(self, pick, times, point):
        """Refresh one node's table and route out of it, over and over: a
        rebuilt block replaces its predecessor, so the pool stays at one
        block per member however often a block is rebuilt."""
        node_id = self._alive(pick)
        # A start that owns one target reads no block for it; it cannot
        # own the mirrored one as well (the centre point apart).
        targets = (tuple(point), tuple(1.0 - x for x in point))
        for _ in range(times):
            self.tables[node_id] = build_index_table(self.overlay, node_id, self.rng)
            for target in targets:
                self.history.append((node_id, target))
                inscan_path(self.overlay, self.tables, node_id, target)
        assert_no_dead_storage(_pool_for(self.overlay, self.tables), self.overlay)

    # ------------------------------------------------------------------
    # routes, fresh and deliberately repeated
    # ------------------------------------------------------------------
    @rule(pick=picks, point=point_lists)
    def route(self, pick, point):
        self.history.append((self._alive(pick), tuple(point)))

    @rule(pick=picks)
    def repeat_earlier_pair(self, pick):
        if self.history:
            self.history.append(self.history[pick % len(self.history)])

    @rule(pick=picks, point=point_lists)
    def same_start_new_point(self, pick, point):
        """One entry per start: the newer route overwrites the older."""
        if self.history:
            start, _ = self.history[pick % len(self.history)]
            self.history.append((start, tuple(point)))

    @rule(batch=st.lists(
        st.tuples(picks, point_lists), min_size=1, max_size=2 * _NARROW_FRONT + 2
    ))
    def route_batch(self, batch):
        """One batch on either side of the width rule: up to
        ``_NARROW_FRONT`` routes go hop by hop, more go in rounds until
        the front narrows — over whatever memo the steps before left."""
        overlay, tables = self.overlay, self.tables
        pairs = [(self._alive(pick), tuple(point)) for pick, point in batch]
        starts, points = [s for s, _ in pairs], np.asarray([p for _, p in pairs])
        assert greedy_paths(overlay, starts, points, on_error="none") == [
            _reference(reference_greedy_path, overlay, s, p) for s, p in pairs
        ]
        assert inscan_paths(overlay, tables, starts, points, on_error="none") == [
            _reference(reference_inscan_path, overlay, tables, s, p) for s, p in pairs
        ]
        self.history.extend(pairs[-REPLAYED:])

    @invariant()
    def every_entry_point_matches_its_reference(self):
        if not hasattr(self, "overlay"):
            return
        overlay, tables = self.overlay, self.tables
        recent = self.history[-REPLAYED:]
        if not recent:
            return
        pools = [_pool_for(overlay, None), _pool_for(overlay, tables)]
        tallied = [p.route_hits + p.route_misses for p in pools]
        plain_want = [
            _reference(reference_greedy_path, overlay, s, p) for s, p in recent
        ]
        inscan_want = [
            _reference(reference_inscan_path, overlay, tables, s, p) for s, p in recent
        ]
        for (s, p), plain, inscan in zip(recent, plain_want, inscan_want):
            if s not in overlay.nodes:
                with pytest.raises(KeyError):
                    greedy_path(overlay, s, p)
                continue
            assert greedy_path(overlay, s, p) == plain
            assert inscan_path(overlay, tables, s, p) == inscan
            # Nothing changed since the line above: this one is a replay,
            # and a replay is a fresh list.
            pool = _pool_for(overlay, tables)
            hits = pool.route_hits
            replay = inscan_path(overlay, tables, s, p)
            assert replay == inscan and pool.route_hits == hits + 1
            replay.append(-1)
            assert inscan_path(overlay, tables, s, p) == inscan

        # Batched: the same start twice in one batch, an unknown start,
        # failures reported as None.
        starts = [s for s, _ in recent] + [recent[0][0], UNKNOWN_ID]
        points = np.asarray([p for _, p in recent] + [recent[-1][1], recent[0][1]])
        twice = _reference(reference_greedy_path, overlay, recent[0][0], recent[-1][1])
        assert greedy_paths(overlay, starts, points, on_error="none") == (
            plain_want + [twice, None]
        )
        twice = _reference(
            reference_inscan_path, overlay, tables, recent[0][0], recent[-1][1]
        )
        assert inscan_paths(overlay, tables, starts, points, on_error="none") == (
            inscan_want + [twice, None]
        )
        # Every route that reached a pool is a hit or a miss, exactly
        # once; a repair is a kind of hit.
        known = sum(s in overlay.nodes for s, _ in recent)
        routed = [len(recent) + len(starts), 3 * known + len(starts)]
        for pool, before, routes in zip(pools, tallied, routed):
            assert pool.route_hits + pool.route_misses == before + routes
            assert pool.route_repairs <= pool.route_hits

    @invariant()
    def pools_hold_live_nodes_only(self):
        if not hasattr(self, "overlay"):
            return
        # Through ``_pool_for``, as routing sees the pools: it empties the
        # memo a join or leave since the last route has made stale.  The
        # blocks outlive joins and leaves, so a departed node's must go
        # when it leaves (it would pin the node's pointer table).
        for tables in (None, self.tables):
            pool = _pool_for(self.overlay, tables)
            assert len(pool.routes) <= len(self.overlay)
            assert set(pool.routes) <= set(self.overlay.nodes)
            assert len(pool.index) <= len(self.overlay)
            assert set(pool.index) <= set(self.overlay.nodes)
        # Bounds columns, and every surviving block against a fresh one.
        self.overlay.check_invariants()


TestRouteMemoLockstep = RouteMemoLockstepMachine.TestCase
TestRouteMemoLockstep.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------------
# error parity and edges on a memoised route
# ----------------------------------------------------------------------
@pytest.fixture()
def rig():
    overlay = CANOverlay(DIMS, np.random.default_rng(3))
    overlay.bootstrap(range(60))
    rng = np.random.default_rng(5)
    tables = {n: build_index_table(overlay, n, rng) for n in range(60)}
    return overlay, tables


def _longest_route(overlay, tables):
    """(start, point, path) of a multi-hop route with no perimeter tail,
    left behind as its start's memoised route."""
    rng = np.random.default_rng(9)
    best = None
    for _ in range(200):
        start, point = int(rng.integers(60)), rng.uniform(0.01, 0.99, size=DIMS)
        path = inscan_path(overlay, tables, start, point)
        if best is None or len(path) > len(best[2]):
            best = (start, point, path)
    assert len(best[2]) >= 3
    assert inscan_path(overlay, tables, best[0], best[1]) == best[2]
    return best


def _error_of(fn):
    with pytest.raises(Exception) as caught:
        fn()
    return type(caught.value), str(caught.value)


def test_max_hops_below_a_memoised_route_raises_like_a_fresh_computation(rig):
    overlay, tables = rig
    start, point, path = _longest_route(overlay, tables)
    pool = _pool_for(overlay, tables)
    assert pool.routes[start][1].tolist() == path
    tight = len(path) - 1

    memoised = _error_of(
        lambda: inscan_path(overlay, tables, start, point, max_hops=tight))
    batched = _error_of(
        lambda: inscan_paths(overlay, tables, [start], [point], max_hops=tight))
    overlay._route_pools.clear()  # no memo, no blocks
    fresh = _error_of(
        lambda: inscan_path(overlay, tables, start, point, max_hops=tight))
    assert memoised == fresh == (RoutingError, fresh[1])
    assert batched[0] is RoutingError
    # A budget the route fits is served (from the memo) again.
    assert inscan_path(overlay, tables, start, point, max_hops=len(path)) == path


def test_unknown_start_raises_keyerror_with_and_without_a_memo(rig):
    overlay, tables = rig
    point = np.full(DIMS, 0.3)
    fresh = _error_of(lambda: inscan_path(overlay, tables, UNKNOWN_ID, point))
    inscan_path(overlay, tables, 0, point)
    assert _error_of(lambda: inscan_path(overlay, tables, UNKNOWN_ID, point)) == fresh
    assert fresh[0] is KeyError
    assert inscan_paths(
        overlay, tables, [UNKNOWN_ID, 0], [point, point], on_error="none"
    )[0] is None


def test_a_start_that_left_is_not_answered_from_the_memo(rig):
    overlay, tables = rig
    start, point, path = _longest_route(overlay, tables)
    overlay.leave(start)
    with pytest.raises(KeyError):
        inscan_path(overlay, tables, start, point)


def test_nan_coordinate_never_hits(rig):
    overlay, tables = rig
    zone = overlay.nodes[0].zone
    point = 0.5 * (zone.lo + zone.hi)
    point[1] = np.nan  # the other coordinates sit inside the start zone
    first = inscan_path(overlay, tables, 0, point)
    pool = _pool_for(overlay, tables)
    assert 0 in pool.routes  # the route succeeded and was recorded ...
    for _ in range(3):
        assert inscan_path(overlay, tables, 0, point) == first
        inscan_paths(overlay, tables, [0], [point], on_error="none")
    assert pool.route_hits == 0  # ... but NaN equals nothing, itself included
    assert pool.route_misses == 7


# ----------------------------------------------------------------------
# the hop-by-hop replay: rebuilt blocks are recomputed, nothing else is
# ----------------------------------------------------------------------
@pytest.fixture()
def spy(routing_spy):
    return routing_spy


both_routers = pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])


def _route(batched, overlay, tables, start, point, **kwargs):
    if not batched:
        return inscan_path(overlay, tables, start, point, **kwargs)
    (path,) = inscan_paths(overlay, tables, [start], [point], **kwargs)
    return path


def _entry_points(overlay, tables, with_tables):
    """``(args, single, batched, reference)`` of INSCAN or plain routing."""
    if with_tables:
        return (overlay, tables), inscan_path, inscan_paths, reference_inscan_path
    return (overlay,), greedy_path, greedy_paths, reference_greedy_path


def _tallies(pool):
    return pool.route_hits, pool.route_repairs, pool.route_misses


def _refresh(tables, node_id):
    """Same links, new object: the node's block is no longer current."""
    tables[node_id] = copy.deepcopy(tables[node_id])


def _assert_plain_hit(spy, pool, route, want):
    """``route()`` is served from the memo without computing anything."""
    kernel, (hits, repairs, misses) = spy.kernel, _tallies(pool)
    assert route() == want
    assert spy.kernel == kernel
    assert _tallies(pool) == (hits + 1, repairs, misses)


@both_routers
def test_refreshed_table_on_the_route_costs_one_hop_and_is_a_hit(rig, spy, batched):
    overlay, tables = rig
    start, point, path = _longest_route(overlay, tables)
    pool = _pool_for(overlay, tables)
    route = lambda: _route(batched, overlay, tables, start, point)
    _assert_plain_hit(spy, pool, route, path)

    _refresh(tables, path[1])
    assert reference_inscan_path(overlay, tables, start, point) == path
    spy.kernel, spy.hops[:] = 0, []
    fills, (hits, repairs, misses) = pool.fills, _tallies(pool)
    assert route() == path
    assert (spy.kernel, spy.hops, pool.fills) == (1, [path[1]], fills + 1)
    assert _tallies(pool) == (hits + 1, repairs + 1, misses)
    # The repaired route was stamped with the new fill serial.
    _assert_plain_hit(spy, pool, route, path)

    # Refresh it again and let another route rebuild the block first: the
    # entry is built from the current table once more, but it is newer
    # than the memoised route — recomputed all the same, without a fill.
    _refresh(tables, path[1])
    inscan_path(overlay, tables, path[1], np.full(DIMS, 0.123))
    assert pool.index[path[1]][1] is tables[path[1]]
    spy.kernel, spy.hops[:] = 0, []
    fills, (hits, repairs, misses) = pool.fills, _tallies(pool)
    assert route() == path
    assert (spy.kernel, spy.hops, pool.fills) == (1, [path[1]], fills)
    assert _tallies(pool) == (hits + 1, repairs + 1, misses)
    _assert_plain_hit(spy, pool, route, path)

    # The last node's block was never read: replacing its table is nothing.
    _refresh(tables, path[-1])
    _assert_plain_hit(spy, pool, route, path)


@both_routers
@pytest.mark.parametrize("rebuilt", [2, 3])
def test_several_rebuilt_blocks_on_one_route_cost_one_hop_each(rig, spy, batched, rebuilt):
    overlay, tables = rig
    start, point, path = _longest_route(overlay, tables)
    assert len(path) >= rebuilt + 2
    pool = _pool_for(overlay, tables)
    stale = path[:4:2] if rebuilt == 2 else path[1:4]  # apart, and in a row
    for node_id in stale:
        _refresh(tables, node_id)
    inscan_path(overlay, tables, stale[-1], np.full(DIMS, 0.123))  # one rebuilt already
    spy.kernel, spy.hops[:] = 0, []
    fills, (hits, repairs, misses) = pool.fills, _tallies(pool)
    assert _route(batched, overlay, tables, start, point) == path
    assert path == reference_inscan_path(overlay, tables, start, point)
    assert (spy.kernel, spy.hops, pool.fills) == (rebuilt, stale, fills + rebuilt - 1)
    assert _tallies(pool) == (hits + 1, repairs + 1, misses)  # one route, one repair
    _assert_plain_hit(
        spy, pool, lambda: _route(batched, overlay, tables, start, point), path)


def _refresh_that_changes_the_winner(overlay, tables, min_prefix=3):
    """``(start, point, path, k, table, want)``: a route with no perimeter
    tail, and a fresh pointer table for ``path[k]`` under which the
    reference leaves ``path`` at that node for the route ``want`` —
    with at least ``min_prefix`` nodes before the disagreement."""
    rng = np.random.default_rng(13)
    for _ in range(400):
        start, point = int(rng.integers(60)), rng.uniform(0.01, 0.99, size=DIMS)
        path = reference_inscan_path(overlay, tables, start, point)
        for k in range(min_prefix - 1, len(path) - 2):
            for seed in range(8):
                table = build_index_table(overlay, path[k], np.random.default_rng(seed))
                want = reference_inscan_path(
                    overlay, {**tables, path[k]: table}, start, point)
                if want != path:
                    return start, point, path, k, table, want
    pytest.fail("no refreshed table moved any route")


@pytest.mark.parametrize(
    "width", [None, 1, _NARROW_FRONT + 1], ids=["single", "batched", "wide batch"]
)
def test_refresh_that_changes_the_winner_keeps_the_prefix_and_records_the_new_route(
    rig, spy, width
):
    overlay, tables = rig
    start, point, path, k, table, want = _refresh_that_changes_the_winner(overlay, tables)
    assert want[: k + 1] == path[: k + 1] and want[k + 1] != path[k + 1]
    assert inscan_path(overlay, tables, start, point) == path  # memoised
    tables[path[k]] = table
    _refresh(tables, path[0])  # same winner: verified, then the prefix ends at k
    pool = _pool_for(overlay, tables)
    spy.kernel, spy.hops[:] = 0, []
    hits, repairs, misses = _tallies(pool)
    if width is None:
        assert inscan_path(overlay, tables, start, point) == want
    else:  # the one route `width` times over: the front stays that wide
        assert inscan_paths(overlay, tables, [start] * width, [point] * width) == (
            [want] * width
        )
    assert _tallies(pool) == (hits, repairs, misses + (width or 1))
    recorded = pool.routes[start]
    assert recorded[1].tolist() == want
    hops_after_k = recorded[2] - 1 - k
    if width == _NARROW_FRONT + 1:
        # Two repair hops a route, the start distances at path[k] in one
        # pass, then a kernel call per lockstep round and no scalar hop.
        assert spy.kernel == 2 * width + 1 + hops_after_k
        assert spy.hops == [path[0], path[k]] * width
    else:
        # A one-route batch reads like the single router, which takes its
        # start distance without the kernel.
        assert spy.kernel == 2 + (width or 0) + hops_after_k
        assert spy.hops == [path[0], path[k]] + want[k : recorded[2] - 1]
    _assert_plain_hit(
        spy, pool, lambda: _route(width is not None, overlay, tables, start, point), want)


@pytest.mark.parametrize("with_tables", [False, True], ids=["plain", "inscan"])
def test_memoised_route_outlives_any_number_of_refills_elsewhere(rig, spy, with_tables):
    """Nothing but its own blocks and the epoch can cost a route its
    replay: 300 rebuilt blocks of nodes the route never left are 300
    superseded arrays, freed one by one — the pool has no reset for
    them to trip."""
    overlay, tables = rig
    start, point, _ = _longest_route(overlay, tables)
    args, single, batched, reference = _entry_points(overlay, tables, with_tables)
    path = single(*args, start, point)
    assert len(path) >= 3 and path == reference(*args, start, point)
    pool = _pool_for(overlay, tables if with_tables else None)
    others = sorted(set(overlay.nodes) - set(path[:-1]))
    fills = pool.fills
    for step in range(300):
        node_id = others[step % len(others)]
        if with_tables:
            _refresh(tables, node_id)
        else:
            overlay.nodes[node_id].edge_stamp += 1  # same edges, as a rebind leaves it
        # Outside its zone, and a new point every lap: no replay, a hop.
        far = np.where(overlay.nodes[node_id].zone.center < 0.5, 0.9, 0.1)
        single(*args, node_id, far + step * 1e-4)
    assert pool.fills - fills >= 300
    assert_no_dead_storage(pool, overlay)
    _assert_plain_hit(spy, pool, lambda: single(*args, start, point), path)
    _assert_plain_hit(spy, pool, lambda: batched(*args, [start], [point])[0], path)
    assert path == reference(*args, start, point)
    overlay.check_invariants()


@both_routers
def test_max_hops_below_a_memoised_route_is_not_repaired(rig, spy, batched):
    overlay, tables = rig
    start, point, path = _longest_route(overlay, tables)
    _refresh(tables, path[1])
    tight = len(path) - 1
    pool = _pool_for(overlay, tables)
    tallies = _tallies(pool)
    memoised = _error_of(
        lambda: _route(batched, overlay, tables, start, point, max_hops=tight))
    assert _tallies(pool) == tallies[:2] + (tallies[2] + 1,)
    overlay._route_pools.clear()  # no memo, no blocks
    fresh = _error_of(
        lambda: _route(batched, overlay, tables, start, point, max_hops=tight))
    assert memoised == fresh and fresh[0] is RoutingError
    assert fresh[1].startswith(f"exceeded {tight} hops toward")


@both_routers
def test_no_repair_across_an_epoch_change(rig, spy, batched):
    """A join moves zones under unchanged candidate sets: the memo goes
    with the epoch, a refreshed table on the old route or not."""
    overlay, tables = rig
    start, point, path = _longest_route(overlay, tables)
    pool = _pool_for(overlay, tables)
    _refresh(tables, path[1])
    overlay.join(1000, point)  # the joiner gets the half holding `point`
    tables[1000] = build_index_table(overlay, 1000, np.random.default_rng(2))
    want = reference_inscan_path(overlay, tables, start, point)
    assert want[-1] == 1000 and want != path
    hits, repairs, misses = _tallies(pool)
    assert _route(batched, overlay, tables, start, point) == want
    assert _tallies(pool) == (hits, repairs, misses + 1)
    _assert_plain_hit(
        spy, pool, lambda: _route(batched, overlay, tables, start, point), want)


# ----------------------------------------------------------------------
# blocks that outlive joins and leaves
# ----------------------------------------------------------------------
def _both_routers(overlay, tables, start, point):
    """The route through ``greedy_path`` and through ``greedy_paths``,
    each computed hop by hop (no replay), which must agree."""
    pool = _pool_for(overlay, tables)
    pool.routes.clear()
    single = greedy_path(overlay, start, point, link_tables=tables)
    pool.routes.clear()
    assert greedy_paths(overlay, [start], [point], link_tables=tables) == [single]
    return single


def _trials(rig, n=300):
    """Deep copies of the rig — overlay, tables and a warmed pool — each
    with one random route ``(start, point, path)`` recorded on it."""
    overlay, tables = rig
    rng = np.random.default_rng(21)
    for _ in range(n):
        start, point = int(rng.integers(60)), rng.uniform(0.01, 0.99, size=DIMS)
        trial, trial_tables = copy.deepcopy((overlay, tables))
        yield trial, trial_tables, start, point, _both_routers(
            trial, trial_tables, start, point
        )


def test_departed_long_link_is_skipped_and_is_a_candidate_again_after_rejoining(rig):
    """The holder's block keeps the departed id — its ``+inf`` column loses
    every comparison, as the liveness filter dropped it — and is not
    rebuilt when the link leaves, nor when the same id joins again."""
    for overlay, tables, start, point, path in _trials(rig):
        if len(path) < 2 or path[-1] in overlay.nodes[path[-2]].neighbors:
            continue  # want a route whose last hop is a long link
        holder, link = path[-2:]
        pool = _pool_for(overlay, tables)
        block, stamp = pool.index[holder], overlay.nodes[holder].edge_stamp

        overlay.leave(link)
        del tables[link]
        if overlay.nodes[holder].edge_stamp != stamp:
            continue  # the takeover rewired the holder itself
        fills = pool.fills
        detour = _both_routers(overlay, tables, start, point)
        assert detour == reference_inscan_path(overlay, tables, start, point)
        assert link not in detour and holder in detour
        assert pool.index[holder] is block
        assert pool.fills - fills < len(detour) - 1  # the holder's hop was free
        overlay.check_invariants()

        overlay.join(link, point)  # the joiner gets the half holding `point`
        tables[link] = build_index_table(overlay, link, np.random.default_rng(2))
        if overlay.nodes[holder].edge_stamp != stamp:
            continue
        assert _both_routers(overlay, tables, holder, point) == [holder, link]
        assert reference_inscan_path(overlay, tables, holder, point) == [holder, link]
        assert pool.index[holder] is block
        overlay.check_invariants()
        return
    pytest.fail("no route ended on a long link whose holder the churn spared")


@pytest.mark.parametrize("change", ["join", "leave"])
def test_churn_far_from_a_route_refills_no_block_on_it(rig, change):
    for overlay, tables, start, point, path in _trials(rig):
        if len(path) < 4:
            continue
        stamps = [overlay.nodes[n].edge_stamp for n in path]
        far = 1.0 - point  # the mirrored corner of the space
        if change == "join":
            overlay.join(1000, far)
            tables[1000] = build_index_table(overlay, 1000, np.random.default_rng(2))
        else:
            victim = overlay.owner_of(far)
            if victim in path:
                continue
            overlay.leave(victim)
            del tables[victim]
        if stamps != [overlay.nodes[n].edge_stamp for n in path]:
            continue  # not far enough: an edge of the route's nodes changed
        pool = _pool_for(overlay, tables)
        fills, misses = pool.fills, pool.route_misses
        assert _both_routers(overlay, tables, start, point) == path
        assert reference_inscan_path(overlay, tables, start, point) == path
        # Routed twice hop by hop — the epoch took the memo — on old blocks.
        assert (pool.fills, pool.route_misses) == (fills, misses + 2)
        overlay.check_invariants()
        return
    pytest.fail("every join/leave tried touched the route")


@pytest.mark.parametrize("with_tables", [False, True])
def test_block_without_a_live_candidate_fails_like_the_empty_block(rig, with_tables):
    """Only an inconsistent overlay strands a node; with its neighbors
    cut, a block of departed long links alone (all ``+inf``) must raise
    what the empty block raises, in both routers."""
    overlay, tables = rig
    start, point = 0, 1.0 - overlay.nodes[0].zone.center
    links = set(tables[0].all_links())
    assert links and 0 not in links
    inscan_path(overlay, tables, 0, point)  # block filled while all is well
    for link in links:
        overlay.leave(link)
        del tables[link]
    node = overlay.nodes[0]
    node.neighbors.clear()  # the forged inconsistency
    node.edge_stamp += 1
    args, single, batched, reference = _entry_points(overlay, tables, with_tables)
    for route in (
        lambda: single(*args, start, point),
        lambda: batched(*args, [start], [point]),
        lambda: reference(*args, start, point),
    ):
        with pytest.raises(RoutingError, match="no progress at node 0"):
            route()
    other = max(overlay.nodes)  # one stranded route does not poison a batch
    assert batched(*args, [start, other], [point, point], on_error="none") == [
        None, reference(*args, other, point)
    ]
    pool = _pool_for(overlay, tables if with_tables else None)
    assert len(pool.index[0][0]) == (len(links) if with_tables else 0)


def _one_hop_routes(overlay, count, avoid):
    """``count`` routes ``(start, point, [start, neighbor])`` of one hop
    each, none from or to a node in ``avoid``."""
    routes = []
    for start in sorted(set(overlay.nodes) - avoid):
        nb = min(overlay.nodes[start].neighbors - avoid)
        routes.append((start, overlay.nodes[nb].zone.center, [start, nb]))
    return routes[:count]


@pytest.mark.parametrize(
    "width", [None, 1, _NARROW_FRONT + 1], ids=["single", "batched", "wide batch"]
)
@pytest.mark.parametrize("with_tables", [False, True], ids=["plain", "inscan"])
def test_both_routers_word_a_failure_alike(rig, width, with_tables):
    """Hop budget, no progress, no candidates: the batched router raises
    the scalar router's text, numbers printed as plain Python floats —
    out of a narrow front (its scalar hops) as out of a lockstep round —
    and under ``on_error="none"`` the failed route alone comes back
    ``None``: its batch-mates' paths and memos stand."""
    overlay, tables = rig
    args, single_fn, batched_fn, reference = _entry_points(overlay, tables, with_tables)
    pool = _pool_for(overlay, tables if with_tables else None)
    node = overlay.nodes[0]
    point = 0.5 + 0.2 * (node.zone.center - 0.5)  # outside, on its side of the middle
    pt = tuple(point.tolist())
    dist = {n: _squared_distance(other.zone, pt) ** 0.5 for n, other in overlay.nodes.items()}
    worst = max(dist, key=dist.get)
    assert dist[worst] > dist[0] > 0.0
    far = np.where(node.zone.center < 0.5, 0.99, 0.01)
    assert len(reference(*args, 0, far)) > 3
    mates = _one_hop_routes(overlay, (width or 1) - 1, avoid={0, worst})
    assert len(mates) == (width or 1) - 1
    for mate_start, mate_point, mate_path in mates:
        assert reference(*args, mate_start, mate_point) == mate_path
    starts = [0] + [m[0] for m in mates]

    def failure(target, mates_fail=False, **kwargs):
        """The text route 0 fails with; batched, its mates ride along."""
        if width is None:
            with pytest.raises(RoutingError) as caught:
                single_fn(*args, 0, target, **kwargs)
            return str(caught.value)
        points = [target] + [m[1] for m in mates]
        pool.routes.clear()
        with pytest.raises(RoutingError) as caught:
            batched_fn(*args, starts, points, **kwargs)
        pool.routes.clear()
        stand = [] if mates_fail else mates
        assert batched_fn(*args, starts, points, on_error="none", **kwargs) == (
            [None] * (width - len(stand)) + [m[2] for m in stand]
        )
        assert {s: memo[1].tolist() for s, memo in pool.routes.items()} == (
            {m[0]: m[2] for m in stand}
        )
        return str(caught.value)

    # Budget 1 runs out in the first round, for the one-hop mates too (the
    # first failure of the batch is raised); 3 after they are done, with
    # the failing route alone on the front.
    assert failure(point, mates_fail=True, max_hops=1) == f"exceeded 1 hops toward {pt}"
    assert failure(far, max_hops=3) == f"exceeded 3 hops toward {tuple(far.tolist())}"

    # The forged inconsistency: node 0 knows one node, the farthest one.
    tables.pop(0)
    node.neighbors.clear()
    node.neighbors.add(worst)
    node.edge_stamp += 1
    assert failure(point) == (
        f"no progress at node 0 toward {pt} "
        f"(dist {dist[0]}, best candidate {dist[worst]})"
    )
    node.neighbors.clear()
    node.edge_stamp += 1
    assert failure(point) == (
        f"no progress at node 0 toward {pt} (dist {dist[0]}, no candidates)"
    )


def _takeover_kind(overlay, node_id):
    """What ``overlay.leave(node_id)`` would be, tried on a copy of the tree."""
    plan = copy.deepcopy(overlay.tree).remove(node_id)
    if plan.mover is None:
        return "merge"
    if plan.mover in overlay.nodes[node_id].neighbors:
        return "handoff"
    return "handoff of a stranger"


def test_warm_pools_pass_the_audit_through_every_kind_of_takeover():
    """With a block on file for (nearly) every node — a waste-driven
    reset may drop some — each kind of takeover must leave only blocks
    that are still right looking current.  The rare kind is the one that
    matters: the mover of a handoff swaps its whole neighborhood, and
    unless it was the leaver's neighbor nobody unlinks it."""
    overlay = CANOverlay(DIMS, np.random.default_rng(3))
    overlay.bootstrap(range(100))
    rng = np.random.default_rng(5)
    tables = {n: build_index_table(overlay, n, rng) for n in range(100)}

    def route_from_every_node():
        for node_id, node in overlay.nodes.items():
            far = np.where(node.zone.center < 0.5, 1.0, 0.0)  # outside its zone
            assert greedy_path(overlay, node_id, far) == (
                reference_greedy_path(overlay, node_id, far))
            assert inscan_path(overlay, tables, node_id, far) == (
                reference_inscan_path(overlay, tables, node_id, far))

    for kind in ("handoff of a stranger", "handoff", "merge"):
        route_from_every_node()
        victim = next(
            (n for n in sorted(overlay.nodes) if _takeover_kind(overlay, n) == kind),
            None,
        )
        assert victim is not None, f"this overlay offers no {kind}"
        overlay.leave(victim)
        del tables[victim]
        overlay.check_invariants()
    route_from_every_node()
