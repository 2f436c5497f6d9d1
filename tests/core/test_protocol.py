"""Tests for the PID-CAN protocol assembly and variant factory."""

from types import MethodType

import numpy as np
import pytest

from repro.core.context import ProtocolContext
from repro.core.protocol import (
    PIDCANParams,
    PIDCANProtocol,
    PROTOCOL_NAMES,
    make_protocol,
)
from repro.metrics.traffic import TrafficMeter
from repro.sim.engine import Simulator
from repro.sim.network import NetworkModel, NetworkParams
from tests.conftest import live_events


def make_ctx(n=24, dims=5, seed=0):
    sim = Simulator()
    network = NetworkModel(NetworkParams(), np.random.default_rng(seed))
    for i in range(n):
        network.add_node(i)
    alive = set(range(n))
    avail = {i: np.full(dims, 5.0) for i in range(n)}
    ctx = ProtocolContext(
        sim=sim,
        network=network,
        traffic=TrafficMeter(),
        rng=np.random.default_rng(seed + 1),
        cmax=np.full(dims, 10.0),
        availability_of=lambda i: avail[i],
        is_alive=lambda i: i in alive,
    )
    return ctx, alive, avail


def test_normalize_is_np_clip_of_the_quotient():
    """NaN, infinities, subnormals and out-of-range values come out as
    ``np.clip`` returns them (a negative zero may lose its sign: it
    compares and hashes equal, and no resource vector carries one)."""
    ctx, _, _ = make_ctx()
    rng = np.random.default_rng(4)
    specials = [np.nan, -np.inf, np.inf, -0.0, 0.0, -1.0, 1e-320, 10.0, 10.000000000000002, 300.0]
    vectors = [rng.choice(specials, size=5) for _ in range(200)]
    vectors += list(rng.uniform(-5.0, 15.0, size=(200, 5)))
    vectors.append([1, 2, 3, 4, 50])  # a plain sequence of ints
    for vector in vectors:
        want = np.clip(np.asarray(vector, dtype=np.float64) / ctx.cmax, 0.0, 1.0)
        before = np.array(vector)
        got = ctx.normalize(vector)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(vector, before)  # clamped in the quotient
        assert got.dtype == np.float64


@pytest.mark.parametrize("name,activities", [
    ("hid-can", 3), ("khdn-can", 1), ("newscast", 1), ("mercury", 1),
])
def test_periodic_chains_are_heap_entries_without_closures(name, activities):
    """With continuous phases every node's periodic activity is one heap
    entry whose callback is the context's shared re-arm method and whose
    args carry the node id: the tick and liveness callables are shared
    by all nodes, never a closure, ``partial`` or lambda per node."""
    ctx, alive, _ = make_ctx()
    proto = make_protocol(name, ctx, PIDCANParams())
    proto.bootstrap(sorted(alive))
    chains = [args for _, _, fn, args in ctx.sim._heap if fn == ctx._chain]
    assert len(chains) == activities * len(alive)
    assert all(fn is ctx._chain for _, _, fn, _ in ctx.sim._heap if fn == ctx._chain)
    assert all(isinstance(tick, MethodType) for _, tick, _, _ in chains)
    assert sorted(args[2] for args in chains) == sorted(list(alive) * activities)
    assert len({(tick, is_live) for _, tick, _, is_live in chains}) == activities
    ctx.sim.run(until=2 * PIDCANParams().table_refresh_period)
    rearmed = [args for _, _, fn, args in ctx.sim._heap if fn is ctx._chain]
    assert len(rearmed) == activities * len(alive)


@pytest.mark.parametrize("period", [0.0, -5.0, float("nan")])
def test_start_periodic_refuses_a_non_positive_period(period):
    from repro.sim.engine import SimulationError

    ctx, _, _ = make_ctx()
    with pytest.raises(SimulationError):
        ctx.start_periodic(period, print, 0, ctx.is_alive)


def test_bootstrap_creates_per_node_state():
    ctx, alive, _ = make_ctx()
    proto = PIDCANProtocol(ctx, PIDCANParams())
    proto.bootstrap(sorted(alive))
    assert len(proto.overlay) == 24
    assert set(proto.caches) == alive
    assert set(proto.pilists) == alive
    assert set(proto.tables) == alive
    proto.overlay.check_invariants()


def test_state_updates_populate_duty_caches():
    ctx, alive, avail = make_ctx()
    proto = PIDCANProtocol(ctx, PIDCANParams())
    proto.bootstrap(sorted(alive))
    ctx.sim.run(until=900.0)  # two state cycles
    total_records = sum(len(c) for c in proto.caches.values())
    assert total_records >= len(alive) * 0.8  # nearly every node reported
    assert ctx.traffic.by_kind["state-update"] > 0


def test_diffusion_fills_pilists_over_time():
    ctx, alive, _ = make_ctx()
    proto = PIDCANProtocol(ctx, PIDCANParams())
    proto.bootstrap(sorted(alive))
    ctx.sim.run(until=1800.0)
    assert ctx.traffic.by_kind.get("index-diffusion", 0) > 0
    assert any(p.entries(ctx.sim.now) for p in proto.pilists.values())


def test_on_leave_cleans_up():
    ctx, alive, _ = make_ctx()
    proto = PIDCANProtocol(ctx, PIDCANParams())
    proto.bootstrap(sorted(alive))
    proto.on_leave(3)
    alive.discard(3)
    assert 3 not in proto.caches
    assert 3 not in proto.pilists
    assert 3 not in proto.overlay
    proto.overlay.check_invariants()


def test_on_join_arms_new_node():
    ctx, alive, avail = make_ctx()
    proto = PIDCANProtocol(ctx, PIDCANParams())
    proto.bootstrap(sorted(alive))
    avail[99] = np.full(5, 5.0)
    alive.add(99)
    proto.on_join(99)
    assert 99 in proto.overlay
    assert 99 in proto.caches
    proto.overlay.check_invariants()


def test_periodic_chains_stop_for_dead_nodes():
    ctx, alive, _ = make_ctx(n=8)
    proto = PIDCANProtocol(ctx, PIDCANParams())
    proto.bootstrap(sorted(alive))
    ctx.sim.run(until=500.0)
    for node in list(alive):
        if node != 0:
            proto.on_leave(node)
            alive.discard(node)
    before = live_events(ctx.sim)
    ctx.sim.run(until=5000.0)
    # chains for dead nodes must have unwound, not kept re-arming
    assert live_events(ctx.sim) < before


def test_disarm_drops_the_node_from_every_cohort_timer_and_its_straggler():
    """With quantized phases a node sits in one cohort timer per activity,
    and a churn newcomer waits for its first tick as a pending straggler.
    A leave discards the node from every timer of the protocol — there is
    no per-node membership list — and cancels that straggler."""
    ctx, alive, avail = make_ctx()
    proto = PIDCANProtocol(ctx, PIDCANParams(phase_buckets=4))
    proto.bootstrap(sorted(alive))
    assert not hasattr(proto, "_memberships")
    kinds = len(proto._periodic_kinds())
    assert len(proto._cohorts) <= kinds * 4

    def timers_of(node_id):
        return [
            t for t in proto._cohorts.values()
            if node_id in t._members or node_id in t._pending
        ]

    ctx.sim.run(until=100.0)
    avail[99] = np.full(5, 5.0)
    alive.add(99)
    proto.on_join(99)
    stragglers = [t._pending[99] for t in timers_of(99) if 99 in t._pending]
    assert len(timers_of(99)) == kinds and stragglers
    assert len(timers_of(3)) == kinds
    for node_id in (99, 3):
        proto.on_leave(node_id)
        alive.discard(node_id)
        assert timers_of(node_id) == []
    assert all(event.cancelled for event in stragglers)
    ctx.sim.run(until=2 * PIDCANParams().table_refresh_period)
    assert timers_of(99) == timers_of(3) == []


def test_vd_adds_overlay_dimension():
    params = PIDCANParams(vd=True, resource_dims=5)
    assert params.overlay_dims == 6
    ctx, alive, _ = make_ctx(dims=5)
    proto = PIDCANProtocol(ctx, params)
    proto.bootstrap(sorted(alive))
    assert proto.overlay.dims == 6
    ctx.sim.run(until=500.0)  # state updates route in the padded space
    assert ctx.traffic.by_kind["state-update"] > 0


@pytest.mark.parametrize(
    "name,expect_cls",
    [
        ("hid-can", "hid-can"),
        ("sid-can", "sid-can"),
        ("hid-can+sos", "hid-can+sos"),
        ("sid-can+sos", "sid-can+sos"),
        ("sid-can+vd", "sid-can+vd"),
        ("hid-can+vd", "hid-can+vd"),
    ],
)
def test_factory_builds_pidcan_variants(name, expect_cls):
    ctx, alive, _ = make_ctx()
    proto = make_protocol(name, ctx)
    assert proto.name == expect_cls
    assert isinstance(proto, PIDCANProtocol)
    if "+sos" in name:
        assert proto.params.sos
    if "+vd" in name:
        assert proto.params.vd


@pytest.mark.parametrize("name", ["newscast", "khdn-can", "randomwalk-can"])
def test_factory_builds_baselines(name):
    ctx, alive, _ = make_ctx()
    proto = make_protocol(name, ctx)
    assert proto.name == name


def test_factory_rejects_unknown():
    ctx, _, _ = make_ctx()
    with pytest.raises(ValueError, match="unknown protocol"):
        make_protocol("chord", ctx)


def test_protocol_names_all_constructible():
    for name in PROTOCOL_NAMES:
        ctx, _, _ = make_ctx()
        make_protocol(name, ctx)


@pytest.mark.parametrize("vd", [False, True])
def test_scalar_actions_match_batched_rounds(vd):
    """``phase_buckets`` picks between the scalar per-node actions and the
    batched cohort rounds; both must send the same messages, make the
    same RNG draws and leave the same protocol state."""

    def run(batched):
        ctx, alive, avail = make_ctx(n=24)
        for i in alive:
            avail[i] = np.random.default_rng(100 + i).uniform(1.0, 9.0, size=5)
        proto = PIDCANProtocol(ctx, PIDCANParams(vd=vd, phase_buckets=16))
        proto.bootstrap(sorted(alive))
        members = sorted(alive)
        for round_fn, action in (
            (proto._state_round, proto._state_update),
            (proto._diffusion_round, proto._diffusion_tick),
            (proto._table_round, proto._table_tick),
        ):
            if batched:
                round_fn(members)
            else:
                for node_id in members:
                    action(node_id)
            ctx.sim.run(until=ctx.sim.now + 50.0)  # land the deliveries
        caches = {
            duty: sorted(
                (r.owner, r.timestamp, r.availability.tolist())
                for r in cache.records(ctx.sim.now)
            )
            for duty, cache in proto.caches.items()
        }
        pilists = {n: p.entries(ctx.sim.now) for n, p in proto.pilists.items()}
        return (
            ctx.traffic.kind_snapshot(), dict(ctx.traffic.by_node), caches,
            pilists, ctx.sim.events_processed, ctx.rng.uniform(),
        )

    scalar, batched = run(False), run(True)
    assert scalar[0]["state-update"] > 0 and scalar[0]["index-diffusion"] > 0
    assert scalar == batched


@pytest.mark.parametrize("name", ["hid-can", "khdn-can", "inscan-rq"])
def test_a_route_from_a_node_outside_the_overlay_is_dropped(name):
    """``inscan_path`` raises ``KeyError`` for a start the overlay does
    not hold (and ``RoutingError`` for a route that cannot progress).  A
    state update from such a node sends nothing and waits for its next
    cycle, a query from it resolves at once, empty, and an INSCAN-RQ
    flood at such a duty node leaves the query to its failsafe."""
    ctx, _, _ = make_ctx()
    proto = make_protocol(name, ctx)
    proto.bootstrap(list(range(24)))
    proto.overlay.leave(5)  # still alive to ctx: membership and overlay disagree
    before = ctx.traffic.total()
    proto._state_update(5)
    assert ctx.traffic.total() == before
    results = []
    proto.submit_query(np.full(5, 1.0), 5, lambda records, messages: results.append(records))
    assert results == [[]]
    if name == "inscan-rq":
        rt = proto.lifecycle.begin(np.full(5, 1.0), 0, lambda r, m: results.append(r))
        proto._on_duty(rt.qid, 5)
        ctx.sim.run(until=2 * proto.params.query_timeout)
        assert results == [[], []] and proto.lifecycle.timeouts == 1
