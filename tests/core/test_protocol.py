"""Tests for the PID-CAN protocol assembly and variant factory."""

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
    assert any(len(p) > 0 for p in proto.pilists.values())


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
    before = ctx.sim.pending()
    ctx.sim.run(until=5000.0)
    # chains for dead nodes must have unwound, not kept re-arming
    assert ctx.sim.pending() < before


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
