"""Tests for proactive index diffusion (Algorithms 1-2, Theorem 1)."""

import numpy as np
import pytest

from repro.core.diffusion import (
    DiffusionEngine,
    binary_hop_decomposition,
    diffusion_message_count,
    line_diffusion_rounds,
)
from repro.testing import (
    ReferenceDiffusionEngine, ReferencePIList, _diffusion_rig,
)
from tests.conftest import make_overlay
from tests.core.helpers import Harness


# ----------------------------------------------------------------------
# closed-form analysis
# ----------------------------------------------------------------------
def test_message_count_paper_example():
    # §III-B: "if L = 2 and d = 3, the total number of messages is only 14"
    assert diffusion_message_count(2, 3) == 14


@pytest.mark.parametrize(
    "L,d", [(1, 1), (1, 5), (2, 1), (2, 5), (3, 3), (4, 2)]
)
def test_message_count_matches_sum(L, d):
    assert diffusion_message_count(L, d) == sum(L**j for j in range(1, d + 1))


def test_message_count_validation():
    with pytest.raises(ValueError):
        diffusion_message_count(0, 3)


def test_binary_hop_decomposition_paper_example():
    # Theorem 1's proof: (13)₁₀ = (1101)₂ → 13 = 2³ + 2² + 2⁰, h = 3.
    assert binary_hop_decomposition(13) == [8, 4, 1]


@pytest.mark.parametrize("distance", [1, 2, 3, 7, 16, 100, 255, 1024])
def test_binary_hop_decomposition_properties(distance):
    powers = binary_hop_decomposition(distance)
    assert sum(powers) == distance
    assert len(powers) <= int(np.floor(np.log2(distance))) + 1  # Theorem 1
    assert all(p & (p - 1) == 0 for p in powers)  # each term a power of 2


def test_line_diffusion_rounds_theorem1():
    # Fig. 2: r = 19 nodes on a line → every node reached within
    # ⌈log2 r⌉ hops of relay.
    rounds = line_diffusion_rounds(19)
    assert len(rounds) == 19
    assert max(rounds) <= int(np.ceil(np.log2(19)))
    assert rounds[0] == 0  # the origin itself
    assert rounds[1] == 1  # direct 2^0 link
    assert rounds[13] == 3  # 13 = 8+4+1


@pytest.mark.parametrize("r", [1, 2, 5, 16, 100, 1000])
def test_line_diffusion_log_bound(r):
    assert max(line_diffusion_rounds(r)) <= max(1, int(np.ceil(np.log2(max(r, 2)))))


# ----------------------------------------------------------------------
# live engine on an overlay
# ----------------------------------------------------------------------
def make_engine(h: Harness, L=2):
    return DiffusionEngine(h.ctx, h.tables, h.pilists, h.overlay.dims, L)


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_diffusion_respects_message_budget(method):
    h = Harness(n=64, dims=2, seed=1)
    engine = make_engine(h, L=2)
    omega = diffusion_message_count(2, 2)
    for origin in h.overlay.node_ids()[:20]:
        result = engine.diffuse(origin, method)
        assert result.messages <= omega


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_recipients_get_pilist_entries(method):
    h = Harness(n=64, dims=2, seed=2)
    engine = make_engine(h)
    # pick an interior origin so backward chains exist
    origin = next(
        n.node_id
        for n in h.overlay.nodes.values()
        if np.all(n.zone.lo > 0.2)
    )
    result = engine.diffuse(origin, method)
    assert result.messages > 0
    landed = [i for i, p in h.pilists.items() if origin in p]
    assert landed
    assert set(landed) <= result.recipients


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_recipients_are_negative_direction_nodes(method):
    from repro.can.zone import is_negative_direction_of

    h = Harness(n=64, dims=2, seed=3)
    engine = make_engine(h)
    origin = next(
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    result = engine.diffuse(origin, method)
    origin_zone = h.overlay.nodes[origin].zone
    for r in result.recipients:
        if r == origin:
            continue
        assert is_negative_direction_of(h.overlay.nodes[r].zone, origin_zone)


def test_hid_spreads_wider_than_sid():
    """Fig. 3's claim: hopping diffusion covers more distinct nodes than
    spreading, because relays re-select from their own tables."""
    h = Harness(n=256, dims=2, seed=4)
    engine = make_engine(h)
    rng = np.random.default_rng(5)
    interior = [
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.5)
    ]
    hid_cover, sid_cover = set(), set()
    for origin in interior:
        for _ in range(10):
            hid_cover |= engine.diffuse(origin, "hid").recipients
            sid_cover |= engine.diffuse(origin, "sid").recipients
    assert len(hid_cover) > len(sid_cover)


def test_hid_relay_depth_is_logarithmic():
    h = Harness(n=256, dims=2, seed=6)
    engine = make_engine(h)
    max_depth = 0
    for origin in h.overlay.node_ids():
        result = engine.diffuse(origin, "hid")
        max_depth = max(max_depth, result.max_depth)
    # depth ≤ d·L with the TTL discipline (L=2, d=2 → 4)
    assert max_depth <= 2 * 2


def test_dead_ninodes_skipped():
    h = Harness(n=32, dims=2, seed=7)
    engine = make_engine(h)
    origin = next(
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    # kill everything except the origin: no recipients, no crash
    for other in h.overlay.node_ids():
        if other != origin:
            h.kill(other)
    result = engine.diffuse(origin, "hid")
    assert result.messages == 0
    assert result.recipients <= {origin}


def test_unknown_method_rejected():
    h = Harness(n=8, dims=2, seed=8)
    engine = make_engine(h)
    with pytest.raises(ValueError):
        engine.diffuse(0, "flooding")


def test_traffic_charged_per_message():
    h = Harness(n=64, dims=2, seed=9)
    engine = make_engine(h)
    origin = next(
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    result = engine.diffuse(origin, "hid")
    assert h.traffic.by_kind["index-diffusion"] == result.messages


# ----------------------------------------------------------------------
# loop-form HID + bulk charging == the recursive per-message oracle
# ----------------------------------------------------------------------
def _twin_rigs(n, dims, seed, dead):
    """The production engine and the recursive oracle (over scalar
    ``ReferencePIList``s) on one overlay, identically seeded."""
    overlay = make_overlay(n, dims, seed=seed)
    new, _ = _diffusion_rig(overlay, DiffusionEngine, seed, dead)
    ref, _ = _diffusion_rig(overlay, ReferenceDiffusionEngine, seed, dead)
    ref.pilists = {i: ReferencePIList(1200.0) for i in ref.pilists}
    return overlay, new, ref


def _assert_trigger_identical(new, ref, origin, method):
    got = new.diffuse(origin, method)
    want = ref.diffuse(origin, method)
    assert (got.messages, got.max_depth, got.recipients) == (
        want.messages, want.max_depth, want.recipients
    )
    # Byte-identical meter: same keys (none invented), same counts, one
    # by_node increment per sending relay.
    assert dict(new.ctx.traffic.by_kind) == dict(ref.ctx.traffic.by_kind)
    assert dict(new.ctx.traffic.by_node) == dict(ref.ctx.traffic.by_node)
    assert list(new.ctx.traffic.by_node) == list(ref.ctx.traffic.by_node)
    now = new.ctx.sim.now
    for node in new.pilists:
        assert new.pilists[node].entries(now) == ref.pilists[node].entries(now)
    assert (
        new.ctx.rng.bit_generator.state == ref.ctx.rng.bit_generator.state
    )
    return got


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_trigger_matches_recursive_oracle_live_and_half_dead(method):
    for dead_share in (0.0, 0.5):
        dead: set[int] = set()
        overlay, new, ref = _twin_rigs(96, 3, seed=21, dead=dead)
        ids = sorted(overlay.nodes)
        dead.update(ids[:: 2] if dead_share else ())
        sent = 0
        for origin in ids:
            if origin not in dead:
                sent += _assert_trigger_identical(new, ref, origin, method).messages
        assert sent > 0
        assert new.ctx.traffic.by_kind["index-diffusion"] == sent


@pytest.mark.parametrize("method", ["hid", "sid"])
def test_trigger_without_any_ninode_creates_no_traffic_key(method):
    # Edge: the low-corner node has no negative pointer in any dimension.
    overlay, new, ref = _twin_rigs(32, 2, seed=5, dead=set())
    corner = next(
        n.node_id for n in overlay.nodes.values() if not n.zone.lo.any()
    )
    result = _assert_trigger_identical(new, ref, corner, method)
    assert result.messages == 0 and result.max_depth == 0
    assert "index-diffusion" not in new.ctx.traffic.by_kind
    assert not new.ctx.traffic.by_node

    # Every pool dead: same, from a node that does have pointers.
    dead: set[int] = set()
    overlay, new, ref = _twin_rigs(32, 2, seed=5, dead=dead)
    origin = next(
        n.node_id for n in overlay.nodes.values() if np.all(n.zone.lo > 0.4)
    )
    dead.update(set(overlay.nodes) - {origin})
    result = _assert_trigger_identical(new, ref, origin, method)
    assert result.messages == 0 and not result.recipients
    assert "index-diffusion" not in new.ctx.traffic.by_kind
