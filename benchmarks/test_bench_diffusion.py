"""§III-B analysis benches — Fig. 2 (Theorem 1), Fig. 3 (SID vs HID) and
the ω message-count formula, measured on live overlays."""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.diffusion import DiffusionEngine, diffusion_message_count
from tests.core.helpers import Harness, line_diffusion_rounds


@pytest.mark.benchmark(group="diffusion-analysis")
def test_theorem1_hops(benchmark):
    """Fig. 2: on a line of r nodes with 2^k backward links, the topmost
    node's index reaches everyone within ⌈log2 r⌉ relay hops."""

    def worst_hops():
        out = {}
        for r in (19, 64, 500, 4096):
            out[r] = max(line_diffusion_rounds(r))
        return out

    worst = run_once(benchmark, worst_hops)
    benchmark.extra_info["worst_hops"] = worst
    for r, hops in worst.items():
        assert hops <= int(np.ceil(np.log2(r)))
    # the paper's example: r=19 → "less than O(log(19))=4"
    assert worst[19] <= 4


@pytest.mark.benchmark(group="diffusion-analysis")
def test_omega_message_bound_live(benchmark):
    """Live triggers never exceed ω = L·(L^d−1)/(L−1), and interior nodes
    get close to it."""
    h = Harness(n=256, dims=2, seed=1)
    engine = DiffusionEngine(h.ctx, h.tables, h.pilists, 2, L=2)
    omega = diffusion_message_count(2, 2)

    def run_all():
        counts = []
        for origin in h.overlay.node_ids():
            counts.append(engine.diffuse(origin, "hid").messages)
        return counts

    counts = run_once(benchmark, run_all)
    benchmark.extra_info["omega"] = omega
    benchmark.extra_info["mean_messages"] = float(np.mean(counts))
    assert max(counts) <= omega
    assert float(np.mean(counts)) > 0.5  # edge nodes drag the mean down


@pytest.mark.benchmark(group="diffusion-analysis")
def test_sid_vs_hid_coverage(benchmark):
    """Fig. 3: hopping diffusion (HID) reaches more distinct nodes than
    spreading (SID) for the same message budget, because every relay
    re-randomizes from its own pointer table."""
    h = Harness(n=512, dims=2, seed=2)
    engine = DiffusionEngine(h.ctx, h.tables, h.pilists, 2, L=2)
    interior = [
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.5)
    ]

    def coverage():
        hid, sid = set(), set()
        hid_msgs = sid_msgs = 0
        for origin in interior:
            for _ in range(8):
                r = engine.diffuse(origin, "hid")
                hid |= r.recipients
                hid_msgs += r.messages
                r = engine.diffuse(origin, "sid")
                sid |= r.recipients
                sid_msgs += r.messages
        return len(hid), len(sid), hid_msgs, sid_msgs

    hid_cover, sid_cover, hid_msgs, sid_msgs = run_once(benchmark, coverage)
    benchmark.extra_info["hid_distinct_recipients"] = hid_cover
    benchmark.extra_info["sid_distinct_recipients"] = sid_cover
    assert hid_cover > sid_cover
    # same budget: message counts within 25% of each other
    assert hid_msgs == pytest.approx(sid_msgs, rel=0.25)


@pytest.mark.benchmark(group="diffusion-micro")
def test_diffuse_throughput(benchmark):
    """Microbenchmark: cost of one HID trigger on a 256-node overlay."""
    h = Harness(n=256, dims=5, seed=3)
    engine = DiffusionEngine(h.ctx, h.tables, h.pilists, 5, L=2)
    interior = next(
        n.node_id for n in h.overlay.nodes.values() if np.all(n.zone.lo > 0.2)
    )
    result = benchmark(engine.diffuse, interior, "hid")
    # Median / messages = host cost of one relayed index message.
    benchmark.extra_info["messages_per_trigger"] = result.messages
