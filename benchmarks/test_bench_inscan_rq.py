"""§III-A claims for INSCAN-RQ and INSCAN routing.

- INSCAN lookup delay is O(log2 n) hops (vs O(n^(1/d)) plain CAN);
- the flooding range query returns complete results with traffic
  log2(n) + N − 1, which blows up as the query range widens — the paper's
  motivation for PID-CAN's single-message constraint.
"""

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.baselines.inscan_rq import INSCANRangeQuery
from repro.can.inscan import inscan_path
from tests.core.helpers import Harness


@pytest.mark.benchmark(group="inscan-rq")
def test_inscan_routing_log_bound(benchmark):
    """Lookup hop counts across population sizes: 8× nodes must cost only
    additive extra hops (logarithmic), not multiplicative (polynomial)."""

    def sweep():
        rng = np.random.default_rng(0)
        means = {}
        for n in (64, 512):
            h = Harness(n=n, dims=2, seed=5)
            hops = []
            for _ in range(200):
                start = int(rng.integers(n))
                p = rng.uniform(0, 1, 2)
                hops.append(len(inscan_path(h.overlay, h.tables, start, p)) - 1)
            means[n] = float(np.mean(hops))
        return means

    means = run_once(benchmark, sweep)
    benchmark.extra_info["mean_hops"] = means
    assert means[512] - means[64] < 4.0  # additive growth ⇒ logarithmic
    # delay bound: mean stays under 2·log2(n)
    for n, mean in means.items():
        assert mean <= 2 * np.log2(n)


@pytest.mark.benchmark(group="inscan-rq")
def test_flooding_traffic_grows_with_range(benchmark):
    """Fig.-1-style motivation: a query for CPU ≥ half the space makes
    ~half the network respond; PID-CAN's per-query traffic stays flat."""

    def sweep():
        h = Harness(n=256, dims=2, seed=6)
        rng = np.random.default_rng(7)
        # one record per node so the flood has something to collect
        for owner in h.overlay.node_ids():
            avail = rng.uniform(0, 1, 2)
            h.plant_record(h.duty_of(avail), 1000 + owner, avail)
        rq = INSCANRangeQuery(h.overlay, h.tables, h.caches)
        out = {}
        for corner in (0.9, 0.7, 0.5, 0.3, 0.1):
            demand = np.array([corner, corner])
            res = rq.query(0, demand, demand, now=0.0)
            out[corner] = (res.messages, res.responsible_nodes, len(res.records))
        return out

    out = run_once(benchmark, sweep)
    benchmark.extra_info["range_sweep"] = {
        str(k): {"messages": v[0], "responsible": v[1], "records": v[2]}
        for k, v in out.items()
    }
    messages = [out[c][0] for c in (0.9, 0.7, 0.5, 0.3, 0.1)]
    assert messages == sorted(messages)  # wider range ⇒ more traffic
    # the widest query floods the better part of the network
    assert out[0.1][1] > 256 * 0.5
    # completeness at every width: responsible region ⊇ records found
    for c, (msgs, responsible, found) in out.items():
        assert msgs >= responsible - 1


@pytest.mark.benchmark(group="inscan-rq")
def test_flood_delay_bound(benchmark):
    """§III-A: query delay upper bound 2·log2 n (route + flood depth)."""

    def depths():
        h = Harness(n=256, dims=2, seed=8)
        rq = INSCANRangeQuery(h.overlay, h.tables, h.caches)
        out = []
        rng = np.random.default_rng(9)
        for _ in range(25):
            corner = rng.uniform(0.2, 0.9)
            demand = np.array([corner, corner])
            res = rq.query(0, demand, demand, now=0.0)
            out.append(res.route_hops + res.flood_depth)
        return out

    delays = run_once(benchmark, depths)
    benchmark.extra_info["max_delay_hops"] = max(delays)
    # soft form of the 2·log2(n) claim (constants differ off the torus)
    assert max(delays) <= 4 * np.log2(256)
