"""End-to-end tests for the hot-range caching scenario (docs/caching.md).

Two contracts are pinned here.  First, the opt-in contract: with
``cache_policy=None`` (the default) a run is *bit-identical* to the
pre-cache protocol — :func:`repro.testing.assert_cache_off_equivalent`
checks that from both ends by also swapping the RangeCache-backed PIList
for the verbatim seed scalar.  Second, the cache-on path: the hotrange
grid runs, produces cache metrics, stays deterministic, and the metrics
survive the multi-seed / persistence aggregation seams.
"""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.multiseed import run_seeds, stats_from_metric_docs
from repro.experiments.reporting import summary_table
from repro.experiments.runner import SOCSimulation
from repro.experiments.scenarios import (
    HOTRANGE_POLICIES,
    SCENARIO_CONFIGS,
    SCENARIOS,
    hotrange_configs,
)
from repro.experiments.store import result_to_dict
from repro.testing import assert_cache_off_equivalent


def _cell(**overrides) -> ExperimentConfig:
    params = {
        "protocol": "hid-can",
        "demand_ratio": 0.5,
        "zipf_s": 1.0,
        **overrides,
    }
    return ExperimentConfig(**params)


def _hot(policy, **overrides) -> ExperimentConfig:
    params = {
        "cache_policy": policy,
        "n_nodes": 150,
        "duration": 1500.0,
        "sample_period": 500.0,
        "burst_factor": 4.0,
        **overrides,
    }
    return _cell(**params)


def _run(config: ExperimentConfig):
    return SOCSimulation(config).run()


# ----------------------------------------------------------------------
# cache-off identity (the opt-in contract)
# ----------------------------------------------------------------------
def test_cache_off_identical_at_paper_scale():
    """The acceptance cell: a paper-population (2000 node) HID-CAN run
    with the cache left off is metric- and series-identical whether the
    PIList is the RangeCache TTL policy or the verbatim seed scalar."""
    stock, _ = assert_cache_off_equivalent(
        _cell(n_nodes=2000, duration=1200.0, sample_period=400.0, seed=11)
    )
    assert stock.generated > 0
    assert stock.finished > 0
    assert stock.cache_lookups == 0  # no cache code ran at all


def test_cache_off_identical_under_churn():
    """Churn exercises PIList discard/purge under node death — the
    sequences most likely to betray a divergent eviction order."""
    stock, _ = assert_cache_off_equivalent(
        _cell(
            n_nodes=100,
            duration=4000.0,
            sample_period=1000.0,
            seed=7,
            churn_degree=0.25,
            churn_lifetime=1500.0,
        )
    )
    assert stock.generated > 0


def test_cache_off_identical_with_skew_only():
    """Zipf demand skew alone (no cache) must not disturb the protocol
    either — the workload factory is the only changed draw source."""
    stock, _ = assert_cache_off_equivalent(
        _cell(n_nodes=80, duration=3000.0, sample_period=1000.0, seed=3)
    )
    assert stock.generated > 0


# ----------------------------------------------------------------------
# cache-on behaviour
# ----------------------------------------------------------------------
def test_cache_on_reduces_messages_per_query():
    off = _run(_hot(None))
    lru = _run(_hot("lru"))
    assert lru.cache_lookups > 0
    assert 0.0 < lru.cache_hit_ratio <= 1.0
    assert lru.messages_per_query < off.messages_per_query
    assert off.cache_hit_ratio != off.cache_hit_ratio  # NaN when off


def test_replication_triggers_and_counts():
    repl = _run(_hot("lru", cache_replication=True,
                     replication_threshold=4, replication_window=400.0))
    assert repl.replications > 0
    assert "index-replica" in repl.traffic_by_kind
    assert repl.traffic_by_kind["index-replica"] > 0


def test_cache_on_runs_are_deterministic():
    config = _hot("adaptive", cache_replication=True)
    a, b = _run(config), _run(config)
    assert a.t_ratio == b.t_ratio
    assert a.traffic_by_kind == b.traffic_by_kind
    assert a.cache_hits == b.cache_hits
    assert a.cache_lookups == b.cache_lookups
    assert a.replications == b.replications
    assert a.query_latency == b.query_latency


def test_policies_are_distinct_configs():
    # Tiny caches force evictions; policies must at least be accepted and
    # produce a full metric set each.
    for policy in HOTRANGE_POLICIES:
        res = _run(_hot(policy, cache_size=4, n_nodes=80, duration=900.0,
                        sample_period=300.0))
        assert res.cache_lookups > 0, policy


# ----------------------------------------------------------------------
# scenario grid + metric seams
# ----------------------------------------------------------------------
def test_hotrange_grid_shape():
    grid = hotrange_configs(scale="small", seed=42)
    assert set(grid) == {"off"} | {
        p + suffix for p in HOTRANGE_POLICIES for suffix in ("", "+repl")
    }
    assert grid["off"].cache_policy is None
    for policy in HOTRANGE_POLICIES:
        assert grid[policy].cache_policy == policy
        assert not grid[policy].cache_replication
        assert grid[policy + "+repl"].cache_replication
    for config in grid.values():
        assert config.zipf_s == 1.0
        assert config.protocol == "hid-can"
    assert "hotrange" in SCENARIOS and "hotrange" in SCENARIO_CONFIGS


def test_cache_metrics_survive_store_and_summary():
    res = _run(_hot("lfu", n_nodes=80, duration=900.0, sample_period=300.0))
    doc = result_to_dict(res)["metrics"]
    for key in ("messages_per_query", "cache_hit_ratio", "cache_regret",
                "cache_hits", "cache_lookups", "replications"):
        assert key in doc
    assert doc["cache_hit_ratio"] == res.cache_hit_ratio
    summary = res.summary()
    assert summary["messages_per_query"] == res.messages_per_query
    assert summary["cache_hit_ratio"] == res.cache_hit_ratio
    table = summary_table({"lfu": res})
    assert "msgs/q" in table and "hit%" in table


def test_cache_metrics_survive_multiseed_aggregation():
    config = _hot("ttl", n_nodes=80, duration=900.0, sample_period=300.0)
    multi = run_seeds(config, seeds=(1, 2))
    summary = multi.summary()
    assert len(summary["messages_per_query"].values) == 2
    assert all(v > 0 for v in summary["messages_per_query"].values)
    assert all(0 <= v <= 1 for v in summary["cache_hit_ratio"].values)
    docs = [result_to_dict(r)["metrics"] for r in multi.results]
    stats = stats_from_metric_docs(docs)
    assert stats["messages_per_query"].mean == summary["messages_per_query"].mean
    assert stats["cache_hit_ratio"].mean == summary["cache_hit_ratio"].mean
    # Pre-cache documents lack the new names: they are skipped, not fatal.
    legacy = [{k: v for k, v in doc.items() if not k.startswith("cache")}
              for doc in docs]
    assert "cache_hit_ratio" not in stats_from_metric_docs(legacy)


def test_hotrange_overrides_win():
    grid = hotrange_configs(scale="small", seed=1, n_nodes=64, cache_size=16)
    assert all(c.n_nodes == 64 for c in grid.values())
    assert all(c.cache_size == 16 for c in grid.values())
    assert {c.seed for c in grid.values()} == {1}


def test_cache_off_grid_cell_has_nan_metrics():
    grid = hotrange_configs(scale="small", seed=2)
    off = replace(grid["off"], n_nodes=80, duration=600.0,
                  sample_period=300.0)
    res = _run(off)
    assert res.cache_lookups == 0
    assert res.cache_hit_ratio != res.cache_hit_ratio
    assert res.cache_regret != res.cache_regret
    assert res.messages_per_query == res.query_latency.mean_messages
