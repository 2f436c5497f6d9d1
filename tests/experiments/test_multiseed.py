"""Tests for multi-seed replication and ordering confidence."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.multiseed import (
    SUMMARY_METRICS,
    MetricStats,
    ordering_confidence,
    run_seeds,
)

MICRO = ExperimentConfig(
    n_nodes=30, duration=2500.0, demand_ratio=0.4, protocol="hid-can"
)


@pytest.fixture(scope="module")
def replicas():
    return run_seeds(MICRO, seeds=[1, 2, 3])


def test_run_seeds_produces_one_result_per_seed(replicas):
    assert len(replicas.results) == 3
    # distinct seeds → (almost surely) distinct workloads
    gens = {r.generated for r in replicas.results}
    assert len(gens) >= 2


def test_empty_seed_list_rejected():
    with pytest.raises(ValueError):
        run_seeds(MICRO, seeds=[])


def test_metric_stats_aggregation(replicas):
    stats = replicas.metric("t_ratio")
    assert len(stats.values) == 3
    assert min(stats.values) <= stats.mean <= max(stats.values)
    lo, hi = stats.ci95()
    assert lo <= stats.mean <= hi


def test_unknown_metric_rejected(replicas):
    with pytest.raises(ValueError):
        replicas.metric("latency_p99")


def test_summary_covers_headline_metrics(replicas):
    summary = replicas.summary()
    assert tuple(summary) == SUMMARY_METRICS
    assert "per_node_msg_cost" in summary
    assert summary["per_node_msg_cost"].values == tuple(
        r.per_node_msg_cost for r in replicas.results
    )
    assert replicas.metric("generated").values == tuple(
        float(r.generated) for r in replicas.results
    )


def test_metric_stats_single_value():
    stats = MetricStats("x", (0.5,))
    assert stats.std == 0.0
    assert stats.ci95() == (0.5, 0.5)


def test_ordering_confidence_bounds():
    a = MetricStats("x", (1.0, 2.0))
    b = MetricStats("x", (3.0, 4.0))
    assert ordering_confidence(a, b, "less") == 1.0
    assert ordering_confidence(a, b, "greater") == 0.0
    assert ordering_confidence(MetricStats("x", (2.0, 5.0)), b, "less") == 0.5
    with pytest.raises(ValueError):
        ordering_confidence(a, b, "equal")
