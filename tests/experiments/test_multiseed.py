"""Tests for multi-seed aggregation and ordering confidence."""

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.multiseed import (
    SUMMARY_METRICS,
    MetricStats,
    ordering_confidence,
    stats_from_metric_docs,
)
from repro.experiments.runner import SOCSimulation
from repro.experiments.store import result_to_dict

MICRO = ExperimentConfig(
    n_nodes=30, duration=2500.0, demand_ratio=0.4, protocol="hid-can"
)


@pytest.fixture(scope="module")
def replicas():
    """The stored ``metrics`` section of three seeds of one cell, as a
    campaign report reads them."""
    return [
        result_to_dict(SOCSimulation(replace(MICRO, seed=seed)).run())["metrics"]
        for seed in (1, 2, 3)
    ]


def test_run_seeds_produces_one_result_per_seed(replicas):
    stats = stats_from_metric_docs(replicas, ("generated",))["generated"]
    assert stats.values == tuple(float(doc["generated"]) for doc in replicas)
    # distinct seeds -> (almost surely) distinct workloads
    assert len(set(stats.values)) >= 2


def test_empty_seed_list_rejected():
    with pytest.raises(ValueError):
        stats_from_metric_docs([])


def test_metric_stats_aggregation(replicas):
    stats = stats_from_metric_docs(replicas)["t_ratio"]
    assert len(stats.values) == 3
    assert min(stats.values) <= stats.mean <= max(stats.values)
    lo, hi = stats.ci95()
    assert lo <= stats.mean <= hi


def test_unknown_metric_rejected(replicas):
    """A name no stored document carries is left out, not aggregated as
    zeros (documents that predate a metric lack its key)."""
    assert stats_from_metric_docs(replicas, ("latency_p99", "t_ratio")).keys() == {"t_ratio"}


def test_summary_covers_headline_metrics(replicas):
    summary = stats_from_metric_docs(replicas)
    assert tuple(summary) == SUMMARY_METRICS
    assert summary["per_node_msg_cost"].values == tuple(
        doc["per_node_msg_cost"] for doc in replicas
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
