"""Multi-seed replication support.

The paper reports single simulation runs; for a reproduction it is worth
knowing how stable each claim is across random seeds.  This module
aggregates the end-of-run metrics a campaign stored for each seed into
mean / standard deviation / a normal-approximation confidence interval,
plus a pairwise comparison helper that asserts an ordering holds in most
replicas rather than by luck of one seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "MetricStats",
    "SUMMARY_METRICS",
    "ordering_confidence",
    "stats_from_metric_docs",
]

#: The metrics aggregated across seeds and shown by the campaign report,
#: named as in the stored ``metrics`` section (``docs/experiments.md``;
#: caching columns: docs/caching.md).
SUMMARY_METRICS = (
    "t_ratio", "f_ratio", "fairness", "per_node_msg_cost",
    "query_timeouts", "messages_per_query", "cache_hit_ratio",
)


@dataclass(frozen=True, slots=True)
class MetricStats:
    """Aggregate of one scalar metric over seeds."""

    name: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else 0.0

    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval of the mean."""
        half = 1.96 * self.std / np.sqrt(len(self.values))
        return (self.mean - half, self.mean + half)


def stats_from_metric_docs(
    metric_docs: Sequence[Mapping[str, float]],
    names: Sequence[str] = SUMMARY_METRICS,
) -> dict[str, MetricStats]:
    """Aggregate ``metrics`` mappings (one per replica: the stored section
    of a campaign cell) into
    :class:`MetricStats`.  A name missing from any document (one that
    predates the metric) is skipped rather than erroring."""
    if not metric_docs:
        raise ValueError("need at least one metrics document")
    return {
        name: MetricStats(name, tuple(float(doc[name]) for doc in metric_docs))
        for name in names
        if all(name in doc for doc in metric_docs)
    }


def ordering_confidence(
    a: MetricStats, b: MetricStats, direction: str = "less"
) -> float:
    """Fraction of seed pairs in which ``a``'s value is less/greater than
    ``b``'s — a distribution-free check that a claimed ordering is not a
    single-seed accident (1.0 = holds for every pairing)."""
    if direction not in ("less", "greater"):
        raise ValueError("direction must be 'less' or 'greater'")
    pairs = [(x, y) for x in a.values for y in b.values]
    wins = sum((x < y) if direction == "less" else (x > y) for x, y in pairs)
    return wins / len(pairs) if pairs else float("nan")
