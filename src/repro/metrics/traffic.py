"""Message delivery cost accounting.

The paper's Table III reports "message delivery cost": the summed number of
messages (state-update, duty-query, index-jump, index-agent, ...) sent or
forwarded **per node** over the simulated day.  Every protocol charges each
hop to its forwarding node through this meter.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["TrafficMeter"]


class TrafficMeter:
    """Counts messages by kind and by sending node."""

    def __init__(self) -> None:
        self.by_kind: defaultdict[str, int] = defaultdict(int)
        self.by_node: defaultdict[int, int] = defaultdict(int)

    def charge(self, kind: str, node_id: int, n: int = 1) -> None:
        if n < 0:
            raise ValueError("cannot charge negative messages")
        self.by_kind[kind] += n
        self.by_node[node_id] += n

    def total(self) -> int:
        return sum(self.by_kind.values())

    def per_node_cost(self, population: int) -> float:
        """Average messages sent/forwarded per node (Table III's metric).

        ``population`` is the number of nodes that participated — the
        caller supplies it since churn makes "number of nodes" a modelling
        choice (we use the peak alive count, matching the paper's fixed-n
        accounting)."""
        if population <= 0:
            raise ValueError("population must be positive")
        return self.total() / population

    def kind_snapshot(self) -> dict[str, int]:
        return dict(sorted(self.by_kind.items()))
